import json
import math
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from latzeta import boundary, ruelle
from latzeta.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestArithCommand:
    def test_first_row_r2(self, capsys):
        code, out, _ = run_cli(["arith", "--nu", "2", "--max", "10"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 10
        assert doc["rows"][0] == {"n": 1, "r": 4, "r_primitive": 4, "M_x1": 4.0}
        assert doc["rows"][3] == {"n": 4, "r": 4, "r_primitive": 0, "M_x1": 2.0}

    def test_rows_match_shell_enumeration(self, capsys):
        from latzeta.arith import M_value, r_count, r_primitive

        code, out, _ = run_cli(["arith", "--nu", "3", "--max", "20"], capsys)
        assert code == 0
        for row in json.loads(out)["rows"]:
            n = row["n"]
            assert row["r"] == r_count(3, n)
            assert row["r_primitive"] == r_primitive(3, n, None).real
            assert row["M_x1"] == pytest.approx(M_value(3, n, None, 1.0).real, rel=1e-12)

    def test_nu8_at_scale(self, capsys):
        code, out, _ = run_cli(["arith", "--nu", "8", "--max", "100", "--check-closed"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["r"] == 16
        assert doc["rows"][99]["r"] == doc["rows"][99]["r_closed"]

    def test_single_row_nu6(self, capsys):
        code, out, _ = run_cli(["arith", "--nu", "6", "--max", "1"], capsys)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 1

    def test_check_closed_passes(self, capsys):
        code, _, _ = run_cli(["arith", "--nu", "4", "--max", "100", "--check-closed"], capsys)
        assert code == 0

    def test_bad_args(self, capsys):
        code, _, _ = run_cli(["arith", "--nu", "0", "--max", "5"], capsys)
        assert code == 2


class TestLfunCommand:
    def test_all_routes_one_dim(self, capsys):
        code, out, _ = run_cli(
            ["lfun", "--nu", "1", "--s", "1", "--alpha", "0", "--route", "all"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        want = -2 * math.log(1 - math.exp(-1))
        for route in ("euler", "mobius", "series"):
            assert abs(doc["log_L"][route]["re"] - want) < 1e-8
        assert all(d < 1e-8 for d in doc["route_deltas"].values())

    def test_complex_s(self, capsys):
        code, out, _ = run_cli(["lfun", "--nu", "2", "--s", "1.5+0.5i"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["log_L"]["series"]["im"] != 0.0

    def test_single_route(self, capsys):
        code, out, _ = run_cli(["lfun", "--nu", "1", "--s", "2", "--route", "series"], capsys)
        assert code == 0
        assert list(json.loads(out)["log_L"]) == ["series"]

    @pytest.mark.parametrize("route", ["euler", "mobius", "series"])
    def test_single_route_computes_only_that_route(self, capsys, monkeypatch, route):
        argv = ["lfun", "--nu", "2", "--s", "0.9+0.2i", "--alpha", "1/3,1/4"]
        code, out, _ = run_cli(argv + ["--route", "all"], capsys)
        assert code == 0
        want = json.loads(out)["log_L"][route]

        def refuse(*args):
            raise AssertionError("a route that is not printed was computed")

        for other in {"euler", "mobius", "series"} - {route}:
            monkeypatch.setattr(ruelle, f"_log_L_{other}", refuse)
        code, out, _ = run_cli(argv + ["--route", route], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["log_L"] == {route: want} and doc["route_deltas"] == {}

    def test_nonpositive_s_exits_2(self, capsys):
        code, _, _ = run_cli(["lfun", "--nu", "1", "--s", "-1"], capsys)
        assert code == 2


class TestBoundaryCommand:
    def test_verdict_true(self, capsys):
        code, out, _ = run_cli(["boundary", "--nu", "2", "--m", "1", "--n", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        jsonschema.validate(doc, boundary.certificate_schema())

    def test_unsupported_dimension_exits_3(self, capsys):
        code, _, err = run_cli(["boundary", "--nu", "6", "--m", "1", "--n", "1"], capsys)
        assert code == 3

    def test_large_prime_factor_needs_no_limit(self, capsys):
        # the exact G factors stop at p = 3 whatever the primes of m*n
        for nu, m in (("2", "101"), ("8", "2003")):
            code, out, _ = run_cli(["boundary", "--nu", nu, "--m", m, "--n", "1"], capsys)
            assert code == 0
            doc = json.loads(out)
            assert doc["prime_limit"] == 3 and doc["verdict"] is True
            jsonschema.validate(doc, boundary.certificate_schema())
        with pytest.raises(SystemExit) as exc:
            main(["boundary", "--nu", "2", "--m", "1", "--n", "1", "--prime-limit", "100"])
        assert exc.value.code == 2

    def test_failed_internal_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(boundary, "key_lhs", lambda nu, p, e: Fraction(2 * nu, p - 1))
        code, _, err = run_cli(["boundary", "--nu", "2", "--m", "1", "--n", "1"], capsys)
        assert code == 1
        assert "contradicts the key lemma" in err

    def test_not_coprime_exits_4(self, capsys):
        code, _, _ = run_cli(["boundary", "--nu", "4", "--m", "2", "--n", "4"], capsys)
        assert code == 4


class TestDetlapCommand:
    def test_dim1_exact_residual(self, capsys):
        code, out, _ = run_cli(["detlap", "--nu", "1", "--alpha", "0", "--s", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["exact_residual"] < 1e-12
        want = math.exp(2 * math.pi) * (1 - math.exp(-2 * math.pi)) ** 2
        assert abs(doc["det"]["re"] - want) / want < 1e-12

    def test_verify_reports_residual(self, capsys):
        code, out, _ = run_cli(["detlap", "--nu", "2", "--s", "1", "--verify"], capsys)
        assert code == 0
        assert json.loads(out)["ladder_residual"] < 1e-4

    def test_negative_s_exits_2(self, capsys):
        code, _, _ = run_cli(["detlap", "--nu", "4", "--s", "-1"], capsys)
        assert code == 2


class TestTauberCommand:
    def test_report_within_band(self, capsys):
        code, out, _ = run_cli(
            ["--format", "csv", "tauber", "--nu", "2", "--x", "1", "--X", "100000"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("nu,x,X,")
        ratio = float(lines[1].split(",")[-1])
        assert abs(ratio - 1.0) < 0.02

    def test_log_regime_row(self, capsys):
        code, out, _ = run_cli(["tauber", "--nu", "2", "--x", "-1", "--X", "50000"], capsys)
        doc = json.loads(out)
        assert doc["log_factor"] is True
        assert doc["predicted_constant"] == pytest.approx(3 / math.pi, rel=1e-12)

    def test_bad_args_exit_2(self, capsys):
        code, _, _ = run_cli(["tauber", "--nu", "2", "--x", "1", "--X", "0"], capsys)
        assert code == 2


class TestJsonSchemas:
    def test_payloads_validate_against_shipped_schemas(self, capsys):
        from latzeta.boundary import load_schema

        cases = [
            (["arith", "--nu", "2", "--max", "5", "--check-closed"], "arith_rows"),
            (["lfun", "--nu", "1", "--s", "1.2", "--route", "all"], "lfun"),
            (["detlap", "--nu", "1", "--s", "1"], "detlap"),
            (["detlap", "--nu", "2", "--s", "1", "--verify"], "detlap"),
            (["tauber", "--nu", "2", "--x", "1", "--X", "2000"], "tauber_report"),
            (["boundary", "--nu", "2", "--m", "1", "--n", "1"], "certificate"),
        ]
        for args, schema_name in cases:
            code = main(args)
            out = capsys.readouterr().out
            assert code == 0
            jsonschema.validate(json.loads(out), load_schema(schema_name))


class TestConfig:
    def test_config_file_and_output(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "latzeta.conf"
        cfg.write_text("format = csv\nratio_band = 0.5\n# comment\nell_limit = 40\n")
        out_path = tmp_path / "out.csv"
        code, _, _ = run_cli(
            [
                "--config",
                str(cfg),
                "--output",
                str(out_path),
                "tauber",
                "--nu",
                "2",
                "--x",
                "1",
                "--X",
                "5000",
            ],
            capsys,
        )
        assert code == 0
        assert out_path.read_text().startswith("nu,x,X,")

    def test_env_var_overrides_path(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "env.conf"
        cfg.write_text("format = csv\n")
        monkeypatch.setenv("LATZETA_CONFIG", str(cfg))
        code, out, _ = run_cli(["tauber", "--nu", "2", "--x", "1", "--X", "5000"], capsys)
        assert code == 0
        assert out.startswith("nu,x,X,")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # sieve_limit, threads, tol and mobius_limit were keys that took no
        # effect; they are gone
        for key in ("no_such_key", "sieve_limit", "threads", "tol", "mobius_limit"):
            cfg = tmp_path / "bad.conf"
            cfg.write_text(f"{key} = 1\n")
            code, _, err = run_cli(
                ["--config", str(cfg), "tauber", "--nu", "2", "--x", "1", "--X", "10"], capsys
            )
            assert code == 2
            assert f"unknown config key: {key}" in err

    def test_deterministic_output(self, tmp_path):
        # identical inputs produce byte-identical output files
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            r = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "latzeta.cli",
                    "--output",
                    str(p),
                    "lfun",
                    "--nu",
                    "2",
                    "--s",
                    "1.5",
                    "--alpha",
                    "1/3,1/2",
                ],
                capture_output=True,
            )
            assert r.returncode == 0
        assert p1.read_bytes() == p2.read_bytes()
