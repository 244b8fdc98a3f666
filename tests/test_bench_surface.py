"""The benchmark's per-layer metric surface matches the library.

``perfbench/tracing.py`` hooks library functions and caches by name and
silently drops the metric of any name the library no longer has, so a
refactor that renames or removes one shrinks the traced result without an
error.  This guard installs the tracer in a fresh interpreter (installing
rebinds library functions, which must not leak into this test process) and
checks that it reports exactly the per-layer metrics ``BENCHMARK.json``
declares.  Two more guards run one traced round of the ``lfun`` and of the
``certs`` workload end to end and check that each result line is strict JSON
with every declared metric and no failed task.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
t = tracing.Tracer()
tracing.install_layers(t)
print(json.dumps(sorted(tracing.layer_metrics(t, 0.0, 1.0))))
"""


def test_traced_metrics_match_benchmark_declaration():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    reported = set(json.loads(proc.stdout.splitlines()[-1]))
    assert reported == declared, (sorted(declared - reported), sorted(reported - declared))


def _strict(const):
    raise ValueError(f"non-finite value {const} in the result")


def _traced_round_result(tmp_path, workload):
    # run a copy, so the benchmark's output directory lands under tmp_path
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_strict)
    assert result["failed"] == 0 and result["correct"] is True, proc.stderr
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == declared
    return result


def test_traced_lfun_round_ends_with_strict_json_result(tmp_path):
    _traced_round_result(tmp_path, "lfun")


def test_traced_certs_round_ends_with_strict_json_result(tmp_path):
    # the traced certs run reads boundary._SIEVE_CACHE for boundary.sieve_cache_mb
    result = _traced_round_result(tmp_path, "certs")
    assert result["metrics"]["boundary.sieve_cache_mb"]["value"] > 0
