"""Command-line front end: one subcommand per module, JSON/CSV output.

Exit codes: 0 success (and, where documented, "all checks passed"),
1 a check failed (a verdict, a comparison, or an internal consistency check),
2 bad arguments or domain errors, 3 unsupported dimension, 4 non-coprime
inputs.  A key=value config file (see DEFAULT_CONFIG) supplies truncation
defaults; flags override; the LATZETA_CONFIG environment variable overrides
the --config path.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from . import boundary, detlap, ruelle, tauber
from .arith import r_closed
from .errors import CheckFailed, DomainError, NotCoprime, NotPrime, UnsupportedDimension
from .lattice import Character
from .ruelle import Truncation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BADARGS = 2
EXIT_UNSUPPORTED_DIM = 3
EXIT_NOT_COPRIME = 4


@dataclass
class RunConfig:
    radius: float = 0.0  # 0 = derive from s
    ell_limit: int = 0
    format: str = "json"
    output: str = ""
    ratio_band: float = 0.10

    def validate(self) -> None:
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        if self.ratio_band <= 0:
            raise ValueError("ratio_band must be positive")


DEFAULT_CONFIG = RunConfig()

_CONFIG_KEYS = {f.name: f.type for f in fields(RunConfig)}


def load_config(path: str | None) -> RunConfig:
    """Parse a ``key = value`` config file (``#`` comments allowed)."""
    cfg = RunConfig()
    env = os.environ.get("LATZETA_CONFIG")
    if env:
        path = env
    if not path:
        return cfg
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key: {key}")
            cur = getattr(cfg, key)
            setattr(cfg, key, type(cur)(val) if not isinstance(cur, str) else val)
    cfg.validate()
    return cfg


def _truncation(cfg: RunConfig, s: complex) -> Truncation:
    base = ruelle.default_truncation(s)
    return Truncation(
        radius=cfg.radius if cfg.radius > 0 else base.radius,
        ell_limit=cfg.ell_limit if cfg.ell_limit > 0 else base.ell_limit,
    )


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi', 'a-bi' (also accepts 'j' for the unit)."""
    t = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(t)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def parse_alpha(text: str, nu: int) -> Character:
    if not text or text == "0":
        return Character.zero(nu)
    chi = Character.from_string(text)
    if chi.dim == 1 and nu > 1:
        chi = Character(tuple(chi.alpha[0] for _ in range(nu)))
    if chi.dim != nu:
        raise argparse.ArgumentTypeError(f"alpha has {chi.dim} components, expected {nu}")
    return chi


def _emit(cfg: RunConfig, payload, csv_rows=None, csv_header=None) -> None:
    if cfg.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if csv_header:
            w.writerow(csv_header)
        w.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, default=str) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_arith(args, cfg: RunConfig) -> int:
    nu, nmax = args.nu, args.max
    if nu < 1 or nmax < 1:
        print("error: need nu >= 1 and max >= 1", file=sys.stderr)
        return EXIT_BADARGS
    # table route: r from the counting convolution, then the square-class
    # Moebius decomposition for the primitive counts and M(n, 1)
    from latzeta.arith import moebius, r_table

    r = r_table(nu, nmax)
    rprim = [0] * (nmax + 1)
    for n in range(1, nmax + 1):
        d = 1
        while d * d <= n:
            if n % (d * d) == 0:
                rprim[n] += moebius(d) * int(r[n // (d * d)])
            d += 1
    rows = []
    ok = True
    for n in range(1, nmax + 1):
        mv = 0.0
        ell = 1
        while ell * ell <= n:
            if n % (ell * ell) == 0:
                mv += rprim[n // (ell * ell)] / ell
            ell += 1
        row = {"n": n, "r": int(r[n]), "r_primitive": rprim[n], "M_x1": mv}
        if args.check_closed:
            if nu in (2, 4, 6, 8):
                closed = r_closed(nu, n)
                row["r_closed"] = closed
                ok &= closed == int(r[n])
            else:
                print(f"error: no closed form for nu={nu}", file=sys.stderr)
                return EXIT_UNSUPPORTED_DIM
        rows.append(row)
    _emit(
        cfg,
        {"nu": nu, "rows": rows},
        csv_rows=[[r["n"], r["r"], r["r_primitive"], r["M_x1"]] + ([r["r_closed"]] if args.check_closed else []) for r in rows],
        csv_header=["n", "r", "r_primitive", "M_x1"] + (["r_closed"] if args.check_closed else []),
    )
    if args.check_closed and not ok:
        return EXIT_FAIL
    return EXIT_OK


def cmd_lfun(args, cfg: RunConfig) -> int:
    s = args.s
    if s.real <= 0:
        print("error: need Re(s) > 0", file=sys.stderr)
        return EXIT_BADARGS
    chi = parse_alpha(args.alpha, args.nu)
    tr = _truncation(cfg, s)
    routes = ruelle.log_L_routes(s, chi, args.nu, tr, ruelle.ROUTES if args.route == "all" else (args.route,))
    vals = {k: v.value for k, v in routes.items()}
    deltas = {}
    ks = sorted(vals)
    for i, a in enumerate(ks):
        for b in ks[i + 1 :]:
            deltas[f"{a}-{b}"] = abs(vals[a] - vals[b])
    payload = {
        "nu": args.nu,
        "s": str(s),
        "alpha": args.alpha or "0",
        "log_L": {k: {"re": v.real, "im": v.imag, "tail_estimate": routes[k].tail_estimate} for k, v in vals.items()},
        "route_deltas": deltas,
    }
    _emit(cfg, payload,
          csv_rows=[[k, v.real, v.imag, routes[k].tail_estimate] for k, v in vals.items()],
          csv_header=["route", "re", "im", "tail_estimate"])
    return EXIT_OK


def cmd_boundary(args, cfg: RunConfig) -> int:
    cert = boundary.certify_nonvanishing(args.nu, args.m, args.n)
    _emit(cfg, cert.to_json_dict())
    return EXIT_OK if cert.verdict else EXIT_FAIL


def cmd_detlap(args, cfg: RunConfig) -> int:
    s = args.s
    nu = args.nu
    if s.real <= 0 or nu < 1:
        print("error: need Re(s) > 0 and nu >= 1", file=sys.stderr)
        return EXIT_BADARGS
    chi = parse_alpha(args.alpha, nu)
    ell = nu // 2
    payload: dict = {"nu": nu, "s": str(s), "alpha": args.alpha or "0"}
    if nu % 2 == 1:
        val = detlap.det_odd(ell, chi, s)
        payload["det"] = {"re": val.real, "im": val.imag}
        if nu == 1:
            exact = detlap.det_dim1_exact(chi.alpha[0], s)
            payload["exact"] = {"re": exact.real, "im": exact.imag}
            payload["exact_residual"] = abs(val - exact) / abs(exact)
    else:
        if s.imag != 0:
            print("error: even dimensions require real s", file=sys.stderr)
            return EXIT_BADARGS
        val = detlap.det_even(ell, chi, s.real)
        payload["det"] = {"re": val, "im": 0.0}
    if args.verify:
        if nu % 2 == 1:
            f = lambda t: detlap.log_det_odd(ell, chi, t).real
        else:
            f = lambda t: detlap.log_det_even(ell, chi, t)
        got = detlap.ladder_pure(f, ell + 1, s.real).real
        want = (-1) ** ell * math.factorial(ell) * detlap.spectral_sum(nu, chi, s.real, ell + 1)
        payload["ladder_residual"] = abs(got - want) / abs(want)
    _emit(cfg, payload)
    return EXIT_OK


def cmd_tauber(args, cfg: RunConfig) -> int:
    if args.X < 1:
        print("error: need X >= 1", file=sys.stderr)
        return EXIT_BADARGS
    # rational input ("1/3", "-1") is exact for the x = 1 - nu boundary test;
    # anything else is parsed as float and matched within 1e-12
    try:
        x: "Fraction | float" = Fraction(args.x)
    except ValueError:
        x = float(args.x)
    try:
        rep = tauber.make_report(args.nu, x, args.X)
    except (DomainError, tauber.UnsupportedRegime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADARGS
    _emit(cfg, rep.__dict__, csv_rows=[rep.csv_row()], csv_header=tauber.CSV_HEADER)
    return EXIT_OK if abs(rep.ratio - 1.0) <= cfg.ratio_band else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="latzeta", description=__doc__)
    ap.add_argument("--config", help="key=value config file (env LATZETA_CONFIG overrides)")
    ap.add_argument("--format", choices=["json", "csv"], help="output format")
    ap.add_argument("--output", help="output path (default stdout)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arith", help="r_nu / primitive / M tables")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--check-closed", action="store_true")
    p.set_defaults(func=cmd_arith)

    p = sub.add_parser("lfun", help="log L by one or all routes")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--s", type=parse_complex, required=True)
    p.add_argument("--alpha", default="0")
    p.add_argument("--route", choices=[*ruelle.ROUTES, "all"], default="all")
    p.set_defaults(func=cmd_lfun)

    p = sub.add_parser("boundary", help="nonvanishing certificate")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("detlap", help="torus determinant and ladder verification")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--alpha", default="0")
    p.add_argument("--s", type=parse_complex, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_detlap)

    p = sub.add_parser("tauber", help="partial-sum asymptotic report")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--x", type=str, required=True, help="weight exponent; fractions are exact")
    p.add_argument("--X", type=int, required=True)
    p.set_defaults(func=cmd_tauber)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BADARGS
    if args.format:
        cfg.format = args.format
    if args.output:
        cfg.output = args.output
    try:
        return args.func(args, cfg)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except UnsupportedDimension as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_DIM
    except NotCoprime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_COPRIME
    except (DomainError, NotPrime, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADARGS


if __name__ == "__main__":
    sys.exit(main())
