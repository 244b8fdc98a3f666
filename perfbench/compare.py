"""Run sets of benchmark runs of the same code and judge their steadiness.

    python3 perfbench/compare.py --runs 10 --sets 2
    python3 perfbench/compare.py --workloads lfun --runs 5 --sets 1
    python3 perfbench/compare.py --runs 1 --sets 1 --trace

Each set runs every workload ``--runs`` times, each time with a new seed, for
BENCHMARK.json's ``run_seconds``.  For each workload and end-to-end metric it
prints each set's median and quartiles (``statistics.quantiles(n=4)``), the
quartile spread as a share of the median against the metric's bound, and how
much worse the last set's median is than the first's.  ``--trace`` adds one
traced run per workload and seed and prints its per-layer metrics, with the
tracing overhead against the untraced runs' throughput.  Raw results go to
``perfbench/out/compare-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first: float, last: float, better: str) -> float:
    """How much worse ``last`` is than ``first``, as a share of ``first``."""
    return (last - first) / first if better == "lower" else (first - last) / first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    results: dict = {w: [[] for _ in range(args.sets)] for w in names}
    traced: dict = {w: [] for w in names}
    for k in range(args.sets):
        for i in range(args.runs):
            seed = args.seed0 + k * args.runs + i
            for w in names:
                r = run_once(bench, w, seed, 0)
                results[w][k].append(r)
                print(f"set {k} {w} seed {seed}: {r['attempted']} tasks, {r['failed']} failed, "
                      f"wall {r['wall_s']:.1f} s, "
                      + ", ".join(f"{m}={v['value']:.4g}" for m, v in r["metrics"].items()), flush=True)
                if args.trace and k == 0:
                    traced[w].append(run_once(bench, w, seed, 1))

    print(f"\n{'workload':8} {'metric':12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    steady = True
    for w in names:
        shares = {k: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for k, runs in enumerate(results[w])}
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(results[w]):
                q1, q2, q3 = quartiles([r["metrics"][m]["value"] for r in runs])
                spread = (q3 - q1) / q2
                medians.append(q2)
                verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
                if m == "setup_s":
                    verdict = "(spread not gated)"
                elif spread > bound:
                    steady = False
                print(f"{w:8} {m:12} {k:>3} {q2:>10.4g} {q1:>10.4g} {q3:>10.4g} {spread:>7.2%} {bound:>6.2f}  {verdict}")
            if len(medians) > 1:
                shift = worse_by(medians[0], medians[-1], metric["better"])
                ok = shift <= bound
                steady &= ok
                print(f"{w:8} {m:12} last set worse by {shift:+.2%} (bound {bound:.2f}): {'ok' if ok else 'REGRESSION'}")
        same = len(set(shares.values())) == 1
        steady &= same
        walls = [r["wall_s"] for runs in results[w] for r in runs]
        print(f"{w:8} failed share per set {shares} ({'equal' if same else 'DIFFER'}); "
              f"wall per run {statistics.mean(walls):.1f} s (max {max(walls):.1f})")

    if args.trace:
        print("\nper-layer metrics of the traced runs (median over seeds)")
        for w in names:
            untraced = statistics.median(r["metrics"]["tasks_per_s"]["value"] for r in results[w][0])
            layers: dict[str, list[float]] = {}
            for r in traced[w]:
                for m, v in r["metrics"].items():
                    layers.setdefault(m, []).append(v["value"])
            for m, vals in layers.items():
                print(f"{w:8} {m:38} {statistics.median(vals):.6g}")
            t = statistics.median(layers["trace.tasks_per_s"])
            print(f"{w:8} tracing overhead: traced {t:.4g}/s vs untraced {untraced:.4g}/s "
                  f"({untraced / t - 1:+.1%} time per task)")

    (HERE / "out").mkdir(exist_ok=True)
    out = HERE / "out" / f"compare-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"untraced": results, "traced": traced}, indent=1))
    print(f"\n{'steady' if steady else 'NOT steady'}; raw results in {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
