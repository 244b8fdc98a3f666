"""latzeta benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload lfun --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The process pins numpy's thread pools to one thread, measures
set-up in fresh child processes, warms up on inputs outside the task list,
then runs whole rounds of seeded tasks until ``--seconds`` have passed, and
checks every output after the timed loop.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``).  Per-task times and, when traced, the spans are
written under ``perfbench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3


def _use_source_tree() -> None:
    if not (SRC / "latzeta" / "__init__.py").is_file():
        sys.exit(f"error: no latzeta sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def setup_child(workload: str) -> None:
    """Import latzeta, pay the workload's set-up, print the ready time."""
    import latzeta  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[workload]().setup()
    print(f"ready {time.monotonic()!r}")


def measure_setup(workload: str) -> float:
    """Process start to ready, in a fresh interpreter."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-child", workload],
        capture_output=True, text=True, timeout=60, check=True,
    )
    ready = float(proc.stdout.split()[-1])
    return ready - start


def run_workload(args) -> dict:
    start_import = time.perf_counter()
    import latzeta  # noqa: F401

    import_s = time.perf_counter() - start_import
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracing.install_layers(tracer)
    with tracer.active(-1):
        wl.setup()
    setup = [] if args.trace else [measure_setup(args.workload) for _ in range(SETUP_SAMPLES)]

    rng = random.Random(f"{args.workload}:{args.seed}")
    wl.warmup(tracer)  # tracer.on is False: warm-up records nothing

    records = []  # (round, task, output, seconds, error)
    peak_rss_mb = None
    start = time.perf_counter()
    for r, tasks in enumerate(wl.rounds(rng)):
        for task in tasks:
            with tracer.active(len(records)):
                t0 = time.perf_counter()
                try:
                    out, err = wl.run(task, tracer), None
                except Exception as exc:  # a failed task is counted, not fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                    traceback.print_exc()
                seconds = time.perf_counter() - t0
            records.append((r, task, out, seconds, err))
        # peak RSS after a fixed amount of work, so that it does not grow
        # with the number of tasks a faster program fits into the run
        if r + 1 == wl.RSS_ROUNDS:
            peak_rss_mb = _peak_rss_mb()
        if time.perf_counter() - start >= args.seconds:
            break
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()

    failed, correct, rows = 0, True, []
    for index, (r, task, out, seconds, err) in enumerate(records):
        problems = [] if err else wl.check(task, out, index)
        if problems:
            correct = False
            for p in problems:
                print(f"check failed: task {index} {task!r}: {p}", file=sys.stderr)
        failed += bool(err or problems)
        rows.append({"round": r, "kind": wl.kind(task), "task": repr(task), "seconds": seconds,
                     "error": err, "problems": problems})

    times = [rec[3] for rec in records]
    tasks_per_s = len(times) / sum(times)
    if args.trace:
        metrics = tracing.layer_metrics(tracer, import_s, tasks_per_s)
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "tasks_per_s": tasks_per_s,
            "task_p50_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"result": result, "setup_samples": setup, "tasks": rows}, fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    return result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("lfun", "certs", "detlap", "tauber"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _use_source_tree()
    if args.setup_child:
        setup_child(args.setup_child)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
