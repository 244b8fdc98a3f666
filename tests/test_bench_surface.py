"""The benchmark's per-layer metric surface matches the library.

``perfbench/tracing.py`` hooks library functions and caches by name and
silently drops the metric of any name the library no longer has, so a
refactor that renames or removes one shrinks the traced result without an
error.  This guard installs the tracer in a fresh interpreter (installing
rebinds library functions, which must not leak into this test process) and
checks that it reports exactly the per-layer metrics ``BENCHMARK.json``
declares.
"""

import json
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
