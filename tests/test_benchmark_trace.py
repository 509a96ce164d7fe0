"""A traced benchmark repeat reaches every per-layer metric of BENCHMARK.json.

`perfbench/run.py --trace 1` leaves out of its last line each per-layer
metric whose spans never occurred, so a change that stops calling a traced
function makes that line incomplete while the run still exits 0. This runs
the benchmark's own traced repeat on tiny versions of all three workloads.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import worker  # noqa: E402
from test_perfbench import tiny  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
             if m["name"] in spans.LAYER_METRICS]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_repeat_reports_every_benchmark_layer(name, tmp_path):
    out = worker.run_repeat(tiny(name), seed=1, work_dir=tmp_path, traced=True)
    assert out["error"] is None, out["error"]
    assert out["correct"], out["checks"]
    values = {m: out["layers"][m] for m in PER_LAYER}
    bad = {m: v for m, v in values.items() if v is None or not math.isfinite(v) or v <= 0}
    assert not bad
    json.dumps(values, allow_nan=False)
