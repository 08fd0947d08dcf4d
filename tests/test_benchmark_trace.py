"""The traced benchmark run must report every per-layer metric as a number."""
import json
import math
import os
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent


def test_traced_highway_dense_reports_every_layer_metric(tmp_path,
                                                         monkeypatch):
    # perfbench/run.py ends a traced run with one JSON result line; a
    # metric whose traced name is gone reads null there, and the line is
    # then no result
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    with mock.patch.dict(os.environ):   # run.py pins BLAS threads on import
        import run
    import workloads

    wl = workloads.make("highway_dense", str(tmp_path))
    # a budget this short runs exactly the first step of cells
    _, checks, metrics, _, _, _ = run.run_traced(wl, 0, 1e-3)
    assert all(ok for _, ok, _ in checks), checks
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    for name, value in metrics.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            (name, value)
    json.dumps({k: {"value": v} for k, v in metrics.items()}, allow_nan=False)
