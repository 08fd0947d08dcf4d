"""mirs benchmark: host dwells of three fixed workloads, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload highway_dense --seed 0 --seconds 40 --trace 0

Workloads (see workloads.py): highway_dense, chamber_30, sweep_rates.  The
seed makes every input; the same seed gives the same inputs.

``--trace 0`` measures the end-to-end metrics: dwells/s, dwell latency p50 and
p90, wall time of one cell, set-up time, peak RSS and the two-worker scaling
efficiency.  ``--trace 1`` runs the same cells untraced and then with spans
patched around the functions ``mirs.harness`` calls, and reports per-layer
times and counts.  Both modes check the simulated outputs, print a statistics
fingerprint and provenance, and end with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed, and 2 when the
run could not start (for instance without the mirs sources next to it).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread per process: the scaling measurement uses a pool of two
# processes, and nproc is 2 on the reference machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

STEPS_SHARE = 0.85       # of --seconds for the steps; the rest is set-up
IMPORT_PROBES = 5

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mirs.harness; "
                "print(time.perf_counter() - t)")

E2E_UNITS = {
    "dwells_per_s": "1/s", "dwell_ms_p50": "ms", "dwell_ms_p90": "ms",
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "scaling_eff_w2": "ratio",
}


def import_seconds() -> float:
    """Median time to import mirs.harness (numpy and scipy included) in a
    fresh interpreter."""
    vals = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        vals.append(float(out.stdout))
    return statistics.median(vals)


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    import mirs
    lines, digest = 0, hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mirs": mirs.__version__, "git_commit": git_commit(),
        # a checkout without .git has no commit; the digest still names the code
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines, "seed": seed,
        "pool_workers": 2, "blas_threads": 1,
    }


def dwell_metrics(p) -> dict:
    import numpy as np
    ms = np.asarray(p.dwell_s) * 1e3
    p50, p90 = np.percentile(ms, [50, 90])
    return {"dwells_per_s": len(ms) / math.fsum(p.dwell_s),
            "dwell_ms_p50": float(p50), "dwell_ms_p90": float(p90)}


def in_steps(wl, seconds, run_step):
    """Call run_step(cells) on whole steps of cells, the first always, the
    next only if it should end within `seconds`."""
    t0 = time.perf_counter()
    k = 0
    while k == 0 or (time.perf_counter() - t0) * (k + wl.step) / k <= seconds:
        run_step(list(range(k, k + wl.step)))
        k += wl.step


def run_untraced(wl, seed, seconds):
    """Each step runs at workers=1 and then again at workers=2; alternating
    the two keeps slow drifts in machine speed out of scaling_eff_w2."""
    from workloads import Pass
    setup_import = import_seconds()
    p = Pass()
    w2 = {"wall": 0.0, "cells": 0, "ok": True}

    def step(cells):
        one = wl.run_pass(seed, cells)
        p.extend(one)
        if w2["wall"] is None:
            return
        try:
            wall, results = wl.run_pool(seed, cells)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            w2["wall"], w2["ok"] = None, False
            return
        w2["wall"] += wall
        w2["cells"] += len(results)
        w2["ok"] &= wl.pool_matches(one, results)

    in_steps(wl, STEPS_SHARE * seconds, step)
    w2_wall = w2["wall"]
    checks = [(wl.pool_check, w2["ok"], f"{len(p.cells)} cells at workers=1, "
               f"{w2['cells']} at workers=2")]
    checks += wl.checks(p)
    metrics = dwell_metrics(p)
    metrics.update(
        wall_s=statistics.median(p.cell_s),
        setup_s=setup_import + (statistics.median(p.setup_s) if p.setup_s else 0.0),
        peak_rss_mb=peak_rss_mb(),
        scaling_eff_w2=p.wall / (2 * w2_wall) if w2_wall else None)
    notes = {"dwell_ms_p90": f"n={len(p.dwell_s)} dwells",
             "dwell_ms_p50": f"n={len(p.dwell_s)} dwells",
             "wall_s": f"median of {len(p.cell_s)} cells at workers=1",
             "setup_s": f"import {setup_import:.4f} s (median of "
                        f"{IMPORT_PROBES}) + median of {len(p.setup_s)} "
                        f"scene preparations",
             "scaling_eff_w2": f"{p.wall:.3f} s at workers=1 / "
                               f"(2 x {w2_wall or math.nan:.3f} s at workers=2)"}
    units = {k: E2E_UNITS[k] for k in metrics}
    return p, checks, metrics, units, notes, None


def run_traced(wl, seed, seconds):
    """Each step of cells runs untraced, then traced; alternating the two
    keeps slow drifts in machine speed out of the tracing overhead."""
    import layers
    from workloads import Pass
    base, traced = Pass(), Pass()
    tracer = layers.make_tracer()
    first_counts = []              # the fingerprint covers the first step

    def step(cells):
        base.extend(wl.run_pass(seed, cells))
        with tracer:
            traced.extend(wl.run_pass(seed, cells))
        if not first_counts:
            first_counts.append(dict(tracer.counts))

    in_steps(wl, STEPS_SHARE * seconds, step)
    faithful = traced.outputs == base.outputs and traced.results == base.results
    checks = [("traced_outputs_equal_untraced", faithful,
               f"{len(base.dwell_s)} dwells in {len(base.cells)} cells")]
    checks += wl.checks(base)
    metrics, units, notes = layers.layer_metrics(tracer, traced, base)
    return traced, checks, metrics, units, notes, first_counts[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mirs" / "__init__.py").is_file():
        print(f"error: mirs sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    print(f"# mirs benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args.seed)))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = workloads.make(args.workload, workdir)
        run = run_traced if args.trace else run_untraced
        p, checks, metrics, units, notes, counts = run(wl, args.seed, args.seconds)

    print("fingerprint " + json.dumps(workloads.fingerprint(wl, p, counts)))
    for name, ok, detail in checks:
        print(f"check {name} {'ok' if ok else 'FAILED'}: {detail}")
    attempted = p.attempted + len(checks)
    failed = p.failed + sum(not ok for _, ok, _ in checks)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"metric {name} {shown} {units[name]}{note}")
    print(f"metric failed_frac {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} dwells and checks)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
