"""A sha256 manifest of mirs' fixed output set, and a check of two manifests.

    python .github/scripts/output_digest.py manifest TREE OUT
    python .github/scripts/output_digest.py compare BASE HEAD [--declared FILE]

`manifest` runs the output set on the checkout TREE (its src/, configs/
and perfbench/) and writes one `sha256  name` line per output, sorted by
name.  The mirs package is imported from TREE/src, whatever mirs is
installed, so two checkouts can be compared with one install of numpy and
scipy.  The output set:

- sweep/: the sweep CSVs of configs/scene_{low,medium,high}.yaml at
  --n-seeds 2 --n-dwells 3, at workers 1 and 2; preset 26 with TF coding on
  64 bands x 6 slots; a time_dithering and a predefined_polarization sweep;
- scenario/: generate-scenario JSON for every density x topology x host
  type at seeds 0 and 1;
- anechoic/: `mirs anechoic --n-seeds 2 --out` on the chamber layout and on
  the 15-interferer field layout;
- maps/: every dump-maps file;
- bench/: the fingerprint line of one untraced step of every benchmark
  workload (perfbench/run.py --seed 0 --seconds 1).

`compare` diffs two manifests.  Every output whose digest differs, or that
only one manifest has, must be named in FILE (one name a line as the
manifest writes it; `#` starts a comment), and every name in FILE must
differ: a change that means to move outputs declares exactly the outputs it
moves.  Exit code 0 when both hold, 1 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DENSITIES = ("low", "medium", "high")
TOPOLOGIES = ("front", "partial", "full")
HOSTS = ("LRR", "SRR", "SBZA")
WORKLOADS = ("highway_dense", "chamber_30", "sweep_rates")
SHORT = ("--n-seeds", "2", "--n-dwells", "3")


def commands(tree: Path):
    """The mirs CLI arguments of every mirs run of the set, each writing
    its outputs relative to the working directory."""
    for density in DENSITIES:
        for w in (1, 2):
            yield ["sweep", "--config",
                   str(tree / "configs" / f"scene_{density}.yaml"), *SHORT,
                   "--workers", str(w), "--out",
                   f"sweep/scene_{density}_w{w}.csv"]
    yield ["sweep", "--config", "preset26_tf.yaml", "--out",
           "sweep/preset26_tf64x6.csv"]
    for technique, density in (("time_dithering", "medium"),
                               ("predefined_polarization", "high")):
        yield ["sweep", "--density", density, "--topology", "full",
               "--host-type", "SRR", "--technique", technique, *SHORT,
               "--out", f"sweep/{technique}_{density}_full_SRR.csv"]
    for d, t, h, seed in itertools.product(DENSITIES, TOPOLOGIES, HOSTS, (0, 1)):
        yield ["generate-scenario", "--density", d, "--topology", t,
               "--host-type", h, "--seed", str(seed),
               "--out", f"scenario/{d}_{t}_{h}_seed{seed}.json"]
    for layout, extra in (("chamber", []),
                          ("field", ["--field", "--n-interferers", "15"])):
        yield ["anechoic", "--n-seeds", "2", *extra,
               "--out", f"anechoic/{layout}.json"]
    yield ["dump-maps", "--output-dir", "maps"]


PRESET26_TF = """\
preset: 26
n_seeds: 2
n_dwells: 3
plan:
  technique: time_frequency_coding
  n_bands: 64
  n_slots: 6
"""


def produce(tree: Path):
    """Run the mirs part of the set in this process, in the working
    directory; mirs must import from tree/src."""
    import mirs
    from mirs import cli
    here = Path(mirs.__file__).resolve().parent
    if here != (tree / "src" / "mirs").resolve():
        sys.exit(f"error: mirs imports from {here}, not from {tree}/src")
    Path("preset26_tf.yaml").write_text(PRESET26_TF)
    for sub in ("sweep", "scenario", "anechoic"):
        os.makedirs(sub, exist_ok=True)
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        for argv in commands(tree):
            rc = cli.main(argv)
            if rc != 0:
                sys.exit(f"error: mirs {' '.join(argv)} exited {rc}")


def fingerprints(tree: Path, workdir: Path):
    """bench/<workload>.fingerprint: the fingerprint line of one untraced
    benchmark step of each workload."""
    out = workdir / "bench"
    out.mkdir()
    for wl in WORKLOADS:
        run = subprocess.run(
            [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
             wl, "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tree, capture_output=True, text=True)
        lines = [l for l in run.stdout.splitlines()
                 if l.startswith("fingerprint ")]
        if run.returncode != 0 or len(lines) != 1:
            sys.exit(f"error: benchmark {wl} on {tree} exited "
                     f"{run.returncode}\n{run.stderr[-2000:]}")
        (out / f"{wl}.fingerprint").write_text(lines[0] + "\n")


def manifest(tree: Path, out: Path):
    tree = tree.resolve()
    with tempfile.TemporaryDirectory(prefix="mirs-digest-") as tmp:
        env = {k: v for k, v in os.environ.items() if k != "MIRS_OUTPUT_DIR"}
        env["PYTHONPATH"] = str(tree / "src")
        run = subprocess.run([sys.executable, __file__, "produce", str(tree)],
                             cwd=tmp, env=env)
        if run.returncode != 0:
            sys.exit(f"error: the output set failed on {tree}")
        work = Path(tmp)
        fingerprints(tree, work)
        skip = {"preset26_tf.yaml"}
        lines = sorted(
            f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
            f"{p.relative_to(work).as_posix()}"
            for p in work.rglob("*") if p.is_file()
            and p.relative_to(work).as_posix() not in skip)
    out.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} outputs -> {out}")


def read_manifest(path: Path) -> dict:
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in path.read_text().splitlines()
             if line)}


def compare(base: Path, head: Path, declared: Path = None) -> int:
    a, b = read_manifest(base), read_manifest(head)
    moved = sorted(n for n in a.keys() | b.keys() if a.get(n) != b.get(n))
    named = set()
    if declared is not None and declared.exists():
        named = {line.split("#", 1)[0].strip()
                 for line in declared.read_text().splitlines()} - {""}
    for n in moved:
        print(f"{'declared' if n in named else 'CHANGED'}: {n}")
    stale = sorted(named - set(moved))
    for n in stale:
        print(f"DECLARED BUT UNCHANGED: {n}")
    undeclared = [n for n in moved if n not in named]
    print(f"{len(a.keys() | b.keys())} outputs, {len(moved)} changed, "
          f"{len(undeclared)} undeclared, {len(stale)} declared but unchanged")
    return 1 if undeclared or stale else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("manifest", help="write the manifest of a checkout")
    p.add_argument("tree", type=Path)
    p.add_argument("out", type=Path)
    p = sub.add_parser("compare", help="check two manifests")
    p.add_argument("base", type=Path)
    p.add_argument("head", type=Path)
    p.add_argument("--declared", type=Path,
                   help="the outputs the change means to move")
    p = sub.add_parser("produce", help=argparse.SUPPRESS)
    p.add_argument("tree", type=Path)
    args = ap.parse_args(argv)
    if args.cmd == "manifest":
        manifest(args.tree, args.out)
        return 0
    if args.cmd == "compare":
        return compare(args.base, args.head, args.declared)
    produce(args.tree.resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
