"""Command-line front end.

Subcommands: generate-scenario, sweep, anechoic, dump-maps, report.  The
flags of generate-scenario and sweep but --config and --out are config keys
(--config takes a YAML file); flags given on the command line win.  The
MIRS_OUTPUT_DIR environment variable overrides the output directory only.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import typing

from . import harness
from .errors import ConfigurationError
from .harness import RunConfig, output_dir, read_yaml
from .mitigation import Technique
from .scenario import Topology, save_scenario


def _config_from_args(args) -> RunConfig:
    """The --config file's RunConfig with each flag given on the command line
    (a RunConfig field, `preset` or `technique`) overriding its key.  A
    flag's text is read, and checked, as a config file's value: a str
    field's as given, any other's as YAML, and --rates as comma-separated
    YAML numbers."""
    def value(text):
        return read_yaml(text, f"config value {text!r}")
    kinds = typing.get_type_hints(RunConfig)
    over = {k: v if kinds.get(k) is str else value(v)
            for k, v in vars(args).items()
            if k in kinds.keys() | {"preset", "technique"} and v is not None}
    if args.rates is not None:
        rates = [value(r) for r in args.rates.split(",")]
        if not all(type(r) in (int, float) for r in rates):
            raise ConfigurationError(f"bad --rates: {args.rates!r}")
        over["penetration_rates"] = tuple(map(float, rates))
    return harness.load_config(args.config, **over)


def _out_path(path: str) -> str:
    """`path`, once its parent directory exists and it can be written: a bad
    output location fails before any scene or dwell.  The file itself is
    written, replacing any file there, only when the run has succeeded."""
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    return path


def _add_common(p):
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--preset", help="scene-matrix cell index 0..26")
    p.add_argument("--label")
    p.add_argument("--density", help=", ".join(harness.DENSITY_ORDER))
    p.add_argument("--topology", help=", ".join(t.value for t in Topology))
    p.add_argument("--host-type", dest="host_type",
                   help=", ".join(h.value for h in harness.HOST_ORDER))
    p.add_argument("--technique", help=", ".join(t.value for t in Technique))
    p.add_argument("--seed")
    p.add_argument("--n-seeds", dest="n_seeds")
    p.add_argument("--n-dwells", dest="n_dwells")
    p.add_argument("--rates", help="comma-separated penetration rates")
    p.add_argument("--workers")
    p.add_argument("--output-dir", dest="output_dir")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="mirs",
                                 description="automotive radar interference "
                                             "Monte-Carlo simulator")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate-scenario", help="draw a scene and save JSON")
    _add_common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="penetration-rate PD sweep")
    _add_common(p)
    p.add_argument("--out", help="CSV path (default <outdir>/<label>.csv)")

    p = sub.add_parser("anechoic", help="chamber noise-rise analog")
    p.add_argument("--n-interferers", type=int, default=30)
    p.add_argument("--counts", help="comma-separated activation counts")
    p.add_argument("--n-seeds", type=int, default=10)
    p.add_argument("--n-dwells", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", action="store_true",
                   help="use the 5/10/15 m field layout instead of 7 m")
    p.add_argument("--out", help="write the rise curve as JSON")

    p = sub.add_parser("dump-maps", help="write stage matrices for one dwell")
    p.add_argument("--n-interferers", type=int, default=5)
    p.add_argument("--dwell-index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", dest="output_dir", default="out")

    p = sub.add_parser("report", help="aggregate sweep CSVs")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--out")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigurationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.cmd == "generate-scenario":
        cfg = _config_from_args(args)
        _out_path(args.out)
        scen = harness.build_scene(cfg, 0)
        save_scenario(scen, args.out)
        print(f"wrote {args.out}")
        return 0

    if args.cmd == "sweep":
        cfg = _config_from_args(args)
        outdir = output_dir(cfg.output_dir)
        path = _out_path(args.out or os.path.join(outdir, f"{cfg.label}.csv"))
        results = harness.run_sweep(cfg, csv_path=path)
        print(f"{len(results)} rows -> {path}")
        return 0

    if args.cmd == "anechoic":
        counts = None
        if args.counts:
            try:
                counts = [int(x) for x in args.counts.split(",")]
            except ValueError:
                raise ConfigurationError(f"bad --counts: {args.counts!r}")
            if 0 not in counts:   # the rise curve is read against count 0
                raise ConfigurationError("--counts must include 0, the baseline")
        if args.out:
            _out_path(args.out)
        layout = harness.field_layout() if args.field else None
        floors = harness.run_anechoic_analog(
            n_interferers=args.n_interferers, layout=layout, counts=counts,
            n_seeds=args.n_seeds, n_dwells=args.n_dwells, seed=args.seed)
        from .metrics import noise_rise_curve
        curve = noise_rise_curve(floors)
        for n, rise in curve:
            print(f"{n:4d} interferers: +{rise:.2f} dB")
        if args.out:
            with open(args.out, "w") as f:
                json.dump({str(n): r for n, r in curve}, f, indent=1)
        return 0

    if args.cmd == "dump-maps":
        written = harness.dump_maps(output_dir(args.output_dir),
                                    n_interferers=args.n_interferers,
                                    dwell_index=args.dwell_index,
                                    seed=args.seed)
        for w in written:
            print(w)
        return 0

    if args.cmd == "report":
        text = harness.report(args.csvs, out_path=args.out)
        if not args.out:
            sys.stdout.write(text)
        else:
            print(f"wrote {args.out}")
        return 0

    raise ConfigurationError(f"unknown command {args.cmd}")


if __name__ == "__main__":
    sys.exit(main())
