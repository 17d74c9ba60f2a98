"""Command-line interface.

Subcommands: run (one configured simulation), experiment (a preset
orchestration), check (static identity/probe suites), inspect (snapshot
header dump).  Exit codes: 0 pass, 1 monitor failure, 2 configuration
or input error (any ValueError the library raises on its inputs, an
output directory that a file blocks, or a path it may not read or
write), 3 numeric failure (NumericsError, FloatingPointError).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .config import ConfigError, config_from_mapping, parse_config_file
from .presets import PRESETS, experiment, preset_run_config
from .runner import NumericsError, run
from .snapshots import SnapshotFormatError, inspect_snapshot

EXIT_PASS = 0
EXIT_MONITOR_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_FAIL = 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hallmhd",
                                 description="pseudo-spectral Hall-MHD simulator "
                                             "and verification suite")
    sub = ap.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("run", help="advance one configured simulation")
    rp.add_argument("--config", help="flat key = value configuration file")
    rp.add_argument("--preset", help="start from a preset's base configuration")
    rp.add_argument("--out", help="output directory (overrides out_dir)")
    rp.add_argument("--seed", type=int)
    rp.add_argument("--n", type=int)
    rp.add_argument("--dt", type=float)
    rp.add_argument("--t-end", type=float, dest="t_end")

    ep = sub.add_parser("experiment", help="run a named experiment preset")
    ep.add_argument("preset", choices=sorted(PRESETS))
    ep.add_argument("--out", default="experiment-out")
    ep.add_argument("--seed", type=int, default=0)
    ep.add_argument("--n", type=int)
    ep.add_argument("--dt", type=float)
    ep.add_argument("--t-end", type=float, dest="t_end")

    cp = sub.add_parser("check", help="identity and probe suites (no time stepping)")
    cp.add_argument("--n", type=int, default=32)
    cp.add_argument("--fields", type=int, default=200)
    cp.add_argument("--pairs", type=int, default=100)
    cp.add_argument("--probe-samples", type=int, default=10, dest="probe_samples")
    cp.add_argument("--seed", type=int, default=0)

    ip = sub.add_parser("inspect", help="dump a snapshot header")
    ip.add_argument("snapshot")
    return ap


def _cmd_run(args) -> int:
    # preset, then file, then flags; validated once, as a whole
    mapping = asdict(preset_run_config(args.preset, seed=args.seed or 0)) if args.preset else {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    for key in ("seed", "n", "dt", "t_end"):
        val = getattr(args, key)
        if val is not None:
            mapping[key] = val
    if args.out:
        mapping["out_dir"] = args.out
    result = run(config_from_mapping(mapping))
    print(json.dumps({"out_dir": str(result.out_dir), "pass": result.passed},
                     sort_keys=True))
    return EXIT_PASS if result.passed else EXIT_MONITOR_FAIL


def _cmd_experiment(args) -> int:
    report = experiment(args.preset, args.out, seed=args.seed, n=args.n,
                        dt=args.dt, t_end=args.t_end)
    print(json.dumps({"preset": args.preset, "pass": report["pass"]}, sort_keys=True))
    return EXIT_PASS if report["pass"] else EXIT_MONITOR_FAIL


def _cmd_check(args) -> int:
    from .checks import run_checks

    ok = run_checks(n=args.n, fields=args.fields, pairs=args.pairs,
                    seed=args.seed, probe_samples=args.probe_samples)
    return EXIT_PASS if ok else EXIT_MONITOR_FAIL


def _cmd_inspect(args) -> int:
    info = inspect_snapshot(args.snapshot)
    print(json.dumps(info, indent=2, sort_keys=True))
    return EXIT_PASS if info["size_ok"] and info["crc_ok"] else EXIT_MONITOR_FAIL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        raise AssertionError("unreachable")
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (SnapshotFormatError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (NumericsError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC_FAIL


if __name__ == "__main__":
    sys.exit(main())
