"""Command-line interface.

Subcommands: simulate, diagnose, identify, reproduce, check.  Exit codes:
0 success, 2 configuration error, 3 simulation error, 4 identification
failure, 5 acceptance violation in check mode.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread unless the caller set the variables, before pipeline loads
# numpy.  The matrices gain nothing from threads, and at two the second
# OpenBLAS thread spins between the small products: the reference reproduce
# on two cores took 1.5-2.0 s and 2.9-3.8 s of CPU against 1.3-1.6 s and the
# same CPU at one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from loadsysid import pipeline
from loadsysid.config import default_config_text, load_config, load_config_file
from loadsysid.errors import (
    ConfigError,
    IdentificationError,
    SimulationError,
    ToolkitError,
)
from loadsysid.greybox import FREE

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_IDENT = 4
EXIT_ACCEPTANCE = 5


def _parser():
    p = argparse.ArgumentParser(
        prog="loadsysid",
        description="Closed-loop motor-load identification toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("simulate", "diagnose", "identify", "reproduce"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="experiment config path (bundled default if omitted)")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        if name == "identify":
            sp.add_argument("--method", default="pem-a",
                            choices=list(pipeline.METHODS))
        if name == "reproduce":
            sp.add_argument("--seeds", default=None,
                            help="batch seed range A..B")
    sub.add_parser("check")
    return p


def _load(config, seed):
    if config is None:
        return load_config(default_config_text(), seed_override=seed)
    return load_config_file(config, seed_override=seed)


def _seed_range(spec):
    try:
        a, b = spec.split("..", 1)
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise ConfigError(f"bad --seeds range {spec!r}, expected A..B") from exc
    if hi < lo:
        raise ConfigError(f"empty --seeds range {spec!r}")
    return range(lo, hi + 1)


def _failure(exc, stage):
    """Exit code and message label of a failure: by its type, else by the
    pipeline stage it came from."""
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG, "config error"
    if isinstance(exc, SimulationError):
        return EXIT_SIMULATION, "simulation error"
    if isinstance(exc, IdentificationError):
        return EXIT_IDENT, "identification failure"
    if stage.startswith("simulate"):
        return EXIT_SIMULATION, "error"
    if stage.startswith("identify"):
        return EXIT_IDENT, "error"
    return EXIT_CONFIG, "error"


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "check":
            return _run_check()
        cfg = _load(args.config, args.seed)
        out = Path(args.out) if args.out else Path(cfg.out_dir)
        if args.command == "simulate":
            pipeline.run_simulate(cfg, out)
        elif args.command == "diagnose":
            series, system = pipeline.run_simulate(cfg, out)
            pipeline.run_diagnose(cfg, out, series, system)
        elif args.command == "identify":
            series, system = pipeline.run_simulate(cfg, out)
            pipeline.run_identify(cfg, out, series, system, args.method)
        elif args.command == "reproduce":
            if args.seeds:
                _batch_reproduce(args, out)
            else:
                pipeline.run_reproduce(cfg, out)
    except ToolkitError as exc:
        stage = getattr(exc, "stage", "")
        code, label = _failure(exc, stage)
        where = f"stage {stage} failed: " if stage else ""
        print(f"{label}: {where}{exc}", file=sys.stderr)
        return code
    return EXIT_OK


def _batch_reproduce(args, out):
    from loadsysid import io as tio

    if args.seed is not None:
        raise ConfigError("--seed and --seeds cannot be used together")
    seeds = _seed_range(args.seeds)
    rows = []
    for seed in seeds:
        cfg = _load(args.config, seed)
        run_dir = Path(out) / f"seed_{seed}"
        bundle = pipeline.run_reproduce(cfg, run_dir)
        truth = bundle["system"][2].params
        row = [seed]
        for method in pipeline.METHODS:
            est = bundle["results"][method].params
            for name in FREE:
                row.append(getattr(est, name) / getattr(truth, name) - 1.0)
        rows.append(row)
    columns = ["seed"]
    for method in pipeline.METHODS:
        columns += [f"{method}_{n}_relerr" for n in FREE]
    Path(out).mkdir(parents=True, exist_ok=True)
    tio.write_table(Path(out) / "aggregate.csv", columns, rows)


def _run_check():
    """Run the acceptance suite via pytest on the repository tests."""
    import subprocess

    root = Path(__file__).resolve().parents[2]
    test_file = root / "tests" / "test_acceptance.py"
    if not test_file.is_file():
        print("acceptance tests not found; run from the repository checkout",
              file=sys.stderr)
        return EXIT_CONFIG
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(test_file), "-v"],
        cwd=root,
    )
    return EXIT_OK if proc.returncode == 0 else EXIT_ACCEPTANCE


if __name__ == "__main__":
    sys.exit(main())
