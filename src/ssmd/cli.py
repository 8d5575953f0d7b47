"""Command-line entry point.

Subcommands:

* ``experiment --config PATH --out DIR [--workers N]`` run the Monte-Carlo
  experiment and write CSV + metadata sidecar files into DIR.
* ``verify --kmax N`` machine-check the stepsize conditions.
* ``reference --config PATH [--tol T]`` print the high-accuracy optimal value.
* ``bounds --config PATH`` print the theoretical bound curve as CSV.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    COMPACT,
    ConfigError,
    a_values,
    bound_curve,
    build_instance,
    emit_csv,
    instance_constants,
    parse_config,
    sweep_a,
    verify_suite,
)
from .utility import reference_solution


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    out_path = args.out if args.out is not None else cfg.out
    if out_path is None:
        raise ConfigError("no output directory: pass --out or set 'out' in the config")
    out = Path(out_path)
    out.mkdir(parents=True, exist_ok=True)
    for i, (a, summary) in enumerate(sweep_a(cfg, workers=args.workers)):
        if cfg.regime == COMPACT:
            path, label = out / f"experiment_a{i}.csv", f"a = {float(a)!r}: "
        else:
            path, label = out / "experiment.csv", ""
        emit_csv(summary, path)
        print(f"{label}final mean f(x_hat) = {float(summary.mean_f_avg[-1])!r} -> {path}")
    return 0


def _cmd_verify(args) -> int:
    results = verify_suite(args.kmax)
    failed = 0
    for res in results:
        if res.passed:
            print(f"PASS {res.name}")
        else:
            failed += 1
            print(f"FAIL {res.name} (first violating k = {res.first_violation})")
    return 0 if failed == 0 else 2


def _cmd_reference(args) -> int:
    cfg = _load_config(args.config)
    tol = cfg.reference_tol if args.tol is None else args.tol
    _, f_ref = reference_solution(build_instance(cfg), tol)
    print(repr(f_ref))
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    constants = instance_constants(cfg)
    for a in a_values(cfg):
        if cfg.regime == COMPACT:
            print(f"# a = {a!r}")
        print("k,bound")
        for k, b in enumerate(bound_curve(cfg, a, constants)):
            print(f"{k},{float(b)!r}")
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="ssmd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo experiment")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", default=None,
                       help="output directory (falls back to the config's 'out')")
    p_exp.add_argument("--workers", type=positive_int, default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    p_ver = sub.add_parser("verify", help="machine-check stepsize conditions")
    p_ver.add_argument("--kmax", type=positive_int, default=100_000)
    p_ver.set_defaults(func=_cmd_verify)

    p_ref = sub.add_parser("reference", help="print the reference optimal value")
    p_ref.add_argument("--config", required=True)
    p_ref.add_argument("--tol", type=positive_float, default=None,
                       help="solver tolerance (falls back to the config's 'reference_tol')")
    p_ref.set_defaults(func=_cmd_reference)

    p_bnd = sub.add_parser("bounds", help="print the theoretical bound curve")
    p_bnd.add_argument("--config", required=True)
    p_bnd.set_defaults(func=_cmd_bounds)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ssmd: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"ssmd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
