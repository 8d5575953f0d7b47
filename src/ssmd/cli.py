"""Command-line entry point.

Subcommands:

* ``experiment --config PATH --out DIR [--workers N]`` run the Monte-Carlo
  experiment and write CSV + metadata sidecar files into DIR.
* ``verify --kmax N`` machine-check the stepsize conditions.
* ``reference --config PATH`` print the reference optimal value f_ref, then
  f_lower = f_ref - gap <= f*, with gap <= the config's ``reference_tol``.
* ``bounds --config PATH`` print the theoretical bound curve as CSV.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.

A command does all its work, files included, before it prints, so its
files and exit status do not depend on stdout: if the reader of stdout
leaves early (``ssmd bounds ... | head -1``), the rest of the output is
dropped without a message and the exit status is the command's.

The CLI runs numpy's BLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is
set: its only BLAS calls are dot products of length n, and starting a pool
of threads is about half of numpy's import.  ``ssmd`` and ``python -m
ssmd.cli`` exit through ``run``, without interpreter teardown once their
output is flushed, so ``atexit`` hooks (coverage.py's, for one) do not run
there; call ``main`` in-process to keep them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# before numpy loads, and inherited by --workers processes; a value already set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .harness import (  # noqa: E402
    COMPACT,
    ConfigError,
    a_values,
    bound_curve,
    build_instance,
    emit_csv,
    instance_constants,
    parse_config,
    sweep_a,
)
from .stepsizes import verify_suite  # noqa: E402
from .utility import reference_gap, reference_solution  # noqa: E402


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _cmd_experiment(args) -> tuple[int, list[str]]:
    cfg = _load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (a, summary) in enumerate(sweep_a(cfg, workers=args.workers)):
        if cfg.regime == COMPACT:
            path, label = out / f"experiment_a{i}.csv", f"a = {float(a)!r}: "
        else:
            path, label = out / "experiment.csv", ""
        emit_csv(summary, path)
        final = float(summary.mean_f_avg[-1])
        lines.append(f"{label}final mean f(x_hat) = {final!r} -> {path}")
    return 0, lines


def _cmd_verify(args) -> tuple[int, list[str]]:
    results = verify_suite(args.kmax)
    lines = [f"PASS {name}" if k is None else f"FAIL {name} (first violating k = {k})"
             for name, k in results]
    return (0 if all(k is None for _, k in results) else 2), lines


def _cmd_reference(args) -> tuple[int, list[str]]:
    cfg = _load_config(args.config)
    instance = build_instance(cfg)
    x_ref, f_ref = reference_solution(instance, cfg.reference_tol)
    return 0, [repr(f_ref), repr(f_ref - reference_gap(instance, x_ref))]


def _cmd_bounds(args) -> tuple[int, list[str]]:
    cfg = _load_config(args.config)
    constants = instance_constants(cfg, build_instance(cfg))
    lines = []
    for a in a_values(cfg):
        if cfg.regime == COMPACT:
            lines.append(f"# a = {a!r}")
        lines.append("k,bound")
        lines += [f"{k},{b!r}" for k, b in enumerate(bound_curve(cfg, a, constants).tolist())]
    return 0, lines


def main(argv=None) -> int:
    parser = _Parser(prog="ssmd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo experiment")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--workers", type=positive_int, default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    p_ver = sub.add_parser("verify", help="machine-check stepsize conditions")
    p_ver.add_argument("--kmax", type=positive_int, default=100_000)
    p_ver.set_defaults(func=_cmd_verify)

    p_ref = sub.add_parser("reference", help="print the reference optimal value")
    p_ref.add_argument("--config", required=True)
    p_ref.set_defaults(func=_cmd_reference)

    p_bnd = sub.add_parser("bounds", help="print the theoretical bound curve")
    p_bnd.add_argument("--config", required=True)
    p_bnd.set_defaults(func=_cmd_bounds)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status, lines = args.func(args)
    except ConfigError as exc:
        print(f"ssmd: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"ssmd: error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: the rest of stdout goes to the null device
        sys.stdout = open(os.devnull, "w")
    return status


def run() -> None:
    """Entry point of the ``ssmd`` script: main() on sys.argv, then exit with
    its status once stdout and stderr are flushed.  Every file is closed by
    then, so teardown would only free memory that the OS takes back anyway."""
    status = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            pass
    os._exit(status)


if __name__ == "__main__":
    run()
