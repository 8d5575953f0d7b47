"""Output checks for the ssmd benchmark.

Every check takes the text a CLI invocation wrote and returns a list of
problems; an empty list means the output passed.  The checks use only the
standard library, so they stay independent of the program they judge.
"""

from __future__ import annotations

import math

CSV_HEADER = "k,mean_f_avg,stderr_f_avg,mean_f_iter,mean_f_min,bound"
COLUMNS = CSV_HEADER.split(",")


def parse_csv(text: str, iterations: int) -> tuple[dict, list[str]]:
    """Columns of an experiment CSV, and the problems found in its shape.

    Requires the header, exactly K+1 rows with k = 0..K, and finite values.
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return {}, [f"bad header: {lines[0] if lines else ''!r}"]
    rows = lines[1:]
    if len(rows) != iterations + 1:
        return {}, [f"{len(rows)} rows, expected {iterations + 1}"]
    cols = {name: [] for name in COLUMNS}
    for i, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != len(COLUMNS):
            return {}, [f"row {i}: {len(fields)} fields"]
        try:
            values = [float(v) for v in fields]
        except ValueError:
            return {}, [f"row {i}: unparsable value in {row!r}"]
        if not all(math.isfinite(v) for v in values):
            return {}, [f"row {i}: non-finite value in {row!r}"]
        if values[0] != i:
            return {}, [f"row {i}: k = {fields[0]}"]
        for name, v in zip(COLUMNS, values):
            cols[name].append(v)
    return cols, []


def _first_increase(values: list[float]):
    return next((i for i in range(1, len(values)) if values[i] > values[i - 1]), None)


def check_curves(cols: dict) -> list[str]:
    """mean_f_min never increases; bound is positive and never increases."""
    problems = []
    i = _first_increase(cols["mean_f_min"])
    if i is not None:
        problems.append(f"mean_f_min increases at k = {i}")
    if min(cols["bound"]) <= 0.0:
        problems.append("bound is not positive")
    i = _first_increase(cols["bound"])
    if i is not None:
        problems.append(f"bound increases at k = {i}")
    return problems


def check_final(cols: dict, f_ref: float, rel_tol: float) -> list[str]:
    """The final mean_f_avg lies within rel_tol * |f_ref| of f_ref."""
    final = cols["mean_f_avg"][-1]
    if abs(final - f_ref) <= rel_tol * abs(f_ref):
        return []
    return [f"final mean_f_avg {final!r} is {abs(final - f_ref) / abs(f_ref):.2%} "
            f"off f_ref {f_ref!r} (tolerance {rel_tol:.0%})"]


def check_sampled(cols: dict, analytic: dict, tolerances: list[float],
                  gaps: list | None = None) -> list[str]:
    """Sample-average mean_f_avg agrees with the analytic-mode CSV, row by
    row, within that row's tolerance.  If gaps is given, it is filled with
    the observed |sampled - analytic| of every row."""
    problems = []
    observed = []
    for k, (s, a, tol) in enumerate(zip(cols["mean_f_avg"], analytic["mean_f_avg"],
                                        tolerances)):
        observed.append(abs(s - a))
        # plus rounding slack: a sum of N equal samples is not exact
        if abs(s - a) > tol + 1e-9 * max(1.0, abs(a)):
            problems.append(f"k = {k}: sampled {s!r} vs analytic {a!r} "
                            f"(tolerance {tol:.3g})")
    if gaps is not None:
        gaps[:] = observed
    return problems


def check_experiment_csv(text: str, iterations: int, f_ref=None, rel_tol: float = 0.0,
                         analytic=None, tolerances=None, gaps=None) -> list[str]:
    """All checks of one experiment CSV.  f_ref None skips the final-value
    check; analytic (the columns of the analytic-mode CSV) adds the
    sample-average check of check_sampled."""
    cols, problems = parse_csv(text, iterations)
    if problems:
        return problems
    problems = check_curves(cols)
    if f_ref is not None:
        problems += check_final(cols, f_ref, rel_tol)
    if analytic is not None:
        problems += check_sampled(cols, analytic, tolerances, gaps)
    return problems


def check_bounds_output(text: str, iterations: int, n_blocks: int) -> list[str]:
    """`ssmd bounds` prints, per a value, a k,bound table of K+1 positive,
    non-increasing rows."""
    blocks: list[list[float]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if line == "k,bound":
            blocks.append([])
            continue
        if not blocks:
            return [f"row before header: {line!r}"]
        try:
            k, b = line.split(",")
            blocks[-1].append(float(b))
        except ValueError:
            return [f"bad row: {line!r}"]
    if len(blocks) != n_blocks:
        return [f"{len(blocks)} bound tables, expected {n_blocks}"]
    problems = []
    for values in blocks:
        if len(values) != iterations + 1:
            problems.append(f"{len(values)} bound rows, expected {iterations + 1}")
        elif not all(math.isfinite(v) and v > 0.0 for v in values):
            problems.append("bound is not positive and finite")
        elif _first_increase(values) is not None:
            problems.append("bound increases")
    return problems
