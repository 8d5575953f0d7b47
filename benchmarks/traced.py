"""Run one `ssmd` CLI command with spans around the calls into each layer.

Usage: python3 traced.py SPANS_JSON -- <ssmd arguments>

The program is not changed: each public function is replaced, for the
duration of this process, by a wrapper installed under the name its caller
looks up (``from .x import f`` binds f in the caller's module, so the
wrapper goes there).  Spans are kept in memory with their parent and
written to SPANS_JSON when the command returns.  The exit code is the
command's.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

_now = time.perf_counter_ns


class Tracer:
    """In-memory spans: [name id, parent index, start ns, end ns, excluded ns, size]."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Span around fn.  after(args, result) may return (name, size) to
        relabel the span once it has ended; its own time is excluded."""
        nid = self.name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a handle callable and the module function it calls share one
            # name; the inner call is part of the outer span
            if stack and spans[stack[-1]][0] == nid:
                return fn(*args, **kwargs)
            rec = [nid, stack[-1] if stack else -1, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[2] = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[3] = _now()
                stack.pop()
                if after is not None:
                    label, rec[5] = after(args, result)
                    rec[0] = self.name_id(label)
                    rec[4] = _now() - rec[3]
        return wrapper

    def count(self, name: str, fn):
        """Count calls of fn without a span."""
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts, **extra}, fh, separators=(",", ":"))


def _variates(args, result):
    size = args[1]
    n = math.prod(size) if isinstance(size, tuple) else int(size)
    return "gaussian.standard_normals", n


def _project_kind(args, result):
    import numpy as np
    box, x = args[0], args[1]
    if result is None:
        return "sets.project.slack", 0
    binding = float(np.clip(np.asarray(x, dtype=float), 0.0, box.cap).sum()) > box.budget
    return ("sets.project.binding" if binding else "sets.project.slack"), 0


def install(tracer: Tracer) -> None:
    """Replace each layer's public functions by spans, under the names their
    callers look up."""
    from ssmd import averaging, cli, gaussian, harness, sets, solver, stepsizes, utility

    t = tracer
    gaussian.uniform_open = t.wrap("gaussian.uniform_open", gaussian.uniform_open)
    gaussian.norm_ppf = t.wrap("gaussian.norm_ppf", gaussian.norm_ppf)
    utility.standard_normals = t.wrap("gaussian.standard_normals",
                                      utility.standard_normals, after=_variates)
    utility.expected_phi_gaussian = t.wrap("utility.expected_phi_gaussian",
                                           utility.expected_phi_gaussian)
    utility.f_value = t.wrap("utility.f_value", utility.f_value)
    utility.stochastic_subgradient = t.wrap("utility.oracle",
                                            utility.stochastic_subgradient)
    sets.CappedBox.project = t.wrap("sets.project.slack", sets.CappedBox.project,
                                    after=_project_kind)
    solver.prox_step = t.wrap("mirror.prox_step", solver.prox_step)
    averaging.AverageState.absorb = t.wrap("averaging.absorb",
                                           averaging.AverageState.absorb)
    for cls in (stepsizes.TsengStepsize, stepsizes.NesterovStepsize,
                stepsizes.InverseSqrtStepsize):
        cls.alpha = t.count("stepsizes.alpha.calls", cls.alpha)
    harness.run_compact = t.wrap("solver.run", harness.run_compact)
    harness.run_strongly_convex = t.wrap("solver.run", harness.run_strongly_convex)
    harness.estimate_constants = t.wrap("utility.estimate_constants",
                                        harness.estimate_constants)
    constants = t.wrap("harness.instance_constants", harness.instance_constants)
    harness.instance_constants = cli.instance_constants = constants
    harness.reference_solution = t.wrap("utility.reference_solution",
                                        harness.reference_solution)
    harness._mc_run = t.wrap("harness.mc_run", harness._mc_run)
    cli.emit_csv = t.wrap("harness.emit_csv", cli.emit_csv)

    make_problem = harness.make_problem

    def traced_make_problem(*args, **kwargs):
        handle = make_problem(*args, **kwargs)
        handle.oracle = t.wrap("utility.oracle", handle.oracle)
        if handle.f_exact is not None:
            handle.f_exact = t.wrap("utility.f_value", handle.f_exact)
        if handle.f_sampler is not None:
            handle.f_sampler = t.wrap("utility.f_sampler", handle.f_sampler)
        return handle

    harness.make_problem = traced_make_problem


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- <ssmd arguments>", file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[2:]
    t0 = time.perf_counter()
    import ssmd.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", ssmd.cli.main)(command)
    tracer.dump(spans_path, {"import_s": import_s, "exit": code,
                             "module": ssmd.cli.__file__})
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
