"""ssmd benchmark: end-to-end and per-layer metrics of `ssmd experiment`.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is the CLI in ``src/``, run as ``python -m ssmd.cli`` with one
worker, one fresh process per invocation.  The seed is written into the
generated config as ``seed``.  Every invocation's output is checked (see
check.py); a failed check counts the invocation as failed.  The reference
value f_ref, computed in this process before timing, is checked against
design.json and counts as one more invocation.

--trace 0 repeats `ssmd bounds` + `ssmd experiment` + calibrate.py until S
seconds are spent and reports medians of the end-to-end metrics, with times
scaled to the nominal machine speed (see measure_end_to_end).  --trace 1
repeats a traced experiment (traced.py) and an untraced one, and reports the
layer metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds details:
samples, sha256 of every CSV and .meta file, problems and versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
from calibrate import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Any single CLI invocation taking longer than this counts as failed.
INVOCATION_TIMEOUT_S = 150.0

# Relative tolerance of the final mean_f_avg against reference_solution.
# Criterion 11 of the acceptance suite: strongly convex within 2%, compact
# within 5% (best a of a*{0.5, 1, 2}).  compact_bind_n1000 runs a = 1, about
# 7.6 a*, where the O(1/sqrt(k)) average is still ~6% above f_ref at K = 1000,
# so its tolerance is 10%.
SC_TOL, COMPACT_TOL, BIND_TOL = 0.02, 0.05, 0.10
# The instances do not depend on the seed, so neither does f_ref: the value
# computed before timing must match the one pinned in design.json to this
# relative tolerance.  Otherwise a shift of f_value that moves both f_ref and
# the CSV would pass the final-value check.
F_REF_PIN_TOL = 1e-6
# Sample-average check: agreement within this many standard errors.
SAMPLED_N_STDERR = 4.0

DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))

WORKLOADS = {
    "sc_test1": ({
        "regime": "strongly_convex", "instance": "test1", "lambda": "100",
        "schedule": "step-1", "iterations": "100", "runs": "20",
        "compute_reference": "true"}, SC_TOL),
    "compact_test1_sweep": ({
        "regime": "compact", "instance": "test1", "a": "1, 10, 30",
        "iterations": "1000", "runs": "1"}, COMPACT_TOL),
    "compact_bind_n1000": ({
        "regime": "compact", "instance": "inline", "n": "1000", "cap": "1",
        "budget": "1", "a": "1", "iterations": "1000", "runs": "1"}, BIND_TOL),
    "sampled_test1": ({
        "regime": "compact", "instance": "test1", "a": "10", "iterations": "2",
        "runs": "1", "analytic_f": "false"}, None),
}

END_TO_END = {"wall_s": "s", "iters_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_share": "share"}

# Spans recorded by traced.py; each gives <name>.calls and <name>.self_s.
LAYERS = (
    "gaussian.standard_normals", "gaussian.norm_ppf", "gaussian.uniform_open",
    "utility.f_value", "utility.expected_phi_gaussian", "utility.f_sampler",
    "utility.oracle", "utility.estimate_constants", "harness.instance_constants",
    "utility.reference_solution", "sets.project.slack", "sets.project.binding",
    "mirror.prox_step", "averaging.absorb", "solver.run", "harness.mc_run",
    "harness.emit_csv", "cli.main",
)
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "gaussian.variates": "count",
    "utility.reference_solution.f_evals": "count",
    "sets.project.engine.calls": "count",
    "sets.project.engine_binding_share": "share",
    "stepsizes.alpha.calls": "count",
    "cli.import_s": "s",
    "trace.overhead": "ratio",
}


def config_text(name: str, seed: int, **override) -> str:
    keys = {**WORKLOADS[name][0], "seed": str(seed), "workers": "1", **override}
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


class Invocation:
    """One CLI process: exit code, wall time from exec to exit, peak RSS."""

    def __init__(self, argv: list[str], cwd: Path, log: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(log, "w", encoding="utf-8") as out, \
                open(log.with_suffix(".err"), "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = log.read_text(encoding="utf-8")
        self.stderr = log.with_suffix(".err").read_text(encoding="utf-8")

    def problems(self) -> list[str]:
        if self.code == 0:
            return []
        return [f"exit code {self.code}: {self.stderr.strip()[-300:]}"]


def _ssmd(command: str, cfg: Path, out: Path | None = None) -> list[str]:
    argv = ["-m", "ssmd.cli", command, "--config", str(cfg)]
    return argv + ["--out", str(out)] if out is not None else argv


def _csv_names(cfg) -> list[str]:
    if cfg.regime == "compact":
        return [f"experiment_a{i}.csv" for i in range(len(cfg.a_values))]
    return ["experiment.csv"]


class Run:
    """Inputs, expected values and sample bookkeeping of one benchmark run."""

    def __init__(self, name: str, seed: int, work: Path):
        sys.path.insert(0, str(SRC))
        from ssmd.harness import parse_config

        self.name, self.seed, self.work = name, seed, work
        self.text = config_text(name, seed)
        self.cfg = parse_config(self.text)
        self.config = work / "workload.cfg"
        self.config.write_text(self.text, encoding="utf-8")
        self.csvs = _csv_names(self.cfg)
        self.rel_tol = WORKLOADS[name][1]
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.hashes: list[dict] = []
        self.sampled: dict[str, dict] = {}
        self.count = 0
        self._expect()

    def _expect(self) -> None:
        """Reference values for the output check, computed before timing."""
        import numpy as np
        from ssmd.harness import build_instance
        from ssmd.utility import reference_solution

        cfg = self.cfg
        instance = build_instance(cfg)
        self.f_ref = self.analytic = None
        if not cfg.analytic_f:
            self._expect_sampled(instance)
        elif cfg.regime == "strongly_convex":
            _, self.f_ref = reference_solution(instance, cfg.reference_tol)
        else:
            # the criterion 11 reference: warm start, tol 1e-5 (the origin is
            # a kink of f when lambda = 0, where descent from x0 stalls)
            warm = np.full(instance.n, instance.feasible_set.budget / instance.n)
            _, self.f_ref = reference_solution(instance, 1e-5, x_init=warm)
        if self.f_ref is not None:
            pinned = DESIGN["workloads"][self.name]["f_ref"]
            off = abs(self.f_ref - pinned) > F_REF_PIN_TOL * abs(pinned)
            self.record("reference", [f"reference_solution gives {self.f_ref!r}, "
                                      f"pinned {pinned!r}"] if off else [])

    def _expect_sampled(self, instance) -> None:
        """Analytic-mode CSV of the same config and seed, and per row the
        tolerance: SAMPLED_N_STDERR standard errors of the sample-average f.
        The iterates are the same in both modes, so they are replayed here,
        and at each x_hat_k the estimator's own samples (f_sampler, drawn
        from f_eval_seed) give its standard error std / sqrt(N)."""
        import numpy as np
        from ssmd.gaussian import rng_from_seed
        from ssmd.solver import run_compact
        from ssmd.utility import make_problem

        cfg = self.cfg
        analytic_cfg = self.work / "analytic.cfg"
        analytic_cfg.write_text(config_text(self.name, self.seed, analytic_f="true"),
                                encoding="utf-8")
        out = self.work / "analytic"
        inv = self.invoke(_ssmd("experiment", analytic_cfg, out), "analytic")
        problems = inv.problems()
        self.analytic = {}
        for csv in self.csvs if not problems else ():
            cols, csv_problems = check.parse_csv(
                (out / csv).read_text(encoding="utf-8"), cfg.iterations)
            if not csv_problems:
                self.analytic[csv] = cols
            problems += [f"{csv}: {p}" for p in csv_problems]
        self.record("analytic", problems)

        replay = make_problem(instance)
        problem = make_problem(instance, f_eval_samples=cfg.eval_samples,
                               analytic_f=False)
        seed = cfg.base_seed % (1 << 64)
        for a, csv in zip(cfg.a_values, self.csvs):
            stderr = []
            for k in range(cfg.iterations + 1):
                x = instance.x0 if k == 0 else run_compact(
                    replay, a, k, rng_from_seed(seed)).x_hat_final
                rng = rng_from_seed(problem.f_eval_seed)
                vals = np.array([problem.f_sampler(x, rng)
                                 for _ in range(problem.f_eval_samples)])
                stderr.append(float(vals.std(ddof=1) / np.sqrt(vals.size)))
            self.sampled[csv] = {"stderr": stderr,
                                 "tol": [SAMPLED_N_STDERR * se for se in stderr],
                                 "gap": []}

    def invoke(self, argv: list[str], tag: str) -> Invocation:
        self.count += 1
        return Invocation(argv, self.work, self.work / f"{tag}-{self.count}.log")

    def check_experiment(self, inv: Invocation, out: Path) -> list[str]:
        problems = inv.problems()
        hashes = {}
        if not problems:
            for csv in self.csvs:
                path = out / csv
                if not path.is_file() or not Path(f"{path}.meta").is_file():
                    problems.append(f"{csv} or its .meta missing")
                    continue
                data = path.read_bytes()
                hashes[csv] = hashlib.sha256(data).hexdigest()
                hashes[f"{csv}.meta"] = hashlib.sha256(
                    Path(f"{path}.meta").read_bytes()).hexdigest()
                problems += [f"{csv}: {p}" for p in self._check_csv(csv, data)]
        self.hashes.append(hashes)
        return problems

    def _check_csv(self, csv: str, data: bytes) -> list[str]:
        text = data.decode("utf-8")
        if self.analytic is None:
            return check.check_experiment_csv(text, self.cfg.iterations, self.f_ref,
                                              self.rel_tol)
        if csv not in self.analytic:
            return ["no analytic-mode CSV to compare with"]
        sampled = self.sampled[csv]
        return check.check_experiment_csv(
            text, self.cfg.iterations, analytic=self.analytic[csv],
            tolerances=sampled["tol"], gaps=sampled["gap"])

    def record(self, tag: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{tag} {self.count}: {p}" for p in problems]

    def experiment(self, traced: bool = False):
        out = self.work / f"out-{self.count + 1}"
        argv = _ssmd("experiment", self.config, out)
        spans = self.work / f"spans-{self.count + 1}.json"
        if traced:
            argv = [str(HERE / "traced.py"), str(spans), "--"] + argv[2:]
        inv = self.invoke(argv, "traced" if traced else "experiment")
        self.record("experiment", self.check_experiment(inv, out))
        shutil.rmtree(out, ignore_errors=True)
        return inv, spans

    def calibrate(self) -> float:
        """Wall time of one calibrate.py process; it must exit 0."""
        inv = self.invoke([str(HERE / "calibrate.py")], "calibrate")
        if inv.code != 0:
            raise RuntimeError(f"calibrate.py failed: {inv.problems()}")
        return inv.wall_s

    def bounds(self) -> Invocation:
        inv = self.invoke(_ssmd("bounds", self.config), "bounds")
        n_blocks = len(self.csvs)
        problems = inv.problems() or check.check_bounds_output(
            inv.stdout, self.cfg.iterations, n_blocks)
        self.record("bounds", problems)
        return inv

    @property
    def iterations_total(self) -> int:
        cfg = self.cfg
        return cfg.runs * (cfg.iterations + 1) * len(self.csvs)


def _repeat(step, seconds: float) -> None:
    """Call step() at least once, then again while one more fits in seconds."""
    start = time.perf_counter()
    n = 0
    while True:
        step()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Medians over repeated invocations, in seconds at the nominal machine
    speed.  On a shared machine the speed drifts by +-25% over tens of
    seconds, which the median of one run cannot average out.  So calibrate.py
    runs before the first step and after every step, and each invocation's
    time is scaled by NOMINAL_S over the mean of the two calibration times
    that bracket it."""
    samples = {"raw_wall_s": [], "raw_setup_s": [], "peak_rss_mb": [],
               "calibration_s": [run.calibrate()]}
    walls, setups = [], []

    def step():
        # set-up is sampled half as often, and has the widest bound
        bounds = run.bounds() if len(walls) % 2 == 0 else None
        inv, _ = run.experiment()
        calibs = samples["calibration_s"]
        calibs.append(run.calibrate())
        scale = 2.0 * NOMINAL_S / (calibs[-2] + calibs[-1])
        walls.append(inv.wall_s * scale)
        samples["raw_wall_s"].append(inv.wall_s)
        samples["peak_rss_mb"].append(inv.rss_mb)
        if bounds is not None:
            setups.append(bounds.wall_s * scale)
            samples["raw_setup_s"].append(bounds.wall_s)

    _repeat(step, seconds)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "iters_per_s": run.iterations_total / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "ok_share": (run.attempted - run.failed) / run.attempted,
    }
    return metrics, samples


def layer_metrics(doc: dict) -> dict:
    """Calls and self time per span name; self time is a span's duration
    minus the time its child spans cover (their duration plus the tracer's
    own excluded labelling time)."""
    names, spans = doc["names"], doc["spans"]
    covered = [0] * len(spans)
    for _, parent, t0, t1, excluded, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0 + excluded
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    in_engine = [False] * len(spans)
    variates = f_evals = engine = engine_binding = 0
    for i, (nid, parent, t0, t1, _, size) in enumerate(spans):
        name = names[nid]
        calls[name] += 1
        self_ns[name] += t1 - t0 - covered[i]
        in_engine[i] = name == "solver.run" or (parent >= 0 and in_engine[parent])
        if name == "gaussian.standard_normals":
            variates += size
        elif name == "utility.f_value" and parent >= 0 \
                and names[spans[parent][0]] == "utility.reference_solution":
            f_evals += 1
        elif name.startswith("sets.project.") and in_engine[i]:
            engine += 1
            engine_binding += name == "sets.project.binding"
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_ns[layer] * 1e-9
    metrics.update({
        "gaussian.variates": variates,
        "utility.reference_solution.f_evals": f_evals,
        "sets.project.engine.calls": engine,
        "sets.project.engine_binding_share": engine_binding / engine if engine else 0.0,
        "stepsizes.alpha.calls": doc["counts"].get("stepsizes.alpha.calls", 0),
        "cli.import_s": doc["import_s"],
    })
    return metrics


def measure_layers(run: Run, seconds: float) -> tuple[dict, dict]:
    reps, traced_walls, plain_walls = [], [], []

    def step():
        inv, spans = run.experiment(traced=True)
        traced_walls.append(inv.wall_s)
        if inv.code == 0 and spans.is_file():
            reps.append(layer_metrics(json.loads(spans.read_text(encoding="utf-8"))))
        spans.unlink(missing_ok=True)
        plain_walls.append(run.experiment()[0].wall_s)

    _repeat(step, seconds)
    metrics = {name: 0.0 for name in PER_LAYER}
    if reps:
        metrics.update({name: statistics.median(r[name] for r in reps)
                        for name in reps[0]})
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(
        plain_walls)
    return metrics, {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls}


def provenance() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ssmd" / "cli.py").is_file():
        print(f"benchmark: no program at {SRC / 'ssmd'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            metrics, samples = measure_layers(run, args.seconds)
            units = PER_LAYER
        else:
            metrics, samples = measure_end_to_end(run, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "samples": samples, "sha256": run.hashes[0] if run.hashes else {},
              "sampled": run.sampled, "problems": run.problems, **provenance()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
