"""Record the wall time, peak memory and output digests of ssmd experiments.

    python perf/record.py --out BENCH_<n>.json [--skip-tier1] [CONFIG ...]

Runs REPEATS fresh ``python -m ssmd.cli experiment`` processes per config,
each followed by one ``bounds`` process (the benchmark's setup command),
round-robin over the configs, so that drift of the machine's speed spreads
over all of them alike.  The configs default to ``perf/configs/*.cfg``: three
Monte-Carlo-scale ones and the four benchmark workloads as
``benchmarks/run.py`` writes them at seed 41.  Per config the record holds
the median and quartiles of the wall time of ``experiment`` and of
``bounds``, the largest peak RSS that ``os.wait4`` reports for an
``experiment`` child, and the sha256 of every CSV and ``.meta``
it wrote; outputs that differ between repeats are an error.  Unless
``--skip-tier1`` is given, it also times one run of the Tier-1 suite.

The launcher uses the standard library only and never imports numpy, so a
child's ``ru_maxrss`` is its own: on Linux it starts from the resident size of
the process that forked it, and exec does not reset it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "perf" / "configs"
REPEATS = 5


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_once(command: str, config: Path, *extra: str) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one ``ssmd <command> --config config``
    process, its stdout discarded."""
    argv = [sys.executable, "-m", "ssmd.cli", command, "--config", str(config), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    err = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode != 0:
        raise RuntimeError(f"{config.name}: {command} exit {proc.returncode}: {err.strip()}")
    return wall, usage.ru_maxrss / 1024.0


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def record_configs(configs: list[Path]) -> dict:
    walls = {c: [] for c in configs}
    bounds = {c: [] for c in configs}
    rss = {c: [] for c in configs}
    digests: dict[Path, dict] = {}
    config_hash: dict[Path, str] = {}
    with tempfile.TemporaryDirectory(prefix="ssmd-perf-") as work:
        for rep in range(REPEATS):
            for config in configs:
                out = Path(work) / f"{config.stem}-{rep}"
                wall, peak = run_once("experiment", config, "--out", str(out))
                walls[config].append(wall)
                rss[config].append(peak)
                bounds[config].append(run_once("bounds", config)[0])
                got = {p.name: _sha256(p) for p in sorted(out.iterdir())}
                if digests.setdefault(config, got) != got:
                    raise RuntimeError(f"{config.name}: outputs differ between repeats")
                meta = next(out.glob("*.meta")).read_text(encoding="utf-8")
                config_hash[config] = meta.split("config_hash = ", 1)[1].split("\n", 1)[0]
    return {config.stem: {
        "config": config.name,
        "config_hash": config_hash[config],
        "wall_s": quartiles(walls[config]),
        "bounds_wall_s": quartiles(bounds[config]),
        "peak_rss_mb": max(rss[config]),
        "sha256": digests[config],
    } for config in configs}


def tier1() -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def provenance() -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", type=Path,
                        help="config files (default: perf/configs/*.cfg)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--skip-tier1", action="store_true")
    args = parser.parse_args(argv)
    configs = [c.resolve() for c in args.configs] or sorted(CONFIGS.glob("*.cfg"))
    if not configs:
        parser.error(f"no configs given and none in {CONFIGS}")
    try:
        record = {"provenance": provenance(), "repeats": REPEATS,
                  "configs": record_configs(configs),
                  "tier1": None if args.skip_tier1 else tier1()}
    except (RuntimeError, OSError) as exc:
        print(f"record: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
