"""Record one trajectory point: every workload, end to end and traced.

Run from the repository root:

    python3 benchmarks/record.py [--first-seed N] [--out FILE]

For each workload of BENCHMARK.json this runs run.py for run_seconds with
--trace 0 once per seed (SEEDS seeds from N, default 1) and once with
--trace 1, prints every end-to-end metric (median, quartiles and their
spread as a share of the median, against the metric's bound) and every
per-layer metric by name with its unit, evaluates the layer predictions of
design.json against the traced run, and writes all of it, with provenance,
to FILE (default benchmarks/trajectory/<git sha>.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Runs per workload: the quartiles of ten runs are what the bounds are set on.
SEEDS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py run: (detail, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail)["detail"], json.loads(result)


def summarize(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def evaluate(claim: dict, layers: dict) -> list[dict]:
    """Observed value and verdict of one design.json check per workload."""
    out = []
    for w in claim["workloads"]:
        m = layers[w]
        name, op, want = claim["metric"], claim["op"], claim["value"]
        observed = m[name]["value"]
        if op == "largest":
            ok = all(observed >= v["value"] for k, v in m.items() if k.endswith(".self_s"))
        elif op == "share_above":
            def share(ms):
                total = sum(v["value"] for k, v in ms.items() if k.endswith(".self_s"))
                return ms[name]["value"] / total
            observed = share(m)
            ok = observed > share(layers[want])
        else:
            ok = {"==": observed == want, ">": observed > want,
                  ">=": observed >= want, "<=": observed <= want}[op]
        out.append({"metric": name, "workload": w, "op": op, "value": want,
                    "observed": observed, "ok": ok})
    return out


def git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    sha = git_sha()
    out_path = args.out or HERE / "trajectory" / f"{sha or 'unknown'}.json"

    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    seconds = contract["run_seconds"]
    point = {"commit": sha, "run_seconds": seconds, "seeds": seeds,
             "trace_seed": seeds[0], "workloads": {}}
    layers = {}
    for w in (w["name"] for w in contract["workloads"]):
        runs = [bench(w, s, seconds, 0) for s in seeds]
        detail, traced = bench(w, seeds[0], seconds, 1)
        point["provenance"] = {k: detail[k] for k in ("python", "numpy", "scipy", "nproc")}
        layers[w] = traced["metrics"]
        results = [r for _, r in runs] + [traced]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "per_layer": traced["metrics"],
            "trace_samples": detail["samples"],
            "samples": {str(d["seed"]): d["samples"] for d, _ in runs},
            "sha256": {str(d["seed"]): d["sha256"] for d, _ in runs},
            "sampled": {str(d["seed"]): d["sampled"] for d, _ in runs if d["sampled"]},
            "problems": [p for d, _ in runs for p in d["problems"]] + detail["problems"],
        }
        print(f"\n== {w}: correct {entry['correct']}, failed {entry['failed']} "
              f"of {entry['attempted']} invocations, {len(seeds)} seeds")
        for m in contract["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for _, r in runs], m["bound"])
            entry["end_to_end"][m["name"]] = {"unit": m["unit"], **s}
            flag = "" if s["spread"] < m["bound"] / 3 else "  (spread >= bound/3)"
            print(f"  {m['name']:<12} {s['median']:>12.5g} {m['unit']:<6} "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.2%} "
                  f"bound {m['bound']:.0%}{flag}")
        ratios = [g / t for per_csv in entry["sampled"].values()
                  for r in per_csv.values() for g, t in zip(r["gap"], r["tol"]) if t > 0]
        if ratios:
            print(f"  sampled gap / tolerance: largest {max(ratios):.3f} over "
                  f"{len(ratios)} rows")
        for p in entry["problems"]:
            print(f"  problem: {p}")
        point["workloads"][w] = entry

    print("\n== per-layer metrics (traced run, seed "
          f"{seeds[0]}; self time excludes child spans)")
    print(f"  {'metric':<42} {'unit':<6} " + " ".join(f"{w[:20]:>20}" for w in layers))
    for m in contract["per_layer"]:
        vals = " ".join(f"{layers[w][m['name']]['value']:>20.6g}" for w in layers)
        print(f"  {m['name']:<42} {m['unit']:<6} {vals}")

    point["predictions"] = [r for c in design["checks"] for r in evaluate(c, layers)]
    failed = [r for r in point["predictions"] if not r["ok"]]
    print(f"\n== predictions: {len(point['predictions']) - len(failed)} of "
          f"{len(point['predictions'])} hold")
    for r in failed:
        print(f"  FAILED {r['metric']} {r['op']} {r['value']} on {r['workload']}: "
              f"observed {r['observed']}")

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
