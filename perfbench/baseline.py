"""Record a baseline: runs of every workload over several seeds, plus one
traced run each, summarised as median and quartiles per metric.

    python3 perfbench/baseline.py

writes perfbench/baseline.json. Each run is `run.py` in its own process,
exactly as the benchmark command is run, for BENCHMARK.json's run_seconds.
`spread` is (q3 - q1) / median, the figure the run-to-run steadiness of a
metric is judged by.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "baseline.json")
SEEDS = tuple(range(1, 11))
# never used while tuning the benchmark; check claimed gains on it
HELD_OUT_SEED = 1009


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{cmd} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{cmd} reported incorrect results:\n{proc.stdout}")
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    doc = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version()},
        "seeds": list(SEEDS),
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result = run_once(name, seed, seconds, 0)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        traced = run_once(name, SEEDS[0], seconds, 1)
        doc["workloads"][name] = {
            "why": workload["why"],
            "pool": workloads.describe(name),
            "end_to_end": {m: summary(v) for m, v in values.items()},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        for m, v in doc["workloads"][name]["end_to_end"].items():
            print(f"{name} {m}: median {v['median']:.6g} spread {v['spread']:.3f}", flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
