"""hypalg benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload {reports,algebra,density} --seed N
                             --seconds S --trace {0,1}

A run is a closed loop with one client: each round is a fresh,
single-threaded worker process (so every cache starts cold, as for a
command-line user) that sets up, runs the seed's task list one task at a
time and checks every answer. After the first round, each round runs as
much of the task list, from the start, as the rest of the S seconds allows.

Times are reported in reference seconds. The 2-vCPU machine the baseline
was measured on changes speed by up to half from one second or minute to
the next (other tenants share its cores), which moves every raw time of a
run together.
Each worker therefore times a fixed slice of the benchmark's own
pure-Python work every 0.1 s of task time, and every time measured in a
round is scaled by CALIBRATION_REF_S / (mean slice time of that round).
Raw figures are printed alongside. A task's latency is the median over the
rounds that reached it and wall time is the sum of those; set-up time and
memory are medians over rounds.

--trace 0 reports the end-to-end metrics. --trace 1 runs traced and
untraced rounds in turn, starting and ending with a traced one, until S
seconds have passed and two rounds were traced; it reports the mean
per-layer metrics of the traced rounds, their mean wall time minus that of
the untraced ones as trace.overhead_s, and fails the run when a work count
differs between traced rounds. Metric names and units are those of
BENCHMARK.json. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Set-up time includes compiling `hypalg` from source (worker.import_package).
Whatever the caller's environment says, the benchmark writes no bytecode
and reads the standard library's from where it is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(HERE, "out")

DEADLINE_S = 170  # the whole run, all worker processes included
TAIL_BEYOND = 10  # tasks beyond the reported tail latency
# mean calibration slice (worker.calibration_slice) on the baseline machine
# in a quiet spell; it only sets the scale of reference seconds
CALIBRATION_REF_S = 0.0025


def load_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and of the per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


END_TO_END, PER_LAYER = load_metrics()


class BenchError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    rnd = json.loads(proc.stdout.splitlines()[-1])
    rnd["speed"] = CALIBRATION_REF_S / statistics.mean(rnd["calibration"])
    return rnd


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND tasks beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise BenchError(f"{len(ordered)} tasks are too few for a tail latency")
    return ordered[k], 100 * (k + 1) / len(ordered)


def judge(rounds: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    notes = []
    for rnd in rounds:
        for task in rnd["tasks"]:
            attempted += 1
            if not task["ok"]:
                failed += 1
                notes.append(f"FAILED {task['name']}: {task['note']}")
    return attempted, failed, notes


def end_to_end(rounds: list[dict]) -> tuple[dict, str]:
    complete = [rnd for rnd in rounds if rnd["complete"]]
    per_task = [
        statistics.median(
            rnd["tasks"][i]["seconds"] * rnd["speed"] for rnd in rounds if i < len(rnd["tasks"])
        )
        for i in range(len(complete[0]["tasks"]))
    ]
    tail_s, pct = tail(per_task)
    values = {
        "setup_s": statistics.median(rnd["setup_s"] * rnd["speed"] for rnd in rounds),
        "wall_s": sum(per_task),
        "task_p50_ms": 1000 * statistics.median(per_task),
        "task_tail_ms": 1000 * tail_s,
        "peak_rss_mb": statistics.median(rnd["peak_rss_mb"] for rnd in complete),
    }
    raw_wall = statistics.median(sum(t["seconds"] for t in rnd["tasks"]) for rnd in complete)
    speeds = [rnd["speed"] for rnd in rounds]
    note = (
        f"task_tail_ms is p{pct:.1f} of {len(per_task)} tasks; "
        f"{len(complete)} complete and {len(rounds) - len(complete)} partial rounds; "
        f"raw wall_s {raw_wall:.6f}; speed factors {min(speeds):.3f} to {max(speeds):.3f}"
    )
    return values, note


def fitting_prefix(first: dict, first_s: float, remaining: float) -> int:
    """How many leading tasks a new round can run in `remaining` seconds,
    judged by the first round (process start and answer checks included)."""
    timed = sum(t["seconds"] for t in first["tasks"])
    start_s = first["setup_s"] + 0.1  # interpreter start-up and set-up
    scale = 1.25 * max(first_s - start_s, timed) / timed
    budget = (remaining - start_s) / scale
    k = 0
    for task in first["tasks"]:
        budget -= task["seconds"]
        if budget < 0:
            break
        k += 1
    return k


def measure(workload: str, seed: int, seconds: int, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    rounds = [run_worker(base, deadline)]
    first_s = time.monotonic() - start
    while True:
        k = fitting_prefix(rounds[0], first_s, seconds - (time.monotonic() - start))
        if k == 0:
            break
        rounds.append(run_worker(base + ["--tasks", str(k)], deadline))
    values, note = end_to_end(rounds)
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, rounds, note, True


def measure_traced(workload: str, seed: int, seconds: int, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    os.makedirs(SPANS_DIR, exist_ok=True)
    start = time.monotonic()
    layers, plain, traced = [], [], []
    while True:
        path = os.path.join(SPANS_DIR, f"{workload}-{seed}-{len(traced)}")
        traced.append(run_worker(base + ["--spans", path], deadline))
        layer = spans.layer_metrics(*spans.load(path), PER_LAYER)
        layers.append({m: v * traced[-1]["speed"] if m.endswith("_s") else v for m, v in layer.items()})
        if len(traced) >= 2 and time.monotonic() - start >= seconds:
            break
        plain.append(run_worker(base, deadline))
    counts = [m for m in PER_LAYER if m.endswith(spans.COUNT_SUFFIXES)]
    drift = [
        f"{m}: {layers[0][m]} vs {layer[m]}" for layer in layers[1:] for m in counts if layer[m] != layers[0][m]
    ]
    values = {m: statistics.mean(layer[m] for layer in layers) for m in layers[0]}
    values.update({m: layers[0][m] for m in counts})

    def wall(rounds):
        return statistics.mean(sum(t["seconds"] for t in rnd["tasks"]) * rnd["speed"] for rnd in rounds)

    values["trace.overhead_s"] = wall(traced) - wall(plain)
    note = f"{len(traced)} traced and {len(plain)} untraced rounds; " + (
        "work counts repeat across the traced rounds" if not drift else
        "WORK COUNTS DIFFER between traced rounds: " + "; ".join(drift)
    )
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    return metrics, plain + traced, note, not drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hypalg benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, rounds, note, counts_ok = measure_traced(
                args.workload, args.seed, args.seconds, deadline
            )
        else:
            metrics, rounds, note, counts_ok = measure(
                args.workload, args.seed, args.seconds, deadline
            )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, notes = judge(rounds)
    for line in notes[:20]:
        print(line)
    print(f"workload {args.workload}, seed {args.seed}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(f"{'fail_ratio':40s} {failed / attempted:14.6f} ({failed} of {attempted} tasks)")
    print(json.dumps({
        "correct": failed == 0 and counts_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
