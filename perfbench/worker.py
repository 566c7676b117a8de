"""One round of a workload in a fresh process: set up, run the task list
once, check every answer, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--tasks K]
                                [--spans PATH]

Set-up is importing `hypalg` (from this checkout's `src`, compiled from
source) and generating the task list from the seed. Between tasks, after every CALIBRATION_EVERY_S of
task time (and before the first and after the last task), the process times
a fixed slice of the benchmark's own pure-Python work, so that the runner
can tell how fast the machine was while the tasks ran. `--tasks K` runs only
the first K tasks; the state each of them meets is the same as in a full
round. With `--spans` the process records spans around the package's public
functions and writes them to PATH.json / PATH.bin.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time

import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# never created: importing `hypalg` with this as bytecode cache compiles it
NO_PYCACHE = os.path.join(HERE, "out", "no-pycache")

CALIBRATION_EVERY_S = 0.1
CALIBRATION_GRAPHS = (
    workloads._graph(2, 5, []),
    workloads._graph(2, 6, [(i, (i + 1) % 6) for i in range(6)]),
)


def import_package():
    """Import `hypalg` from this checkout, never from an installed copy,
    and always compile it from source, so that set-up time does not depend
    on whether a bytecode cache happens to exist."""
    sys.path.insert(0, SRC)
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix, sys.dont_write_bytecode = NO_PYCACHE, True
    try:
        hg = importlib.import_module("hypalg")
        importlib.import_module("hypalg.cli")
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    if not os.path.abspath(hg.__file__).startswith(os.path.join(SRC, "hypalg")):
        raise ImportError(f"hypalg imported from {hg.__file__}, not from {SRC}")
    return hg


def calibration_slice() -> float:
    """Seconds for a fixed slice of backtracking over tuples and sets, the
    kind of work the package does, with the collector paused so that the
    package's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for g in CALIBRATION_GRAPHS:
            oracles.automorphisms(*g)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_tasks(hg, tasks) -> tuple[list[dict], list[float]]:
    """Run each task once, one at a time, and judge it against its known
    answer. Only `task.run` is timed. Also returns the calibration slices
    taken in between."""
    out = []
    slices = [calibration_slice()]
    since = 0.0
    for task in tasks:
        error = None
        start = time.perf_counter()
        try:
            result = task.run(hg)
        except Exception as exc:  # judged below: refusal or failure
            error = exc
        seconds = time.perf_counter() - start
        if task.refusal:
            ok = isinstance(error, getattr(hg, task.refusal))
            note = f"expected {task.refusal}, got {error!r}"
        elif error is not None:
            ok, note = False, f"raised {error!r}"
        else:
            got, want = task.summarize(result), task.expected()
            ok, note = got == want, f"got {got!r}, expected {want!r}"
        out.append({"name": task.name, "seconds": seconds, "ok": ok, "note": None if ok else note})
        since += seconds
        if since >= CALIBRATION_EVERY_S:
            slices.append(calibration_slice())
            since = 0.0
    slices.append(calibration_slice())
    return out, slices


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tasks", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    hg = import_package()
    tasks = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    recorder = None
    if args.spans:
        import spans

        recorder = spans.Recorder()
        recorder.install(hg)
    results, slices = run_tasks(hg, tasks[: args.tasks])
    if recorder is not None:
        recorder.write(args.spans)
    print(json.dumps({
        "setup_s": setup_s,
        "tasks": results,
        "calibration": slices,
        "complete": len(results) == len(tasks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
