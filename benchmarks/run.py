"""Benchmark of the exdil package: one workload per run, result as JSON.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload fit-mapped --seed 1 --seconds 20 --trace 0

The run sets the workload up SETUPS times, then repeats whole rounds of its
operations until ``--seconds`` have passed, checks every output, and prints
one JSON object as its last line.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it records spans around the calls
into each exdil module, writes them to ``benchmarks/out/`` and reports the
per-layer metrics instead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUPS = 9
WORKLOADS = ("fit-expansion", "fit-mapped", "expect-curve")

# One thread per BLAS call: with collocation workers on every core, the
# process then runs at most nproc threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Times `import exdil` in a fresh interpreter (set-up work a user repeats in
# every process, which a second import in this one would not show).
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import exdil; "
                "print(repr(time.perf_counter() - t))")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.split()[-1])


def run(args) -> dict:
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    problems = []

    setup_times, states = [], []
    for _ in range(SETUPS):
        seconds = import_seconds()
        if tracer:
            tracer.phase = "setup"
        start = time.perf_counter()
        states.append(workload.setup())
        setup_times.append(seconds + time.perf_counter() - start)
        if tracer:
            tracer.phase = None
    state = states[0]
    if len({pickle.dumps(s) for s in states}) != 1:
        problems.append("set-up is not deterministic")
    problems += workload.check_setup(state)

    walls, cpus, attempted, failed = [], [], 0, 0
    first = None
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        operations = workload.operations(state)
        outcomes = []
        if tracer:
            tracer.phase = "round"
        wall, cpu = time.perf_counter(), time.process_time()
        for operation in operations:
            try:
                outcomes.append(operation())
            except Exception:
                traceback.print_exc()
                outcomes.append(None)
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
        if tracer:
            tracer.phase = None
        walls.append(wall / len(operations))
        cpus.append(cpu / len(operations))
        attempted += len(operations)
        failed += sum(o is None for o in outcomes)
        if None in outcomes:
            continue
        if first is None:
            first = outcomes
            problems += workload.check_round(state, outcomes)
        elif outcomes != first:
            problems.append("a repeated round gave different results")
    if first is not None:
        problems += workload.final_checks(state, first)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer:
        OUT.mkdir(exist_ok=True)
        spans.write_csv(tracer.spans,
                        OUT / f"trace_{args.workload}_seed{args.seed}.csv")
        metrics = spans.layer_metrics(tracer.spans, SETUPS, len(walls))
        metrics["trace.run_s"] = {"value": statistics.median(walls),
                                  "unit": "s"}
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exdil" / "__init__.py").is_file():
        print(f"run.py: no exdil sources at {SRC}; run it from the root of "
              "a checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import exdil
    if Path(exdil.__file__).resolve().parent != SRC / "exdil":
        print(f"run.py: imported exdil from {exdil.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = run(args)
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
