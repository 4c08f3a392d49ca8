"""Pipeline benchmark: one workload per setting of the paper.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Every call's output goes through the benchmark's own check (check.py) outside
the timed interval.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`, the end-to-end metrics with
`--trace 0` and the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import os

# one compute thread: pin BLAS before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 11

# a fresh interpreter's set-up: import the program, build the first config
SETUP_PROBE = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench.workloads import make_config
make_config({workload!r}, 0)
import time
print(time.perf_counter())
"""


def setup_seconds(workload: str) -> float:
    """Median time from spawning an interpreter to the point of the first call.

    time.perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes.
    """
    code = SETUP_PROBE.format(src=str(SRC), root=str(ROOT), workload=workload)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        samples.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def row_without_runtime(harness, rec) -> str:
    return harness.csv_row(rec).rsplit(",", 1)[0]


def main(argv=None) -> int:
    # imported here: the __main__ block puts the checkout's src/ on the path
    from spanembed import harness

    from perfbench.check import Capture
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, calls_per_run, make_config, pipeline_seeds

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    # One CPU for the calls and the set-up probes.  Unpinned, about a third
    # of the set-up samples took some 25 ms longer, most likely waiting for
    # the other, idle vCPU to wake.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    traced = bool(args.trace)
    setup_s = None if traced else setup_seconds(args.workload)
    seeds = pipeline_seeds(args.seed, calls_per_run(args.workload, args.seconds, traced))
    capture = Capture(harness)
    tracer = Tracer()
    times: list[float] = []
    vertices = attempted = failed = 0
    correct = True

    def call(cfg, with_tracer: bool):
        nonlocal vertices, attempted, failed, correct
        capture.reset()
        with ExitStack() as stack:
            if with_tracer:
                stack.enter_context(tracer)
            stack.enter_context(capture)
            t0 = time.perf_counter()
            rec = harness.run_pipeline(cfg)
            dt = time.perf_counter() - t0
        attempted += 1
        problems = capture.problems(cfg) if rec.success else []
        print(
            f"{args.workload} seed={cfg.seed} traced={int(with_tracer)} "
            f"success={rec.success} stage={rec.failure_stage or '-'} seconds={dt:.3f}",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  check failed: {problem}", file=sys.stderr)
        if not rec.success or problems:
            failed += 1
            correct = correct and not problems
        else:
            vertices += cfg.n
        return rec, dt

    for seed in seeds:
        cfg = make_config(args.workload, seed)
        if traced:
            rec_traced, _ = call(cfg, True)
            rec_plain, _ = call(make_config(args.workload, seed), False)
            # seeded determinism: tracing must not change the CSV row
            if row_without_runtime(harness, rec_traced) != row_without_runtime(harness, rec_plain):
                print(f"  rows differ with and without tracing at seed {seed}", file=sys.stderr)
                correct = False
        else:
            times.append(call(cfg, False)[1])

    if traced:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
    else:
        metrics = {
            "embedded_vertices_per_s": {"value": vertices / sum(times), "unit": "vertices/s"},
            "pipeline_s_p50": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "spanembed" / "__init__.py").is_file():
        print(f"error: no spanembed sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:1] = [str(SRC), str(ROOT)]
    sys.exit(main())
