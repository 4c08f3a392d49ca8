"""Alternating A/B of whole pipeline calls: this checkout against another one.

    python tests/ab_stages.py --base DIR --workload NAME [--seeds N] [--rounds R]

Both `src/` trees are imported into one process pinned to one CPU, with BLAS
on one thread: this checkout's as `spanembed`, DIR's as `spanembed_base`.  A
round calls each side once on every seed 0 .. N-1 of the workload, the two
sides in turn and the side that goes first alternating, so that the machine's
drift falls on both alike.  NAME is a benchmark workload (perfbench/workloads.py)
or `k3`, the k = 3 configuration of tests/test_embed_exactness.py.

Prints, per side, the summed call time, the median call time and each stage's
median and min span, and the change from DIR to this checkout.  Exits 1 if any
call's CSV row (without `runtime_ms`) or its φ differs between the sides.
The two sides share one heap, so a stage that allocates much, such as the host
and the adversary at n = 4000, can read slower on either side by a few
percent; the benchmark runs each side in a process of its own.
"""

from __future__ import annotations

import os

# one compute thread: pin BLAS before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from perfbench.workloads import WORKLOADS  # noqa: E402
from spanembed import harness  # noqa: E402
from test_embed_exactness import K3_CFG  # noqa: E402

CONFIGS = dict(WORKLOADS, k3=K3_CFG)


def load_harness(src: Path, name: str):
    """The `harness` module of the package under `src`, imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "spanembed" / "__init__.py", submodule_search_locations=[str(src / "spanembed")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.harness")


class Side:
    """One tree's calls: their times, stage spans, rows and φ, in call order."""

    def __init__(self, module):
        self.harness = module
        self.times: list[float] = []
        self.stages: dict[str, list[float]] = {}
        self.outputs: list[tuple[str, str]] = []
        self.result = None
        embed = module.embed

        def recording_embed(*args, **kwargs):
            self.result = embed(*args, **kwargs)
            return self.result

        module.embed = recording_embed

    def call(self, cfg: dict, seed: int) -> None:
        """One timed call.  Only a digest of φ is kept, so that the calls before
        do not grow the heap that the garbage collector scans."""
        config = self.harness.ExperimentConfig(seed=seed, **cfg)
        t0 = time.perf_counter()
        rec = self.harness.run_pipeline(config)
        self.times.append(time.perf_counter() - t0)
        for stage, ms in rec.stage_timings.items():
            self.stages.setdefault(stage, []).append(ms)
        phi = "-" if self.result is None else sorted(self.result.phi.items())
        digest = hashlib.sha256(repr(phi).encode()).hexdigest()
        self.outputs.append((self.harness.csv_row(rec).rsplit(",", 1)[0], digest))
        self.result = None


def change(base: float, new: float) -> str:
    return f"{(new - base) / base:+.1%}" if base else "-"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, type=Path, help="checkout whose src/ is the base side")
    ap.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    ap.add_argument("--seeds", type=int, default=13, help="seeds 0 .. N-1 (default 13)")
    ap.add_argument("--rounds", type=int, default=2, help="rounds over the seeds (default 2)")
    args = ap.parse_args(argv)
    base_src = args.base.resolve() / "src"
    if not (base_src / "spanembed" / "__init__.py").is_file():
        print(f"error: no spanembed sources under {base_src}", file=sys.stderr)
        return 2

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    base, new = Side(load_harness(base_src, "spanembed_base")), Side(harness)
    cfg = CONFIGS[args.workload]
    for r in range(args.rounds):
        for seed in range(args.seeds):
            pair = (base, new) if (r * args.seeds + seed) % 2 == 0 else (new, base)
            for side in pair:
                side.call(cfg, seed)

    calls = len(new.times)
    print(f"{args.workload}: seeds 0-{args.seeds - 1}, {args.rounds} rounds, {calls} calls a side")
    print(f"{'':24}{'base':>10}{'new':>10}{'change':>9}")
    for label, pick in (("summed call time s", sum), ("median call time s", statistics.median)):
        b, n = pick(base.times), pick(new.times)
        print(f"{label:24}{b:10.3f}{n:10.3f}{change(b, n):>9}")
    print(f"throughput change {change(1 / sum(base.times), 1 / sum(new.times))}")
    print("stage spans, median (min) ms:")
    for stage in new.stages:
        b, n = base.stages.get(stage, [0.0]), new.stages[stage]
        bm, nm = statistics.median(b), statistics.median(n)
        print(f"  {stage:22}{bm:9.2f} ({min(b):.2f}){nm:9.2f} ({min(n):.2f}){change(bm, nm):>9}")

    rows_differ = [i for i in range(calls) if base.outputs[i][0] != new.outputs[i][0]]
    phi_differ = [i for i in range(calls) if base.outputs[i][1] != new.outputs[i][1]]
    for i in rows_differ:
        print(f"row differs: call {i} (seed {i % args.seeds}): {base.outputs[i][0]} | {new.outputs[i][0]}")
    print(f"rows: {calls - len(rows_differ)} of {calls} calls equal; φ: {calls - len(phi_differ)} of {calls} equal")
    return 1 if rows_differ or phi_differ else 0


if __name__ == "__main__":
    sys.exit(main())
