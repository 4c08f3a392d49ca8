"""Print the row count and the sha256 of the 82-run CSV set, without `runtime_ms`.

    python tests/csv_digest.py

The set, in this order: the smoke configuration seeds 0-19, the same at n = 1001
seeds 0-19, `bipartite_push` seeds 0-1, (eps, d) = (0.3, 0.2), (0.25, 0.3) and
(0.4, 0.25) seeds 0-2 each, eps = 0.08 seeds 0-1, then the benchmark workloads
`resilience-gnp-n4000` seeds 0-7, `paley-q2017` 0-12 and `tree-degenerate-n4000`
0-7.  Each row is `csv_row` of the run without its last field, `runtime_ms`, and
the digest is taken over the rows each followed by a newline.  Two checkouts
that print the same line gave byte-identical rows.  The runs take a few minutes.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from helpers import SMOKE_CFG  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from spanembed.harness import ExperimentConfig, csv_row, run_pipeline  # noqa: E402

WORKLOAD_SEEDS = {"resilience-gnp-n4000": 8, "paley-q2017": 13, "tree-degenerate-n4000": 8}


def configs():
    """The 82 configurations, in digest order."""
    yield from (dict(SMOKE_CFG, seed=s) for s in range(20))
    yield from (dict(SMOKE_CFG, n=1001, seed=s) for s in range(20))
    yield from (dict(SMOKE_CFG, adversary="bipartite_push", seed=s) for s in range(2))
    for eps, d in ((0.3, 0.2), (0.25, 0.3), (0.4, 0.25)):
        yield from (dict(SMOKE_CFG, eps=eps, d=d, seed=s) for s in range(3))
    yield from (dict(SMOKE_CFG, eps=0.08, seed=s) for s in range(2))
    for name, seeds in WORKLOAD_SEEDS.items():
        yield from (dict(WORKLOADS[name], seed=s) for s in range(seeds))


def main():
    rows = [csv_row(run_pipeline(ExperimentConfig(**cfg))).rsplit(",", 1)[0] for cfg in configs()]
    print(len(rows), hashlib.sha256("".join(row + "\n" for row in rows).encode()).hexdigest())


if __name__ == "__main__":
    main()
