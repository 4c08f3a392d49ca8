"""The benchmark's workloads: one fixed pipeline configuration per setting of the paper."""

from __future__ import annotations

import random

from spanembed.harness import ExperimentConfig

# Each workload's configuration, without its seed.  The values follow the
# paper's three settings; see README.md for why each was chosen.
WORKLOADS: dict[str, dict] = {
    "resilience-gnp-n4000": dict(
        mode="random", guest_family="hamilton_cycle", adversary="random",
        n=4000, p=0.4, k=2, gamma=0.2, eps=0.25, d=0.1, mu=0.15, r0=4,
    ),
    "paley-q2017": dict(
        mode="bijumbled", paley_q=2017, guest_family="hamilton_cycle", adversary="none",
        n=2017, p=0.5, k=2, gamma=0.1, eps=0.25, d=0.1, mu=0.15,
    ),
    "tree-degenerate-n4000": dict(
        mode="degenerate", guest_family="bounded_tree:3", adversary="none",
        n=4000, p=0.4, k=2, gamma=0.2, eps=0.3, d=0.1, mu=0.15, r0=12,
        D=1, Delta=3, xi_guest=0.45,
    ),
}

# Wall time of one call on the reference machine (README.md).  A run makes
# round(seconds / CALL_SECONDS) calls, so it takes about --seconds there and
# does the same work on every commit.
CALL_SECONDS = {
    "resilience-gnp-n4000": 7.0,
    "paley-q2017": 2.3,
    "tree-degenerate-n4000": 3.7,
}


def calls_per_run(workload: str, seconds: float, traced: bool) -> int:
    """Calls in one run; a traced run also repeats each call untraced."""
    return max(1, round(seconds / (CALL_SECONDS[workload] * (2 if traced else 1))))


def pipeline_seeds(seed: int, calls: int) -> list[int]:
    """Pipeline seeds 0 .. calls-1, in an order drawn from the benchmark seed.

    The inputs of a workload are fixed, so that runs differ only by the
    machine's noise: one call of the tree workload takes 3.1 to 4.3 s
    depending on its seed, and runs on different seeds spread its throughput
    by 6% from the seed mix alone.
    """
    seeds = list(range(calls))
    random.Random(seed).shuffle(seeds)
    return seeds


def make_config(workload: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, **WORKLOADS[workload])
