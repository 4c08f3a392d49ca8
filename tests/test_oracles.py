import math

import numpy as np
import pytest

from spanembed.graph_core import Graph, Labelling, bandwidth_of_labelling, gnp, paley, rng_for
from spanembed.oracles import (
    TailBoundQuery,
    bijumbled_check,
    bijumbled_feasible,
    exact_bandwidth,
    exhaustive_subgraph_check,
    tail_bound,
)

from helpers import complete_graph, empty_graph


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestExactBandwidth:
    def test_paths(self):
        for n in (2, 5, 30):
            g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
            assert exact_bandwidth(g) == 1

    def test_c6_branch_and_bound(self):
        assert exact_bandwidth(cycle_graph(6)) == 2

    def test_k5(self):
        assert exact_bandwidth(complete_graph(5)) == 4

    def test_oracle_lower_bounds_labellings(self):
        g = gnp(9, 0.4, 17)
        opt = exact_bandwidth(g)
        rng = rng_for(17, stream=5)
        for _ in range(1000):
            l = Labelling(tuple(int(v) for v in rng.permutation(9)))
            assert bandwidth_of_labelling(g, l) >= opt

    def test_oversized_general_rejected(self):
        g = gnp(17, 0.5, 0)
        with pytest.raises(ValueError):
            exact_bandwidth(g)


class TestSubgraphCheck:
    def test_single_edge(self):
        host = Graph.from_edges(4, [(0, 1)])
        guest = Graph.from_edges(2, [(0, 1)])
        assert exhaustive_subgraph_check(host, guest)

    def test_k4_not_in_c5(self):
        assert not exhaustive_subgraph_check(cycle_graph(5), complete_graph(4))

    def test_c4_in_paley13(self):
        assert exhaustive_subgraph_check(paley(13), cycle_graph(4))

    def test_too_many_guests_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_subgraph_check(gnp(20, 0.5, 1), gnp(12, 0.5, 2))


class TestBijumbled:
    def test_complete_zero_discrepancy(self):
        holds, info = bijumbled_check(complete_graph(8), 1.0, 0.0)
        assert holds and info["ratio"] == pytest.approx(0.0)

    def test_edgeless_fails(self):
        holds, info = bijumbled_check(empty_graph(6), 0.5, 0.0)
        assert not holds
        assert info["ratio"] > 0

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError):
            bijumbled_check(gnp(15, 0.5, 0), 0.5, 1.0)

    def test_paley13_sampled_regression(self):
        _, info = bijumbled_check(paley(13), 0.5, 0.0)
        assert info["ratio"] == pytest.approx(1.2247448713915892, rel=1e-9)  # frozen


class TestBijumbledFeasible:
    def test_impossible_regime(self):
        assert not bijumbled_feasible(0.5, 1.0, 1000)  # 1 <= sqrt(500/32) ~ 3.95

    def test_large_nu_ok(self):
        assert bijumbled_feasible(0.5, 10.0, 1000)

    def test_tiny_p_unguarded(self):
        assert bijumbled_feasible(1e-6, 0.0, 1000)


class TestTailBounds:
    def test_chernoff_arithmetic(self):
        val = tail_bound(TailBoundQuery("binomial_chernoff", eps=0.1, mean=300))
        assert val == pytest.approx(2 * math.exp(-1))

    def test_mcdiarmid_eps_zero(self):
        assert tail_bound(TailBoundQuery("mcdiarmid", eps=0.0, c=(1.0, 2.0))) == pytest.approx(2.0)

    def test_hypergeometric_arithmetic(self):
        val = tail_bound(TailBoundQuery("hypergeometric", eps=0.1, t=3000))
        assert val == pytest.approx(2 * math.exp(-10))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            tail_bound(TailBoundQuery("binomial_chernoff", eps=0.1, mean=-1))
        with pytest.raises(ValueError):
            tail_bound(TailBoundQuery("nonsense", eps=0.1))

    def test_monte_carlo_never_exceeds_bound(self):
        q = 0.03
        trials, mean = 10_000, 300.0
        for seed in range(20):
            rng = rng_for(seed, stream=300)
            xs = rng.binomial(trials, q, size=2000)
            for eps in (0.1, 0.3):
                freq = float(np.mean(np.abs(xs - mean) > eps * mean))
                bound = tail_bound(TailBoundQuery("binomial_chernoff", eps=eps, mean=mean))
                assert freq <= bound
