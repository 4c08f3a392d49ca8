import pytest

from spanembed.balancing import (
    BalanceTargets,
    BalancingError,
    global_balance,
    local_balance,
    small_move_select,
)
from spanembed.graph_core import VertexSet, gnp, rng_for

from helpers import complete_graph, complete_reduced, degree_into, empty_graph, move_touches


def probe_move_equidistribution(host, x, s, probes, max_tuple, cap, slack, seed=0):
    """Post-hoc check that |N cap S| <= cap * |N cap X| + slack over sampled
    host common neighbourhoods of up to max_tuple vertices."""
    rng = rng_for(seed, stream=62)
    for _ in range(probes):
        size = int(rng.integers(1, max_tuple + 1))
        vs = [int(v) for v in rng.choice(host.n, size=size, replace=False)]
        nmask = host.common_neighbourhood(vs)
        in_s = (nmask & s.mask).bit_count()
        in_x = (nmask & x.mask).bit_count()
        if in_s > cap * in_x + slack:
            return False
    return True


def make_instance(n, p, seed, sizes, r, k):
    g = gnp(n, p, seed)
    cells = [(i, j) for i in range(r) for j in range(k)]
    clusters, start = {}, 0
    for cell, s in zip(cells, sizes):
        clusters[cell] = VertexSet.from_iter(n, range(start, start + s))
        start += s
    return g, clusters, cells


PARAMS = dict(eps=0.25, d=0.1, p=0.4)


def reference_small_move_select(g, x, z_list, m, eps, d, p, seed=0):
    """The per-vertex loop that `small_move_select` replaced; kept as the oracle of
    its degree-table form."""
    if m > len(x) // 2:
        raise BalancingError("small-move", f"m={m} exceeds |X|/2={len(x) // 2}")
    eligible = []
    for v in x:
        if all(degree_into(g, v, z.mask) >= (d - eps) * p * len(z) - 1e-12 for z in z_list):
            eligible.append(v)
    if len(eligible) < m:
        raise BalancingError("small-move", f"only {len(eligible)} eligible vertices for m={m}")
    rng = rng_for(seed, stream=61)
    picked = rng.permutation(len(eligible))[:m]
    return VertexSet.from_iter(g.n, (eligible[int(i)] for i in picked))


def outcome(select, *args, **kwargs):
    try:
        return select(*args, **kwargs)
    except BalancingError as exc:
        return str(exc)


class TestSmallMove:
    def test_complete_graph_all_eligible(self):
        g = complete_graph(60)
        x = VertexSet.from_iter(60, range(30))
        z = [VertexSet.from_iter(60, range(30, 60))]
        s = small_move_select(g, x, z, 10, 0.0, 1.0, 1.0, seed=5)
        assert len(s) == 10 and not (s.mask & ~x.mask)

    def test_degree_starved_vertex_never_selected(self):
        g = complete_graph(60).without_edges([(0, v) for v in range(30, 60)])
        x = VertexSet.from_iter(60, range(30))
        z = [VertexSet.from_iter(60, range(30, 60))]
        for seed in range(10):
            s = small_move_select(g, x, z, 14, 0.0, 1.0, 1.0, seed=seed)
            assert 0 not in s

    def test_shortfall_reports_eligible_count(self):
        g = empty_graph(40)
        x = VertexSet.from_iter(40, range(20))
        z = [VertexSet.from_iter(40, range(20, 40))]
        with pytest.raises(BalancingError, match="eligible"):
            small_move_select(g, x, z, 5, 0.0, 0.5, 1.0, seed=1)

    def test_m_cap(self):
        g = complete_graph(20)
        x = VertexSet.from_iter(20, range(10))
        z = [VertexSet.from_iter(20, range(10, 20))]
        with pytest.raises(BalancingError, match="exceeds"):
            small_move_select(g, x, z, 6, 0.0, 0.5, 1.0, seed=1)

    def test_probe_equidistribution(self):
        host = gnp(500, 0.4, 8)
        x = VertexSet.from_iter(500, range(250))
        s = small_move_select(host, x, [VertexSet.from_iter(500, range(250, 500))], 25, 0.25, 0.1, 0.4, seed=8)
        # |N cap S| stays near (|S|/|X|) |N cap X| on sampled common neighbourhoods
        assert probe_move_equidistribution(host, x, s, probes=50, max_tuple=2, cap=0.3, slack=4.0, seed=8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop(self, seed):
        n = 300
        g = gnp(n, 0.4, seed)
        x = VertexSet.from_iter(n, range(0, 300, 2))
        z_lists = [
            [],
            [VertexSet.from_iter(n, range(1, 150, 2))],
            [VertexSet.from_iter(n, range(1, 300, 4)), VertexSet.from_iter(n, range(3, 300, 4))],
        ]
        outcomes = set()
        for z_list in z_lists:
            for eps, d in [(0.0, 1.0), (0.25, 0.1), (0.0, 0.9), (0.1, 1.3), (0.0, 1.5)]:
                for m in (1, 40, 75, 76):
                    args = (g, x, z_list, m, eps, d, 0.4)
                    got = outcome(small_move_select, *args, seed=seed)
                    assert got == outcome(reference_small_move_select, *args, seed=seed)
                    outcomes.add(type(got))
        assert outcomes == {VertexSet, str}


class TestGlobalBalance:
    def test_already_balanced_noop(self):
        g, clusters, cells = make_instance(600, 0.4, 3, [100] * 6, 3, 2)
        targets = BalanceTargets({c: 100 for c in cells})
        work, log = global_balance(clusters, targets, complete_reduced(3, 2), g, **PARAMS, gamma=0.2, seed=1)
        assert not log.moves
        assert work == clusters

    def test_single_surplus_single_move(self):
        g, clusters, cells = make_instance(600, 0.4, 3, [105, 95, 100, 100, 100, 100], 3, 2)
        targets = BalanceTargets({c: 100 for c in cells})
        work, log = global_balance(clusters, targets, complete_reduced(3, 2), g, **PARAMS, gamma=0.2, seed=1)
        assert len(log.moves) == 1 and len(log.moves[0][3]) == 5
        for j in range(2):
            assert sum(len(work[(i, j)]) - 100 for i in range(3)) == 0

    def test_three_column_pattern(self):
        # column surpluses (+3, -1, -2) resolve within k passes
        sizes = [103, 99, 98, 100, 100, 100, 100, 100, 100]
        g, clusters, cells = make_instance(900, 0.4, 5, sizes, 3, 3)
        targets = BalanceTargets({c: 100 for c in cells})
        work, log = global_balance(clusters, targets, complete_reduced(3, 3), g, **PARAMS, gamma=0.2, seed=2)
        assert len(log.moves) <= 3
        for j in range(3):
            assert sum(len(work[(i, j)]) - 100 for i in range(3)) == 0

    def test_bad_totals_rejected(self):
        g, clusters, cells = make_instance(600, 0.4, 3, [100] * 6, 3, 2)
        with pytest.raises(BalancingError):
            BalanceTargets({c: 99 for c in cells}).validate_against(clusters, 0.1, 600)


class TestLocalBalance:
    def test_exact_sizes_no_moves(self):
        g, clusters, cells = make_instance(600, 0.4, 3, [100] * 6, 3, 2)
        targets = BalanceTargets({c: 100 for c in cells})
        work, log = local_balance(clusters, targets, complete_reduced(3, 2), g, **PARAMS, seed=1)
        assert not log.moves

    def test_row_surplus_moves_down(self):
        g, clusters, cells = make_instance(400, 0.4, 4, [105, 100, 95, 100], 2, 2)
        targets = BalanceTargets({c: 100 for c in cells})
        work, log = local_balance(clusters, targets, complete_reduced(2, 2), g, **PARAMS, seed=1)
        assert all(len(work[c]) == 100 for c in cells)
        assert len(log.moves) == 1
        assert log.moves[0][1] == (0, 0) and log.moves[0][2] == (1, 0)

    def test_staircase_over_four_rows(self):
        sizes = [104, 100, 98, 100, 101, 99, 97, 101]
        g, clusters, cells = make_instance(800, 0.4, 6, sizes, 4, 2)
        targets = BalanceTargets({c: 100 for c in cells})
        work, glog = global_balance(clusters, targets, complete_reduced(4, 2), g, **PARAMS, gamma=0.2, seed=3)
        work, llog = local_balance(work, targets, complete_reduced(4, 2), g, **PARAMS, seed=4)
        assert all(len(work[c]) == 100 for c in cells)
        # conservation of the vertex multiset
        before = 0
        for c in cells:
            before |= clusters[c].mask
        after = 0
        for c in cells:
            after |= work[c].mask
        assert before == after
        touches = {}
        for log in (glog, llog):
            for cell, cnt in move_touches(log).items():
                touches[cell] = touches.get(cell, 0) + cnt
        assert max(touches.values(), default=0) <= 3
        # per-cluster churn stays within the move budget
        total_imbalance = sum(abs(s - 100) for s in sizes)
        for c in cells:
            symdiff = (clusters[c].mask ^ work[c].mask).bit_count()
            assert symdiff <= 2 * total_imbalance
        # row-clique pairs keep the degree floor at a relaxed eps after moves
        from spanembed.regularity import check_super_regular

        for i in range(4):
            assert check_super_regular(
                g, g, work[(i, 0)], work[(i, 1)], 2 * PARAMS["eps"], PARAMS["d"], PARAMS["p"],
                budget=32, seed=9,
            )

    def test_unbalanced_columns_rejected(self):
        g, clusters, cells = make_instance(400, 0.4, 4, [103, 99, 99, 99], 2, 2)
        targets = BalanceTargets({c: 100 for c in cells})
        with pytest.raises(BalancingError, match="column"):
            local_balance(clusters, targets, complete_reduced(2, 2), g, **PARAMS, seed=1)
