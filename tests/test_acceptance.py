"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes a few minutes.
"""

import math
import time

import numpy as np

from helpers import SMOKE_CFG, cell_counts, complete_reduced, degree_into, even_targets, move_touches, pre_embed_instance
from spanembed.balancing import BalanceTargets, global_balance, local_balance
from spanembed.graph_core import VertexSet, gnp, paley, rng_for
from spanembed.guest_prep import assign_guest
from spanembed.harness import ExperimentConfig, csv_row, make_guest, run_pipeline
from spanembed.oracles import TailBoundQuery, bijumbled_feasible, circulant_nu_upper, tail_bound
from spanembed.pre_embedding import pre_embed, reserve_set, validate_restriction_pair
from spanembed.regularity import check_lower_regular, energy_partition


def report(criterion, ok, detail=""):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def test_criterion_1_resilience_smoke():
    """n=1000 random-adversary Hamilton runs: >= 18/20 succeed, each within budget."""
    successes, worst = 0, 0.0
    for seed in range(20):
        cfg = ExperimentConfig(seed=seed, **SMOKE_CFG)
        t0 = time.perf_counter()
        rec = run_pipeline(cfg)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        if rec.success:
            successes += 1
        else:
            assert rec.failure_stage, "failures must name a stage"
        assert elapsed <= 120.0
    ok = successes >= 18
    assert report(1, ok, f"{successes}/20 succeeded, worst {worst:.1f}s")


def test_criterion_2_odd_cycle_zero_routing():
    """n=1001: >= 16/20 succeed and the colour-zero vertex routes via an extension cell."""
    successes = 0
    for seed in range(20):
        cfg = ExperimentConfig(seed=seed, **{**SMOKE_CFG, "n": 1001})
        rec = run_pipeline(cfg)
        if not rec.success:
            assert rec.failure_stage
            continue
        routed = rec.notes["zero_routed"]
        assert len(routed) == 1
        _, cell = routed[0]
        assert cell in set(rec.notes["extension"].values())
        successes += 1
    ok = successes >= 16
    assert report(2, ok, f"{successes}/20 succeeded with zero routed via an extension cell")


def test_criterion_3_oracle_equivalence_regularity():
    """Sampled == exhaustive on 200 seeded 12x12 pairs; low-degree counts bounded."""
    eps, d, p = 0.3, 0.75, 0.9
    agree = certified = 0
    for seed in range(200):
        g = gnp(24, p, seed + 2000)
        x = VertexSet.from_iter(24, range(12))
        y = VertexSet.from_iter(24, range(12, 24))
        exact = check_lower_regular(g, x, y, eps, d, p, mode="exact")
        samp = check_lower_regular(g, x, y, eps, d, p, mode="sampled", seed=seed)
        assert exact.kind == samp.kind
        agree += 1
        if exact.kind == "lower_regular":
            certified += 1
            low = sum(1 for u in x if degree_into(g, u, y.mask) < (d - eps) * p * len(y))
            assert low < eps * len(x)
    ok = agree == 200 and certified >= 50
    assert report(3, ok, f"200/200 verdicts agree, {certified} pairs exactly certified")


def test_criterion_4_energy_partitioner():
    """50 seeded gnp(600,0.35) runs: monotone energy, per-trigger gain, cap, runtime."""
    eps = 0.25
    L = 100.0 / eps
    cap_rounds = math.ceil(1000 * eps**-5 * (L**2 + 16 * L))
    need = eps**5 / 1000
    worst = 0.0
    for seed in range(50):
        g = gnp(600, 0.35, seed + 300)
        t0 = time.perf_counter()
        res = energy_partition(g, [VertexSet.full(600)], eps, 0.35, seed=seed)
        worst = max(worst, time.perf_counter() - t0)
        assert worst <= 30.0
        assert res.rounds <= cap_rounds
        for i in range(len(res.energy_history) - 1):
            assert res.energy_history[i + 1] >= res.energy_history[i] - 1e-9
        for i, trig in enumerate(res.triggered_rounds):
            if trig and i + 1 < len(res.energy_history):
                assert res.energy_history[i + 1] - res.energy_history[i] >= need
    assert report(4, True, f"50 instances, worst {worst:.2f}s, round cap {cap_rounds}")


def _criterion5_instances():
    """(family, n, k, rows, blocklen).

    Sizes are aligned to the block grid (row mass a multiple of the block
    length) so section quantisation does not eat the 0.01n part-size budget;
    blocklen covers 4*k*bandwidth for the family.
    """
    plan = []
    for i in range(10):
        plan.append(("hamilton_cycle", 608 + 64 * i, 2, 2, 16))
    for i in range(8):
        plan.append(("hamilton_cycle", 609 + 64 * i, 2, 2, 16))
    for i in range(8):
        plan.append(("power_cycle:2", 576 + 96 * i, 3, 2, 48))
    for i in range(8):
        plan.append(("power_path:2", 576 + 48 * i, 3, 2, 24))
    for i in range(8):
        # log-bandwidth trees have boundary zones that are a large fraction of
        # n at this scale, so their special-set window is structurally wide
        plan.append(("bounded_tree:3", 640 if i % 2 == 0 else 960, 2, 2, 160, 0.45))
    for i in range(4):
        plan.append(("f_factor:triangle", 576 + 48 * i, 3, 2, 24))
    for i in range(4):
        plan.append(("f_factor:c4", 576 + 48 * i, 2, 2, 24))
    return plan


def test_criterion_5_guest_assignment_certificates():
    """50 (guest, reduced) instances across all families: every certificate holds."""
    plan = _criterion5_instances()
    assert len(plan) == 50
    done = 0
    for idx, entry in enumerate(plan):
        family, n, k, r, blocklen = entry[:5]
        xi = entry[5] if len(entry) > 5 else 0.06
        guest, lab, col, meta = make_guest(family, n, idx)
        red = complete_reduced(r, k)
        m = even_targets(n, r, k)
        assert 4 * k * meta["bandwidth"] <= blocklen  # blocklen covers the bandwidth
        ga = assign_guest(guest, lab, col, red, m, xi=xi, blocklen=blocklen, seed=idx)
        # full-scan homomorphism, checked here too: zero tolerance
        for u, v in guest.edges():
            assert red.has_edge(ga.f[u], ga.f[v])
        counts = cell_counts(ga)
        h1_dev = max(abs(counts.get(c, 0) - m[c]) for c in m)
        assert h1_dev <= 0.01 * n, (family, n, h1_dev)
        done += 1
    assert report(5, done == 50, f"{done}/50 instances certified, H1 within 0.01n")


def test_criterion_6_balancing_exactness():
    """100 imbalance fixtures: exact sizes, conservation, <= 3 touches per cluster."""
    # r >= k so the global pass always has a fresh target row available
    shapes = [(2, 2), (3, 2), (3, 3), (4, 2)]
    params = dict(eps=0.25, d=0.1, p=0.4)
    done = 0
    for case in range(100):
        r, k = shapes[case % len(shapes)]
        cells = [(i, j) for i in range(r) for j in range(k)]
        size = 100
        n = size * len(cells)
        rng = rng_for(case, stream=600)
        deltas = [int(rng.integers(-5, 6)) for _ in cells]
        deltas[-1] -= sum(deltas)
        if size + min(deltas) <= 0:
            deltas = [0] * len(cells)
        g = gnp(n, 0.4, case)
        clusters, start = {}, 0
        for cell, dlt in zip(cells, deltas):
            clusters[cell] = VertexSet.from_iter(n, range(start, start + size + dlt))
            start += size + dlt
        targets = BalanceTargets({c: size for c in cells})
        red = complete_reduced(r, k)
        work, glog = global_balance(clusters, targets, red, g, **params, gamma=0.2, seed=case)
        final, llog = local_balance(work, targets, red, g, **params, seed=case + 1)
        assert all(len(final[c]) == size for c in cells)
        before = after = 0
        for c in cells:
            before |= clusters[c].mask
            after |= final[c].mask
        assert before == after
        touches = {}
        for log in (glog, llog):
            for cell, cnt in move_touches(log).items():
                touches[cell] = touches.get(cell, 0) + cnt
        assert max(touches.values(), default=0) <= 3
        done += 1
    assert report(6, done == 100, f"{done}/100 fixtures balanced exactly")


def test_criterion_7_pre_embedding_invariants():
    """50 instances with |V0| in 1..8: coverage, containment, separation, f*, RP."""
    params = dict(eps=0.3, d=0.1, p=0.4, mu=0.15, delta=2, forbid_c4=False)
    done = 0
    seed_stream = iter(range(200))
    for i in range(50):
        target = 1 + (i % 8)
        # scan the seed stream for an instance whose natural V0 fits, padding
        # up to the target with cluster-tail vertices
        while True:
            seed = next(seed_stream)
            g, host, hs, guest, lab, assignment = pre_embed_instance(
                seed=seed, v0_target=target, eps=0.3
            )
            if len(hs.v0) == target:
                break
        i = seed  # seeds downstream derive from the instance seed
        reserve = reserve_set(g, host, hs.clusters, 0.15, seed=i)
        state, f_star, restr = pre_embed(
            g, host, hs.v0, hs.clusters, hs.reduced, guest, lab, assignment,
            reserve, **params, seed=i,
        )
        im = state.image_mask()
        assert hs.v0.mask & ~im == 0
        assert im & ~(hs.v0.mask | reserve.mask) == 0
        sep = 2 * hs.r + 20
        anchors = [a for a, _ in state.anchors]
        for j, a in enumerate(anchors):
            dist = guest.bfs_distances([a], limit=sep - 1)
            assert all(dist[b] == -1 for b in anchors[j + 1:])
        dom = state.domain_mask()
        for u, v in guest.edges():
            if ((dom >> u) & 1) or ((dom >> v) & 1):
                continue
            assert hs.reduced.has_edge(f_star[u], f_star[v])
        clusters_prime = {c: VertexSet(g.n, vs.mask & ~im) for c, vs in hs.clusters.items()}
        parts = {}
        for v in range(g.n):
            if not ((dom >> v) & 1):
                parts[f_star[v]] = parts.get(f_star[v], 0) + 1
        rep = validate_restriction_pair(
            restr, clusters_prime, parts, host, g,
            rho=0.1, zeta=0.01, delta=2, eps=0.25, p=0.4, d=0.1,
            f_star=f_star, guest=guest, skip=set(state.phi.keys()), seed=i,
        )
        assert rep["all_ok"]["ok"], {k: v for k, v in rep.items() if not v["ok"]}
        done += 1
    assert report(7, done == 50, f"{done}/50 instances hold every invariant")


def test_criterion_8_tail_bound_ceilings():
    """Monte Carlo deviation frequencies never exceed the stated bounds.

    The mean is sized so the bound sits well above both the true tail and the
    sampling granularity (2e-9 floors would make a single 5-sigma outlier a
    spurious failure).
    """
    trials, q = 10_000, 0.01
    mean = trials * q
    for seed in range(20):
        rng = rng_for(seed, stream=800)
        xs = rng.binomial(trials, q, size=2000)
        for eps in (0.1, 0.3):
            freq = float(np.mean(np.abs(xs - mean) > eps * mean))
            bound = tail_bound(TailBoundQuery("binomial_chernoff", eps=eps, mean=mean))
            assert freq <= bound
    ngood, nbad, draws = 1000, 9000, 1000
    e_hyp = draws * ngood / (ngood + nbad)
    for seed in range(20):
        rng = rng_for(seed, stream=801)
        xs = rng.hypergeometric(ngood, nbad, draws, size=2000)
        for eps, t in ((0.1, 30.0), (0.3, 30.0)):
            assert t >= eps * e_hyp - 1e-9
            freq = float(np.mean(np.abs(xs - e_hyp) > t))
            bound = tail_bound(TailBoundQuery("hypergeometric", eps=eps, t=t))
            assert freq <= bound
    assert report(8, True, "40 experiments stayed under the bounds")


def test_criterion_9_bijumbled_mode():
    """paley(101): the certified nu is feasible; pipeline >= 8/10 seeds."""
    nu = circulant_nu_upper(paley(101), 0.5)
    assert round(nu, 2) == 5.02
    assert bijumbled_feasible(0.5, nu, 101)
    successes = 0
    for seed in range(10):
        cfg = ExperimentConfig(
            n=101, p=0.5, k=2, gamma=0.1, eps=0.8, d=0.1, mode="bijumbled",
            paley_q=101, adversary="none", seed=seed, mu=0.3, xi=0.05,
            xi_guest=0.3, vartheta=0.15, guest_family="hamilton_cycle",
        )
        rec = run_pipeline(cfg)
        successes += rec.success
    ok = successes >= 8
    assert report(9, ok, f"nu={nu:.3f} feasible, {successes}/10 runs succeeded")


def test_criterion_10_determinism():
    """Re-running fixed seeds reproduces byte-identical CSV rows sans runtime."""
    rows_a, rows_b = [], []
    for seed in (0, 1, 2):
        cfg = ExperimentConfig(seed=seed, **SMOKE_CFG)
        rows_a.append(csv_row(run_pipeline(cfg)).rsplit(",", 1)[0])
        rows_b.append(csv_row(run_pipeline(cfg)).rsplit(",", 1)[0])
    ok = rows_a == rows_b
    assert report(10, ok, "3 seeds re-run byte-identically")
