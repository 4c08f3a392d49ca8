import math
import os
import re
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

from spanembed import embedder, harness
from spanembed.embedder import EMBED_RESTARTS, EmbedError
from spanembed.graph_core import gnp, iter_bits, paley, write_graph_file
from spanembed.guest_prep import check_zero_free
from spanembed.reduced_graph import HostPrepError
from spanembed.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    adversary_delete,
    csv_row,
    make_guest,
    parse_config_file,
    run_pipeline,
)
from spanembed.graph_core import bandwidth_of_labelling

from helpers import SMOKE_CFG, TREE_CFG

# the host-free part of the paley(101) run of acceptance criterion 9
PALEY_101_CFG = dict(
    n=101, p=0.5, k=2, gamma=0.1, eps=0.8, d=0.1, mode="bijumbled", adversary="none",
    mu=0.3, xi=0.05, xi_guest=0.3, vartheta=0.15, guest_family="hamilton_cycle",
)


class TestAdversary:
    def test_budget_zero_identity(self):
        g = gnp(200, 0.5, 1)
        assert adversary_delete(g, "random", 0.2, 2, 0.5, seed=1, budget=0) == g

    def test_floor_respected(self):
        g = gnp(400, 0.5, 2)
        out = adversary_delete(g, "random", 0.2, 2, 0.5, seed=2)
        floor = 0.7 * 0.5 * 400
        assert out.min_degree() >= floor - 1e-9
        assert out.m < g.m

    def test_tight_floor_identity(self):
        # on a regular host a floor just under the common degree freezes everything
        g = paley(101)
        gamma = 49.5 / (0.5 * 101) - 1 / 2
        out = adversary_delete(g, "random", gamma, 2, 0.5, seed=3)
        assert out == g

    def test_unsatisfiable_floor_rejected(self):
        g = gnp(100, 0.3, 4)
        with pytest.raises(ConfigError):
            adversary_delete(g, "random", 0.9, 2, 0.3, seed=4)

    def test_triangle_killer(self):
        # killing all triangles at a vertex costs ~p^2 n edges at each of its
        # neighbours, so the floor must sit well below (1 - p) pn
        g = gnp(500, 0.5, 9)
        out = adversary_delete(g, "triangle_killer", 0.1, 1, 0.5, seed=9, target=0)
        nbrs = list(iter_bits(out.neighbours(0)))
        for i, u in enumerate(nbrs):
            for v in nbrs[i + 1:]:
                assert not out.has_edge(u, v)
        assert out.min_degree() >= 0.1 * 0.5 * 500 - 1e-9
        assert out.neighbours(0) == g.neighbours(0)  # edges at the target itself survive

    def test_triangle_killer_blocked_raises(self):
        g = gnp(500, 0.5, 9)
        with pytest.raises(ConfigError):
            adversary_delete(g, "triangle_killer", 0.05, 2, 0.5, seed=9, target=0)

    @pytest.mark.parametrize("budget", [0, 5])
    def test_triangle_killer_rejects_a_budget(self, budget):
        # the killer deletes every edge inside the target's neighbourhood, so a
        # budget would be ignored, and budget 0 would skip the adversary unseen
        g = gnp(200, 0.5, 1)
        with pytest.raises(ConfigError, match="triangle_killer takes no adversary_budget"):
            adversary_delete(g, "triangle_killer", 0.1, 1, 0.5, seed=1, budget=budget)

    def test_bipartite_push(self):
        g = gnp(400, 0.5, 5)
        out = adversary_delete(g, "bipartite_push", 0.2, 2, 0.5, seed=5)
        assert out.m < g.m
        assert out.min_degree() >= 0.7 * 0.5 * 400 - 1e-9


class TestMakeGuest:
    def test_hamilton_even(self):
        h, l, col, meta = make_guest("hamilton_cycle", 100, 0)
        assert meta["bandwidth"] == 2 and meta["k"] == 2
        assert col.is_proper(h) and not col.zero_vertices()

    def test_hamilton_odd_single_zero(self):
        h, l, col, meta = make_guest("hamilton_cycle", 101, 0)
        assert col.is_proper(h)
        zeros = col.zero_vertices()
        assert len(zeros) == 1
        assert l.pos[zeros[0]] == 100  # last position, far from the prefix

    def test_power_cycle(self):
        h, l, col, meta = make_guest("power_cycle:2", 60, 0)
        assert meta["k"] == 3 and meta["Delta"] == 4
        assert col.is_proper(h)
        assert all(h.degree(v) == 4 for v in range(60))
        assert meta["bandwidth"] <= 4

    def test_power_cycle_divisibility(self):
        with pytest.raises(ConfigError):
            make_guest("power_cycle:2", 61, 0)

    def test_power_path(self):
        h, l, col, meta = make_guest("power_path:2", 50, 0)
        assert col.is_proper(h) and meta["bandwidth"] == 2

    def test_bounded_tree(self):
        h, l, col, meta = make_guest("bounded_tree:3", 500, 7)
        assert h.m == 499  # a tree
        assert max(h.degree(v) for v in range(500)) <= 3
        assert col.is_proper(h)
        # colour classes near-balanced by construction
        ones = sum(1 for c in col.sigma if c == 1)
        assert abs(ones - 250) <= 5

    def test_f_factor(self):
        h, l, col, meta = make_guest("f_factor:triangle", 99, 0)
        assert meta["k"] == 3 and h.m == 99
        assert col.is_proper(h)
        h2, _, col2, meta2 = make_guest("f_factor:c4", 100, 0)
        assert meta2["k"] == 2 and col2.is_proper(h2)

    @pytest.mark.parametrize(
        "name,sigma,k,delta,bandwidth,edges",
        [
            ("edge", (1, 2), 2, 1, 1, 6),
            ("path3", (1, 2, 1), 2, 2, 1, 8),
            ("triangle", (1, 2, 3), 3, 2, 2, 12),
            ("c4", (1, 2, 1, 2), 2, 2, 3, 12),
            ("k4", (1, 2, 3, 4), 4, 3, 3, 18),
        ],
    )
    def test_f_factor_pinned(self, name, sigma, k, delta, bandwidth, edges):
        h, _, col, meta = make_guest(f"f_factor:{name}", 12)
        assert col.sigma == sigma * (12 // len(sigma)) and col.k == k
        assert meta == {"k": k, "Delta": delta, "bandwidth": bandwidth}
        assert h.m == edges

    def test_metadata_honest(self):
        for fam, n in [("hamilton_cycle", 200), ("power_path:2", 120), ("bounded_tree:3", 300)]:
            h, l, col, meta = make_guest(fam, n, 3)
            assert meta["bandwidth"] == bandwidth_of_labelling(h, l)
            assert col.is_proper(h)
            assert check_zero_free(col, l, 10 / 0.01, max(32, 4 * meta["k"] * meta["bandwidth"]))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(p=0.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(mode="weird").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(gamma=-1).validate()
        with pytest.raises(ConfigError, match="unknown guest family"):
            ExperimentConfig(guest_family="nonsense").validate()
        with pytest.raises(ConfigError, match="not an integer"):
            ExperimentConfig(guest_family="power_cycle:two").validate()
        with pytest.raises(ConfigError, match="takes no parameter"):
            ExperimentConfig(guest_family="hamilton_cycle:2").validate()
        with pytest.raises(ConfigError, match="paley_q or host_file"):
            ExperimentConfig(mode="bijumbled", n=101).validate()
        with pytest.raises(ConfigError, match="prime"):
            ExperimentConfig(mode="bijumbled", paley_q=103, n=103).validate()
        with pytest.raises(ConfigError, match="n=100"):
            ExperimentConfig(mode="bijumbled", paley_q=101, n=100).validate()
        ExperimentConfig().validate()

    @pytest.mark.parametrize(
        "key,value",
        [("adversary_target", 1000), ("adversary_target", 5000), ("adversary_target", -1),
         ("adversary_budget", -5), ("xi_guest", 0.0), ("xi_guest", -0.1),
         ("r0", 0), ("r0", -3)],
    )
    def test_validation_names_an_out_of_range_value(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}={value} must "):
            ExperimentConfig(n=1000, **{key: value}).validate()

    @pytest.mark.parametrize("mode", ["random", "degenerate"])
    @pytest.mark.parametrize("name,value", [("paley_q", 101), ("host_file", "host.txt")])
    def test_validation_rejects_a_host_source_outside_bijumbled_mode(self, mode, name, value):
        # the run would silently build G(n, p) and ignore the named host
        with pytest.raises(ConfigError, match=f"^{name} needs mode bijumbled, not '{mode}'$"):
            ExperimentConfig(n=101, mode=mode, **{name: value}).validate()

    @pytest.mark.parametrize("budget", [0, 5])
    def test_validation_rejects_a_budget_for_triangle_killer(self, budget):
        with pytest.raises(ConfigError, match="triangle_killer takes no adversary_budget"):
            ExperimentConfig(adversary="triangle_killer", adversary_budget=budget).validate()

    @pytest.mark.parametrize(
        "n,family,message",
        [
            (120, "power_cycle:0", "power_cycle needs c >= 1"),
            (120, "power_path:0", "power_path needs c >= 1"),
            (120, "bounded_tree:1", "bounded_tree needs max degree >= 2"),
            (120, "power_cycle:-2", "power_cycle needs c >= 1"),
            (1000, "power_cycle:2", "power_cycle:2 needs (c+1) | n"),
            (1000, "f_factor:triangle", "f_factor:triangle needs 3 | n"),
            (2, "hamilton_cycle", "hamilton_cycle needs n >= 3"),
        ],
    )
    def test_validation_rejects_a_guest_that_n_does_not_allow(self, n, family, message):
        # the run would build no guest and end in a failure_stage=guest row
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(n=n, guest_family=family).validate()

    def test_validation_rejects_nu_outside_bijumbled_mode(self):
        # only the bijumbled mode certifies nu, so the run would ignore it
        with pytest.raises(ConfigError, match="^nu needs mode bijumbled, not 'random'$"):
            ExperimentConfig(nu=10.0).validate()

    @pytest.mark.parametrize("budget", [0, 5])
    def test_validation_rejects_a_budget_for_no_adversary(self, budget):
        with pytest.raises(ConfigError, match="^adversary none deletes no edge and takes no adversary_budget$"):
            ExperimentConfig(adversary="none", adversary_budget=budget).validate()

    def test_validation_accepts_the_range_ends(self):
        ExperimentConfig(n=1000, adversary_target=999, adversary_budget=0, xi_guest=1e-9, r0=1).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["p", "gamma", "eps", "d", "xi", "mu", "vartheta", "nu", "xi_guest"],
    )
    def test_validation_names_a_non_finite_value(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name}={value} must be finite$"):
            ExperimentConfig(**{name: value}).validate()

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 500\np = 0.35   # density\n\nguest_family = hamilton_cycle\n")
        vals = parse_config_file(str(path))
        assert vals == {"n": 500, "p": 0.35, "guest_family": "hamilton_cycle"}

    def test_config_file_bad_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_config_file_none_unsets_only_optional_keys(self, tmp_path):
        path = tmp_path / "none.cfg"
        path.write_text("adversary = none\nxi_guest = none\nnu =\n")
        vals = parse_config_file(str(path))
        assert vals == {"adversary": "none", "xi_guest": None, "nu": None}
        ExperimentConfig(**vals).validate()

    @pytest.mark.parametrize("line", ["n = abc", "p = 0.4x", "guest_family =", "n = none"])
    def test_config_file_bad_value(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# header\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: ") + ".*" + line.split()[0]):
            parse_config_file(str(path))


@pytest.mark.parametrize(
    "xi,xi_guest,r,blocklen,expect",
    [
        (0.3, 0.01, 50, 320, 0.01),  # a configured value wins
        (0.08, None, 2, 32, 0.08),  # xi
        (0.01, None, 1, 32, 0.05),  # the floor
        (0.01, None, 4, 40, 0.16),  # the block grid's share 2 r blocklen / (k n)
    ],
)
def test_xi_guest_takes_the_largest_default(xi, xi_guest, r, blocklen, expect):
    cfg = ExperimentConfig(n=1000, k=2, xi=xi, xi_guest=xi_guest)
    assert harness._xi_guest(cfg, r, blocklen) == pytest.approx(expect)


class TestRunPipeline:
    def test_dense_small_run(self):
        cfg = ExperimentConfig(n=200, p=1.0, k=2, gamma=0.2, eps=0.1, d=0.5,
                               adversary="none", seed=1, xi_guest=0.15)
        rec = run_pipeline(cfg)
        assert rec.success, (rec.failure_stage, rec.notes.get("error"))
        assert rec.r >= 2 and rec.failure_stage == ""

    def test_non_vacuous_screens_succeed(self):
        # d > eps/2: host preparation runs the inheritance screen on every vertex
        for seed in range(3):
            cfg = ExperimentConfig(n=1000, p=0.4, k=2, gamma=0.2, adversary="random",
                                   guest_family="hamilton_cycle", eps=0.3, d=0.2, mu=0.15, seed=seed)
            rec = run_pipeline(cfg)
            assert rec.success, (seed, rec.failure_stage, rec.notes.get("error"))

    def test_failure_is_recorded_not_raised(self):
        # two disjoint cliques fail the degree floor at the adversary stage
        cfg = ExperimentConfig(n=100, p=0.2, k=2, gamma=0.6, eps=0.25, d=0.1, seed=1)
        rec = run_pipeline(cfg)
        assert not rec.success
        assert rec.failure_stage.startswith("adversary")
        assert "adversary" in rec.stage_timings

    def test_csv_row_shape(self):
        cfg = ExperimentConfig(n=200, p=1.0, k=2, gamma=0.2, eps=0.1, d=0.5,
                               adversary="none", seed=1, xi_guest=0.15)
        rec = run_pipeline(cfg)
        row = csv_row(rec)
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        assert row.split(",")[0] == "1"

    def test_failed_embed_records_its_attempts(self, monkeypatch):
        """An `embed` that fails every one of its EMBED_RESTARTS attempts records
        them all as retries, where a first-try success records 0."""
        attempts = []

        def no_matching(*args):
            attempts.append(1)
            raise EmbedError("no perfect matching")

        monkeypatch.setattr(embedder, "_match_buffers", no_matching)
        cfg = ExperimentConfig(n=200, p=1.0, k=2, gamma=0.2, eps=0.1, d=0.5,
                               adversary="none", seed=1, xi_guest=0.15)
        rec = run_pipeline(cfg)
        assert rec.failure_stage == "embed" and len(attempts) == EMBED_RESTARTS
        assert rec.embed_retries == EMBED_RESTARTS
        assert csv_row(rec).split(",")[CSV_HEADER.split(",").index("embed_retries")] == str(EMBED_RESTARTS)

    def test_failure_stage_is_one_csv_field(self):
        # a tight special-set window breaks two assignment certificates at once
        cfg = ExperimentConfig(n=200, p=1.0, k=2, gamma=0.2, eps=0.1, d=0.5,
                               adversary="none", seed=1, xi_guest=0.001)
        rec = run_pipeline(cfg)
        assert rec.failure_stage == "guest-assignment:part_sizes"
        assert "special_small" in rec.notes["error"]
        assert len(csv_row(rec).split(",")) == len(CSV_HEADER.split(","))

    def test_recursion_limit_untouched(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            cfg = ExperimentConfig(n=1000, p=0.4, k=2, gamma=0.2, adversary="random",
                                   guest_family="hamilton_cycle", eps=0.25, d=0.1, mu=0.15, seed=0)
            assert run_pipeline(cfg).success
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old)

    def test_benchmark_hooks_see_one_call_each(self):
        # perfbench/check.py captures H, G and phi by patching these three names
        # on spanembed.harness, so run_pipeline must call them through it
        cfg = dict(SMOKE_CFG, seed=0)
        plain = csv_row(run_pipeline(ExperimentConfig(**cfg))).rsplit(",", 1)[0]
        with ExitStack() as stack:
            spies = [
                stack.enter_context(mock.patch.object(harness, name, wraps=getattr(harness, name)))
                for name in ("adversary_delete", "make_guest", "embed")
            ]
            row = csv_row(run_pipeline(ExperimentConfig(**cfg))).rsplit(",", 1)[0]
        assert [spy.call_count for spy in spies] == [1, 1, 1]
        assert row == plain

    def test_only_the_guest_keeps_neighbour_lists(self):
        """A host's or G's neighbour tuples would hold about p·n² entries: no stage
        may make them; the guest, built by `from_edges`, keeps its own."""
        seen = {}
        prepare_host, make_guest = harness.prepare_host, harness.make_guest

        def spy_prepare(g, host, *args, **kwargs):
            seen.update(g=g, host=host)
            return prepare_host(g, host, *args, **kwargs)

        def spy_guest(*args, **kwargs):
            out = make_guest(*args, **kwargs)
            seen["guest"] = out[0]
            return out

        with mock.patch.object(harness, "prepare_host", spy_prepare), mock.patch.object(harness, "make_guest", spy_guest):
            assert run_pipeline(ExperimentConfig(**dict(SMOKE_CFG, seed=0))).success
        assert seen["g"]._nbrs is None and seen["host"]._nbrs is None
        assert seen["guest"]._nbrs is not None

    def test_determinism_modulo_runtime(self):
        cfg = ExperimentConfig(n=300, p=0.5, k=2, gamma=0.2, eps=0.25, d=0.1,
                               adversary="random", seed=4, mu=0.15, xi_guest=0.15)
        r1, r2 = run_pipeline(cfg), run_pipeline(cfg)
        a = csv_row(r1).rsplit(",", 1)[0]
        b = csv_row(r2).rsplit(",", 1)[0]
        assert a == b

    def test_host_file_runs_like_the_paley_order(self, tmp_path):
        path = tmp_path / "paley101.txt"
        path.write_text(write_graph_file(paley(101)))
        for seed in range(3):
            rows = [
                csv_row(run_pipeline(ExperimentConfig(**dict(PALEY_101_CFG, seed=seed, **source)))).rsplit(",", 1)[0]
                for source in ({"paley_q": 101}, {"host_file": str(path)})
            ]
            assert rows[0] == rows[1], seed
        with pytest.raises(ConfigError, match=f"^host file {re.escape(str(path))} has 101 vertices but n=100$"):
            run_pipeline(ExperimentConfig(**dict(PALEY_101_CFG, host_file=str(path), n=100)))

    def test_nu_gate(self):
        rec = run_pipeline(ExperimentConfig(**dict(PALEY_101_CFG, paley_q=101, nu=1.0)))
        assert not rec.success and rec.failure_stage == "bijumbled-check"
        assert rec.notes["error"].startswith("certified nu=")
        rows = [
            csv_row(run_pipeline(ExperimentConfig(**dict(PALEY_101_CFG, paley_q=101, **gate)))).rsplit(",", 1)[0]
            for gate in ({}, {"nu": 10.0})
        ]
        assert rows[0] == rows[1]

    def test_nu_gate_needs_a_circulant_host(self, tmp_path):
        path = tmp_path / "gnp101.txt"
        path.write_text(write_graph_file(gnp(101, 0.5, 0)))
        cfg = dict(PALEY_101_CFG, host_file=str(path))
        rec = run_pipeline(ExperimentConfig(**dict(cfg, nu=100.0)))
        assert not rec.success and rec.failure_stage == "bijumbled-check"
        assert rec.notes["error"] == "host is not circulant: no ν certificate"
        rec = run_pipeline(ExperimentConfig(**cfg))
        assert rec.failure_stage != "bijumbled-check" and "adversary" in rec.stage_timings
        assert rec.notes["nu_upper"] is None and rec.notes["bijumbled_feasible"] is None

    def test_paley_blocks_hold_32_positions(self, monkeypatch):
        # the hamilton cycle's bandwidth 2 gives blocklen max(32, 4*k*2) = 32
        # at any n: no floor of a float round trip takes a position off
        blocklens = []
        assign_guest = harness.assign_guest

        def spy(*args, **kwargs):
            ga = assign_guest(*args, **kwargs)
            blocklens.append(ga.blocks.blocklen)
            return ga

        monkeypatch.setattr(harness, "assign_guest", spy)
        cfg = dict(SMOKE_CFG, mode="bijumbled", paley_q=2017, adversary="none", n=2017, p=0.5, gamma=0.1, seed=0)
        assert run_pipeline(ExperimentConfig(**cfg)).success
        assert blocklens == [32]

    def test_wide_guest_passes_the_guest_stage_at_scale(self, monkeypatch):
        # power_cycle:3 has bandwidth 6, so its blocks hold 4*4*6 = 96
        # positions, which cover it exactly; the host structure is stubbed out
        def stop(*args, **kwargs):
            raise HostPrepError(None, "stopped after the guest stage")

        monkeypatch.setattr(harness, "prepare_host", stop)
        cfg = ExperimentConfig(n=10_000, p=0.6, k=4, Delta=6, guest_family="power_cycle:3", adversary="none")
        rec = run_pipeline(cfg)
        assert rec.failure_stage == "host-structure"
        assert "guest" in rec.stage_timings

    def test_guest_k_mismatch(self):
        # power_cycle:2 is 3-coloured: the family alone decides it, so validate
        # rejects the config before any stage runs
        cfg = ExperimentConfig(n=60, p=1.0, k=2, guest_family="power_cycle:2",
                               adversary="none", eps=0.1, d=0.5, seed=0)
        for call in (cfg.validate, lambda: run_pipeline(cfg)):
            with pytest.raises(ConfigError, match="^guest power_cycle:2 uses k=3 but config has k=2$"):
                call()

    def test_guest_degree_above_delta(self):
        # the guest's maximum degree 3 exceeds Delta = 2, and Delta = 3 passes
        cfg = ExperimentConfig(**dict(TREE_CFG, Delta=2, seed=0))
        for call in (cfg.validate, lambda: run_pipeline(cfg)):
            with pytest.raises(
                ConfigError, match="^guest bounded_tree:3 has maximum degree 3 but config has Delta=2$"
            ):
                call()
        ExperimentConfig(**dict(TREE_CFG, seed=0)).validate()

    def test_degenerate_mode_tree(self):
        cfg = ExperimentConfig(n=1000, p=0.4, k=2, gamma=0.2, eps=0.3, d=0.1, D=1,
                               Delta=3, guest_family="bounded_tree:3", mode="degenerate",
                               adversary="random", seed=0, mu=0.15, xi_guest=0.45)
        rec = run_pipeline(cfg)
        assert rec.success, (rec.failure_stage, rec.notes.get("error"))
        bo = rec.notes["bounded_order_violations"]
        assert bo == {"back_degree": 0, "locality": 0, "buffer_locality": 0}

    def test_power_cycle_pipeline(self):
        cfg = ExperimentConfig(n=960, p=0.5, k=3, gamma=0.15, eps=0.35, d=0.1, Delta=4,
                               guest_family="power_cycle:2", adversary="random", seed=0,
                               mu=0.2, xi_guest=0.25)
        rec = run_pipeline(cfg)
        assert rec.success, (rec.failure_stage, rec.notes.get("error"))

    def test_power_cycle_with_exceptional_vertices_fails_honestly(self):
        # every vertex of a squared cycle lies in a triangle, so the anchored
        # pre-embedding has no candidates whenever V0 is nonempty
        cfg = ExperimentConfig(n=960, p=0.5, k=3, gamma=0.15, eps=0.35, d=0.1, Delta=4,
                               guest_family="power_cycle:2", adversary="random", seed=3,
                               mu=0.2, xi_guest=0.25)
        rec = run_pipeline(cfg)
        if not rec.success:
            assert rec.failure_stage.startswith("pre-embed")


# The environment of the CLI's child processes: src/ first on PYTHONPATH, so
# they import the package that this process tests.
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ),
}


class TestCli:
    def test_cli_run_writes_csv(self, tmp_path):
        out = tmp_path / "result.csv"
        cmd = [
            sys.executable, "-m", "spanembed.cli", "run",
            "--n", "200", "--p", "1.0", "--k", "2", "--gamma", "0.2",
            "--eps", "0.1", "--d", "0.5", "--adversary", "none",
            "--seed", "3", "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].split(",")[8] in ("true", "false")

    def test_cli_invalid_config_exit_code(self, tmp_path):
        garbled = tmp_path / "garbled.txt"
        garbled.write_text("not a graph\n")
        for args in (
            ["--p", "2.0"],
            ["--guest", "nonsense"],
            ["--mode", "bijumbled"],
            ["--mode", "bijumbled", "--host-file", str(tmp_path / "missing.txt")],
            ["--mode", "bijumbled", "--host-file", str(garbled)],
            ["--n", "99", "--p", "1.0", "--guest", "power_cycle:2", "--k", "2", "--adversary", "none",
             "--eps", "0.1", "--d", "0.5"],
        ):
            cmd = [sys.executable, "-m", "spanembed.cli", "run", *args]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV, timeout=60)
            assert proc.returncode == 1, (args, proc.stderr)
            errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
            assert len(errors) == 1 and "Traceback" not in proc.stderr, (args, proc.stderr)

    def test_cli_adversary_target_out_of_range_exit_code(self, tmp_path):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("adversary = triangle_killer\nadversary_target = 5000\n")
        cmd = [sys.executable, "-m", "spanembed.cli", "run", "--n", "1000", "--p", "0.4",
               "--k", "2", "--gamma", "0.2", "--eps", "0.25", "--config", str(cfg)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "error: adversary_target=5000 must lie in [0, n=1000)\n", proc.stderr

    def test_cli_out_of_range_r0_exit_code(self, tmp_path):
        cfg = tmp_path / "r0.cfg"
        cfg.write_text("r0 = -3\n")
        cmd = [sys.executable, "-m", "spanembed.cli", "run", "--n", "1000", "--p", "0.4",
               "--k", "2", "--gamma", "0.2", "--eps", "0.25", "--config", str(cfg)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == "error: r0=-3 must be >= 1\n", proc.stderr

    def test_cli_non_finite_value_exit_code(self, tmp_path):
        (tmp_path / "xi_guest.cfg").write_text("n = 200\np = 0.5\nxi_guest = nan\n")
        for args, key in (
            (["--n", "200", "--p", "0.5", "--gamma", "nan"], "gamma"),
            (["--config", str(tmp_path / "xi_guest.cfg")], "xi_guest"),
        ):
            cmd = [sys.executable, "-m", "spanembed.cli", "run", *args]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV, timeout=60)
            assert proc.returncode == 1, (args, proc.stderr)
            assert proc.stderr == f"error: {key}=nan must be finite\n", (args, proc.stderr)

    def test_cli_multi_seed_and_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "n = 200\np = 1.0\nk = 2\ngamma = 0.2\neps = 0.1\nd = 0.5\n"
            "adversary = none\nxi_guest = 0.15\n"
        )
        out = tmp_path / "rows.csv"
        cmd = [sys.executable, "-m", "spanembed.cli", "run", "--config", str(cfg),
               "--seed", "1", "--seeds", "2", "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1" and lines[2].split(",")[0] == "2"


# CSV rows without runtime_ms.  Every stage's seeded output feeds them, so a
# change to any stage's result shows here.  Smoke seeds 0-3, (eps, d) =
# (0.3, 0.2) and (0.25, 0.3) seeds 0-1, bipartite_push seeds 0-1, eps = 0.08
# seed 0 (fails in cleanup), then the resilience, Paley and tree settings of
# the benchmark, seed 0.
PINNED_CONFIGS = [
    *(dict(SMOKE_CFG, seed=s) for s in range(4)),
    *(dict(SMOKE_CFG, eps=0.3, d=0.2, seed=s) for s in range(2)),
    *(dict(SMOKE_CFG, eps=0.25, d=0.3, seed=s) for s in range(2)),
    *(dict(SMOKE_CFG, adversary="bipartite_push", seed=s) for s in range(2)),
    dict(SMOKE_CFG, eps=0.08, seed=0),
    dict(SMOKE_CFG, n=4000, seed=0),
    dict(SMOKE_CFG, mode="bijumbled", paley_q=2017, adversary="none", n=2017, p=0.5, gamma=0.1, seed=0),
    dict(TREE_CFG, seed=0),
]
PINNED_ROWS = """\
0,1000,0.4,2,0.2,hamilton_cycle,random,random,true,-,2,12,50,0
1,1000,0.4,2,0.2,hamilton_cycle,random,random,true,-,2,12,46,0
2,1000,0.4,2,0.2,hamilton_cycle,random,random,true,-,2,10,41,0
3,1000,0.4,2,0.2,hamilton_cycle,random,random,true,-,2,12,47,0
0,1000,0.4,2,0.2,hamilton_cycle,random,random,true,-,2,0,20,0
1,1000,0.4,2,0.2,hamilton_cycle,random,random,true,-,2,2,27,0
0,1000,0.4,2,0.2,hamilton_cycle,random,random,true,-,2,12,50,0
1,1000,0.4,2,0.2,hamilton_cycle,random,random,true,-,2,12,46,0
0,1000,0.4,2,0.2,hamilton_cycle,bipartite_push,random,true,-,2,12,51,0
1,1000,0.4,2,0.2,hamilton_cycle,bipartite_push,random,true,-,2,12,49,0
0,1000,0.4,2,0.2,hamilton_cycle,random,random,false,host-structure:cleanup,0,0,0,0
0,4000,0.4,2,0.2,hamilton_cycle,random,random,true,-,2,0,16,0
0,2017,0.5,2,0.1,hamilton_cycle,none,bijumbled,true,-,2,1,19,0
0,4000,0.4,2,0.2,bounded_tree:3,none,degenerate,true,-,6,2,482,0
"""


def test_csv_rows_pinned():
    rows = [
        csv_row(run_pipeline(ExperimentConfig(**cfg))).rsplit(",", 1)[0] for cfg in PINNED_CONFIGS
    ]
    assert rows == PINNED_ROWS.splitlines()
