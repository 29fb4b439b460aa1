"""Tests for small-graph enumeration and Fourier-coefficient estimation."""

import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from geodetect import lowdeg
from geodetect.graphs import ModelParams, Seed, _gram_draws, _unit_gram_of
from geodetect.lowdeg import (
    _marginal,
    _pair_slots,
    _pattern_codes,
    enumerate_graphs_upto,
    fourier_coefficient_mc,
    low_degree_advantage,
    rgg_fourier_bound,
    small_graph_from_edges,
)
from geodetect.sphere import signed_cycle_expectation, solve_threshold

from oracles import (
    advantage_by_sample_products,
    automorphisms_by_permutation,
    canonical_code_by_permutation,
    edge_indicators_dense,
    edge_indicators_with_membership,
)

EDGE = small_graph_from_edges(2, [(0, 1)])
PATH3 = small_graph_from_edges(3, [(0, 1), (1, 2)])
PATH4 = small_graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
STAR3 = small_graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
TRIANGLE = small_graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
TWO_EDGES = small_graph_from_edges(4, [(0, 1), (2, 3)])
FOUR_CYCLE = small_graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
PENTAGON = small_graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
HOUSE = small_graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])


def iso_classes_by_permutation(v):
    """Second enumerator: union labeled graphs under direct permutation action."""
    slots = list(combinations(range(v), 2))
    classes = set()
    for mask in range(1, 1 << len(slots)):
        edges = {slots[b] for b in range(len(slots)) if mask >> b & 1}
        degree = [0] * v
        for i, j in edges:
            degree[i] += 1
            degree[j] += 1
        if min(degree) == 0:
            continue
        images = []
        for perm in permutations(range(v)):
            mapped = frozenset(
                (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges
            )
            images.append(mapped)
        classes.add(min(tuple(sorted(m)) for m in images))
    return classes


class TestEnumeration:
    def test_two_vertices(self):
        graphs = enumerate_graphs_upto(2)
        assert len(graphs) == 1
        assert graphs[0].e == 1

    def test_three_vertices(self):
        graphs = enumerate_graphs_upto(3)
        assert len(graphs) == 3  # edge, path, triangle
        assert sorted(g.e for g in graphs) == [1, 2, 3]

    def test_four_vertices_against_second_enumerator(self):
        graphs = enumerate_graphs_upto(4)
        expected = (
            len(iso_classes_by_permutation(2))
            + len(iso_classes_by_permutation(3))
            + len(iso_classes_by_permutation(4))
        )
        assert len(graphs) == expected == 10

    def test_canonical_codes_distinct(self):
        graphs = enumerate_graphs_upto(5)
        keys = {(g.v, g.canonical_code) for g in graphs}
        assert len(keys) == len(graphs)

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_graphs_upto(6)


class TestCanonicalization:
    def test_permutation_closure_exhaustive(self):
        # every labeled graph on <= 4 vertices maps to one code per class
        for v in (2, 3, 4):
            slots = list(combinations(range(v), 2))
            for mask in range(1 << len(slots)):
                edges = [slots[b] for b in range(len(slots)) if mask >> b & 1]
                base = small_graph_from_edges(v, edges)
                for perm in permutations(range(v)):
                    mapped = [(perm[i], perm[j]) for i, j in edges]
                    assert (
                        small_graph_from_edges(v, mapped).canonical_code
                        == base.canonical_code
                    )

    @pytest.mark.parametrize("v", [1, 2, 3, 4, 5])
    def test_codes_match_permutation_oracle(self, v):
        # every labeled graph on v vertices: table-driven code and automorphism
        # count against the one-permutation-at-a-time loops
        slots = list(combinations(range(v), 2))
        for mask in range(1 << len(slots)):
            edges = frozenset(slots[b] for b in range(len(slots)) if mask >> b & 1)
            graph = small_graph_from_edges(v, edges)
            assert graph.canonical_code == canonical_code_by_permutation(v, edges)
            assert graph.automorphisms == automorphisms_by_permutation(v, edges)

    @pytest.mark.parametrize(
        "v, edges",
        [
            (6, [(0, 1), (1, 2), (0, 2), (3, 4)]),
            (6, [(0, 5), (1, 4), (2, 3), (0, 1)]),
            (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6)]),
            (7, [(0, 6), (1, 6), (2, 6), (3, 5)]),
        ],
    )
    def test_codes_match_permutation_oracle_above_enumeration_cap(self, v, edges):
        graph = small_graph_from_edges(v, edges)
        edge_set = frozenset(graph.edges)
        assert graph.canonical_code == canonical_code_by_permutation(v, edge_set)
        assert graph.automorphisms == automorphisms_by_permutation(v, edge_set)

    def test_classification_fields(self):
        assert EDGE.is_forest and EDGE.component_count == 1
        assert PATH3.is_forest
        assert not TRIANGLE.is_forest and not TRIANGLE.has_tree_component
        assert TWO_EDGES.is_forest and TWO_EDGES.component_count == 2
        tri_plus_edge = small_graph_from_edges(
            5, [(0, 1), (1, 2), (0, 2), (3, 4)]
        )
        assert not tri_plus_edge.is_forest
        assert tri_plus_edge.has_tree_component  # the lone edge

    def test_embedding_counts(self):
        assert EDGE.embedding_count(10) == 45
        assert TRIANGLE.embedding_count(10) == 120
        assert PATH3.embedding_count(10) == 360
        assert FOUR_CYCLE.embedding_count(10) == 630


class TestFourierMc:
    def test_forest_vanishes(self):
        params = ModelParams(n=40, p=0.5, d=8, k=20)
        for h in (EDGE, PATH3):
            est = fourier_coefficient_mc(h, params, 40_000, Seed(31))
            assert abs(est.phi) <= 3 * est.stderr

    def test_triangle_matches_series(self):
        params = ModelParams(n=40, p=0.5, d=8, k=20)
        est = fourier_coefficient_mc(TRIANGLE, params, 120_000, Seed(32))
        predicted = (
            (0.5) ** 3
            * signed_cycle_expectation(3, 0.5, 8).value
            / (0.25) ** 1.5
        )
        assert abs(est.phi - predicted) <= 3 * est.stderr

    def test_component_factorization(self):
        # two disjoint edges: phi = phi(edge)^2 = 0
        params = ModelParams(n=40, p=0.5, d=8, k=20)
        est = fourier_coefficient_mc(TWO_EDGES, params, 40_000, Seed(33))
        assert abs(est.phi) <= 3 * est.stderr

    def test_full_community_scaling(self):
        # phi at k = n/2 over phi at k = n approaches (1/2)^3
        params_half = ModelParams(n=30, p=0.5, d=8, k=15)
        params_full = ModelParams(n=30, p=0.5, d=8, k=30)
        a = fourier_coefficient_mc(TRIANGLE, params_half, 120_000, Seed(34))
        b = fourier_coefficient_mc(TRIANGLE, params_full, 120_000, Seed(35))
        ratio = a.phi / b.phi
        se = abs(ratio) * math.hypot(a.stderr / a.phi, b.stderr / b.phi)
        assert abs(ratio - 0.125) <= 3 * se

    def test_bartlett_branch_used_for_large_d(self):
        # d >= v takes the batched Bartlett Gram route; latents at d = 10,000
        # would cost 30,000 normals per sample
        params = ModelParams(n=100, p=0.3, d=10_000, k=100)
        est = fourier_coefficient_mc(TRIANGLE, params, 20_000, Seed(36))
        predicted = signed_cycle_expectation(3, 0.3, 10_000).value / (0.21) ** 1.5
        assert abs(est.phi - predicted) <= 3 * est.stderr

    @pytest.mark.parametrize("p, seed", [(0.3, 37), (0.5, 38)])
    def test_latent_branch_used_below_v(self, p, seed):
        # d < v has no Bartlett decomposition, so the pentagon at d = 4 draws
        # latents; k = n makes the coefficient the full-model cycle expectation
        params = ModelParams(n=5, p=p, d=4, k=5)
        est = fourier_coefficient_mc(PENTAGON, params, 100_000, Seed(seed))
        predicted = signed_cycle_expectation(5, p, 4).value / (p * (1 - p)) ** 2.5
        assert abs(est.phi - predicted) <= 3 * est.stderr

    def test_chunk_memory_is_independent_of_d(self):
        # at d = 1024 a 2048-sample chunk of latents alone would be 64 MiB
        params = ModelParams(n=10, p=0.3, d=1024, k=10)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            _pattern_codes(4, params, rng, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_full_chunk_memory_budget(self):
        # one 65,536-sample chunk of a 7-edge v = 5 graph at the lowdeg
        # workload's d; a dense (65,536, 5, 5) factor or Gram is 12.5 MiB alone
        params = ModelParams(n=200, p=0.3, d=64, k=100)
        graph = small_graph_from_edges(5, [*HOUSE.edges, (0, 2)])
        solve_threshold(0.3, 64)  # the cached solve is not part of the chunk
        tracemalloc.start()
        try:
            fourier_coefficient_mc(graph, params, 65_536, Seed(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_embedding_size_guard(self):
        params = ModelParams(n=3, p=0.5, d=8, k=2)
        with pytest.raises(ValueError):
            fourier_coefficient_mc(FOUR_CYCLE, params, 10, Seed(0))

    def test_negative_order_refused(self):
        with pytest.raises(ValueError):
            small_graph_from_edges(-1, [])


class TestGeometryOnly:
    """The estimator simulates the geometry alone and applies (k/n)^v exactly."""

    @pytest.mark.parametrize("p, d", [(0.3, 16), (0.7, 4)])
    @pytest.mark.parametrize("graph", [TRIANGLE, FOUR_CYCLE, HOUSE], ids=["C3", "C4", "house"])
    def test_agrees_with_membership_and_coin_oracle(self, p, d, graph):
        # k < n, so the oracle's membership bits and p-coins really are drawn;
        # d = 4 puts the v = 5 graph on the latent route
        params = ModelParams(n=40, p=p, d=d, k=20)
        trials = 100_000
        est = fourier_coefficient_mc(graph, params, trials, Seed(61))
        ind = edge_indicators_with_membership(
            graph.v, graph.edges, params, np.random.default_rng(62), trials
        )
        signed = (ind - p).prod(axis=1) / (p * (1 - p)) ** (graph.e / 2)
        oracle, oracle_se = signed.mean(), signed.std() / math.sqrt(trials)
        assert abs(est.phi - oracle) <= 3 * math.hypot(est.stderr, oracle_se)

    @pytest.mark.parametrize("d", [16, 4])
    def test_indicators_draw_only_the_gram_block(self, d):
        params = ModelParams(n=40, p=0.3, d=d, k=20)
        got_rng, want_rng = np.random.default_rng(63), np.random.default_rng(63)
        got = _pattern_codes(HOUSE.v, params, got_rng, 500)
        gram, _ = _unit_gram_of(_gram_draws(HOUSE.v, d, want_rng, (500,)))
        tau = solve_threshold(0.3, d).tau
        # bit b is the b-th pair of all C(v, 2) in lexicographic order
        slots = combinations(range(HOUSE.v), 2)
        want = sum((gram[:, i, j] >= tau) << b for b, (i, j) in enumerate(slots))
        assert np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()  # nothing drawn after the block

    def test_isolated_vertices_need_no_membership(self):
        params = ModelParams(n=40, p=0.3, d=16, k=20)
        padded = small_graph_from_edges(4, TRIANGLE.edges)
        a = fourier_coefficient_mc(TRIANGLE, params, 100_000, Seed(65))
        b = fourier_coefficient_mc(padded, params, 100_000, Seed(66))
        assert abs(a.phi - b.phi) <= 3 * math.hypot(a.stderr, b.stderr)
        empty = fourier_coefficient_mc(small_graph_from_edges(2, []), params, 10, Seed(67))
        assert (empty.phi, empty.stderr) == (1.0, 0.0)

    def test_vanishing_community_gives_zero(self):
        params = ModelParams(n=40, p=0.3, d=16, k=1e-300)
        est = fourier_coefficient_mc(TRIANGLE, params, 1_000, Seed(64))
        assert est.phi == 0.0 and est.stderr == 0.0


class TestEdgeIndicators:
    """_pattern_codes reads every pair straight from the Bartlett factor, and
    _marginal restricts the codes to a graph's edges; the dense gather of the
    full Gram is the oracle, draw for draw."""

    @staticmethod
    def assert_dense_equal(graph, params, seed, batch=65_536):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        codes = _pattern_codes(graph.v, params, got_rng, batch)
        own, _ = _marginal(graph, graph.v, np.zeros(1 << math.comb(graph.v, 2), dtype=np.int64))
        got = own[codes]
        bits = edge_indicators_dense(graph.v, graph.edges, params, want_rng, batch)
        want = bits.astype(np.int64) @ (1 << np.arange(graph.e, dtype=np.int64))
        assert got.shape == (batch,) and np.array_equal(got, want), graph
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("d", [64, 4])
    def test_every_estimated_graph_matches_the_dense_gather(self, d):
        # d = 64 is the lowdeg workload's Bartlett route; d = 4 puts v = 5 on
        # latents.  The last pattern is the advantage's draw: all ten pairs of K5
        params = ModelParams(n=200, p=0.3, d=d, k=100)
        report = low_degree_advantage(params, v_max=5, degree_cap=7, trials=1, seed=Seed(0))
        estimated = [graph for graph, _, _, skipped in report.rows if not skipped]
        assert len(estimated) == 19
        for idx, graph in enumerate([*estimated, small_graph_from_edges(5, _pair_slots(5))]):
            self.assert_dense_equal(graph, params, seed=1000 + idx)

    @pytest.mark.parametrize("v, d", [(2, 64), (5, 64), (5, 4), (1, 64), (0, 64)])
    def test_edgeless_graph_matches_the_dense_gather(self, v, d):
        params = ModelParams(n=200, p=0.3, d=d, k=100)
        self.assert_dense_equal(small_graph_from_edges(v, []), params, seed=v + d, batch=1000)

    @pytest.mark.parametrize("d", [64, 4])
    def test_marginal_counts_equal_the_codes_histogram(self, d):
        # the histogram over all pairs, marginalised, is the histogram of the
        # graph's own codes
        params = ModelParams(n=200, p=0.3, d=d, k=100)
        codes = _pattern_codes(5, params, np.random.default_rng(7), 5000)
        counts = np.bincount(codes, minlength=1 << 10)
        own, own_counts = _marginal(HOUSE, 5, counts)
        assert np.array_equal(own_counts, np.bincount(own[codes], minlength=1 << HOUSE.e))


class TestPinnedValues:
    """Seeded values recorded (numpy 2.4, x86-64) when fourier_coefficient_mc
    still counted only its own edges' patterns: marginalising the all-pairs
    histogram must reproduce them exactly.  The histograms are integers, so
    only numpy's float sums and powers over them could move a last bit."""

    GRAPHS = {
        "triangle": TRIANGLE,
        "four-cycle": FOUR_CYCLE,
        "house": HOUSE,
        "K4": small_graph_from_edges(4, combinations(range(4), 2)),
    }
    PINNED = {
        4: {
            "triangle": "(0.030628439593837507, 0.002435904914409143)",
            "four-cycle": "(0.004948507180650038, 0.001109287134370641)",
            "house": "(0.0018613675628981754, 0.0007452205772064849)",
            "K4": "(-0.001432890616564085, 0.0015109671770576491)",
            "advantage": "(3090.164375693207, 2760.9951848272517)",
        },
        64: {
            "triangle": "(0.008871596370903737, 0.002381499264007033)",
            "four-cycle": "(0.0034868669690098267, 0.00117021576460337)",
            "house": "(0.0006574613972573157, 0.0005792414434854122)",
            "K4": "(0.0004897329302091213, 0.0012112243881398559)",
            "advantage": "(1074.5103567842107, 1206.0354854973082)",
        },
    }

    @pytest.mark.parametrize("d", [4, 64])
    def test_coefficients_and_advantage_unchanged(self, d):
        # d = 4 draws the house and the advantage's v_max = 5 on latents, and
        # the rest on the Bartlett route; d = 64 puts everything on Bartlett
        params = ModelParams(n=60, p=0.3, d=d, k=30)
        got = {}
        for name, graph in self.GRAPHS.items():
            est = fourier_coefficient_mc(graph, params, 3000, Seed(2101))
            got[name] = repr((est.phi, est.stderr))
        report = low_degree_advantage(params, v_max=5, degree_cap=7, trials=3000, seed=Seed(2102))
        got["advantage"] = repr((report.value, report.error))
        assert got == self.PINNED[d]


class TestAdvantage:
    def test_chunk_streams_never_shared_across_masters(self, monkeypatch):
        # masters 7919 apart, three chunks each: an offset of 7919 per chunk on
        # the master would hand chunk c + 1 of one run the stream of chunk c of
        # the next.  Every graph reads the one histogram of its run.
        histograms, states = [], []
        count_patterns, code_patterns = lowdeg._pattern_counts, lowdeg._pattern_codes

        def counts(v, params, trials, seed):
            histograms.append((v, trials))
            return count_patterns(v, params, trials, seed)

        def codes(v, params, rng, batch):
            states.append(rng.bit_generator.state["state"]["state"])
            return code_patterns(v, params, rng, batch)

        def refuse(*args):
            raise AssertionError("the advantage estimates no graph on its own")

        monkeypatch.setattr(lowdeg, "_MC_CHUNK", 100)
        monkeypatch.setattr(lowdeg, "_pattern_counts", counts)
        monkeypatch.setattr(lowdeg, "_pattern_codes", codes)
        monkeypatch.setattr(lowdeg, "fourier_coefficient_mc", refuse)
        params = ModelParams(n=60, p=0.5, d=64, k=30)
        for master in (11, 11 + 7919, 11 + 2 * 7919):
            report = low_degree_advantage(params, v_max=5, degree_cap=10, trials=300, seed=Seed(master))
            assert sum(not skipped for *_, skipped in report.rows) == 23  # a cycle in every component
        assert histograms == 3 * [(5, 300)]
        assert len(states) == 9 and len(set(states)) == 9

    def test_chunk_memory_budget(self):
        # the lowdeg workload's run: one 65,536-sample chunk of all ten pairs of
        # v_max = 5, within the budget of one graph's chunk
        params = ModelParams(n=200, p=0.3, d=64, k=100)
        solve_threshold(0.3, 64)
        enumerate_graphs_upto(5)
        tracemalloc.start()
        try:
            low_degree_advantage(params, v_max=5, degree_cap=7, trials=65_536, seed=Seed(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("d", [64, 4])
    def test_rows_equal_the_padded_graphs_coefficients(self, d):
        # two chunks; d = 4 < v_max draws latents for every graph
        params = ModelParams(n=60, p=0.3, d=d, k=30)
        trials = lowdeg._MC_CHUNK + 1000
        report = low_degree_advantage(params, v_max=5, degree_cap=7, trials=trials, seed=Seed(44))
        estimated = [(g, phi, se) for g, phi, se, skipped in report.rows if not skipped]
        assert len(estimated) == 19
        for graph, phi, stderr in estimated:
            padded = small_graph_from_edges(5, graph.edges)
            est = fourier_coefficient_mc(padded, params, trials, Seed(44))
            assert (phi, stderr) == (est.phi, est.stderr), graph

    @pytest.mark.parametrize("d", [64, 4])
    def test_error_matches_the_sample_covariance_oracle(self, d):
        params = ModelParams(n=60, p=0.3, d=d, k=30)
        trials = lowdeg._MC_CHUNK + 1000
        report = low_degree_advantage(params, v_max=5, degree_cap=7, trials=trials, seed=Seed(45))
        value, error, phi = advantage_by_sample_products(
            params, 5, 7, trials, Seed(45), lowdeg._MC_CHUNK
        )
        rows = np.array([(phi, se) for _, phi, se, skipped in report.rows if not skipped])
        # sums in another order: a coefficient near 0 has no relative precision
        assert np.all(np.abs(rows[:, 0] - phi) <= 1e-9 * rows[:, 1])
        assert abs(report.value - value) <= 1e-9 * report.error
        assert report.error == pytest.approx(error, rel=1e-12)

    def test_error_with_uncorrelated_rows_is_the_diagonal_formula(self):
        # v_max = 3 with degree_cap = 3 estimates the triangle alone
        params = ModelParams(n=60, p=0.3, d=16, k=30)
        report = low_degree_advantage(params, v_max=3, degree_cap=3, trials=5000, seed=Seed(46))
        ((_, phi, se),) = [(g, phi, se) for g, phi, se, skipped in report.rows if not skipped]
        count = TRIANGLE.embedding_count(60)
        diagonal = math.sqrt(count**2 * (4 * phi**2 * se**2 + 2 * se**4))
        assert report.error == pytest.approx(diagonal, rel=1e-12)

    @pytest.mark.parametrize(
        "n, v_max, degree_cap, trials",
        [(3, 5, 10, 100), (3, 5, 2, 100), (60, 4, 6, 0), (60, 2, 1, 0)],
        ids=["v-max-above-n", "v-max-above-n-nothing-estimated", "no-trials", "no-trials-nothing-estimated"],
    )
    def test_arguments_checked_before_any_draw(self, monkeypatch, n, v_max, degree_cap, trials):
        def refuse(*args):
            raise AssertionError("drew before checking its arguments")

        monkeypatch.setattr(lowdeg, "_pattern_counts", refuse)
        params = ModelParams(n=n, p=0.5, d=8, k=2)
        with pytest.raises(ValueError):
            low_degree_advantage(params, v_max=v_max, degree_cap=degree_cap, trials=trials, seed=Seed(0))

    def test_direct_calls_keep_the_top_level_stream(self):
        # a one-word master seeds chunk 0 of the Fourier arm with [master, arm, trial]
        expected = np.random.default_rng(np.random.SeedSequence([36, 2, 0])).random(4)
        assert np.array_equal(Seed(36).stream(0, arm=2).random(4), expected)

    def test_tiny_community_is_noise(self):
        params = ModelParams(n=60, p=0.5, d=64, k=1e-6)
        report = low_degree_advantage(params, v_max=4, degree_cap=6, trials=20_000, seed=Seed(41))
        assert abs(report.value) <= 3 * report.error + 1e-12

    def test_tree_components_skipped(self):
        params = ModelParams(n=60, p=0.5, d=64, k=30)
        report = low_degree_advantage(params, v_max=4, degree_cap=6, trials=2_000, seed=Seed(42))
        skipped = {g.canonical_code for g, _, _, s in report.rows if s}
        assert EDGE.canonical_code in {
            g.canonical_code for g, _, _, s in report.rows if s and g.v == 2
        }
        assert all(g.has_tree_component for g, _, _, s in report.rows if s)
        assert all(not g.has_tree_component for g, _, _, s in report.rows if not s)
        assert skipped  # forests really are present and skipped

    def test_hard_point_close_to_noise_baseline(self):
        # deep in the hard regime the advantage is comparable to a k ~ 0 run
        hard = ModelParams(n=60, p=0.5, d=10**5, k=30)
        noise = ModelParams(n=60, p=0.5, d=10**5, k=1e-6)
        a = low_degree_advantage(hard, v_max=4, degree_cap=6, trials=20_000, seed=Seed(43))
        b = low_degree_advantage(noise, v_max=4, degree_cap=6, trials=20_000, seed=Seed(43))
        baseline = max(abs(b.value), b.error)
        assert abs(a.value) <= 10 * max(baseline, a.error)


class TestFourierBound:
    def test_formula_plugin(self):
        bound = rgg_fourier_bound(TRIANGLE, 0.1, 10**6, constant=1.0)
        growth = 9 * math.log(10**6) ** 1.5 / 1000
        assert bound.bound == pytest.approx(0.8**3 * growth, rel=1e-12)
        assert bound.precondition_ok

    def test_monotone_in_dimension(self):
        vals = [
            rgg_fourier_bound(TRIANGLE, 0.2, d).bound
            for d in (10**4, 10**5, 10**6, 10**7)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dominates_series_on_grid(self):
        # exact cycle expectations stay below the bound for triangle and C4
        for p in (0.1, 0.3):
            for d in (10**4, 10**5, 10**6):
                for graph, ell in ((TRIANGLE, 3), (FOUR_CYCLE, 4)):
                    bound = rgg_fourier_bound(graph, p, d)
                    series = signed_cycle_expectation(ell, p, d).value
                    assert abs(series) <= bound.bound

    def test_connectivity_required(self):
        with pytest.raises(ValueError):
            rgg_fourier_bound(TWO_EDGES, 0.3, 10**6)
