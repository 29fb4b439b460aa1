"""Tests for the graph representation and the three samplers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodetect.graphs as graphs_mod
from geodetect.ensembles import composite_planted_graph, route_check
from geodetect.graphs import (
    Arm,
    Graph,
    ModelParams,
    Seed,
    pair_index,
    sample_full_geometric,
    sample_null,
    sample_planted,
    sample_planted_fixed_community,
    sample_planted_fixed_size,
)
from geodetect.lowdeg import fourier_coefficient_mc, small_graph_from_edges
from geodetect.sphere import _BLOCK_ELEMENTS, solve_threshold
from geodetect.stats import signed_triangle_count
from oracles import symmetric_matrix_added, symmetric_matrix_fancy, unit_gram_latent


class TestModelParams:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            ModelParams(n=10, p=0.5, d=4, k=11)
        with pytest.raises(ValueError):
            ModelParams(n=10, p=0.5, d=4, k=0)

    def test_derived_sizes(self):
        params = ModelParams(n=100, p=0.5, d=4, k=50)
        assert params.k_minus == 45
        assert params.k_plus == 55
        odd = ModelParams(n=100, p=0.5, d=4, k=33)
        assert odd.k_minus == math.floor(0.9 * 33)
        assert odd.k_plus == math.ceil(1.1 * 33)


class TestGraph:
    def test_pair_index_bijection(self):
        for n in (2, 3, 7, 12):
            seen = [pair_index(i, j, n) for i in range(n) for j in range(i + 1, n)]
            assert seen == list(range(n * (n - 1) // 2))

    def test_pair_index_matches_triu_order(self):
        n = 9
        iu, ju = np.triu_indices(n, k=1)
        for idx, (i, j) in enumerate(zip(iu, ju)):
            assert pair_index(int(i), int(j), n) == idx
        assert np.array_equal(pair_index(iu, ju, n), np.arange(iu.size))
        with pytest.raises(ValueError):
            pair_index(ju, iu, n)

    def test_immutable(self):
        g = Graph(4, np.zeros(6, dtype=bool))
        with pytest.raises(AttributeError):
            g.n = 5
        with pytest.raises(ValueError):
            g.edges[0] = True

    def test_constructor_copies_the_callers_field(self):
        # samplers hand over their own draw; a caller's array is copied, so
        # it stays writeable and a later write leaves the graph as it was
        edges = np.zeros(6, dtype=bool)
        g = Graph(4, edges)
        assert edges.flags.writeable and not np.shares_memory(edges, g.edges)
        edges[pair_index(0, 1, 4)] = True
        assert g.edge_count == 0 and not g.has_edge(0, 1)

    def test_adjacency_matrix(self):
        edges = np.zeros(6, dtype=bool)
        edges[pair_index(1, 3, 4)] = True
        g = Graph(4, edges)
        a = g.adjacency_matrix()
        assert a[1, 3] == 1 and a[3, 1] == 1
        assert np.all(np.diag(a) == 0)
        assert np.array_equal(a, a.T)
        assert g.has_edge(3, 1) and not g.has_edge(0, 1)

    def test_symmetric_matrix_matches_fancy_index(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 64, 300):
            m = n * (n - 1) // 2
            for dtype in (bool, np.float32, np.float64):
                values = rng.random(m) < 0.4 if dtype is bool else rng.standard_normal(m)
                built = graphs_mod.symmetric_matrix(values, n, dtype)
                assert built.dtype == dtype and built.flags.c_contiguous
                assert np.array_equal(built, symmetric_matrix_fancy(values, n, dtype)), (n, dtype)

    def test_symmetric_matrix_matches_addition_bit_for_bit(self):
        # the second fill of the transposed view builds the matrix the old
        # addition of the transpose built, to the bit, one matrix or a stack
        rng = np.random.default_rng(9)
        for n in (1, 2, 3, 64, 300):
            m = n * (n - 1) // 2
            for shape in ((m,), (3, m), (2, 2, m)):
                for dtype in (bool, np.float32, np.float64):
                    values = rng.random(shape) < 0.4 if dtype is bool else rng.standard_normal(shape)
                    built = graphs_mod.symmetric_matrix(values, n, dtype)
                    added = symmetric_matrix_added(values, n, dtype)
                    assert built.shape == added.shape == (*shape[:-1], n, n)
                    assert built.dtype == dtype and built.flags.c_contiguous
                    assert built.tobytes() == added.tobytes(), (n, shape, dtype)

    def test_symmetric_matrix_keeps_negative_zero(self):
        # the one difference from the addition: -0.0 + 0.0 is +0.0
        built = graphs_mod.symmetric_matrix(np.array([-0.0, 1.0, -0.0]), 3)
        assert np.signbit(built[0, 1]) and np.signbit(built[1, 0])
        assert not np.signbit(symmetric_matrix_added(np.array([-0.0, 1.0, -0.0]), 3)[0, 1])

    def test_pair_order_is_one_cached_rule(self):
        # the one pair cache: np.triu_indices, built once per order and shared read-only
        for n in (1, 2, 3, 64, 300):
            pairs = graphs_mod._upper_pairs(n)
            assert graphs_mod._upper_pairs(n) is pairs
            for got, want in zip(pairs, np.triu_indices(n, k=1), strict=True):
                assert not got.flags.writeable
                assert np.array_equal(got, want)

    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_serialization_round_trips(self, n, seed):
        g = sample_null(n, 0.4, np.random.default_rng(seed))
        assert Graph.from_edgelist_text(g.to_edgelist_text()) == g
        assert Graph.from_bitfield_bytes(g.to_bitfield_bytes()) == g

    def test_edgelist_format(self):
        edges = np.zeros(3, dtype=bool)
        edges[pair_index(0, 2, 3)] = True
        g = Graph(3, edges)
        assert g.to_edgelist_text() == "3\n1\n0 2\n"

    def test_bitfield_header(self):
        g = Graph(5, np.ones(10, dtype=bool))
        blob = g.to_bitfield_bytes()
        assert blob[:8] == (5).to_bytes(8, "little")
        assert len(blob) == 8 + 2  # ceil(10 / 8)

    # a repeated pair, and text short of the two header lines (n, then m)
    @pytest.mark.parametrize("text", ["3\n2\n0 1\n0 1\n", "", "5\n"],
                             ids=["repeated-pair", "empty", "no-m-line"])
    def test_edgelist_rejects_duplicate_lines(self, text):
        with pytest.raises(ValueError):
            Graph.from_edgelist_text(text)

    def test_negative_order_rejected(self):
        # n = -1 and n = -2 give 1 and 3 pair slots by n(n-1)/2; n = 0 has none
        with pytest.raises(ValueError):
            Graph.from_edgelist_text("-1\n0\n")
        with pytest.raises(ValueError):
            Graph(-2, np.zeros(3, dtype=bool))
        assert Graph.from_edgelist_text("0\n0\n") == Graph(0, np.zeros(0, dtype=bool))

    def test_bitfield_rejects_wrong_length(self):
        blob = Graph(5, np.ones(10, dtype=bool)).to_bitfield_bytes()
        for bad in (blob[:9], blob + b"\x00", blob[:7]):
            with pytest.raises(ValueError):
                Graph.from_bitfield_bytes(bad)


class TestSeed:
    def test_streams_reproducible(self):
        a = Seed(42).stream(7).random(5)
        b = Seed(42).stream(7).random(5)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        a = Seed(42).stream(7).random(5)
        b = Seed(42).stream(8).random(5)
        c = Seed(43).stream(7).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_streams_never_alias_across_masters(self):
        # SeedSequence splits a master >= 2**32 into two words; these tuples
        # would otherwise share entropy words
        assert not np.array_equal(
            Seed(2**32 + 12345).stream(0, arm=7).random(4),
            Seed(12345).stream(7, arm=1).random(4),
        )
        masters = [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 1, 2**32 + 7, 7 * 2**32, 2**64 - 1]
        seeds = [Seed(m) for m in masters]
        first = {
            seed.stream(t, arm=a).integers(2**63)
            for seed in seeds
            for a in (0, 1, 7)
            for t in (0, 1, 7)
        }
        assert len(first) == len(seeds) * 9

    def test_one_word_masters_keep_their_streams(self):
        for master, arm, trial in ((0, 0, 0), (12345, 1, 7), (2**32 - 1, 9, 3)):
            expected = np.random.default_rng(np.random.SeedSequence([master, arm, trial]))
            assert Seed(master).stream(trial, arm=arm).random() == expected.random()

    def test_arm_numbers_kept(self):
        # naming the arms moved no stream: each job keeps the number it drew from
        assert {arm.name: int(arm) for arm in Arm} == {
            "NULL": 0, "PLANTED": 1, "FOURIER": 2, "WISHART": 5, "WISHART_K1": 6,
            "COMPOSITE": 7, "FIXED_COMMUNITY": 8, "SAMPLE": 9, "LOCAL_SEARCH": 10,
        }

    def test_out_of_range_rejected(self):
        for master in (-1, 2**64):
            with pytest.raises(ValueError):
                Seed(master)
        with pytest.raises(ValueError):
            Seed(1).stream(-1)
        with pytest.raises(ValueError):
            Seed(1).stream(0, arm=2**32)


class TestSampleNull:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        assert sample_null(5, 0.0, rng).edge_count == 0
        assert sample_null(5, 1.0, rng).edge_count == 10

    def test_edge_frequency(self):
        rng = np.random.default_rng(11)
        trials, n, p = 10_000, 100, 0.3
        m = n * (n - 1) // 2
        count = sum(sample_null(n, p, rng).edge_count for _ in range(trials))
        total = trials * m
        se = math.sqrt(p * (1 - p) / total)
        assert abs(count / total - p) <= 3 * se

    @pytest.mark.parametrize("n", [1500, 2])  # 1,124,250 pairs: a block and part of one
    def test_edge_coins_are_one_draw_of_uniforms(self, n):
        m = n * (n - 1) // 2
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(graphs_mod._edge_coins(n, 0.3, rng), ref.random(m) < 0.3)
        assert rng.random() == ref.random()
        assert n == 2 or _BLOCK_ELEMENTS < m < 2 * _BLOCK_ELEMENTS

    def test_peak_memory_is_the_edge_field(self):
        # n = 6000: 1.8e7 pairs, 17.2 MiB of bools, held once since the Graph
        # takes the drawn field without a copy, and one 7.6 MiB block of
        # uniforms: about 24.8 MiB.  A copy would add a second field (34.3
        # MiB); a double per pair would be 137 MiB
        rng = Seed(3).stream(0)
        tracemalloc.start()
        try:
            sample_null(6000, 0.3, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 * 2**20


class TestFullGeometric:
    @pytest.mark.parametrize("n", [0, -3])
    def test_no_vertices_rejected(self, n):
        # as sample_null: a graph needs at least one vertex
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_full_geometric(n, 0.3, 8, np.random.default_rng(0))

    def test_edge_rule_matches_latents(self):
        rng = np.random.default_rng(3)
        g, latents = sample_full_geometric(12, 0.2, 8, rng)
        tau = solve_threshold(0.2, 8).tau
        gram = latents @ latents.T
        for i in range(12):
            for j in range(i + 1, 12):
                assert g.has_edge(i, j) == (gram[i, j] >= tau)

    def test_edge_marginal(self):
        seed = Seed(4)
        trials, n, p, d = 30_000, 10, 0.2, 8
        count = sum(
            sample_full_geometric(n, p, d, seed.stream(t))[0].edge_count
            for t in range(trials)
        )
        total = trials * 45
        se = math.sqrt(p * (1 - p) / total)
        assert abs(count / total - p) <= 3 * se

    def test_pairwise_independence(self):
        # edges sharing a vertex are pairwise independent
        seed = Seed(5)
        trials, p = 40_000, 0.3
        both = 0
        for t in range(trials):
            g, _ = sample_full_geometric(3, p, 6, seed.stream(t))
            both += g.has_edge(0, 1) and g.has_edge(0, 2)
        se = math.sqrt(p**2 * (1 - p**2) / trials)
        assert abs(both / trials - p**2) <= 3 * se

    def test_high_dimension_kills_triangle_signal(self):
        from geodetect.sphere import signed_cycle_expectation

        # d = 1e6 >= n takes the Gram route; the signed-triangle mean is
        # consistent with the vanishing series prediction, itself far below the
        # per-draw noise (signal ~ 1/sqrt(d))
        seed = Seed(6)
        trials, n, p, d = 10_000, 50, 0.3, 10**6
        vals = np.empty(trials)
        for t in range(trials):
            g, latents = sample_full_geometric(n, p, d, seed.stream(t))
            assert latents is None
            vals[t] = signed_triangle_count(g, p)
        se = vals.std() / math.sqrt(trials)
        predicted = math.comb(n, 3) * signed_cycle_expectation(3, p, d).value
        assert abs(vals.mean() - predicted) <= 3 * se
        assert predicted <= 0.1 * vals.std()  # drowned by per-draw noise

    def test_gram_route_matches_direct_route(self):
        # d >= n takes the Bartlett route; compare edge marginals
        trials, n, p, d = 30_000, 6, 0.2, 8
        seed = Seed(4)
        count = 0
        for t in range(trials):
            g, latents = sample_full_geometric(n, p, d, seed.stream(t))
            assert latents is None
            count += g.edge_count
        total = trials * 15
        se = math.sqrt(p * (1 - p) / total)
        assert abs(count / total - p) <= 3 * se


def library_unit_gram(s, d, rng, shape=()):
    """The library's (gram, latents), from the draws of its route rule."""
    return graphs_mod._unit_gram_of(graphs_mod._gram_draws(s, d, rng, shape))


def unit_gram(s, d, rng, shape=(), latent=False):
    """The library's Gram route at d >= s, or the latent route forced through the oracle."""
    return (unit_gram_latent if latent else library_unit_gram)(s, d, rng, shape)


class TestUnitGram:
    @pytest.mark.parametrize("latent", [True, False])
    def test_batch_of_one_matches_unbatched(self, latent):
        s, d = 5, 40
        gram, lat = unit_gram(s, d, np.random.default_rng(3), latent=latent)
        gram1, lat1 = unit_gram(s, d, np.random.default_rng(3), shape=(1,), latent=latent)
        assert gram1.shape == (1, s, s)
        iu = np.triu_indices(s, k=1)
        assert np.max(np.abs(gram1[0][iu] - gram[iu])) <= 1e-12
        if latent:
            assert np.max(np.abs(lat1[0] - lat)) <= 1e-12
        else:
            assert lat is None and lat1 is None

    @pytest.mark.parametrize("s, d, latent", [(5, 4, True), (5, 5, False), (5, 6, False)])
    def test_latents_iff_dimension_below_size(self, s, d, latent):
        # d == s is the first dimension at which the Bartlett route exists
        gram, lat = library_unit_gram(s, d, np.random.default_rng(0))
        assert gram.shape == (s, s)
        assert (lat is not None) == latent
        _, lat = sample_full_geometric(s, 0.3, d, np.random.default_rng(0))
        assert (lat is not None) == latent
        params = ModelParams(n=s, p=0.3, d=d, k=s)
        planted = sample_planted_fixed_community(range(s), params, np.random.default_rng(0))
        assert (planted.latents is not None) == latent

    @pytest.mark.parametrize("latent", [True, False])
    def test_gram_law_on_both_routes(self, latent):
        # an off-diagonal entry of a uniform unit-vector Gram matrix has mean 0,
        # variance 1/d and fourth moment 3/(d(d+2)); distinct entries are
        # uncorrelated, and so are their squares
        s, d, batch = 6, 8, 40_000
        gram, _ = unit_gram(s, d, np.random.default_rng(11), shape=(batch,), latent=latent)
        iu = np.triu_indices(s, k=1)
        x = gram[:, iu[0], iu[1]].ravel()
        assert abs(x.mean()) <= 3 * math.sqrt(1 / d / x.size)
        var_se = math.sqrt((3 / (d * (d + 2)) - 1 / d**2) / x.size)
        assert abs(np.mean(x**2) - 1 / d) <= 3 * var_se

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_latent_route_is_the_oracle_draw_for_draw(self, shape):
        # so the oracle's law checks at d >= s speak for the library's d < s route
        s, d = 6, 4
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        gram, lat = library_unit_gram(s, d, rng, shape)
        gram_ref, lat_ref = unit_gram_latent(s, d, ref, shape)
        assert np.array_equal(gram, gram_ref) and np.array_equal(lat, lat_ref)
        assert rng.random() == ref.random()

    def test_bartlett_route_draws_only_lower_normals(self):
        # s chi-squares, then s(s-1)/2 normals: the generator's next draw
        # follows exactly after them
        s, d = 6, 40
        rng = np.random.default_rng(5)
        library_unit_gram(s, d, rng)
        ref = np.random.default_rng(5)
        ref.chisquare(d - np.arange(s))
        ref.standard_normal(s * (s - 1) // 2)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("s, d", [(5, 4), (5, 5), (6, 40), (2, 8), (1, 8), (0, 8)])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 5000)])
    def test_pair_cosines_are_the_dense_gram_in_pair_order(self, s, d, shape):
        # the latent route gathers the dense Gram; the Bartlett route forms
        # each pair from the factor, in another summation order.
        # Two draws from one seed, since the latent route normalises in place
        draws = graphs_mod._gram_draws(s, d, np.random.default_rng(9), shape)
        cosines = graphs_mod._pair_cosines(draws)
        gram, _ = library_unit_gram(s, d, np.random.default_rng(9), shape)
        iu = np.triu_indices(s, k=1)
        assert cosines.shape == (*shape, s * (s - 1) // 2)
        if d < s:
            assert np.array_equal(cosines, gram[..., iu[0], iu[1]])
        else:
            assert np.allclose(cosines, gram[..., iu[0], iu[1]], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("s, d", [(5, 64), (5, 5), (5, 4), (6, 2)])
    @pytest.mark.parametrize("batch", [2 * graphs_mod._COSINE_BLOCK + 17, 100])
    def test_draw_blocks_are_one_batched_draw(self, s, d, batch):
        # both routes: the same numbers in the same stream order as one call
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        blocks = list(graphs_mod._gram_draw_blocks(s, d, rng, batch))
        whole = graphs_mod._gram_draws(s, d, ref, (batch,))
        assert [len(b[0]) for b in blocks] == [
            min(graphs_mod._COSINE_BLOCK, batch - start)
            for start in range(0, batch, graphs_mod._COSINE_BLOCK)
        ]
        assert len(blocks[0]) == len(whole) == (1 if d < s else 2)
        for parts, full in zip(zip(*blocks), whole):
            assert np.array_equal(np.concatenate(parts), full)
        assert rng.random() == ref.random()

    def test_one_threshold_solve_per_density_and_dimension(self):
        # a (p, d) no other test uses, so its first solve is a cache miss
        params = ModelParams(n=12, p=0.237, d=37, k=12)
        before = solve_threshold.cache_info().misses
        sample_planted(params, Seed(0).stream(0))
        triangle = small_graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        fourier_coefficient_mc(triangle, params, 100, Seed(1))
        composite_planted_graph(range(6), params, Seed(2).stream(0))
        assert solve_threshold.cache_info().misses - before == 1


class TestSamplePlanted:
    def test_membership_binomial(self):
        params = ModelParams(n=200, p=0.5, d=4, k=100)
        seed = Seed(7)
        sizes = np.array(
            [sample_planted(params, seed.stream(t)).members.size for t in range(10_000)]
        )
        assert sizes.mean() == pytest.approx(100, rel=0.05)
        assert sizes.var() == pytest.approx(50, rel=0.05)

    def test_latents_cover_community_exactly(self):
        params = ModelParams(n=40, p=0.4, d=6, k=20)
        s = sample_planted(params, Seed(8).stream(0))
        assert s.latents.shape == (s.members.size, 6)
        norms = np.linalg.norm(s.latents, axis=1)
        assert np.max(np.abs(norms - 1)) <= 1e-12
        # one latent row per member (the shape above), so an outsider has none
        outsider = next(v for v in range(40) if not s.community[v])
        assert outsider not in s.members

    def test_community_edges_follow_geometry(self):
        params = ModelParams(n=30, p=0.3, d=5, k=20)
        tau = solve_threshold(0.3, 5).tau
        s = sample_planted(params, Seed(9).stream(1))
        members = s.members
        for a in range(members.size):
            for b in range(a + 1, members.size):
                i, j = int(members[a]), int(members[b])
                expected = float(s.latents[a] @ s.latents[b]) >= tau
                assert s.graph.has_edge(i, j) == expected

    def test_marginal_indistinguishable(self):
        # every single edge has marginal p under the planted model
        params = ModelParams(n=6, p=0.35, d=4, k=3)
        seed = Seed(10)
        trials = 100_000
        counts = np.zeros(15)
        for t in range(trials):
            counts += sample_planted(params, seed.stream(t)).graph.edges
        se = math.sqrt(0.35 * 0.65 / trials)
        assert np.all(np.abs(counts / trials - 0.35) <= 3 * se)

    def test_degree_symmetry_between_members_and_outsiders(self):
        from scipy.stats import ks_2samp

        params = ModelParams(n=50, p=0.3, d=6, k=25)
        seed = Seed(11)
        inside, outside = [], []
        degrees_of = lambda g: g.adjacency_matrix().sum(axis=0)  # noqa: E731
        for t in range(10_000):
            s = sample_planted(params, seed.stream(t))
            if 0 < s.members.size < 50:
                deg = degrees_of(s.graph)
                inside.append(deg[s.members[0]])
                outside.append(deg[next(v for v in range(50) if not s.community[v])])
        stat = ks_2samp(inside, outside).statistic
        assert stat <= 0.02

    def test_reproducible(self):
        params = ModelParams(n=25, p=0.4, d=5, k=10)
        a = sample_planted(params, Seed(12).stream(3))
        b = sample_planted(params, Seed(12).stream(3))
        assert a.graph == b.graph
        assert np.array_equal(a.community, b.community)


class TestFixedCommunity:
    def test_empty_community_is_null(self):
        params = ModelParams(n=30, p=0.4, d=4, k=10)
        seed = Seed(13)
        trials = 20_000
        counts = np.array(
            [
                sample_planted_fixed_community([], params, seed.stream(t)).graph.edge_count
                for t in range(trials)
            ]
        )
        m = 435
        assert counts.mean() / m == pytest.approx(0.4, abs=3 * math.sqrt(0.24 / (trials * m)))
        assert counts.var() == pytest.approx(m * 0.24, rel=0.05)

    def test_full_community_matches_geometric(self):
        # k = n: same distribution as the full geometric model (f_tri mean)
        params = ModelParams(n=20, p=0.5, d=4, k=20)
        seed = Seed(14)
        trials = 20_000
        t1 = np.empty(trials)
        t2 = np.empty(trials)
        for t in range(trials):
            s = sample_planted_fixed_community(range(20), params, seed.stream(t, arm=0))
            t1[t] = signed_triangle_count(s.graph, 0.5)
            g, _ = sample_full_geometric(20, 0.5, 4, seed.stream(t, arm=1))
            t2[t] = signed_triangle_count(g, 0.5)
        se = math.hypot(t1.std(), t2.std()) / math.sqrt(trials)
        assert abs(t1.mean() - t2.mean()) <= 3 * se

    def test_mixture_identity(self):
        # averaging over uniform fixed communities of size s equals the
        # fixed-size sampler at s (f_tri means agree)
        params = ModelParams(n=16, p=0.5, d=4, k=8)
        seed = Seed(15)
        trials, s = 20_000, 8
        a = np.empty(trials)
        b = np.empty(trials)
        for t in range(trials):
            rng = seed.stream(t, arm=0)
            members = rng.permutation(16)[:s]
            samp = sample_planted_fixed_community(members, params, rng)
            a[t] = signed_triangle_count(samp.graph, 0.5)
            samp2 = sample_planted_fixed_size(s, params, seed.stream(t, arm=1))
            b[t] = signed_triangle_count(samp2.graph, 0.5)
        se = math.hypot(a.std(), b.std()) / math.sqrt(trials)
        assert abs(a.mean() - b.mean()) <= 3 * se

    def test_rejects_out_of_range(self):
        params = ModelParams(n=10, p=0.5, d=4, k=5)
        with pytest.raises(ValueError):
            sample_planted_fixed_community([3, 11], params, Seed(0).stream(0))

    @pytest.mark.parametrize(
        "community",
        [
            [4, 1, 7, 0],
            range(2, 5),
            np.array([[3, 1], [0, 7]]),
            np.array([2.7, 0.2, 3.0, 7.0]),
            [],
            np.array([], dtype=int),
        ],
    )
    def test_community_members(self, community):
        # the vertices, ascending, as int(v) of each entry gives them
        expected = sorted(int(v) for v in np.asarray(community).ravel())
        members = graphs_mod._vertex_subset(community, 8)
        assert members.dtype.kind == "i"
        assert members.tolist() == expected

    @pytest.mark.parametrize("community", [[0, 8], [-1, 3], np.array([8.0, 1.0])])
    def test_community_members_out_of_range(self, community):
        with pytest.raises(ValueError, match="must lie in"):
            graphs_mod._vertex_subset(community, 8)

    def test_samplers_refuse_repeats_and_masks(self):
        # a repeated vertex, one made by int(v), or the bool mask of a draw
        # would plant another community than the one given: every reader of
        # a community refuses them, where one vertex set passes
        params = ModelParams(n=10, p=0.5, d=4, k=5)
        sample = sample_planted(params, Seed(23).stream(0))
        assert sample.members.size not in (0, 2)  # its mask would read as {0, 1}
        readers = [
            lambda c: graphs_mod._vertex_subset(c, params.n),
            lambda c: sample_planted_fixed_community(c, params, Seed(23).stream(1)),
            lambda c: composite_planted_graph(c, params, Seed(23).stream(2)),
            lambda c: route_check(c, params, 2, Seed(23)),
        ]
        for read in readers:
            read(sample.members)
            for community, match in [
                ([4, 4, 7], "duplicate"),
                ([2.7, 2.2], "duplicate"),
                (sample.community, "bool mask"),
            ]:
                with pytest.raises(ValueError, match=match):
                    read(community)
        planted = sample_planted_fixed_community(sample.members, params, Seed(23).stream(1))
        assert np.array_equal(planted.community, sample.community)

    @pytest.mark.parametrize("members", [[], [3], [2, 5], [0, 1, 4, 8, 9]])
    def test_community_pairs(self, members):
        n = 10
        expected = [pair_index(a, b, n) for a, b in itertools.combinations(members, 2)]
        (su, sv), pairs = graphs_mod._community_pairs(np.array(members, dtype=int), n)
        assert pairs.tolist() == expected
        assert (su.tolist(), sv.tolist()) == tuple(map(list, np.triu_indices(len(members), 1)))


class TestFixedSize:
    def test_exact_size(self):
        params = ModelParams(n=30, p=0.4, d=4, k=10)
        for t in range(50):
            s = sample_planted_fixed_size(9, params, Seed(16).stream(t))
            assert s.members.size == 9

    def test_degenerate_sizes(self):
        params = ModelParams(n=12, p=0.3, d=4, k=6)
        empty = sample_planted_fixed_size(0, params, Seed(17).stream(0))
        assert empty.members.size == 0
        full = sample_planted_fixed_size(12, params, Seed(17).stream(1))
        assert full.members.size == 12
        with pytest.raises(ValueError):
            sample_planted_fixed_size(13, params, Seed(17).stream(2))
