"""Tests for signed subgraph statistics against independently coded oracles."""

import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodetect import graphs as graphs_mod
from geodetect import stats as stats_mod
from geodetect.graphs import (
    Arm,
    Graph,
    ModelParams,
    Seed,
    _community_pairs,
    _edge_coins,
    pair_index,
    sample_null,
    sample_planted,
)
from geodetect.stats import (
    ScanConfig,
    _coin_counts,
    _split_triangle_count,
    centered_adjacency,
    constrained_scan_statistic,
    scan_statistic,
    signed_cycle_count,
    signed_triangle_count,
    subset_signed_triangles,
    wedge_sums,
)

from oracles import (
    cycle_vertex_orders,
    exhaustive_scan_blocks,
    local_search_swap_loop,
    signed_cycle_count_enumerated,
    signed_cycle_count_traces,
    signed_embedding_product,
    signed_triangle_count_direct,
    signed_triangle_count_exact,
    wedge_sums_symmetric,
)


def graph_from_edges(n, edges):
    field = np.zeros(n * (n - 1) // 2, dtype=bool)
    for i, j in edges:
        field[pair_index(min(i, j), max(i, j), n)] = True
    return Graph(n, field)


def brute_triangles(graph, p):
    """Triple-loop oracle, coded independently of the trace kernel and the pair loop."""
    return sum(
        signed_embedding_product(graph, p, [(i, j), (j, l), (i, l)])
        for i, j, l in combinations(range(graph.n), 3)
    )


def brute_cycles(graph, p, ell):
    """Permutation-based oracle with reversal/rotation dedup by canonical tuple."""
    seen = set()
    total = 0.0
    for perm in permutations(range(graph.n), ell):
        rotations = [perm[i:] + perm[:i] for i in range(ell)]
        rotations += [tuple(reversed(r)) for r in rotations]
        key = min(rotations)
        if key in seen:
            continue
        seen.add(key)
        total += signed_embedding_product(graph, p, zip(perm, perm[1:] + perm[:1]))
    return total


class TestCenteredAdjacency:
    def test_entries(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        c = centered_adjacency(g, 0.3)
        assert np.all(np.diag(c) == 0)
        assert np.array_equal(c, c.T)
        off = c[np.triu_indices(4, k=1)]
        assert set(np.round(off, 12)) == {0.7, -0.3}


class TestSignedTriangles:
    def test_empty_graph(self):
        g = graph_from_edges(3, [])
        assert signed_triangle_count(g, 0.4) == pytest.approx((-0.4) ** 3, abs=1e-15)

    def test_complete_graph(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert signed_triangle_count(g, 0.4) == pytest.approx(0.6**3, abs=1e-15)

    def test_kernels_agree(self):
        seed = Seed(100)
        for t in range(20):
            g = sample_null(20, 0.3, seed.stream(t))
            direct = signed_triangle_count_direct(g, 0.3)
            trace = signed_triangle_count(g, 0.3)
            assert abs(direct - trace) <= 1e-9

    def test_against_brute_force(self):
        seed = Seed(101)
        for t, n in enumerate((3, 4, 6, 9, 12)):
            g = sample_null(n, 0.5, seed.stream(t))
            expected = brute_triangles(g, 0.37)
            assert signed_triangle_count_direct(g, 0.37) == pytest.approx(expected, abs=1e-10)
            assert signed_triangle_count(g, 0.37) == pytest.approx(expected, abs=1e-10)

    def test_equals_exact_value(self):
        # the nearest float to the exact value, on null, planted, empty and complete graphs
        seed = Seed(106)
        for n in (1, 2, 3, 7, 64, 300):
            m = n * (n - 1) // 2
            empty, complete = Graph(n, np.zeros(m, bool)), Graph(n, np.ones(m, bool))
            for t, p in enumerate((0.1, 0.3, 0.37, 0.5, 1.0)):
                graphs = [empty, complete, sample_null(n, p, seed.stream(t, arm=n))]
                if n >= 7:
                    params = ModelParams(n=n, p=p, d=8, k=n / 2)
                    graphs.append(sample_planted(params, seed.stream(t, arm=n + 1)).graph)
                for g in graphs:
                    value = signed_triangle_count(g, p)
                    assert type(value) is float
                    assert value == signed_triangle_count_exact(g, p), (n, p, g)

    def test_peak_memory(self):
        # two n x n float32 arrays, the adjacency and its square, plus small buffers
        n = 300
        g = sample_null(n, 0.5, Seed(107).stream(0))
        signed_triangle_count(g, 0.5)
        tracemalloc.start()
        try:
            signed_triangle_count(g, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 4

    def test_nothing_held_after_a_cold_count(self):
        # the fill mask is built per call and no pair order of order n is cached
        n = 2000
        g = sample_null(n, 0.3, Seed(107).stream(1))
        graphs_mod._upper_pairs.cache_clear()
        tracemalloc.start()
        try:
            signed_triangle_count(g, 0.3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20


class TestSplitTriangleCount:
    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("s", [0, 1, 2, 7, 20])
    def test_equals_the_whole_graph_count(self, s, p):
        # coins outside the community and a block inside it, against the graph they make
        n = 20
        rng = np.random.default_rng(1000 + s)
        for density in (0.0, 0.3, 0.8, 1.0):
            members = np.sort(rng.choice(n, s, replace=False))
            coins = rng.random(n * (n - 1) // 2) < p
            block = np.triu(rng.random((s, s)) < density, 1)
            edges = coins.copy()
            upper, flat = _community_pairs(members, n)
            edges[flat] = block[upper]
            split = _split_triangle_count(_coin_counts(coins, members, n), block, p)
            assert split == signed_triangle_count(Graph(n, edges), p)

    @pytest.mark.parametrize("step", [2, 301])  # s = 150, and s = 1 with the largest outside block
    def test_coin_part_peak_memory(self, step):
        # the coin draw and its counts peak as the whole-graph count does: the
        # float32 coin adjacency while its blocks are copied out, then the
        # outside block, a product and the cross block
        n, members = 300, np.arange(0, 300, step)
        _coin_counts(_edge_coins(n, 0.3, Seed(109).stream(0)), members, n)
        rng = Seed(109).stream(1)
        tracemalloc.start()
        try:
            counts = _coin_counts(_edge_coins(n, 0.3, rng), members, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 4
        # what a memo keeps of the trial: s(n - s) bits and s int64 degrees
        s = members.size
        assert counts.cross.nbytes + counts.degrees.nbytes == -(-s * (n - s) // 8) + 8 * s


class TestSignedCycles:
    def test_term_census(self):
        # the enumeration oracle's cyclic orders: C(6,4) * 3!/2 = 45 summands for n=6, ell=4
        assert len(cycle_vertex_orders(4)) == 3
        assert math.comb(6, 4) * len(cycle_vertex_orders(4)) == 45
        for ell in (3, 4, 5, 6, 7):
            assert len(cycle_vertex_orders(ell)) == math.factorial(ell - 1) // 2

    def test_three_cycles_are_the_global_triangle_count(self):
        # not the engine through Abar: the exact, correctly rounded global count
        seed = Seed(108)
        for n in (1, 2, 3, 40, 300):
            for t, p in enumerate((0.1, 0.3, 0.37, 0.5)):
                params = ModelParams(n=n, p=p, d=8, k=n / 2)
                for g in (
                    sample_null(n, p, seed.stream(t, arm=n)),
                    sample_planted(params, seed.stream(t, arm=n + 1)).graph,
                ):
                    assert signed_cycle_count(g, p, 3) == signed_triangle_count(g, p), (n, p)

    def test_empty_graph_value(self):
        g = graph_from_edges(4, [])
        assert signed_cycle_count(g, 0.5, 4) == pytest.approx(3 * 0.5**4, abs=1e-15)

    def test_four_cycle_by_hand(self):
        # the 3 four-cycles of K4 evaluated on C4 itself
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        expected = 0.5**4 + 2 * (0.5**2) * (0.5**2)
        assert signed_cycle_count(g, 0.5, 4) == pytest.approx(expected, abs=1e-15)
        assert expected == 3 / 16

    @pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
    def test_against_permutation_oracle(self, ell):
        for t, p in enumerate((0.1, 0.3, 0.7)):
            g = sample_null(8, p, Seed(102).stream(10 * ell + t))
            assert signed_cycle_count(g, p, ell) == pytest.approx(
                brute_cycles(g, p, ell), abs=1e-10
            )

    @pytest.mark.parametrize("ell", [4, 5])
    def test_trace_identities_match_enumeration(self, ell):
        # the trace-identity oracle and the engine, both against the enumeration
        seed = Seed(103)
        for t, (n, p) in enumerate(
            (n, p) for n in (5, 8, 12, 16) for p in (0.1, 0.3, 0.45, 0.7)
        ):
            g = sample_null(n, p, seed.stream(10 * ell + t))
            expected = signed_cycle_count_enumerated(g, 0.3, ell)
            assert signed_cycle_count_traces(g, 0.3, ell) == pytest.approx(expected, abs=1e-10)
            assert signed_cycle_count(g, 0.3, ell) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("ell", [4, 5])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_trace_identities_match_permutation_oracle(self, ell, p):
        g = sample_null(7, p, Seed(103).stream(100 + ell))
        expected = brute_cycles(g, 0.35, ell)
        assert signed_cycle_count_traces(g, 0.35, ell) == pytest.approx(expected, abs=1e-10)
        assert signed_cycle_count(g, 0.35, ell) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("ell", [4, 5])
    def test_engine_matches_trace_identities_at_300_vertices(self, ell):
        g = sample_null(300, 0.3, Seed(103).stream(500 + ell))
        assert signed_cycle_count(g, 0.3, ell) == pytest.approx(
            signed_cycle_count_traces(g, 0.3, ell), rel=1e-9
        )

    @pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
    def test_fewer_vertices_than_cycle_length(self, ell):
        for n in range(1, ell):
            g = sample_null(n, 0.5, Seed(103).stream(200 + n))
            assert signed_cycle_count(g, 0.3, ell) == 0.0

    @pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
    def test_empty_and_complete_graphs(self, ell):
        p = 0.3
        for n in (*range(ell, 10), 33, 64, 120):
            cycles = math.comb(n, ell) * math.factorial(ell - 1) // 2
            empty = graph_from_edges(n, [])
            complete = graph_from_edges(n, list(combinations(range(n), 2)))
            assert signed_cycle_count(empty, p, ell) == pytest.approx(
                cycles * (-p) ** ell, rel=1e-12
            )
            assert signed_cycle_count(complete, p, ell) == pytest.approx(
                cycles * (1 - p) ** ell, rel=1e-12
            )

    def test_four_cycles_beyond_enumeration_limit(self):
        g = sample_null(66, 0.3, Seed(103).stream(300))
        assert signed_cycle_count(g, 0.3, 4) == pytest.approx(
            signed_cycle_count_enumerated(g, 0.3, 4), abs=1e-8
        )

    @pytest.mark.parametrize("ell, n", [(3, 14), (4, 14), (5, 14), (6, 14), (7, 10)])
    def test_enumerated_lengths_match_oracle(self, ell, n):
        # C(14, 6) six-cycle subsets fill several of the oracle's gathered blocks
        for t, p in enumerate((0.1, 0.3, 0.7)):
            g = sample_null(n, p, Seed(103).stream(400 + 10 * ell + t))
            assert signed_cycle_count(g, p, ell) == pytest.approx(
                signed_cycle_count_enumerated(g, p, ell), abs=1e-10
            )

    def test_products_freed_after_last_use(self):
        # a 7-cycle count would hold 21 n x n products if it kept them all
        n = 400
        g = sample_null(n, 0.3, Seed(103).stream(600))
        signed_cycle_count(g, 0.3, 7)  # builds the plan outside the measurement
        tracemalloc.start()
        try:
            signed_cycle_count(g, 0.3, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * n * n * 8

    def test_enumeration_refusals(self):
        # only lengths outside [3, 7] are refused, at any n
        small = sample_null(10, 0.5, Seed(104).stream(1))
        for ell in (-1, 0, 2, 8, 9):
            with pytest.raises(ValueError, match=r"cycle length must lie in \[3, 7\]"):
                signed_cycle_count(small, 0.5, ell)


class TestWedgeSums:
    def test_tiny_subsets(self):
        g = sample_null(8, 0.5, Seed(105).stream(0))
        assert wedge_sums(g, 0.5, [2, 5]) == {(2, 5): 0.0}

    def test_minimum_vertex_rows_vanish(self):
        g = sample_null(8, 0.5, Seed(105).stream(1))
        table = wedge_sums(g, 0.5, [1, 3, 4, 6])
        assert table[(1, 3)] == 0.0 and table[(1, 4)] == 0.0 and table[(1, 6)] == 0.0

    def test_against_double_loop(self):
        g = sample_null(8, 0.5, Seed(105).stream(2))
        subset = list(range(8))
        table = wedge_sums(g, 0.5, subset)
        for (i, j), got in table.items():
            expected = sum(
                (g.has_edge(l, i) - 0.5) * (g.has_edge(l, j) - 0.5)
                for l in subset
                if l < i
            )
            assert got == pytest.approx(expected, abs=1e-12)
        total_sq = sum(v * v for v in table.values())
        assert total_sq == pytest.approx(
            sum(
                sum(
                    (g.has_edge(l, i) - 0.5) * (g.has_edge(l, j) - 0.5)
                    for l in subset
                    if l < i
                )
                ** 2
                for i, j in combinations(subset, 2)
            ),
            abs=1e-12,
        )

    def test_resummation_identities(self):
        # ordered wedges tile each triangle once; symmetric wedges three times
        g = sample_null(9, 0.4, Seed(105).stream(3))
        subset = [0, 2, 3, 5, 7, 8]
        f_a = subset_signed_triangles(g, 0.4, subset)
        asym = wedge_sums(g, 0.4, subset)
        sym = wedge_sums_symmetric(g, 0.4, subset)
        signed = lambda i, j: g.has_edge(i, j) - 0.4  # noqa: E731
        total_asym = sum(signed(i, j) * w for (i, j), w in asym.items())
        total_sym = sum(signed(i, j) * w for (i, j), w in sym.items())
        assert total_asym == pytest.approx(f_a, abs=1e-12)
        assert total_sym == pytest.approx(3 * f_a, abs=1e-12)

    def test_stacked_wedge_matrix_against_double_loop(self):
        g = sample_null(10, 0.5, Seed(105).stream(5))
        a = centered_adjacency(g, 0.5)
        subsets = [list(range(8)), [0, 2, 3, 5, 6, 7, 8, 9], [1, 2, 4, 5, 6, 7, 8, 9]]
        stacked = stats_mod._wedge_matrix(np.stack([a[np.ix_(s, s)] for s in subsets]))
        for w, subset in zip(stacked, subsets):
            for x, y in combinations(range(len(subset)), 2):
                i, j = subset[x], subset[y]
                expected = sum(
                    (g.has_edge(l, i) - 0.5) * (g.has_edge(l, j) - 0.5)
                    for l in subset
                    if l < i
                )
                assert w[x, y] == pytest.approx(expected, abs=1e-12)
            assert np.all(np.tril(w) == 0.0)

    def test_duplicate_subset_rejected(self):
        g = sample_null(5, 0.5, Seed(105).stream(4))
        with pytest.raises(ValueError, match="subset contains duplicate vertices"):
            wedge_sums(g, 0.5, [1, 1, 2])


class TestSubsetTriangles:
    def test_full_subset_equals_global(self):
        g = sample_null(11, 0.35, Seed(106).stream(0))
        assert subset_signed_triangles(g, 0.35, range(11)) == pytest.approx(
            signed_triangle_count(g, 0.35), abs=1e-10
        )

    def test_small_subsets_vanish(self):
        g = sample_null(11, 0.35, Seed(106).stream(1))
        assert subset_signed_triangles(g, 0.35, [3]) == 0.0
        assert subset_signed_triangles(g, 0.35, [3, 7]) == 0.0

    def test_against_brute_force(self):
        g = sample_null(10, 0.5, Seed(106).stream(2))
        subset = [0, 1, 4, 6, 9]
        expected = sum(
            (g.has_edge(i, j) - 0.2) * (g.has_edge(j, l) - 0.2) * (g.has_edge(i, l) - 0.2)
            for i, j, l in combinations(subset, 3)
        )
        assert subset_signed_triangles(g, 0.2, subset) == pytest.approx(expected, abs=1e-12)


class TestSubsetBlock:
    """A subset's statistics read its own pairs, the same bits as a gather from Abar."""

    @pytest.mark.parametrize(
        "subset", [[9, 2, 14, 5, 11], [9.7, 2.0, 14.2, 5.5], [], [6], list(range(17))]
    )
    def test_equals_the_n_by_n_route(self, subset):
        n, p = 17, 0.3
        g = sample_null(n, p, Seed(113).stream(len(subset)))
        verts = np.array(sorted(int(v) for v in subset), dtype=int)
        block = centered_adjacency(g, p)[np.ix_(verts, verts)]
        got_verts, got = stats_mod._subset_signed(g, p, subset)
        assert np.array_equal(got_verts, verts)
        assert got.dtype == block.dtype and got.shape == block.shape
        assert np.array_equal(got, block)
        assert subset_signed_triangles(g, p, subset) == stats_mod._triangle_sum(block)
        w = stats_mod._wedge_matrix(block)
        assert wedge_sums(g, p, subset) == {
            (int(verts[a]), int(verts[b])): float(w[a, b])
            for a, b in combinations(range(verts.size), 2)
        }
        plain = ScanConfig(k_minus=verts.size, mode="planted-oracle")
        loose = ScanConfig(k_minus=verts.size, mode="planted-oracle", sigma_sq=math.inf, B=math.inf)
        value, _ = scan_statistic(g, p, plain, oracle_subset=subset)
        assert value == stats_mod._triangle_sum(block)
        assert constrained_scan_statistic(g, p, loose, oracle_subset=subset)[0] == value

    def test_peak_memory_is_of_the_subset(self):
        # below one byte per vertex pair of the graph: no n x n array is built
        n, k_minus, p = 2000, 90, 0.3
        g = sample_null(n, p, Seed(113).stream(100))
        subset = np.sort(Seed(113).stream(101).choice(n, k_minus, replace=False))
        plain = ScanConfig(k_minus=k_minus, mode="planted-oracle")
        loose = ScanConfig(k_minus=k_minus, mode="planted-oracle", sigma_sq=math.inf, B=math.inf)
        calls = [
            lambda: scan_statistic(g, p, plain, oracle_subset=subset),
            lambda: constrained_scan_statistic(g, p, loose, oracle_subset=subset),
            lambda: wedge_sums(g, p, subset),
            lambda: subset_signed_triangles(g, p, subset),
        ]
        for call in calls:
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * n


def brute_scan(graph, p, k_minus, sigma_sq=None, bound=None):
    """Independent exhaustive enumerator used as the scan oracle."""
    best, best_set = None, None
    for combo in combinations(range(graph.n), k_minus):
        if sigma_sq is not None:
            table = wedge_sums(graph, p, combo)
            if sum(v * v for v in table.values()) > sigma_sq:
                continue
            if any(abs(v) > bound for v in table.values()):
                continue
        val = sum(
            (graph.has_edge(i, j) - p)
            * (graph.has_edge(j, l) - p)
            * (graph.has_edge(i, l) - p)
            for i, j, l in combinations(combo, 3)
        )
        if best is None or val > best:
            best, best_set = val, combo
    return best, best_set


class TestScan:
    def test_whole_graph_subset(self):
        g = sample_null(7, 0.5, Seed(107).stream(0))
        cfg = ScanConfig(k_minus=7, mode="exhaustive")
        value, subset = scan_statistic(g, 0.5, cfg)
        assert value == pytest.approx(signed_triangle_count(g, 0.5), abs=1e-10)
        assert list(subset) == list(range(7))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_exhaustive_matches_oracle(self, seed):
        g = sample_null(8, 0.4, np.random.default_rng(seed))
        cfg = ScanConfig(k_minus=4, mode="exhaustive")
        value, subset = scan_statistic(g, 0.4, cfg)
        expected, _ = brute_scan(g, 0.4, 4)
        assert value == pytest.approx(expected, abs=1e-10)
        assert subset_signed_triangles(g, 0.4, subset) == pytest.approx(value, abs=1e-10)

    def test_exhaustive_dominates_every_subset(self):
        g = sample_null(9, 0.5, Seed(107).stream(1))
        cfg = ScanConfig(k_minus=4, mode="exhaustive")
        value, _ = scan_statistic(g, 0.5, cfg)
        for combo in combinations(range(9), 4):
            assert value >= subset_signed_triangles(g, 0.5, combo) - 1e-12

    def test_local_search_bounded_by_exhaustive(self):
        for t in range(10):
            g = sample_null(11, 0.5, Seed(108).stream(t))
            exact, _ = scan_statistic(g, 0.5, ScanConfig(k_minus=5, mode="exhaustive"))
            heur, subset = scan_statistic(
                g, 0.5, ScanConfig(k_minus=5, mode="local-search", restarts=4)
            )
            assert heur <= exact + 1e-12
            assert subset_signed_triangles(g, 0.5, subset) == pytest.approx(heur, abs=1e-10)

    def test_oracle_mode(self):
        g = sample_null(10, 0.3, Seed(110).stream(0))
        cfg = ScanConfig(k_minus=4, mode="planted-oracle")
        value, subset = scan_statistic(g, 0.3, cfg, oracle_subset=[1, 3, 5, 7])
        assert value == pytest.approx(
            subset_signed_triangles(g, 0.3, [1, 3, 5, 7]), abs=1e-12
        )
        with pytest.raises(ValueError):
            scan_statistic(g, 0.3, cfg)  # missing subset
        with pytest.raises(ValueError):
            scan_statistic(g, 0.3, cfg, oracle_subset=[1, 2])  # wrong size

    @pytest.mark.parametrize("subset", [[-1, 0, 1], [1, 1, 2], [5, 6, 8]])
    def test_oracle_subset_validated(self, subset):
        # a negative index would wrap to n - 1 and a repeat would be scored
        g = sample_null(8, 0.4, Seed(112).stream(0))
        plain = ScanConfig(k_minus=3, mode="planted-oracle")
        loose = ScanConfig(k_minus=3, mode="planted-oracle", sigma_sq=math.inf, B=math.inf)
        for scan, cfg in ((scan_statistic, plain), (constrained_scan_statistic, loose)):
            with pytest.raises(ValueError):
                scan(g, 0.4, cfg, oracle_subset=subset)

    @pytest.mark.parametrize("mode", ["exhaustive", "planted-oracle", "local-search"])
    def test_constrained_config_refused(self, mode):
        # only constrained_scan_statistic reads sigma_sq and B
        g = sample_null(12, 0.3, Seed(113).stream(0))
        cfg = ScanConfig(k_minus=6, mode=mode, sigma_sq=1.0, B=0.6)
        with pytest.raises(ValueError, match="constrained_scan_statistic"):
            scan_statistic(g, 0.3, cfg, oracle_subset=range(6))

    def test_exhaustive_spans_several_blocks(self):
        n, k = 18, 6
        assert len(list(stats_mod._prefix_blocks(n, k - 2))) > 1
        g = sample_null(n, 0.4, Seed(107).stream(2))
        value, subset = scan_statistic(g, 0.4, ScanConfig(k_minus=k, mode="exhaustive"))
        expected, _ = brute_scan(g, 0.4, k)
        assert value == pytest.approx(expected, abs=1e-10)
        assert len(subset) == k
        assert subset_signed_triangles(g, 0.4, subset) == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("k_minus", [0, 1, 2])
    def test_subsets_without_triangles(self, k_minus):
        # no subset of fewer than 3 vertices holds a triangle: the first one wins
        g = sample_null(6, 0.5, Seed(107).stream(3))
        value, subset = scan_statistic(g, 0.5, ScanConfig(k_minus=k_minus))
        assert value == 0.0
        assert list(subset) == list(range(k_minus))
        cfg = ScanConfig(k_minus=k_minus, sigma_sq=1.0, B=1.0)
        value, subset = constrained_scan_statistic(g, 0.5, cfg)
        assert value == 0.0
        assert list(subset) == list(range(k_minus))

    def test_subset_larger_than_graph(self):
        g = sample_null(5, 0.5, Seed(107).stream(4))
        for mode in ("exhaustive", "local-search"):
            assert scan_statistic(g, 0.5, ScanConfig(k_minus=6, mode=mode)) == (None, None)
            cfg = ScanConfig(k_minus=6, mode=mode, sigma_sq=1.0, B=1.0)
            assert constrained_scan_statistic(g, 0.5, cfg) == (None, None)

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_below_one_rejected(self, restarts):
        # a local search with no restart would return no subset at all
        with pytest.raises(ValueError, match="restarts"):
            ScanConfig(k_minus=3, mode="local-search", restarts=restarts)

    @pytest.mark.parametrize(
        "bounds",
        [
            {"sigma_sq": -1.0, "B": 0.0},
            {"sigma_sq": 0.0, "B": -1.0},
            {"sigma_sq": math.nan, "B": 1.0},
            {"sigma_sq": 1.0},
            {"B": 1.0},
        ],
        ids=["negative-sigma_sq", "negative-B", "nan-sigma_sq", "sigma_sq-alone", "B-alone"],
    )
    def test_constraint_bounds_checked(self, bounds):
        with pytest.raises(ValueError, match="sigma_sq"):
            ScanConfig(k_minus=3, **bounds)

    def test_exhaustive_size_guard(self):
        cfg = ScanConfig(k_minus=20, mode="exhaustive")
        with pytest.raises(ValueError):
            cfg.check_exhaustive(100)


def assert_local_search_matches_oracle(graph, p, k_minus, restarts, constraint=None):
    """The sweep scan and the swap-loop oracle take the same path from the same starts."""
    if constraint is None:
        cfg = ScanConfig(k_minus=k_minus, mode="local-search", restarts=restarts)
        got = scan_statistic(graph, p, cfg)
        check = None
    else:
        sigma_sq, bound = constraint
        cfg = ScanConfig(
            k_minus=k_minus, mode="local-search", restarts=restarts,
            sigma_sq=sigma_sq, B=bound,
        )
        got = constrained_scan_statistic(graph, p, cfg)
        check = lambda sub: stats_mod._feasible(sub, sigma_sq, bound)  # noqa: E731
    val, subset = local_search_swap_loop(
        centered_adjacency(graph, p), graph.n, k_minus, restarts,
        stats_mod._start_stream(), check,
    )
    if subset is None:
        assert got == (None, None)
    else:
        assert got[0] == val
        assert np.array_equal(got[1], subset)
    return got


class TestLocalSearch:
    @pytest.mark.parametrize("p", [0.3, 0.123456])
    @pytest.mark.parametrize("k_minus", [0, 1, 2, 6, 11, 12])
    def test_matches_swap_loop(self, p, k_minus):
        for t in range(4):
            g = sample_null(12, p, Seed(120).stream(t))
            assert_local_search_matches_oracle(g, p, k_minus, 3)
            assert_local_search_matches_oracle(g, p, k_minus, 3, constraint=(1.0, 0.6))

    @pytest.mark.parametrize("p", [0.3, 0.123456])
    def test_matches_swap_loop_many_sweeps(self, p):
        g = sample_null(40, p, Seed(121).stream(0))
        plain = assert_local_search_matches_oracle(g, p, 15, 2)
        tight = assert_local_search_matches_oracle(g, p, 15, 2, constraint=(15.0, 1.5))
        assert tight[0] < plain[0]  # the constraints bind

    def test_start_stream_is_its_own(self):
        # a scan's starts share no stream with any other job, even at --seed 0
        starts = stats_mod._start_stream().random(8)
        for arm in Arm:
            same = np.array_equal(Seed(0).stream(0, arm=arm).random(8), starts)
            assert same == (arm is Arm.LOCAL_SEARCH), arm

    @pytest.mark.parametrize("complete", [False, True])
    def test_every_swap_ties(self, complete):
        # every subset has the same sum, so every swap has gain 0 and none is taken
        n, k, p = 10, 5, 0.3
        g = graph_from_edges(n, list(combinations(range(n), 2)) if complete else [])
        value, _ = assert_local_search_matches_oracle(g, p, k, 3)
        entry = (1.0 if complete else 0.0) - p
        assert value == pytest.approx(math.comb(k, 3) * entry**3, abs=1e-12)
        assert_local_search_matches_oracle(g, p, k, 3, constraint=(1.0, 0.6))
        assert_local_search_matches_oracle(g, p, k, 3, constraint=(math.inf, math.inf))


def assert_stack_matches_each_graph(graphs, p, k_minus, restarts, constraint=None):
    """One lockstep search of the stacked graphs gives, graph by graph, what
    the scan of each graph alone and the swap-loop oracle give."""
    sigma_sq, bound = constraint or (None, None)
    cfg = ScanConfig(k_minus, "local-search", restarts, sigma_sq, bound)
    a = np.stack([centered_adjacency(g, p) for g in graphs])
    stacked = stats_mod._local_search(a, cfg)
    assert len(stacked) == len(graphs)
    for graph, (value, subset) in zip(graphs, stacked):
        if k_minus > graph.n:  # no subset, and the swap loop draws none
            assert (value, subset) == (None, None)
            continue
        alone = assert_local_search_matches_oracle(graph, p, k_minus, restarts, constraint)
        assert value == alone[0] and type(value) is type(alone[0])
        assert (subset is None) == (alone[1] is None)
        assert subset is None or np.array_equal(subset, alone[1])
    return stacked


def clique_union(cliques: int, size: int) -> Graph:
    """Disjoint equal cliques: members of cliques they share equally with the
    subset tie exactly in their triangle contributions."""
    return graph_from_edges(cliques * size, [
        (c * size + i, c * size + j) for c in range(cliques) for i, j in combinations(range(size), 2)
    ])


@pytest.mark.filterwarnings("error")  # the margin test must not form inf - inf
class TestLockstepSearch:
    @pytest.mark.parametrize("p", [0.3, 0.123456])
    @pytest.mark.parametrize("constraint", [None, (1e4, 30.0), (8.0, 1.5)])
    def test_stack_matches_each_graph(self, p, constraint):
        # climbs of different lengths side by side: an edgeless graph, whose
        # every swap ties, stops at once; null and planted graphs climb on
        # (the tight constraint at n = 64, k_minus = 23 admits no subset)
        params = ModelParams(n=64, p=p, d=8, k=26)
        graphs = [sample_null(64, p, Seed(122).stream(t)) for t in range(3)]
        graphs += [sample_planted(params, Seed(123).stream(0)).graph, graph_from_edges(64, [])]
        stacked = assert_stack_matches_each_graph(graphs, p, 23, 2, constraint)
        if constraint is None:
            assert len({value for value, _ in stacked}) == len(graphs)

    @pytest.mark.parametrize("k_minus", [0, 1, 2, 12, 13])
    def test_edge_sizes(self, k_minus):
        graphs = [sample_null(12, 0.3, Seed(124).stream(t)) for t in range(3)]
        stacked = assert_stack_matches_each_graph(graphs, 0.3, k_minus, 3)
        assert_stack_matches_each_graph(graphs, 0.3, k_minus, 3, constraint=(1.0, 0.6))
        assert all(value is None for value, _ in stacked) == (k_minus == 13)

    def test_exact_ties_take_the_einsum_order(self, monkeypatch):
        # members alone in their cliques tie exactly, from the start on; the
        # climbs sort them by the einsum, and take the cheap order elsewhere
        graphs, p, restarts = [clique_union(6, 5), clique_union(5, 6)], 0.3, 4
        a = np.stack([centered_adjacency(g, p) for g in graphs])
        for graph in graphs:
            assert_local_search_matches_oracle(graph, p, 10, restarts)
        counts = {"cheap": 0, "einsum": 0}
        sweep, einsum = stats_mod._sweep_swaps, np.einsum

        def counted_sweep(*args):
            swaps, cheap = sweep(*args)
            counts["cheap"] += int(cheap.sum())
            return swaps, cheap

        def counted_einsum(*args, **kwargs):
            counts["einsum"] += 1
            return einsum(*args, **kwargs)

        monkeypatch.setattr(stats_mod, "_sweep_swaps", counted_sweep)
        monkeypatch.setattr(stats_mod.np, "einsum", counted_einsum)
        stacked = stats_mod._local_search(a, ScanConfig(10, "local-search", restarts))
        monkeypatch.undo()
        for graph, (value, subset) in zip(graphs, stacked):
            alone = scan_statistic(graph, p, ScanConfig(10, "local-search", restarts))
            assert value == alone[0] and np.array_equal(subset, alone[1])
        # each climb ends with one sweep, so einsum sweeps past that many moved on
        assert counts["einsum"] > len(graphs) * restarts and counts["cheap"] > 0


class TestConstrainedScan:
    def test_vacuous_constraints_match_scan(self):
        g = sample_null(9, 0.4, Seed(111).stream(0))
        plain = scan_statistic(g, 0.4, ScanConfig(k_minus=4, mode="exhaustive"))
        loose = constrained_scan_statistic(
            g, 0.4,
            ScanConfig(k_minus=4, mode="exhaustive", sigma_sq=math.inf, B=math.inf),
        )
        assert loose[0] == pytest.approx(plain[0], abs=1e-12)

    def test_zero_constraints_infeasible(self):
        # a complete graph at p != deterministic values has nonzero wedges
        g = graph_from_edges(6, list(combinations(range(6), 2)))
        value, subset = constrained_scan_statistic(
            g, 0.4, ScanConfig(k_minus=4, mode="exhaustive", sigma_sq=0.0, B=0.0)
        )
        assert value is None and subset is None

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_filtered_oracle(self, seed):
        g = sample_null(8, 0.4, np.random.default_rng(seed))
        sigma_sq, bound = 0.6, 0.6
        cfg = ScanConfig(k_minus=4, mode="exhaustive", sigma_sq=sigma_sq, B=bound)
        value, subset = constrained_scan_statistic(g, 0.4, cfg)
        expected, _ = brute_scan(g, 0.4, 4, sigma_sq=sigma_sq, bound=bound)
        if expected is None:
            assert value is None
        else:
            assert value == pytest.approx(expected, abs=1e-10)

    def test_exhaustive_spans_several_blocks(self):
        n, k = 18, 6
        g = sample_null(n, 0.4, Seed(111).stream(2))
        sigma_sq, bound = 1.2, 0.7
        cfg = ScanConfig(k_minus=k, mode="exhaustive", sigma_sq=sigma_sq, B=bound)
        value, subset = constrained_scan_statistic(g, 0.4, cfg)
        expected, _ = brute_scan(g, 0.4, k, sigma_sq=sigma_sq, bound=bound)
        assert expected is not None
        assert value == pytest.approx(expected, abs=1e-10)
        # the constraints bind: the unconstrained maximum is larger
        assert value < scan_statistic(g, 0.4, ScanConfig(k_minus=k))[0] - 1e-6
        table = wedge_sums(g, 0.4, subset)
        assert sum(v * v for v in table.values()) <= sigma_sq + 1e-12
        assert max(abs(v) for v in table.values()) <= bound + 1e-12

    def test_requires_constraints(self):
        g = sample_null(6, 0.4, Seed(111).stream(1))
        with pytest.raises(ValueError):
            constrained_scan_statistic(g, 0.4, ScanConfig(k_minus=3, mode="exhaustive"))


def assert_exhaustive_matches_blocks(graph, p, k_minus, constraint=None):
    """The prefix-pair scan against the block-batched oracle.

    Values agree to 1e-12 and the subset scores its value; at p = 0.5 every
    sum is exact, so the value and the subset are the oracle's own.
    """
    a = centered_adjacency(graph, p)
    if constraint is None:
        got = scan_statistic(graph, p, ScanConfig(k_minus=k_minus))
        check = None
    else:
        sigma_sq, bound = constraint
        cfg = ScanConfig(k_minus=k_minus, sigma_sq=sigma_sq, B=bound)
        got = constrained_scan_statistic(graph, p, cfg)
        check = lambda sub: stats_mod._feasible(sub, sigma_sq, bound)  # noqa: E731
    expected_val, expected_set = exhaustive_scan_blocks(a, k_minus, check)
    if expected_set is None:
        assert got == (None, None)
        return got
    value, subset = got
    assert value == pytest.approx(expected_val, abs=1e-12)
    assert subset_signed_triangles(graph, p, subset) == pytest.approx(value, abs=1e-12)
    if check is not None:
        assert check(a[np.ix_(subset, subset)])
    if p == 0.5:
        assert value == expected_val
        assert list(subset) == list(expected_set)
    return got


class TestExhaustiveScan:
    # (sigma_sq, B) = (1, 0.6) binds on most 12-vertex graphs at k_minus = 5
    # and 6, and at p = 0.5 leaves no feasible 7-subset
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 16),
        k_minus=st.integers(0, 7),
        p=st.sampled_from([0.3, 0.5]),
        constraint=st.sampled_from([None, (1.0, 0.6)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_block_oracle(self, seed, n, k_minus, p, constraint):
        g = sample_null(n, p, np.random.default_rng(seed))
        assert_exhaustive_matches_blocks(g, p, k_minus, constraint)

    def test_constraint_binds(self):
        g = sample_null(12, 0.3, Seed(113).stream(0))
        plain = assert_exhaustive_matches_blocks(g, 0.3, 6)
        tight = assert_exhaustive_matches_blocks(g, 0.3, 6, (1.0, 0.6))
        assert tight[0] < plain[0] - 1e-6

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_groups_span_several_chunks(self, monkeypatch, p):
        monkeypatch.setattr(stats_mod, "_CHUNK_BYTES", 2048)
        n, k = 14, 6
        groups = [l for l, _ in stats_mod._prefix_blocks(n, k - 2)]
        assert len(groups) > len(set(groups))
        for t in range(3):
            g = sample_null(n, p, Seed(114).stream(t))
            assert_exhaustive_matches_blocks(g, p, k)
            assert_exhaustive_matches_blocks(g, p, k, (1.0, 0.6))

    def test_tie_across_groups(self):
        # at p = 0.5 every sum is exact; on this graph four 4-subsets tie for the
        # maximum, and the one met first, whose prefix ends soonest, is not the
        # lexicographically first
        g = sample_null(8, 0.5, Seed(115).stream(42))
        values = {c: subset_signed_triangles(g, 0.5, c) for c in combinations(range(8), 4)}
        tied = sorted(c for c, v in values.items() if v == max(values.values()))
        assert min(tied, key=lambda c: (c[1], c)) != tied[0]
        cfg = ScanConfig(k_minus=4, sigma_sq=math.inf, B=math.inf)
        for value, subset in (
            scan_statistic(g, 0.5, ScanConfig(k_minus=4)),
            constrained_scan_statistic(g, 0.5, cfg),
        ):
            assert value == values[tied[0]]
            assert tuple(subset) == tied[0]

    @pytest.mark.parametrize("top", [2, 3, 8, 15])
    def test_tail_pairs_are_every_order_below(self, top):
        for m in range(top + 1):
            rows, cols = stats_mod._tail_pairs(top, m)
            ref_rows, ref_cols = np.triu_indices(m, 1)
            assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)

    def test_one_pair_order_cached_per_scan(self):
        # at n = 20, k_minus = 6 the prefixes end at 15 values of l, each with its
        # own order of pairs: more orders than the cache's 8
        g = sample_null(20, 0.3, Seed(116).stream(0))
        graphs_mod._upper_pairs.cache_clear()
        scan_statistic(g, 0.3, ScanConfig(k_minus=6))
        constrained_scan_statistic(g, 0.3, ScanConfig(k_minus=6, sigma_sq=2.0, B=1.0))
        assert graphs_mod._upper_pairs.cache_info().misses <= 1

    @pytest.mark.parametrize("k_minus", range(8))
    def test_every_subset_ties(self, k_minus):
        # on the empty graph at p = 0.5 every subset scores C(k, 3) (-1/8) exactly
        g = graph_from_edges(9, [])
        cfg = ScanConfig(k_minus=k_minus, sigma_sq=math.inf, B=math.inf)
        for value, subset in (
            scan_statistic(g, 0.5, ScanConfig(k_minus=k_minus)),
            constrained_scan_statistic(g, 0.5, cfg),
        ):
            assert value == math.comb(k_minus, 3) * -0.125
            assert list(subset) == list(range(k_minus))


class TestSignedEmbeddingProduct:
    def test_single_edge(self):
        g = graph_from_edges(4, [(0, 1)])
        assert signed_embedding_product(g, 0.3, [(0, 1)]) == pytest.approx(0.7)
        assert signed_embedding_product(g, 0.3, [(1, 2)]) == pytest.approx(-0.3)

    def test_absent_path(self):
        g = graph_from_edges(4, [])
        val = signed_embedding_product(g, 0.5, [(0, 1), (1, 2)])
        assert val == pytest.approx(0.25)

    def test_triangle_on_k3(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        val = signed_embedding_product(g, 0.4, [(0, 1), (1, 2), (0, 2)])
        assert val == pytest.approx(signed_triangle_count(g, 0.4), abs=1e-12)

    def test_duplicate_rejected(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            signed_embedding_product(g, 0.4, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            signed_embedding_product(g, 0.4, [(1, 1)])
