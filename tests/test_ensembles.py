"""Tests for the GOE / Wishart constructions and the threshold maps."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import gammaln, ndtr
from scipy.stats import kstest

from geodetect import ensembles as ensembles_mod
from geodetect import graphs as graphs_mod
from geodetect import stats as stats_mod
from geodetect.ensembles import (
    composite_planted_graph,
    lkj_log_kernel,
    sample_goe_shifted,
    sample_spherical_wishart,
    sample_wishart,
    threshold_map_alpha,
    threshold_map_beta,
)
from geodetect.graphs import (
    Arm,
    ModelParams,
    Seed,
    sample_planted_fixed_community,
)
from geodetect.sphere import inner_product_tail, solve_threshold
from geodetect.stats import signed_cycle_count, signed_triangle_count


class TestGoeShifted:
    def test_moments(self):
        # pooled over entries: diagonals mean d / variance 2d, off-diagonals
        # mean 0 / variance d
        seed = Seed(50)
        d, n, draws = 7.0, 40, 1200
        diag, off = [], []
        iu = np.triu_indices(n, k=1)
        for t in range(draws):
            m = sample_goe_shifted(n, d, seed.stream(t)).matrix
            diag.append(np.diag(m))
            off.append(m[iu])
        diag = np.concatenate(diag)
        off = np.concatenate(off)
        assert abs(diag.mean() - d) <= 3 * math.sqrt(2 * d / diag.size)
        assert diag.var() == pytest.approx(2 * d, rel=0.05)
        assert abs(off.mean()) <= 3 * math.sqrt(d / off.size)
        assert off.var() == pytest.approx(d, rel=0.05)

    def test_symmetric(self):
        m = sample_goe_shifted(10, 4.0, Seed(51).stream(0)).matrix
        assert np.array_equal(m, m.T)


class TestWishart:
    def test_moments(self):
        seed = Seed(52)
        k, d, draws = 6, 30, 3000
        diag, off = [], []
        iu = np.triu_indices(k, k=1)
        for t in range(draws):
            w = sample_wishart(k, d, seed.stream(t))
            assert w.latents is None  # d >= k: the Bartlett route
            diag.append(np.diag(w.matrix))
            off.append(w.matrix[iu])
        diag = np.concatenate(diag)
        off = np.concatenate(off)
        assert abs(diag.mean() - d) <= 3 * math.sqrt(2 * d / diag.size)
        assert abs(off.mean()) <= 3 * math.sqrt(d / off.size)

    def test_norm_concentration_event(self):
        # all k latent norms within 10% of sqrt(d), vs the stated bound; the
        # squared norms are the diagonal W_ii = |Z_i|^2, chi^2_d on either route
        seed = Seed(53)
        k, d, draws = 10, 2000, 400
        hits = 0
        for t in range(draws):
            w = sample_wishart(k, d, seed.stream(t))
            norms = np.sqrt(np.diag(w.matrix) / d)
            hits += bool(np.all((norms >= 0.9) & (norms <= 1.1)))
        rate = hits / draws
        assert rate >= 1 - 2 * k * math.exp(-d / 1000)
        assert rate >= 0.999

    def test_psd(self):
        for t in range(40):
            w = sample_wishart(8, 5, Seed(54).stream(t)).matrix
            assert np.linalg.eigvalsh(w).min() >= -1e-8


@pytest.mark.parametrize("d", [4, 5, 6])
def test_ensemble_latents_iff_dimension_below_order(d):
    # d == k is the first dimension at which the Bartlett route exists; below
    # it both samplers keep their latent draws bit for bit
    k = 5
    wish = sample_wishart(k, d, np.random.default_rng(7))
    sph = sample_spherical_wishart(k, d, np.random.default_rng(7))
    assert (wish.latents is not None) == (d < k)
    assert (sph.latents is not None) == (d < k)
    if d < k:
        z = np.random.default_rng(7).standard_normal((k, d))
        assert np.array_equal(wish.latents, z)
        assert np.array_equal(wish.matrix, z @ z.T)
        iu = np.triu_indices(k, k=1)
        assert np.array_equal(sph.matrix[iu], (sph.latents @ sph.latents.T)[iu])


class TestSphericalWishart:
    def test_unit_diagonal_exact(self):
        g = sample_spherical_wishart(7, 12, Seed(55).stream(0)).matrix
        assert np.all(np.diag(g) == 1.0)

    def test_single_vector(self):
        g = sample_spherical_wishart(1, 9, Seed(55).stream(1)).matrix
        assert g.shape == (1, 1) and g[0, 0] == 1.0

    def test_offdiagonal_law(self):
        # KS distance of the (1,2) entry against the inner-product law CDF
        seed = Seed(56)
        d, draws = 16, 60_000
        vals = np.empty(draws)
        for t in range(draws):
            vals[t] = sample_spherical_wishart(2, d, seed.stream(t)).matrix[0, 1]
        cdf = lambda t: 1.0 - inner_product_tail(t, d)  # noqa: E731
        stat = kstest(vals, np.vectorize(cdf)).statistic
        assert stat <= 0.01

    def test_psd(self):
        for t in range(40):
            g = sample_spherical_wishart(6, 9, Seed(57).stream(t)).matrix
            assert np.linalg.eigvalsh(g).min() >= -1e-8


def wishart_entry_cdf(t, d, nodes=400):
    """CDF of <Z1, Z2>/d by quadrature over the chi-square norm mixture.

    Vectorized over t: one ndtr evaluation on a nodes-by-points grid.
    """
    from scipy.special import roots_legendre

    t = np.atleast_1d(np.asarray(t, dtype=float))
    x, w = roots_legendre(nodes)
    lo, hi = max(d - 10 * math.sqrt(2 * d), 1e-9), d + 10 * math.sqrt(2 * d)
    s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    logpdf = (d / 2 - 1) * np.log(s) - s / 2 - gammaln(d / 2) - (d / 2) * math.log(2)
    dens = np.exp(logpdf) * 0.5 * (hi - lo) * w
    return dens @ ndtr(t[None, :] * d / np.sqrt(s)[:, None])


class TestWishartSphericalConvergence:
    def test_entry_law_distance_shrinks(self):
        # deterministic sup-distance between the exact entry CDFs
        dists = []
        for d in (100, 1000, 10_000):
            grid = np.linspace(-6 / math.sqrt(d), 6 / math.sqrt(d), 301)
            spherical = np.array([1.0 - inner_product_tail(t, d) for t in grid])
            sup = np.max(np.abs(wishart_entry_cdf(grid, d) - spherical))
            dists.append(sup)
        assert dists[0] > dists[1] > dists[2]

    def test_sampler_matches_exact_entry_cdf(self):
        seed = Seed(58)
        d, draws = 1000, 20_000
        vals = np.sort(
            [sample_wishart(2, d, seed.stream(t)).matrix[0, 1] / d for t in range(draws)]
        )
        cdf = wishart_entry_cdf(vals, d)
        steps = np.arange(1, draws + 1) / draws
        stat = max(np.max(np.abs(cdf - steps)), np.max(np.abs(cdf - steps + 1 / draws)))
        assert stat <= 0.015


class TestThresholdMaps:
    @pytest.mark.parametrize("p", [1e-17, 1e-13, 1e-6, 0.3, 0.7])
    def test_alpha_cut_is_the_upper_quantile(self, p):
        # at d = 1 the cut is the standard normal upper p-quantile z: an entry at z
        # is an edge and the next double below it is not, and P(N(0, 1) >= z) = p
        z = -NormalDist().inv_cdf(p)
        below = np.nextafter(z, -np.inf)
        m = np.array([[0.0, z, z], [z, 0.0, below], [z, below, 0.0]])
        g = threshold_map_alpha(m, p, 1.0)
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and not g.has_edge(1, 2)
        assert ndtr(-z) == pytest.approx(p, rel=1e-12)

    def test_alpha_zero_cut_at_half(self):
        m = np.array([[0.0, 0.1, -0.2], [0.1, 0.0, 0.0], [-0.2, 0.0, 0.0]])
        g = threshold_map_alpha(m, 0.5, 4.0)
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
        assert g.has_edge(1, 2)  # 0 >= 0 at the boundary

    def test_alpha_marginal(self):
        seed = Seed(59)
        n, d, draws = 60, 9.0, 400
        m_edges = n * (n - 1) // 2
        for p in (0.1, 0.5):
            count = sum(
                threshold_map_alpha(
                    sample_goe_shifted(n, d, seed.stream(t, arm=int(10 * p))), p, d
                ).edge_count
                for t in range(draws)
            )
            total = draws * m_edges
            se = math.sqrt(p * (1 - p) / total)
            assert abs(count / total - p) <= 3 * se

    def test_alpha_disjoint_edge_independence(self):
        seed = Seed(60)
        draws, p, d = 40_000, 0.3, 4.0
        a = np.empty(draws, dtype=bool)
        b = np.empty(draws, dtype=bool)
        for t in range(draws):
            g = threshold_map_alpha(sample_goe_shifted(4, d, seed.stream(t)), p, d)
            a[t] = g.has_edge(0, 1)
            b[t] = g.has_edge(2, 3)
        joint = np.mean(a & b)
        se = math.sqrt(p**2 * (1 - p**2) / draws)
        assert abs(joint - p**2) <= 3 * se

    def test_beta_on_spherical_equals_raw_threshold(self):
        draw = sample_spherical_wishart(8, 16, Seed(61).stream(0))
        tau = 0.14
        g = threshold_map_beta(draw, tau)
        iu = np.triu_indices(8, k=1)
        assert np.array_equal(g.edges, draw.matrix[iu] > tau)

    def test_beta_marginal_matches_density(self):
        seed = Seed(62)
        p, d, k, draws = 0.3, 12, 8, 3000
        tau = solve_threshold(p, d).tau
        m_edges = k * (k - 1) // 2
        count = sum(
            threshold_map_beta(sample_wishart(k, d, seed.stream(t)), tau).edge_count
            for t in range(draws)
        )
        total = draws * m_edges
        se = math.sqrt(p * (1 - p) / total)
        assert abs(count / total - p) <= 3 * se

    def test_beta_tau_one_empty(self):
        g = threshold_map_beta(sample_wishart(6, 9, Seed(63).stream(0)), 1.0)
        assert g.edge_count == 0

    def test_beta_rejects_bad_diagonal(self):
        bad = np.array([[1.0, 0.2], [0.2, -0.5]])
        with pytest.raises(ValueError):
            threshold_map_beta(bad, 0.1)


class TestCompositeRoute:
    def test_empty_community_is_null(self):
        params = ModelParams(n=25, p=0.4, d=8, k=10)
        seed = Seed(64)
        draws = 20_000
        m_edges = 300
        count = sum(
            composite_planted_graph([], params, seed.stream(t)).edge_count
            for t in range(draws)
        )
        total = draws * m_edges
        se = math.sqrt(0.4 * 0.6 / total)
        assert abs(count / total - 0.4) <= 3 * se

    def test_within_community_marginal(self):
        params = ModelParams(n=16, p=0.5, d=8, k=8)
        community = list(range(8))
        seed = Seed(65)
        draws = 20_000
        count = 0
        for t in range(draws):
            g = composite_planted_graph(community, params, seed.stream(t))
            count += sum(
                g.has_edge(i, j) for i in community for j in community if i < j
            )
        total = draws * 28
        se = math.sqrt(0.25 / total)
        assert abs(count / total - 0.5) <= 3 * se

    def test_density_one_is_complete(self):
        params = ModelParams(n=10, p=1.0, d=8, k=5)
        g = composite_planted_graph(range(5), params, Seed(64).stream(0))
        assert g.edge_count == 45

    @pytest.mark.parametrize(
        "n,size,p,d",
        [(12, 6, 0.5, 8), (14, 9, 0.3, 16), (16, 8, 0.5, 6), (30, 15, 0.5, 32)],
    )
    def test_route_equivalence(self, n, size, p, d):
        # matrix route and direct sampler agree on edge marginal, triangle
        # mean, and 4-cycle mean
        params = ModelParams(n=n, p=p, d=d, k=size)
        community = list(range(size))
        seed = Seed(66)
        draws = 6_000
        m_edges = n * (n - 1) // 2
        stats = {"edges": [[], []], "tri": [[], []], "cyc4": [[], []]}
        for t in range(draws):
            g1 = composite_planted_graph(community, params, seed.stream(t, arm=0))
            s2 = sample_planted_fixed_community(community, params, seed.stream(t, arm=1))
            for idx, g in enumerate((g1, s2.graph)):
                stats["edges"][idx].append(g.edge_count / m_edges)
                stats["tri"][idx].append(signed_triangle_count(g, p))
                stats["cyc4"][idx].append(signed_cycle_count(g, p, 4))
        for name, (a, b) in stats.items():
            a, b = np.asarray(a), np.asarray(b)
            se = math.hypot(a.std(), b.std()) / math.sqrt(draws)
            assert abs(a.mean() - b.mean()) <= 3 * se, name


class TestSpectralDeviation:
    def test_single_vector_zero(self):
        from geodetect.ensembles import spectral_deviation

        assert spectral_deviation(sample_spherical_wishart(1, 50, Seed(67).stream(0))) == 0.0

    def test_one_by_one(self):
        # ||W - I|| of a 1 x 1 matrix is |W - 1|; the spherical draw has W = 1 exactly
        from geodetect.ensembles import spectral_deviation

        assert spectral_deviation(np.array([[2.0]])) == 1.0
        for d in (1, 10):
            draw = sample_wishart(1, d, Seed(67).stream(d))
            assert spectral_deviation(draw) == abs(draw.matrix[0, 0] - 1.0) > 0.0
        assert ensembles_mod.spectral_deviations(1, 10, 5, Seed(67)).tolist() == [0.0] * 5

    def test_permutation_invariance(self):
        from geodetect.ensembles import spectral_deviation

        draw = sample_spherical_wishart(9, 40, Seed(67).stream(1))
        base = spectral_deviation(draw)
        rng = np.random.default_rng(3)
        for _ in range(5):
            perm = rng.permutation(9)
            permuted = draw.matrix[np.ix_(perm, perm)]
            assert spectral_deviation(permuted) == pytest.approx(base, abs=1e-9)

    def test_scale(self):
        from geodetect.ensembles import spectral_deviation

        seed = Seed(68)
        k, d, draws = 20, 20_000, 100
        devs = [
            spectral_deviation(sample_spherical_wishart(k, d, seed.stream(t)))
            for t in range(draws)
        ]
        assert np.mean(np.asarray(devs) <= 10 * math.sqrt(k / d)) >= 0.99


class TestLkjKernel:
    def test_zero_vector(self):
        assert lkj_log_kernel(np.zeros(3), 3, 10) == 0.0

    def test_two_by_two_closed_form(self):
        for y in (-0.6, -0.1, 0.3, 0.9):
            assert lkj_log_kernel([y], 2, 5) == pytest.approx(math.log(1 - y * y))

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError, match="positive definite"):
            lkj_log_kernel([0.9, 0.9, -0.9], 3, 10)

    def test_density_shape_matches_histogram(self):
        # at k=2 the kernel must reproduce the inner-product law shape:
        # exp(kernel) is proportional to the empirical density, bin by bin
        seed = Seed(69)
        d, draws = 8, 60_000
        vals = np.array(
            [sample_spherical_wishart(2, d, seed.stream(t)).matrix[0, 1] for t in range(draws)]
        )
        bins = np.linspace(-0.85, 0.85, 25)
        counts, edges = np.histogram(vals, bins=bins)
        centers = 0.5 * (edges[:-1] + edges[1:])
        keep = counts >= 500
        dens = counts[keep] / (draws * np.diff(edges)[keep])
        kern = np.array([math.exp(lkj_log_kernel([y], 2, d)) for y in centers[keep]])
        ratio = dens / kern
        assert ratio.max() / ratio.min() <= 1.2  # constant within ~10% per side


def _stack(draw, streams):
    """draw(rng) of each stream, each part stacked over a leading axis."""
    return tuple(np.stack(parts) for parts in zip(*(draw(rng) for rng in streams)))


class TestStackedArithmetic:
    """Each per-draw function equals its stacked form, item by item, with ==."""

    TRIALS = 6

    def streams(self, arm=0):
        return [Seed(71).stream(t, arm=arm) for t in range(self.TRIALS)]

    @pytest.mark.parametrize("k, d", [(7, 40), (7, 7), (7, 4), (1, 5)], ids=["bartlett", "k=d", "latent", "k=1"])
    def test_wisharts_and_deviations(self, k, d):
        spherical = _stack(lambda rng: graphs_mod._gram_draws(k, d, rng), self.streams())
        gram, latents = ensembles_mod._spherical_wishart_of(spherical)
        deviations = ensembles_mod._deviations(gram)
        wishart = ensembles_mod._wishart_of(
            _stack(lambda rng: graphs_mod._gram_draws(k, d, rng), self.streams(1))
        )
        for t, (rng, rng1) in enumerate(zip(self.streams(), self.streams(1))):
            one = sample_spherical_wishart(k, d, rng)
            assert np.array_equal(gram[t], one.matrix)
            assert (one.latents is None) == (latents is None) == (d >= k)
            if latents is not None:
                assert np.array_equal(latents[t], one.latents)
            assert deviations[t] == ensembles_mod.spectral_deviation(one)
            assert np.array_equal(wishart[t], sample_wishart(k, d, rng1).matrix)

    def test_goe_and_threshold_maps(self):
        n, d = 9, 16
        z = np.stack([rng.standard_normal((n, n)) for rng in self.streams()])
        goe = ensembles_mod._goe_shifted(z, d)
        wish = ensembles_mod._wishart_of(
            _stack(lambda rng: graphs_mod._gram_draws(n, d, rng), self.streams(1))
        )
        for p in (0.0, 0.3, 1.0, 1.5):
            alpha = ensembles_mod._alpha_edges(goe, p, d)
            for t, rng in enumerate(self.streams()):
                one = sample_goe_shifted(n, d, rng).matrix
                assert np.array_equal(goe[t], one)
                assert np.array_equal(alpha[t], threshold_map_alpha(one, p, d).edges)
        beta = ensembles_mod._beta_edges(wish, 0.1)
        for t in range(self.TRIALS):
            assert np.array_equal(beta[t], threshold_map_beta(wish[t], 0.1).edges)

    def test_beta_checks_every_diagonal_of_the_stack(self):
        stack = np.stack([np.eye(3), np.diag([1.0, -2.0, 0.5]), np.diag([0.0, 1.0, 1.0])])
        with pytest.raises(ValueError, match="diagonal entry 1 is -2;"):
            ensembles_mod._beta_edges(stack, 0.1)
        with pytest.raises(ValueError, match="diagonal entry 1 is -2;"):
            threshold_map_beta(stack[1], 0.1)

    @pytest.mark.parametrize(
        "n, members, p, d",
        [
            (12, [], 0.4, 8),
            (12, [5], 0.4, 8),
            (12, [2, 9], 0.4, 8),
            (12, range(12), 1.0, 8),
            (14, [0, 3, 4, 8, 13], 0.3, 16),  # Bartlett block
            (14, range(1, 12), 0.3, 6),  # latent block
        ],
    )
    def test_planted_routes_and_triangle_counts(self, n, members, p, d):
        members = np.asarray(list(members), dtype=int)
        params = ModelParams(n=n, p=p, d=d, k=max(members.size, 1))
        composite = ensembles_mod._composite_edges(members, params, _stack(
            lambda rng: ensembles_mod._composite_draws(members.size, params, rng),
            self.streams(),
        ))
        direct, latents = graphs_mod._fixed_community_edges(members, params, _stack(
            lambda rng: graphs_mod._fixed_community_draws(members.size, params, rng),
            self.streams(1),
        ))
        tri = {
            route: stats_mod._signed_triangle_counts(
                graphs_mod.symmetric_matrix(edges, n, np.float32), p
            )
            for route, edges in (("composite", composite), ("direct", direct))
        }
        for t, (rng, rng1) in enumerate(zip(self.streams(), self.streams(1))):
            g1 = composite_planted_graph(members, params, rng)
            s2 = sample_planted_fixed_community(members, params, rng1)
            assert np.array_equal(composite[t], g1.edges)
            assert np.array_equal(direct[t], s2.graph.edges)
            assert (latents is None) == (s2.latents is None)
            if latents is not None:
                assert np.array_equal(latents[t], s2.latents)
            assert tri["composite"][t] == signed_triangle_count(g1, p)
            assert tri["direct"][t] == signed_triangle_count(s2.graph, p)

    def test_chunked_loops_equal_the_per_draw_functions(self, monkeypatch):
        # a budget of three 8 x 8 matrices: chunks of 3 trials, the last one short
        monkeypatch.setattr(ensembles_mod, "_CHUNK_BYTES", 3 * 8 * 64)
        seed, trials = Seed(72), 8
        assert [len(c) for c in ensembles_mod._chunks(trials, 8)] == [3, 3, 2]
        for d in (20, 5):  # the Bartlett and the latent route
            deviations = ensembles_mod.spectral_deviations(8, d, trials, seed)
            assert deviations.tolist() == [
                ensembles_mod.spectral_deviation(
                    sample_spherical_wishart(8, d, seed.stream(t, arm=Arm.WISHART))
                )
                for t in range(trials)
            ]

    @pytest.mark.parametrize("members", [[], [4]])
    def test_communities_without_a_pair(self, members):
        # the general path at sizes 0 and 1: the direct route is its coins, and
        # the composite route the Gaussian threshold of its shifted GOE draw
        n, p, d, trials, seed = 9, 0.4, 8, 5, Seed(74)
        params = ModelParams(n=n, p=p, d=d, k=1)
        sums = {"direct": [0.0, 0.0], "composite": [0.0, 0.0]}
        for t in range(trials):
            coins = graphs_mod._edge_coins(n, p, seed.stream(t, arm=Arm.FIXED_COMMUNITY))
            goe = sample_goe_shifted(n, d, seed.stream(t, arm=Arm.COMPOSITE)).matrix
            alpha = ensembles_mod._alpha_edges(goe, p, d)
            direct = sample_planted_fixed_community(
                members, params, seed.stream(t, arm=Arm.FIXED_COMMUNITY)
            )
            composite = composite_planted_graph(members, params, seed.stream(t, arm=Arm.COMPOSITE))
            assert np.array_equal(direct.graph.edges, coins)
            assert np.array_equal(composite.edges, alpha)
            for route, edges in (("direct", coins), ("composite", alpha)):
                sums[route][0] += edges.sum() / (n * (n - 1) // 2)
                sums[route][1] += signed_triangle_count(graphs_mod.Graph(n, edges), p)
        report = ensembles_mod.route_check(members, params, trials, seed)
        for route, (edge_sum, tri_sum) in sums.items():
            assert report["edge_marginal"][route] == edge_sum / trials
            assert report["f_tri_mean"][route] == tri_sum / trials

    def test_route_check_refuses_what_the_samplers_refuse(self):
        params = ModelParams(n=6, p=0.3, d=8, k=3)
        with pytest.raises(ValueError, match=r"\[0, n\)"):
            ensembles_mod.route_check([0, 6], params, 4, Seed(1))
        with pytest.raises(ValueError, match="n >= 2"):
            ensembles_mod.route_check([], ModelParams(n=1, p=0.3, d=8, k=1), 4, Seed(1))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            ensembles_mod.route_check([0, 1], params, 0, Seed(1))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            ensembles_mod.spectral_deviations(3, 5, 0, Seed(1))
