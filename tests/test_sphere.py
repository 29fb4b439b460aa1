"""Tests for the spherical harmonic analysis layer."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from geodetect.sphere import (
    GegenbauerBasis,
    basis_for_density,
    inner_product_tail,
    sample_uniform_sphere,
    signed_cycle_expectation,
    solve_threshold,
)
from geodetect.sphere import _log_gamma_half_ratio, _log_multiplicities, _mu_pdf, _panel_rule
from oracles import (
    gegenbauer_eval,
    inner_product_tail_betainc,
    inner_product_tail_mpmath,
    log_multiplicity_mpmath,
    multiplicity,
)

# frozen against a 40-digit mpmath bisection of the regularized incomplete beta
TAU_P01_D16 = 0.32710130942171891666
TAU_P03_D100 = 0.052800604353223766049
# frozen against 40-digit mpmath quadrature of sqrt(d) x mu(x) over [tau, 1]
C1_P01_D16 = 0.17341822081029897006

# the README envelope of the cap tail: p from 1e-6 to 1 - 1e-6, d from 3 to 1e9
TAIL_PS = (1e-6, 1e-4, 0.01, 0.1, 0.3, 0.49, 0.51, 0.7, 1 - 1e-6)
TAIL_DS = (3, 4, 5, 16, 64, 10**3, 6001, 10**4, 10**5, 10**6, 10**8, 10**9)


def log_multiplicity(m, d):
    """log N_m as the library's series reads it."""
    return float(_log_multiplicities(d, m)[m])


class TestInnerProductLaw:
    def test_density_integrates_to_one(self):
        from scipy.integrate import quad

        for d in (3, 4, 7, 16, 64):
            total, _ = quad(_mu_pdf, -1.0, 1.0, args=(d,), limit=200)
            assert abs(total - 1.0) <= 1e-10

    def test_density_normalization_by_tail(self):
        # exact check at 1e-10: the tail at -1 is the full mass
        for d in (3, 5, 40, 4096):
            assert abs(inner_product_tail(-1.0, d) - 1.0) <= 1e-10

    def test_symmetry(self):
        x = np.linspace(-0.99, 0.99, 101)
        assert np.allclose(_mu_pdf(x, 9), _mu_pdf(-x, 9), rtol=0, atol=1e-14)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            solve_threshold(0.3, 2)


class TestInnerProductTail:
    def test_symmetry_point(self):
        assert inner_product_tail(0.0, 7) == pytest.approx(0.5, abs=1e-12)

    def test_boundary(self):
        assert inner_product_tail(1.0, 7) == pytest.approx(0.0, abs=1e-12)
        assert inner_product_tail(-1.0, 7) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_nonincreasing(self):
        grid = np.linspace(-1, 1, 101)
        for d in (3, 16, 1000):
            vals = [inner_product_tail(t, d) for t in grid]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_against_sampling_oracle(self):
        # empirical frequency over 1e6 latent pairs at (t=0.2, d=16)
        rng = np.random.default_rng(20260810)
        trials = 1_000_000
        u = sample_uniform_sphere(16, rng, size=trials)
        v = sample_uniform_sphere(16, rng, size=trials)
        hits = np.einsum("ij,ij->i", u, v) >= 0.2
        p_hat = hits.mean()
        p_true = inner_product_tail(0.2, 16)
        se = math.sqrt(p_true * (1 - p_true) / trials)
        assert abs(p_hat - p_true) <= 3 * se

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            inner_product_tail(1.5, 8)
        with pytest.raises(ValueError):
            inner_product_tail(0.0, 2)

    @pytest.mark.parametrize("d", TAIL_DS)
    def test_against_mpmath_angle_integral(self, d):
        # 1e-13 relative at +-tau(p, d), on both sides of the polar switch at t = 1/sqrt(2)
        for p in TAIL_PS:
            tau = solve_threshold(p, d).tau
            for t in (tau, -tau):
                exact = inner_product_tail_mpmath(t, d)
                assert inner_product_tail(t, d) == pytest.approx(exact, rel=1e-13, abs=0)

    @pytest.mark.parametrize("d", [d for d in TAIL_DS if d <= 10**4])
    def test_against_incomplete_beta(self, d):
        for p in TAIL_PS:
            tau = solve_threshold(p, d).tau
            for t in (tau, -tau):
                exact = inner_product_tail_betainc(t, d)
                assert inner_product_tail(t, d) == pytest.approx(exact, rel=1e-13, abs=0)

    def test_references_agree_where_both_hold(self):
        # the incomplete-beta reference is within 6e-14 of the angle integral up to d = 1e4
        for d in (3, 64, 6001, 10**4):
            for t in (0.5 / math.sqrt(d), 2.0 / math.sqrt(d), 0.9):
                beta = inner_product_tail_betainc(t, d)
                if beta > 1e-300:
                    assert beta == pytest.approx(inner_product_tail_mpmath(t, d), rel=1e-13)

    def test_near_one_in_the_polar_angle(self):
        # d = 3 is the uniform law: the tail is exactly (1 - t)/2, down to t = 1 - 2^-52
        for t in (0.7, 0.75, 0.99, 1.0 - 2e-6, 1.0 - 2.0**-52):
            assert inner_product_tail(t, 3) == pytest.approx((1.0 - t) / 2.0, rel=1e-14)


class TestSolveThreshold:
    def test_half_density_is_zero(self):
        res = solve_threshold(0.5, 32)
        assert res.tau == 0.0
        assert res.residual <= 1e-10

    def test_upper_bound(self):
        res = solve_threshold(0.3, 100)
        bound = math.sqrt(3 * math.log(1 / 0.3) / 100)
        assert 0.0 < res.tau <= bound
        assert res.tau == pytest.approx(TAU_P03_D100, abs=1e-10)

    def test_regression_constant(self):
        res = solve_threshold(0.1, 16)
        assert res.tau == pytest.approx(TAU_P01_D16, abs=1e-10)
        assert res.residual <= 1e-10

    def test_residual_contract(self):
        for p in (0.05, 0.2, 0.45, 0.6, 0.9):
            for d in (3, 10, 333, 10**6):
                assert solve_threshold(p, d).residual <= 1e-10

    def test_residual_over_the_envelope(self):
        for p in TAIL_PS + (1e-12, 0.5 + 1e-9):
            for d in TAIL_DS:
                res = solve_threshold(p, d)
                assert res.residual <= 1e-10
                assert inner_product_tail(res.tau, d) == pytest.approx(p, rel=1e-12)

    def test_newton_steps_per_solve(self, monkeypatch):
        # Newton from 0 with the exact pdf: tens of tail evaluations, not 200 bisections
        import geodetect.sphere as sphere_mod

        calls = []
        tail = sphere_mod.inner_product_tail
        monkeypatch.setattr(
            sphere_mod, "inner_product_tail", lambda t, d: calls.append(t) or tail(t, d)
        )
        for p in TAIL_PS:
            for d in TAIL_DS:
                calls.clear()
                solve_threshold.__wrapped__(p, d)
                assert len(calls) <= 25, (p, d, len(calls))

    def test_strictly_decreasing_in_p(self):
        for d in (5, 64, 2048):
            taus = [solve_threshold(p, d).tau for p in np.linspace(0.05, 0.95, 10)]
            assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_threshold(0.0, 16)
        with pytest.raises(ValueError):
            solve_threshold(1.0, 16)


class TestMuNormalizer:
    def test_against_mpmath(self):
        # Gamma(z + 1/2) / Gamma(z) at z = (d - 1)/2, both sides of the switch at z = 12
        ds = [3, 4, 5, 8, 16, 23, 24, 25, 26, 27, 64, 500, 1001, 6001, 10**4]
        ds += [2 * 10**4 + 1, 10**5, 10**6, 10**7, 10**8, 10**9]
        with mpmath.workdps(40):
            for d in ds:
                z = mpmath.mpf(d - 1) / 2
                exact = mpmath.exp(mpmath.loggamma(z + mpmath.mpf(0.5)) - mpmath.loggamma(z))
                ratio = math.exp(_log_gamma_half_ratio((d - 1) / 2.0))
                assert abs(ratio / exact - 1) <= 1e-14, d


class TestGegenbauerEval:
    def test_order_zero(self):
        assert gegenbauer_eval(0, 9, 0.37) == 1.0

    def test_order_one(self):
        assert gegenbauer_eval(1, 4, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_order_two_closed_form(self):
        # q_2(x) = (1/sqrt(2)) sqrt((d+2)/(d-1)) (d x^2 - 1)
        assert gegenbauer_eval(2, 3, 0.0) == pytest.approx(-math.sqrt(5) / 2, abs=1e-12)
        for d in (3, 4, 10, 100):
            for x in (-0.7, 0.0, 0.31, 1.0):
                expected = math.sqrt((d + 2) / (2 * (d - 1))) * (d * x * x - 1)
                assert gegenbauer_eval(2, d, x) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gegenbauer_eval(-1, 5, 0.0)
        with pytest.raises(ValueError):
            gegenbauer_eval(2, 5, 1.5)

    def test_orthonormality_quadrature(self):
        # integral of q_m q_m' d(mu) = delta_{mm'} for d in {4, 16, 64}, m <= 8
        from scipy.special import roots_legendre

        theta, w = roots_legendre(2000)
        for d in (4, 16, 64):
            ang = theta * (math.pi / 2)  # full range [-pi/2, pi/2]
            x = np.sin(ang)
            log_norm = gammaln(d / 2) - gammaln((d - 1) / 2) - 0.5 * math.log(math.pi)
            weight = np.exp(log_norm + (d - 2) * np.log(np.cos(ang))) * (math.pi / 2) * w
            qs = [gegenbauer_eval(m, d, x) for m in range(9)]
            for m in range(9):
                for mp_ in range(9):
                    val = float((qs[m] * qs[mp_] * weight).sum())
                    assert val == pytest.approx(1.0 if m == mp_ else 0.0, abs=1e-8)


class TestPanelRule:
    @pytest.mark.parametrize("order", [1, 2, 5, 17, 64, 100])
    def test_equals_leggauss(self, order):
        # bit for bit: every quadrature sum, and so every threshold, is unchanged
        x, w = _panel_rule(order)
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


class TestMultiplicity:
    def test_known_values(self):
        assert multiplicity(0, 50) == 1
        assert multiplicity(1, 50) == 50
        assert multiplicity(2, 4) == 9  # (d+2)/2 * (d-1) at d = 4

    def test_sphere_s2(self):
        # classical 2m+1 harmonics on S^2
        for m in range(10):
            assert multiplicity(m, 3) == 2 * m + 1

    def test_strictly_increasing(self):
        for d in (4, 5, 16, 64):
            vals = [multiplicity(m, d) for m in range(12)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_log_consistency(self):
        for d in (3, 4, 20, 1000):
            for m in range(8):
                assert log_multiplicity(m, d) == pytest.approx(
                    math.log(multiplicity(m, d)), rel=1e-12
                )

    def test_log_accurate_at_large_dimension(self):
        # a difference of log-gammas of size d log d lost 1e-7 of log N_2 at d = 1e9
        for d in (10**6, 10**8, 10**9):
            for m in (2, 3, 8, 200):
                assert log_multiplicity(m, d) == pytest.approx(
                    log_multiplicity_mpmath(m, d), rel=1e-14
                )

    def test_basis_reads_the_same_log_multiplicities(self):
        for d in (3, 20, 10**9):
            basis = GegenbauerBasis.build(d, 0.1)
            expected = [log_multiplicity(m, d) for m in range(basis.log_mults.size)]
            assert expected == basis.log_mults.tolist()

    def test_overflow_is_loud(self):
        with pytest.raises(OverflowError):
            multiplicity(200, 10**6)
        assert math.isfinite(log_multiplicity(200, 10**6))


class TestGegenbauerCoefficient:
    def test_c0_equals_density(self):
        tau = solve_threshold(0.25, 20).tau
        assert GegenbauerBasis.build(20, tau).coeffs[0] == pytest.approx(0.25, abs=1e-10)

    def test_even_orders_vanish_at_zero_threshold(self):
        # integral over [0, 1] of even q_m is half the full integral, which is 0
        coeffs = GegenbauerBasis.build(12, 0.0).coeffs
        assert coeffs[2] == pytest.approx(0.0, abs=1e-12)
        assert coeffs[4] == pytest.approx(0.0, abs=1e-12)

    def test_c1_closed_form(self):
        tau = solve_threshold(0.1, 16).tau
        c1 = float(GegenbauerBasis.build(16, tau).coeffs[1])
        assert c1 == pytest.approx(C1_P01_D16, rel=1e-10)
        closed = math.exp(
            0.5 * math.log(16)
            + gammaln(8.0)
            - gammaln(7.5)
            - math.log(15)
            - 0.5 * math.log(math.pi)
            + 7.5 * math.log1p(-tau * tau)
        )
        assert c1 == pytest.approx(closed, rel=1e-8)

    def test_c1_closed_form_large_d(self):
        for d in (100, 10_000, 10**6):
            tau = solve_threshold(0.2, d).tau
            basis = GegenbauerBasis.build(d, tau)
            closed = math.exp(
                0.5 * math.log(d)
                + gammaln(d / 2)
                - gammaln((d - 1) / 2)
                - math.log(d - 1)
                - 0.5 * math.log(math.pi)
                + ((d - 1) / 2) * math.log1p(-tau * tau)
            )
            assert basis.coeffs[1] == pytest.approx(closed, rel=1e-8)

    def test_nonconvergence_is_reported(self, monkeypatch):
        import geodetect.sphere as sphere_mod
        from geodetect.sphere import QuadratureWarning

        # 64 and 128 nodes cannot integrate q_256: an error estimate far above
        # tolerance, not one within a rounding of it
        monkeypatch.setattr(sphere_mod, "_QUAD_PANELS", (1, 2))
        monkeypatch.setattr(sphere_mod, "_default_hard_cap", lambda d: 256)
        with pytest.warns(QuadratureWarning, match="error estimate"):
            basis = GegenbauerBasis.build(4, 0.0)
        assert not basis.quad_converged
        assert math.isfinite(basis.quad_error)

    def test_parseval(self):
        # partial sums of c_m^2 are monotone and bounded by p
        for (p, d) in ((0.1, 16), (0.5, 64), (0.3, 4)):
            basis = basis_for_density(p, d)
            partial = np.cumsum(basis.coeffs**2)
            assert np.all(np.diff(partial) >= -1e-18)
            assert partial[-1] <= p + 1e-10


class TestCycleExpectation:
    def test_single_term_truncation(self):
        # the value is the sum of its terms c_m^ell / N_m^(ell/2 - 1) up to truncation_m,
        # and the first is c_1^ell / d^(ell/2 - 1)
        for (ell, p, d) in ((3, 0.3, 64), (4, 0.1, 16), (5, 0.5, 256)):
            basis = basis_for_density(p, d)
            res = signed_cycle_expectation(ell, p, d)
            m = np.arange(1, res.truncation_m + 1)
            terms = basis.coeffs[m] ** ell * np.exp(-(ell / 2 - 1) * basis.log_mults[m])
            assert terms[0] == pytest.approx(basis.coeffs[1] ** ell / d ** (ell / 2 - 1), rel=1e-12)
            assert res.value == pytest.approx(terms.sum(), rel=1e-12)

    def test_positive_for_half_and_below(self):
        for ell in (3, 4, 5):
            for p in (0.1, 0.3, 0.5):
                for d in (8, 64, 1024):
                    res = signed_cycle_expectation(ell, p, d)
                    assert res.value > 0.0

    def test_four_cycle_sandwich(self):
        res = signed_cycle_expectation(4, 0.3, 64)
        calibrated = 1.21  # regression value; acceptance pins the full grid
        assert res.value > 0
        assert calibrated**-4 <= res.ratio <= calibrated**4

    def test_tail_contract(self):
        res = signed_cycle_expectation(3, 0.3, 64)
        assert not res.truncation_failed
        assert res.tail_bound <= 1e-12 * abs(res.value)
        assert res.truncation_m <= 64

    def test_monte_carlo_oracle(self):
        # independent latent-simulation oracle: three uniform vectors,
        # product of centered cap indicators
        p, d = 0.3, 64
        tau = solve_threshold(p, d).tau
        rng = np.random.default_rng(5)
        trials = 200_000
        u = sample_uniform_sphere(d, rng, size=3 * trials).reshape(trials, 3, d)
        prod = np.ones(trials)
        for a, b in ((0, 1), (1, 2), (0, 2)):
            ips = np.einsum("ij,ij->i", u[:, a], u[:, b])
            prod *= (ips >= tau) - p
        mean, se = prod.mean(), prod.std() / math.sqrt(trials)
        res = signed_cycle_expectation(3, p, d)
        assert abs(res.value - mean) <= 3 * se

    def test_dimension_guard_flag(self):
        res = signed_cycle_expectation(3, 0.01, 16)
        assert res.below_dimension_guard  # (5 log 100)^4 >> 16
        ok = signed_cycle_expectation(3, 0.5, 256)
        assert not ok.below_dimension_guard  # (5 log 2)^4 ~ 144 < 256

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            signed_cycle_expectation(2, 0.3, 64)
        with pytest.raises(ValueError):
            signed_cycle_expectation(3, 0.7, 64)


class TestSampleUniformSphere:
    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        u = sample_uniform_sphere(11, rng, size=1000)
        assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-12

    def test_first_coordinate_mean(self):
        rng = np.random.default_rng(2)
        n, d = 100_000, 6
        u = sample_uniform_sphere(d, rng, size=n)
        # Var(<u, e1>) = 1/d, so the mean has standard error 1/sqrt(n d)
        assert abs(u[:, 0].mean()) <= 3 / math.sqrt(n * d)

    def test_first_coordinate_variance(self):
        rng = np.random.default_rng(3)
        u = sample_uniform_sphere(10, rng, size=1_000_000)
        assert u[:, 0].var() == pytest.approx(0.1, rel=0.05)

    def test_single_vector_shape(self):
        rng = np.random.default_rng(4)
        v = sample_uniform_sphere(5, rng, size=())
        assert v.shape == (5,)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
