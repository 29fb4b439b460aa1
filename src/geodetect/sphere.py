"""Harmonic analysis on the unit sphere S^{d-1}.

Everything downstream rests on the law mu of the inner product of two
independent uniform points on S^{d-1}, its cap threshold tau(p, d) chosen so
that the cap has probability exactly p, the polynomials orthonormal in
L^2(mu), and the coefficients of the cap indicator in that basis.  From those
ingredients the expectation of a signed length-ell cycle under the full
geometric model has the exact series representation

    sum_{m >= 1} c_m^ell / N_m^(ell/2 - 1),

where c_m is the m-th coefficient of the cap indicator and N_m is the
dimension of the degree-m harmonic space.  This module evaluates that series
to near machine precision at desk scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ThresholdResult",
    "GegenbauerBasis",
    "CycleExpectationResult",
    "QuadratureWarning",
    "inner_product_tail",
    "solve_threshold",
    "signed_cycle_expectation",
    "sample_uniform_sphere",
]

# Truncation / quadrature policy.  The series is cut at the first m >= 8 where
# five consecutive terms are below 1e-16 of the partial sum; the hard cap
# mirrors the small-m / large-m split of the underlying analysis.  Quadrature
# refines composite 64-point Gauss-Legendre panels until two successive levels
# agree, capped at 2^14 total nodes.
_SERIES_RTOL = 1e-16
_SERIES_SMALL_RUN = 5
_SERIES_MIN_M = 8
_HARD_CAP_CLAMP = 256  # intermediate recurrence values overflow past m ~ 300
_QUAD_RTOL = 1e-10
_QUAD_ATOL = 1e-15
_QUAD_ORDER = 64
_QUAD_PANELS = (4, 8, 16, 32, 64, 128, 256)
# The cap tail is one fixed rule: four 64-point panels from the cap edge to the
# angle where the integrand has fallen by e^-40.  Four panels rather than one
# keep the rule's last-bit weight errors (largest at the panel ends) below
# 1e-14 of the tail.  Past 45 degrees the angle is measured from the pole.
_TAIL_PANELS = 4
_TAIL_LOG_CUT = 40.0
_POLAR_SWITCH = math.sqrt(0.5)
_NEWTON_MAX_STEPS = 200
# coefficients of z^-1, z^-3, ..., z^-11 in log(Gamma(z + 1/2) / Gamma(z)) - (1/2) log z
_HALF_RATIO_SERIES = (
    -1.0 / 8.0, 1.0 / 192.0, -1.0 / 640.0, 17.0 / 14336.0, -31.0 / 18432.0, 691.0 / 180224.0
)
_BLOCK_ELEMENTS = 1_000_000  # per block of _normalise_rows and of graphs._edge_coins


class QuadratureWarning(UserWarning):
    """Raised as a warning when node-doubling fails to reach its tolerance."""


def _check_dimension(d) -> int:
    d = int(d)
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got {d}")
    return d


def _log_gamma_half_ratio(z: float) -> float:
    """log(Gamma(z + 1/2) / Gamma(z)) to about 1e-15 for every z >= 1.

    A difference of log-gamma values loses digits in proportion to their size
    (about 4e-12 at z = 3000, 9 digits near z = 5e7).  For z >= 12 this uses the
    asymptotic series (1/2) log z + sum_n (-1)^n (B_n(1/2) - B_n) / (n (n-1)
    z^(n-1)), whose terms n = 2, 4, ..., 12 are _HALF_RATIO_SERIES and whose
    first omitted one is below 1e-16 there; smaller z climb to 12 by
    Gamma(z + 3/2) / Gamma(z + 1) = Gamma(z + 1/2) / Gamma(z) * (z + 1/2) / z.
    """
    shift = max(0, math.ceil(12.0 - z))
    ratio = 1.0
    for j in range(shift):
        ratio *= (z + j) / (z + j + 0.5)
    z += shift
    series = 0.0
    for coeff in reversed(_HALF_RATIO_SERIES):  # Horner in 1/z^2
        series = series / (z * z) + coeff
    return 0.5 * math.log(z) + series / z + math.log(ratio)


def _mu_log_normalizer(d: int) -> float:
    # Gamma(d/2) / (Gamma((d-1)/2) sqrt(pi))
    return _log_gamma_half_ratio((d - 1) / 2.0) - 0.5 * math.log(math.pi)


def _mu_pdf(x, d: int):
    """Density of the law mu of <U1, U2> for independent uniform points on S^{d-1}.

    mu(x) = Gamma(d/2) / (Gamma((d-1)/2) sqrt(pi)) (1 - x^2)^((d-3)/2) on
    [-1, 1]; symmetric about 0, and the uniform density 1/2 for d = 3.
    """
    log_pdf = _mu_log_normalizer(d)
    half = (d - 3) / 2.0
    if half != 0.0:  # d = 3 is the uniform law; avoid 0 * -inf at x = +-1
        with np.errstate(divide="ignore"):
            log_pdf = log_pdf + half * np.log1p(-x * x)
    return np.exp(log_pdf)


def _log_cos(theta):
    """log cos(theta) via log1p(-2 sin^2(theta/2)).

    Full relative precision even when (d - 2) amplifies a 1-ulp error in cos
    by 1e8.
    """
    with np.errstate(divide="ignore"):
        return np.log1p(-2.0 * np.sin(0.5 * theta) ** 2)


def inner_product_tail(t: float, d: int) -> float:
    """P(<U1, U2> >= t) for independent uniform points on S^{d-1}.

    With x = sin(phi) the law is c_d cos^(d-2)(phi) dphi, so the tail is
    c_d times the integral of cos^(d-2) over [asin t, pi/2], an entire
    integrand for every integer d.  The panels cover only the O(1/sqrt(d))
    bulk past the cap edge, where the integrand is largest, and stop once it
    has fallen by e^-40.  Past t = 1/sqrt(2) the angle psi = pi/2 - phi from the
    pole is used instead, with the cap's polar radius 2 asin(sqrt((1 - t)/2)),
    since asin(t) loses digits as t -> 1.  For t < 0 the tail is 1 - tail(-t).
    Accurate to about 1e-14 relative for 3 <= d <= 1e9.
    """
    d = _check_dimension(d)
    t = float(t)
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [-1, 1], got {t}")
    if t < 0.0:
        return 1.0 - inner_product_tail(-t, d)
    if t == 1.0:
        return 0.0
    # cos(phi) (or sin(psi)) at the cap edge, and where its (d-2)th power is e^-40 of that
    edge = math.sqrt((1.0 - t) * (1.0 + t))
    cut = edge * math.exp(-_TAIL_LOG_CUT / (d - 2))
    if t <= _POLAR_SWITCH:
        theta, w = _panel_nodes(math.asin(t), math.acos(cut), _TAIL_PANELS)
        log_g = _log_cos(theta)
    else:
        radius = 2.0 * math.asin(math.sqrt(0.5 * (1.0 - t)))
        theta, w = _panel_nodes(math.asin(cut), radius, _TAIL_PANELS)
        log_g = np.log(np.sin(theta))
    return float(w @ np.exp(_mu_log_normalizer(d) + (d - 2.0) * log_g))


@dataclass(frozen=True)
class ThresholdResult:
    """Cap threshold tau with P(X >= tau) = p and the achieved residual."""

    p: float
    d: int
    tau: float
    residual: float


@lru_cache(maxsize=1024)
def solve_threshold(p: float, d: int) -> ThresholdResult:
    """Solve inner_product_tail(tau, d) = p by safeguarded Newton, cached per (p, d).

    p > 1/2 is solved as -tau(1 - p, d); 1 - p is exact there.  For q < 1/2
    the root lies in (0, 1), where the tail is convex and strictly decreasing
    with derivative -pdf, so Newton steps from 0 climb to it from below.  A
    step that leaves the bracket falls back to bisection.  Stops once the
    tail is within 4 ulp of q or a step moves tau by at most 4 ulp, and
    requires residual <= 1e-10.
    """
    d = _check_dimension(d)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if abs(inner_product_tail(0.0, d) - p) <= 1e-13:
        # exact symmetry point; the common p = 1/2 case
        return ThresholdResult(p=p, d=d, tau=0.0, residual=abs(0.5 - p))
    q, sign = (p, 1.0) if p < 0.5 else (1.0 - p, -1.0)
    lo, hi, t = 0.0, 1.0, 0.0
    for _ in range(_NEWTON_MAX_STEPS):
        excess = inner_product_tail(t, d) - q
        if abs(excess) <= 4.0 * math.ulp(q):
            break
        if excess > 0.0:
            lo = t
        else:
            hi = t
        slope = float(_mu_pdf(t, d))
        step = excess / slope if slope > 0.0 else math.inf
        if abs(step) <= 4.0 * math.ulp(t):
            break
        t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
    tau = sign * t
    residual = abs(inner_product_tail(tau, d) - p)
    if residual > 1e-10:
        raise ArithmeticError(
            f"threshold solve stalled: p={p}, d={d}, residual={residual:.3e}"
        )
    return ThresholdResult(p=p, d=d, tau=tau, residual=residual)


def _recurrence_coeffs(m: int, d: int) -> tuple[float, float]:
    # q_{m+1} = a_m x q_m - b_m q_{m-1}
    a = math.sqrt((2 * m + d) * (2 * m + d - 2) / ((m + 1) * (m + d - 2)))
    b = math.sqrt(
        m * (m + d - 3) * (m + d / 2.0)
        / ((m + 1) * (m + d - 2) * (m + d / 2.0 - 2.0))
    )
    return a, b


def _log_multiplicities(d: int, max_m: int) -> np.ndarray:
    """log N_m for m = 0..max_m, to a few ulp at any d.

    N_m is the number of distinct degree-m spherical harmonics on S^{d-1}:
    N_m = (d + 2m - 2)/m * C(d + m - 3, m - 1), and the binomial is the product
    over 1 <= j < m of 1 + (d - 2)/j.  So log N_m is log((d + 2m - 2)/m) plus
    one cumulative sum of log1p((d - 2)/j): no difference of log-gammas of
    size d log d, which loses about 1e-7 of log N_2 at d = 1e9.
    """
    m = np.arange(1, max_m + 1)
    out = np.zeros(max_m + 1)
    out[1:] = np.log((d + 2.0 * m - 2.0) / m)
    out[2:] += np.cumsum(np.log1p((d - 2.0) / m[:-1]))
    return out


def _legendre_series(x, c):
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, in the operation order of numpy's legval."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=8)
def _panel_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], bit for bit numpy's leggauss.

    The steps of leggauss, without importing numpy.polynomial: the nodes are the
    eigenvalues of P_order's symmetric scaled companion matrix (off-diagonal
    k / sqrt((2k - 1)(2k + 1))), refined by one Newton step with
    P'_order = sum (2k + 1) P_k over k = order - 1, order - 3, ...; the weights
    are 1 / (P_{order-1} P'_order), each factor scaled by its max, symmetrised
    and scaled to sum to 2.
    """
    k = np.arange(order)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = k[1:] * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p = np.zeros(order + 1)  # P_order, and P_{order-1} as p[1:]
    p[-1] = 1.0
    dp = np.zeros(order)
    dp[order - 1 :: -2] = 2 * k[order - 1 :: -2] + 1
    df = _legendre_series(x, dp)
    x -= _legendre_series(x, p) / df
    fm = _legendre_series(x, p[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()  # at the unrefined nodes, as leggauss takes it
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _panel_nodes(lo: float, hi: float, panels: int):
    base_x, base_w = _panel_rule(_QUAD_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    return (mids + half * base_x[None, :]).ravel(), np.tile(half * base_w, panels)


def _coeffs_on_nodes(theta, w, d: int, max_m: int):
    """All coefficients c_0..c_max_m at once on nodes in the angle variable.

    The substitution x = sin(theta) absorbs the endpoint branch point of the
    weight: mu(x) dx becomes an entire function of theta (proportional to
    cos^{d-2} theta), so Gauss-Legendre panels converge spectrally for every
    d.  Running r_m := q_m * weight instead of bare q_m keeps every
    intermediate finite: where the weight underflows, r is exactly 0 and
    stays 0, so the exponential growth of q_m near |x| = 1 never
    materializes.
    """
    x = np.sin(theta)
    weight = np.exp(_mu_log_normalizer(d) + (d - 2.0) * _log_cos(theta))
    coeffs = np.empty(max_m + 1)
    r_prev = weight
    coeffs[0] = w @ r_prev
    r_cur = math.sqrt(d) * x * weight
    coeffs[1] = w @ r_cur
    for m in range(1, max_m):
        a, b = _recurrence_coeffs(m, d)
        r_prev, r_cur = r_cur, a * x * r_cur - b * r_prev
        coeffs[m + 1] = w @ r_cur
    return coeffs


def _default_hard_cap(d: int) -> int:
    return min(max(64, math.ceil(d ** 0.25)), _HARD_CAP_CLAMP)


@dataclass(frozen=True)
class GegenbauerBasis:
    """Cap-indicator coefficients and harmonic multiplicities at one (d, tau).

    coeffs[m] = integral over [tau, 1] of q_m d(mu) and log_mults[m] = log N_m,
    for m up to the series' hard cap.  Immutable after construction and safe to
    share across workers.
    """

    coeffs: np.ndarray
    log_mults: np.ndarray
    quad_error: float
    quad_nodes: int
    quad_converged: bool

    @classmethod
    def build(cls, d: int, tau: float) -> "GegenbauerBasis":
        d = _check_dimension(d)
        tau = float(tau)
        if not -1.0 <= tau < 1.0:
            raise ValueError(f"tau must lie in [-1, 1), got {tau}")
        max_m = _default_hard_cap(d)

        # Upper integration limit: beyond x_hi the remaining mu-mass is below
        # e^-750 even after multiplying by the worst-case polynomial growth
        # (|q_m| <= (2 sqrt(d) + 1)^m), so truncating there changes nothing at
        # double precision while letting the panels resolve the O(1/sqrt(d))
        # scale on which mu concentrates.
        budget = 750.0 + (max_m + 1) * math.log(2.0 * math.sqrt(d) + 1.0)
        x_mass = math.sqrt(min(1.0, 2.0 * budget / max(d - 3, 1)))
        x_hi = min(1.0, max(x_mass, tau + 30.0 / math.sqrt(d)))
        theta_lo, theta_hi = math.asin(tau), math.asin(x_hi)

        prev, err, converged = None, math.inf, False
        for panels in _QUAD_PANELS:
            theta, w = _panel_nodes(theta_lo, theta_hi, panels)
            coeffs = _coeffs_on_nodes(theta, w, d, max_m)
            nodes = panels * _QUAD_ORDER
            if prev is not None:
                err = float(np.max(np.abs(coeffs - prev)))
                if np.all(
                    np.abs(coeffs - prev) <= _QUAD_RTOL * np.abs(coeffs) + _QUAD_ATOL
                ):
                    converged = True
                    break
            prev = coeffs
        if not converged:
            warnings.warn(
                f"coefficient quadrature did not reach tolerance at {nodes} nodes "
                f"(d={d}, tau={tau:.6g}); achieved error estimate {err:.3e}",
                QuadratureWarning,
                stacklevel=2,
            )
        return cls(
            coeffs=coeffs,
            log_mults=_log_multiplicities(d, max_m),
            quad_error=err,
            quad_nodes=nodes,
            quad_converged=converged,
        )


@lru_cache(maxsize=64)
def basis_for_density(p: float, d: int) -> GegenbauerBasis:
    """Basis at the threshold tau(p, d), cached per (p, d)."""
    return GegenbauerBasis.build(d, solve_threshold(p, d).tau)


@dataclass(frozen=True)
class CycleExpectationResult:
    """Signed length-ell cycle expectation under the full geometric model.

    value          series sum over m >= 1 of c_m^ell / N_m^(ell/2 - 1)
    truncation_m   index of the last term added
    tail_bound     10x the magnitude of the last term examined
    scale          reference p^ell log^(ell/2)(1/p) / d^(ell/2 - 1)
    truncation_failed   hard cap hit with tail_bound > 1e-12 |value|
    below_dimension_guard   d < (5 log(1/p))^4, below the paper's asymptotic regime; it
                        does not mark lost accuracy: 16 of ACCEPTANCE 04's 18 (ell, p, d)
                        points lie under it and agree with Monte Carlo at |z| <= 3
    quad_converged      the coefficient quadrature of the basis reached its tolerance
    """

    ell: int
    p: float
    d: int
    value: float
    truncation_m: int
    tail_bound: float
    scale: float
    truncation_failed: bool
    below_dimension_guard: bool
    quad_converged: bool

    @property
    def ratio(self) -> float:
        """value / scale; bracketed by C^{-ell}, C^ell for the calibrated C."""
        return self.value / self.scale

    @property
    def failed(self) -> bool:
        """The truncation rule or the coefficient quadrature failed: --strict exits 3."""
        return self.truncation_failed or not self.quad_converged


def signed_cycle_expectation(ell: int, p: float, d: int) -> CycleExpectationResult:
    """Exact series for E[prod over cycle edges of (G_e - p)] under the full model.

    Terms are accumulated in sign/log space so that the huge harmonic
    multiplicities N_m never overflow.  The sum stops by the stated rule, or at
    the hard cap, the last coefficient of the basis.
    """
    ell = int(ell)
    if ell < 3:
        raise ValueError(f"cycle length must be >= 3, got {ell}")
    d = _check_dimension(d)
    p = float(p)
    if not 0.0 < p <= 0.5:
        raise ValueError(f"p must lie in (0, 1/2], got {p}")
    if d < 4:
        raise ValueError(f"series evaluation requires d >= 4, got {d}")

    basis = basis_for_density(p, d)
    half = ell / 2.0 - 1.0
    total, last_abs, small_run, failed = 0.0, 0.0, 0, False
    for m in range(1, basis.coeffs.size):
        cm = float(basis.coeffs[m])
        if cm == 0.0:
            term = 0.0
        else:
            mag = math.exp(ell * math.log(abs(cm)) - half * basis.log_mults[m])
            term = -mag if (cm < 0.0 and ell % 2 == 1) else mag
        total += term
        last_abs = abs(term)
        small_run = small_run + 1 if last_abs <= _SERIES_RTOL * abs(total) else 0
        if m >= _SERIES_MIN_M and small_run >= _SERIES_SMALL_RUN:
            break
    else:  # the hard cap, not the rule, ended the sum
        failed = 10.0 * last_abs > 1e-12 * abs(total)
    scale = p ** ell * math.log(1.0 / p) ** (ell / 2.0) / d ** half
    return CycleExpectationResult(
        ell=ell,
        p=p,
        d=d,
        value=total,
        truncation_m=m,
        tail_bound=10.0 * last_abs,
        scale=scale,
        truncation_failed=failed,
        below_dimension_guard=d < (5.0 * math.log(1.0 / p)) ** 4,
        quad_converged=basis.quad_converged,
    )


def sample_uniform_sphere(d: int, rng: np.random.Generator, size: int | tuple):
    """Uniform points on S^{d-1} as normalized standard Gaussian vectors, shape size + (d,)."""
    d = int(d)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return _normalise_rows(rng.standard_normal((*np.atleast_1d(size), d)))


def _normalise_rows(z: np.ndarray) -> np.ndarray:
    """Divides each vector along z's last axis by its Euclidean norm, in place.

    z must be C-contiguous, so that its rows are a view.  Works in row
    blocks: each row reduces on its own, so the result is the same for any
    stack of rows, but the squared-entry temporary stays near _BLOCK_ELEMENTS.
    Returns z.
    """
    d = z.shape[-1]
    rows = z.reshape(-1, d)
    step = max(1, _BLOCK_ELEMENTS // d)
    for start in range(0, rows.shape[0], step):
        block = rows[start : start + step]
        block /= np.linalg.norm(block, axis=-1, keepdims=True)
    return z
