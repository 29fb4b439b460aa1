"""Random-matrix constructions behind the planted model.

The null graph is the entrywise threshold of a shifted GOE matrix
d I + sqrt(d) GOE, while community edges arise from thresholding the
normalized Gram matrix of Gaussian vectors (a Wishart matrix).  Gluing the
two ensembles on a vertex subset and applying the matching threshold maps
reproduces the planted law exactly, which these constructions let the tests
verify draw by draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .graphs import (
    Arm,
    Graph,
    ModelParams,
    Seed,
    _community_pairs,
    _fixed_community_draws,
    _fixed_community_edges,
    _gram_draws,
    _tau,
    _unit_gram_of,
    _upper_pairs,
    _vertex_subset,
    _wishart_of,
    symmetric_matrix,
)
from .stats import _signed_triangle_counts

__all__ = [
    "EnsembleDraw",
    "sample_goe_shifted",
    "sample_wishart",
    "sample_spherical_wishart",
    "threshold_map_alpha",
    "threshold_map_beta",
    "composite_planted_graph",
    "spectral_deviation",
    "spectral_deviations",
    "route_check",
    "lkj_log_kernel",
]

# The most bytes each float64 array of a chunk of trials holds in
# spectral_deviations and route_check: a chunk is as many trials as fit.
_CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class EnsembleDraw:
    """One symmetric matrix draw.

    latents holds the Wishart or spherical-Wishart vectors only when d < k,
    where the Bartlett decomposition does not exist; it is None otherwise.
    """

    matrix: np.ndarray
    latents: np.ndarray | None = field(repr=False, default=None)


def sample_goe_shifted(n: int, d: float, rng: np.random.Generator) -> EnsembleDraw:
    """d I_n + sqrt(d) GOE(n): off-diagonals N(0, d), diagonals d + N(0, 2d)."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d <= 0:
        raise ValueError(f"d must be > 0, got {d}")
    return EnsembleDraw(matrix=_goe_shifted(rng.standard_normal((n, n)), d))


def _goe_shifted(z: np.ndarray, d: float) -> np.ndarray:
    """d I + sqrt(d) GOE from n x n standard normals z, stacked over leading axes."""
    m = z + z.swapaxes(-1, -2)
    m /= math.sqrt(2.0)  # GOE: N(0,1) off-diagonal, N(0,2) diagonal
    m *= math.sqrt(d)
    idx = np.arange(z.shape[-1])
    m[..., idx, idx] += d
    return m


def _check_order(k: int, d: int) -> tuple[int, int]:
    k, d = int(k), int(d)
    if k < 1 or d < 1:
        raise ValueError(f"k and d must be >= 1, got k={k}, d={d}")
    return k, d


def sample_wishart(k: int, d: int, rng: np.random.Generator) -> EnsembleDraw:
    """Gram matrix of k i.i.d. standard Gaussian d-vectors.

    For d >= k the exact Bartlett draw, at O(k^2) normals and no latents; only
    for d < k are the k x d latents drawn, and then they are kept.
    """
    draws = _gram_draws(*_check_order(k, d), rng)
    return EnsembleDraw(matrix=_wishart_of(draws), latents=draws[0] if len(draws) == 1 else None)


def sample_spherical_wishart(k: int, d: int, rng: np.random.Generator) -> EnsembleDraw:
    """Gram matrix of k i.i.d. uniform unit vectors; unit diagonal exactly.

    Follows the route rule of the graph samplers: the unit vectors are drawn,
    and kept as latents, only for d < k.
    """
    gram, u = _spherical_wishart_of(_gram_draws(*_check_order(k, d), rng))
    return EnsembleDraw(matrix=gram, latents=u)


def _spherical_wishart_of(draws: tuple):
    """(gram, latents) with the unit diagonal set exactly, stacked as _unit_gram_of."""
    gram, u = _unit_gram_of(draws)
    idx = np.arange(gram.shape[-1])
    gram[..., idx, idx] = 1.0
    return gram, u


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, EnsembleDraw):
        return m.matrix
    return np.asarray(m, dtype=float)


def threshold_map_alpha(m, p: float, d: float) -> Graph:
    """Entrywise threshold X_ij >= sqrt(d) * quantile(1 - p) of the standard normal.

    Applied to a shifted GOE draw this produces exactly the Erdos-Renyi law.
    The upper quantile is taken as minus the lower one, -quantile(p), which
    keeps full relative precision at small p, where 1 - p would round.
    """
    x = _as_matrix(m)
    return Graph._adopt(x.shape[0], _alpha_edges(x, p, d))


def _alpha_edges(x: np.ndarray, p: float, d: float) -> np.ndarray:
    """threshold_map_alpha's edge fields of a stack of matrices, shape (..., pairs)."""
    if 0.0 < p < 1.0:
        z = -NormalDist().inv_cdf(p)
    else:  # the limits: every pair at p = 1, none at p = 0
        z = -math.inf if p >= 1.0 else math.inf
    cut = math.sqrt(d) * z
    iu, ju = _upper_pairs(x.shape[-1])
    return x[..., iu, ju] >= cut


def threshold_map_beta(w, tau: float) -> Graph:
    """Normalized threshold X_ij / sqrt(X_ii X_jj) > tau; needs a positive diagonal."""
    x = _as_matrix(w)
    return Graph._adopt(x.shape[0], _beta_edges(x, tau))


def _beta_edges(x: np.ndarray, tau: float) -> np.ndarray:
    """threshold_map_beta's edge fields of a stack of matrices, shape (..., pairs).

    Every matrix of the stack needs a positive diagonal; the error names an
    entry of the first that has none.
    """
    n = x.shape[-1]
    idx = np.arange(n)
    diag = x[..., idx, idx]
    if np.any(diag <= 0):
        flat = diag.reshape(-1, n)
        first = flat[int(np.argmax((flat <= 0).any(axis=-1)))]
        bad = int(np.argmin(first))
        raise ValueError(
            f"diagonal entry {bad} is {first[bad]:.6g}; the normalized threshold "
            "map needs a strictly positive diagonal"
        )
    scale = np.sqrt(diag)
    iu, ju = _upper_pairs(n)
    ratio = x[..., iu, ju] / (scale[..., iu] * scale[..., ju])
    return ratio > tau


def composite_planted_graph(
    community, params: ModelParams, rng: np.random.Generator
) -> Graph:
    """Planted draw through the matrix route.

    A Wishart block on S x S glued into a shifted GOE matrix, with the
    normalized threshold applied inside S and the Gaussian threshold outside,
    has exactly the law of the planted model with community S.
    """
    members = _vertex_subset(community, params.n)
    draws = _composite_draws(members.size, params, rng)
    return Graph._adopt(params.n, _composite_edges(members, params, draws))


def _composite_draws(size: int, params: ModelParams, rng: np.random.Generator) -> tuple:
    """The draws of one composite graph, in order: the shifted GOE's n x n
    normals, then the community's Wishart block's (see graphs._gram_draws)."""
    z = rng.standard_normal((params.n, params.n))
    return (z, *_gram_draws(size, params.d, rng))


def _composite_edges(members: np.ndarray, params: ModelParams, draws: tuple) -> np.ndarray:
    """Edge fields of composite graphs from _composite_draws, stacked over any
    leading axes: the Gaussian threshold of the shifted GOE, with the
    normalized threshold of the Wishart block written over the community's
    pairs."""
    z, *block = draws
    edges = _alpha_edges(_goe_shifted(z, params.d), params.p, params.d)
    _, flat = _community_pairs(members, params.n)
    edges[..., flat] = _beta_edges(_wishart_of(tuple(block)), _tau(params.p, params.d))
    return edges


def spectral_deviation(draw) -> float:
    """Operator norm of (Gram - identity) via the symmetric eigensolver."""
    return float(_deviations(_as_matrix(draw)))


def _deviations(gram: np.ndarray) -> np.ndarray:
    """spectral_deviation of each matrix of a stack, shape gram.shape[:-2]."""
    eig = np.linalg.eigvalsh(gram - np.eye(gram.shape[-1]))
    return np.abs(eig).max(axis=-1)


def _chunks(trials: int, order: int):
    """Ranges of consecutive trials: as many as keep one float64 order x order
    matrix per trial within _CHUNK_BYTES, and at least one."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    size = max(1, _CHUNK_BYTES // (8 * order * order))
    return (range(start, min(start + size, trials)) for start in range(0, trials, size))


def _stacked_draws(seed: Seed, arm: Arm, chunk: range, draw) -> tuple:
    """draw(seed.stream(t, arm=arm)) for each trial t of the chunk in turn,
    each part copied into a buffer with one row per trial."""
    buffers = None
    for row, t in enumerate(chunk):
        parts = draw(seed.stream(t, arm=arm))
        if buffers is None:
            buffers = tuple(np.empty((len(chunk), *x.shape), x.dtype) for x in parts)
        for buffer, x in zip(buffers, parts):
            buffer[row] = x
    return buffers


def spectral_deviations(k: int, d: int, trials: int, seed: Seed) -> np.ndarray:
    """Spectral deviation of trial t's spherical Wishart draw, for t < trials.

    Entry t equals spectral_deviation(sample_spherical_wishart(k, d,
    seed.stream(t, arm=Arm.WISHART))) exactly.  Each trial draws from its own
    stream as that call does; each chunk of trials (see _chunks) is then
    assembled and diagonalized in one stacked pass.
    """
    k, d = _check_order(k, d)
    deviations = np.empty(trials)
    for chunk in _chunks(trials, k):
        draws = _stacked_draws(seed, Arm.WISHART, chunk, lambda rng: _gram_draws(k, d, rng))
        deviations[chunk.start : chunk.stop] = _deviations(_spherical_wishart_of(draws)[0])
    return deviations


def route_check(community, params: ModelParams, trials: int, seed: Seed) -> dict:
    """Edge marginals and signed-triangle means of the two planted routes.

    Trial t draws composite_planted_graph(community, params,
    seed.stream(t, arm=Arm.COMPOSITE)) and the direct
    sample_planted_fixed_community(community, params,
    seed.stream(t, arm=Arm.FIXED_COMMUNITY)) exactly.  Each trial draws from
    its own streams as those calls do; each chunk of trials (see _chunks) is
    then assembled, thresholded and counted in one stacked pass, and the
    per-trial values are added in trial order.  Needs n >= 2.
    """
    n, p = params.n, params.p
    if n < 2:
        raise ValueError(f"the route check needs n >= 2 for a pair, got n = {n}")
    members = _vertex_subset(community, n)
    m = n * (n - 1) // 2
    edge_sums, tri_sums = [0.0, 0.0], [0.0, 0.0]
    for chunk in _chunks(trials, n):
        composite = _composite_edges(members, params, _stacked_draws(
            seed, Arm.COMPOSITE, chunk, lambda rng: _composite_draws(members.size, params, rng)
        ))
        direct, _ = _fixed_community_edges(members, params, _stacked_draws(
            seed, Arm.FIXED_COMMUNITY, chunk,
            lambda rng: _fixed_community_draws(members.size, params, rng),
        ))
        for route, edges in enumerate((composite, direct)):
            counts = edges.sum(axis=-1).tolist()
            triangles = _signed_triangle_counts(symmetric_matrix(edges, n, np.float32), p)
            for count, tri in zip(counts, triangles):
                edge_sums[route] += count / m
                tri_sums[route] += tri
    return {
        "edge_marginal": {"composite": edge_sums[0] / trials, "direct": edge_sums[1] / trials},
        "f_tri_mean": {"composite": tri_sums[0] / trials, "direct": tri_sums[1] / trials},
    }


def lkj_log_kernel(y, k: int, d: int) -> float:
    """Unnormalized log-density of the spherical-Wishart off-diagonal vector.

    For the strictly-upper-triangular entries y (length k(k-1)/2), the kernel
    is ((d - k - 1)/2) log det(I_k + ybar) where ybar is the symmetric matrix
    with zero diagonal carrying y.  The normalization constant is out of
    scope.  Rejects inputs whose I + ybar is not positive definite.
    """
    k, d = int(k), int(d)
    y = np.asarray(y, dtype=float).ravel()
    expected = k * (k - 1) // 2
    if y.size != expected:
        raise ValueError(f"expected {expected} strictly-upper entries, got {y.size}")
    ybar = symmetric_matrix(y, k)
    eig = np.linalg.eigvalsh(np.eye(k) + ybar)
    if eig[0] <= 0.0:
        raise ValueError(
            f"I + ybar is not positive definite (smallest eigenvalue {eig[0]:.6g})"
        )
    return float((d - k - 1) / 2.0 * np.log(eig).sum())
