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
    Graph,
    ModelParams,
    _bartlett_wishart,
    _community_members,
    _tau,
    _unit_gram,
    _upper_pairs,
    pair_index,
    symmetric_matrix,
)

__all__ = [
    "EnsembleDraw",
    "sample_goe_shifted",
    "sample_wishart",
    "sample_spherical_wishart",
    "threshold_map_alpha",
    "threshold_map_beta",
    "composite_planted_graph",
    "spectral_deviation",
    "lkj_log_kernel",
]


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
    z = rng.standard_normal((n, n))
    goe = (z + z.T) / math.sqrt(2.0)  # N(0,1) off-diagonal, N(0,2) diagonal
    m = math.sqrt(d) * goe
    m[np.diag_indices(n)] += d
    return EnsembleDraw(matrix=m)


def sample_wishart(k: int, d: int, rng: np.random.Generator) -> EnsembleDraw:
    """Gram matrix of k i.i.d. standard Gaussian d-vectors.

    For d >= k the exact Bartlett draw, at O(k^2) normals and no latents; only
    for d < k are the k x d latents drawn, and then they are kept.
    """
    k, d = int(k), int(d)
    if k < 1 or d < 1:
        raise ValueError(f"k and d must be >= 1, got k={k}, d={d}")
    if d >= k:
        return EnsembleDraw(matrix=_bartlett_wishart(k, d, rng))
    z = rng.standard_normal((k, d))
    return EnsembleDraw(matrix=z @ z.T, latents=z)


def sample_spherical_wishart(k: int, d: int, rng: np.random.Generator) -> EnsembleDraw:
    """Gram matrix of k i.i.d. uniform unit vectors; unit diagonal exactly.

    Follows the route rule of the graph samplers: the unit vectors are drawn,
    and kept as latents, only for d < k.
    """
    k, d = int(k), int(d)
    if k < 1 or d < 1:
        raise ValueError(f"k and d must be >= 1, got k={k}, d={d}")
    gram, u = _unit_gram(k, d, rng)
    np.fill_diagonal(gram, 1.0)
    return EnsembleDraw(matrix=gram, latents=u)


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
    n = x.shape[0]
    if 0.0 < p < 1.0:
        z = -NormalDist().inv_cdf(p)
    else:  # the limits: every pair at p = 1, none at p = 0
        z = -math.inf if p >= 1.0 else math.inf
    cut = math.sqrt(d) * z
    return Graph(n, x[_upper_pairs(n)] >= cut)


def threshold_map_beta(w, tau: float) -> Graph:
    """Normalized threshold X_ij / sqrt(X_ii X_jj) > tau; needs a positive diagonal."""
    x = _as_matrix(w)
    n = x.shape[0]
    diag = np.diag(x)
    if np.any(diag <= 0):
        bad = int(np.argmin(diag))
        raise ValueError(
            f"diagonal entry {bad} is {diag[bad]:.6g}; the normalized threshold "
            "map needs a strictly positive diagonal"
        )
    scale = np.sqrt(diag)
    iu = _upper_pairs(n)
    ratio = x[iu] / (scale[iu[0]] * scale[iu[1]])
    return Graph(n, ratio > tau)


def composite_planted_graph(
    community, params: ModelParams, rng: np.random.Generator
) -> Graph:
    """Planted draw through the matrix route.

    A Wishart block on S x S glued into a shifted GOE matrix, with the
    normalized threshold applied inside S and the Gaussian threshold outside,
    has exactly the law of the planted model with community S.
    """
    n = params.n
    members = _community_members(community, n)
    goe = sample_goe_shifted(n, params.d, rng)
    edges_graph = threshold_map_alpha(goe, params.p, params.d)
    edges = np.array(edges_graph.edges)  # writable copy
    if members.size >= 2:
        tau = _tau(params.p, params.d)
        wish = sample_wishart(members.size, params.d, rng)
        inner = threshold_map_beta(wish, tau)
        su, sv = _upper_pairs(members.size)
        edges[pair_index(members[su], members[sv], n)] = inner.edges
    return Graph(n, edges)


def spectral_deviation(draw) -> float:
    """Operator norm of (Gram - identity) via the symmetric eigensolver."""
    gram = _as_matrix(draw)
    k = gram.shape[0]
    if k == 1:
        return 0.0
    eig = np.linalg.eigvalsh(gram - np.eye(k))
    return float(np.max(np.abs(eig)))


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
