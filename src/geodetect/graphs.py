"""Graph representation and the null / full-geometric / planted samplers.

The planted model on n vertices: each vertex independently joins a hidden
community with probability k/n; community vertices receive i.i.d. uniform
latent vectors on S^{d-1}; an edge inside the community is present exactly
when the latent inner product reaches the cap threshold tau(p, d), and every
other edge is an independent Bernoulli(p).  Every edge marginally has
probability p, so the signal lives purely in edge dependencies.

Graphs are stored as a flat upper-triangular indicator field in canonical
(i < j) pair order, which keeps the counting kernels cache friendly and makes
serialization trivial.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from enum import IntEnum, unique
from functools import lru_cache

import numpy as np

from .sphere import _BLOCK_ELEMENTS, _normalise_rows, solve_threshold

__all__ = [
    "ModelParams",
    "Graph",
    "PlantedSample",
    "Arm",
    "Seed",
    "pair_index",
    "symmetric_matrix",
    "sample_null",
    "sample_full_geometric",
    "sample_planted",
    "sample_planted_fixed_community",
    "sample_planted_fixed_size",
]

@dataclass(frozen=True)
class ModelParams:
    """Planted-model parameter tuple (n, p, d, k); k is the *expected* community size."""

    n: int
    p: float
    d: int
    k: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if self.d < 3:
            raise ValueError(f"d must be >= 3, got {self.d}")
        if not 0.0 < self.k <= self.n:
            raise ValueError(f"k must lie in (0, n], got {self.k}")

    # 1e-9 guards absorb float noise like 1.1 * 50 = 55.000000000000007
    @property
    def k_minus(self) -> int:
        return math.floor(0.9 * self.k + 1e-9)

    @property
    def k_plus(self) -> int:
        return math.ceil(1.1 * self.k - 1e-9)


def pair_index(i, j, n: int):
    """Canonical flat index of pair (i, j), i < j, in row-major upper-triangle order.

    i and j may also be integer arrays of one shape; the result has that shape.
    """
    ok = (0 <= i) & (i < j) & (j < n)  # a bool for ints, a mask for arrays
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    return i * n - (i * (i + 1)) // 2 + (j - i - 1)


@lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k=1), built once per order: the (i, j) of each flat
    pair index.  The arrays are shared between callers, so they are read-only.
    """
    rows, cols = np.triu_indices(n, k=1)
    for x in (rows, cols):
        x.flags.writeable = False
    return rows, cols


def symmetric_matrix(values, n: int, dtype=float) -> np.ndarray:
    """n x n symmetric matrix carrying flat pair values off the diagonal, 0 on it.

    values may carry leading axes, shape (..., n(n-1)/2); the result is then a
    stack of matrices, shape (..., n, n).  Each value is written twice, so a
    -0.0 stays -0.0 on both sides (an edge field holds none).
    """
    a = np.zeros((*np.shape(values)[:-1], n, n), dtype=dtype)
    # a mask of a's own shape fills in row-major order, matrix by matrix, and
    # builds no index arrays; it is made per call, so no n x n array is kept
    upper = np.tri(n, dtype=bool)
    np.logical_not(upper, out=upper)  # the strict upper triangle
    # cast once: a masked fill that casts as it goes takes twice as long
    mask, values = np.broadcast_to(upper, a.shape), np.ravel(values).astype(dtype, copy=False)
    a[mask] = values
    a.swapaxes(-1, -2)[mask] = values  # the same fill of the transpose: the lower triangle
    return a


class Graph:
    """Immutable simple graph on n labeled vertices.

    Edges live in a flat boolean field indexed by pair_index; the full
    adjacency or centered adjacency matrix is materialized on demand.
    """

    __slots__ = ("n", "_edges")

    def __init__(self, n: int, edges: np.ndarray):
        n = int(n)
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        m = n * (n - 1) // 2
        edges = np.asarray(edges, dtype=bool)
        if edges.shape != (m,):
            raise ValueError(f"edge field must have shape ({m},), got {edges.shape}")
        edges = edges.copy()
        edges.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edges(self) -> np.ndarray:
        """Read-only flat edge indicator field."""
        return self._edges

    @property
    def edge_count(self) -> int:
        return int(self._edges.sum())

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        if i > j:
            i, j = j, i
        return bool(self._edges[pair_index(i, j, self.n)])

    def adjacency_matrix(self, dtype=float) -> np.ndarray:
        return symmetric_matrix(self._edges, self.n, dtype)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._edges, other._edges)
        )

    def __hash__(self):
        return hash((self.n, self._edges.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"

    # -- serialization ------------------------------------------------------

    def to_edgelist_text(self) -> str:
        """Text format: first line n, second line m, then one '<i> <j>' per edge."""
        iu, ju = _upper_pairs(self.n)
        sel = self._edges
        buf = io.StringIO()
        buf.write(f"{self.n}\n{int(sel.sum())}\n")
        for i, j in zip(iu[sel], ju[sel]):
            buf.write(f"{i} {j}\n")
        return buf.getvalue()

    @classmethod
    def from_edgelist_text(cls, text: str) -> "Graph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        n = int(lines[0])
        m = int(lines[1])
        if len(lines) != 2 + m:
            raise ValueError(f"expected {m} edge lines, found {len(lines) - 2}")
        ij = np.array([ln.split() for ln in lines[2:]], dtype=np.int64).reshape(m, 2)
        edges = np.zeros(n * (n - 1) // 2, dtype=bool)
        edges[pair_index(ij[:, 0], ij[:, 1], n)] = True
        if int(edges.sum()) != m:
            raise ValueError(f"edge list repeats a pair: {m} lines, {edges.sum()} edges")
        return cls(n, edges)

    def to_bitfield_bytes(self) -> bytes:
        """Binary format: 8-byte little-endian n, then the packed edge bits."""
        header = int(self.n).to_bytes(8, "little")
        return header + np.packbits(self._edges, bitorder="little").tobytes()

    @classmethod
    def from_bitfield_bytes(cls, blob: bytes) -> "Graph":
        n = int.from_bytes(blob[:8], "little")
        m = n * (n - 1) // 2
        size = 8 + (m + 7) // 8
        if len(blob) != size:
            raise ValueError(f"bit field for n={n} needs {size} bytes, got {len(blob)}")
        bits = np.unpackbits(
            np.frombuffer(blob[8:], dtype=np.uint8), count=m, bitorder="little"
        )
        return cls(n, bits.astype(bool))


@dataclass(frozen=True)
class PlantedSample:
    """A planted draw: graph, hidden community mask, latents for community vertices.

    `latents` has one row per community vertex in ascending vertex order.  They
    exist iff d < |S|; for d >= |S| the Gram block comes from the Bartlett route
    and `latents` is None.
    """

    graph: Graph
    community: np.ndarray
    latents: np.ndarray | None = field(repr=False, default=None)

    @property
    def members(self) -> np.ndarray:
        return np.flatnonzero(self.community)


_WORD = 2**32
_COSINE_BLOCK = 4096  # samples per block of _gram_draw_blocks


@unique
class Arm(IntEnum):
    """The Seed.stream arm of every job that draws: no two jobs share an arm.

    Two different (arm, trial) pairs never share entropy, so one table of
    distinct arms keeps every job's streams apart from every other's.
    """

    NULL = 0  # a test's null draws, by trial
    PLANTED = 1  # a test's planted draws, by trial
    FOURIER = 2  # the low-degree Monte Carlo, by chunk
    WISHART = 5  # the spherical Wishart draws of `wishart`, by trial
    WISHART_K1 = 6  # its k = 1 draw
    COMPOSITE = 7  # its composite planted graphs, by trial
    FIXED_COMMUNITY = 8  # its direct planted graphs, by trial
    SAMPLE = 9  # `sample`
    LOCAL_SEARCH = 10  # the starts of a local-search scan, at Seed(0) and trial 0


@dataclass(frozen=True)
class Seed:
    """Master seed with a stable per-trial stream derivation rule.

    Identical (master, arm, trial) always yields a bit-identical sample
    within this implementation, no matter how trials are scheduled, and two
    different tuples never share entropy.  master lies in [0, 2**64); arm
    and trial lie in [0, 2**32).
    """

    master: int

    def __post_init__(self):
        if not 0 <= self.master < 2**64:
            raise ValueError(f"master seed must lie in [0, 2**64), got {self.master}")

    def stream(self, trial: int, arm: int = 0) -> np.random.Generator:
        master, arm, trial = int(self.master), int(arm), int(trial)
        if not (0 <= arm < _WORD and 0 <= trial < _WORD):
            raise ValueError(f"arm and trial must lie in [0, 2**32), got {(arm, trial)}")
        # SeedSequence turns the list into 32-bit words, splitting an int >=
        # 2**32 in two, and pads fewer than four words with zeros: a one-word
        # master reads as (master, arm, trial, 0).  A two-word master goes
        # last, where its nonzero high word keeps the fourth word apart.
        if master < _WORD:
            entropy = [master, arm, trial]
        else:
            entropy = [arm, trial, master % _WORD, master // _WORD]
        return np.random.default_rng(np.random.SeedSequence(entropy))


def _tau(p: float, d: int) -> float:
    return solve_threshold(p, d).tau if p != 1.0 else -1.0  # p = 1: every pair


def sample_null(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi draw: each of the n(n-1)/2 edges present independently w.p. p."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return Graph(n, _edge_coins(n, p, rng))


def _gram_draws(s: int, d: int, rng: np.random.Generator, shape=()) -> tuple:
    """The draws behind Gram matrices of s vectors in dimension d, batched over shape.

    The route rule is latents iff d < s: the latent route draws the
    shape + (s, d) standard normal latents, (z,), only where the Bartlett
    decomposition does not exist.  For d >= s it draws the Bartlett factor,
    (diag, lower) (see _bartlett_factor), at O(s^2) draws whatever d is.
    The arithmetic on them (_wishart_of, _unit_gram_of, _pair_cosines) runs
    on any stack of such tuples over a leading axis, so draws from separate
    generators can be stacked first.
    """
    if d < s:
        return (rng.standard_normal((*shape, s, d)),)
    return _bartlett_factor(s, d, rng, shape)


def _wishart_of(draws: tuple) -> np.ndarray:
    """Wishart(I_s, d) matrices from _gram_draws: Z Z^T of the latents, or the
    Bartlett L L^T, which has the same law.  Shape (..., s, s)."""
    if len(draws) == 1:
        z = draws[0]
        return z @ z.swapaxes(-1, -2)
    diag, lower = draws
    s = diag.shape[-1]
    low = np.zeros((*diag.shape, s))
    low[..., np.tri(s, k=-1, dtype=bool)] = lower  # a mask fills in row-major order
    idx = np.arange(s)
    low[..., idx, idx] = diag
    return low @ low.swapaxes(-1, -2)


def _unit_gram_of(draws: tuple):
    """(gram, latents) of uniform unit vectors from _gram_draws, shape (..., s, s).

    The latent route normalizes the latents in place and keeps them.  The
    Bartlett route normalizes W_ij / (sqrt(W_ii) sqrt(W_jj)) of the Wishart
    draw, which equals <Z_i, Z_j>/(|Z_i||Z_j|) in law; its latents are None.
    """
    if len(draws) == 1:
        u = _normalise_rows(draws[0])
        return u @ u.swapaxes(-1, -2), u
    w = _wishart_of(draws)
    idx = np.arange(w.shape[-1])
    norms = np.sqrt(w[..., idx, idx])
    w /= norms[..., :, None] * norms[..., None, :]
    return w, None


def _bartlett_factor(s: int, d: int, rng: np.random.Generator, shape=()):
    """The Bartlett factor L of a Wishart(I_s, d) draw; needs d >= s.

    The one statement of the draw order: s chi-squares L_ii^2 ~ chi^2_{d-i},
    i = 0..s-1, then the s(s-1)/2 strictly-lower L_ij ~ N(0,1) in row-major
    order (L_10, L_20, L_21, L_30, ...).  Returns (diag, lower) with shapes
    shape + (s,) and shape + (s(s-1)/2,); L_ij for j < i is
    lower[..., i(i-1)/2 + j].
    """
    return _bartlett_diag(s, d, rng, shape), rng.standard_normal((*shape, s * (s - 1) // 2))


def _bartlett_diag(s: int, d: int, rng: np.random.Generator, shape=()) -> np.ndarray:
    """The diagonal of _bartlett_factor, drawn first: sqrt(L_ii^2), L_ii^2 ~ chi^2_{d-i}."""
    diag = rng.chisquare(d - np.arange(s), size=(*shape, s))  # size= broadcasts in place
    return np.sqrt(diag, out=diag)


def _gram_draw_blocks(s: int, d: int, rng: np.random.Generator, batch: int):
    """_gram_draws(s, d, rng, (batch,)) as consecutive blocks of up to
    _COSINE_BLOCK samples, each drawn only when it is asked for.

    The blocks hold the same numbers, drawn in the same stream order, as the
    one call.  The latent route draws each block's (block, s, d) latents in
    turn.  The Bartlett route draws the batch's s chi-squares per sample
    first, as _bartlett_factor does, and then each block's rows of the
    strictly-lower normals.  A caller holds the diagonal and one block.
    """
    starts = range(0, batch, _COSINE_BLOCK)
    if d < s:
        for start in starts:
            yield _gram_draws(s, d, rng, (min(_COSINE_BLOCK, batch - start),))
        return
    diag = _bartlett_diag(s, d, rng, (batch,))
    for start in starts:
        block = diag[start : start + _COSINE_BLOCK]
        yield block, rng.standard_normal((len(block), s * (s - 1) // 2))


def _pair_cosines(draws: tuple) -> np.ndarray:
    """Normalized inner products of every pair i < j from _gram_draws, in
    _upper_pairs order, shape (..., s(s-1)/2).

    The latent route gathers them from the dense Gram of _unit_gram_of.  The
    Bartlett route forms W_ij / (sqrt(W_ii) sqrt(W_jj)) from the factor's
    entries (see _bartlett_factor) and never assembles an s x s matrix: each
    W_ij = sum of L_ik L_jk is accumulated over k <= min(i, j) in ascending
    k, in place on a few scratch arrays of one double per sample.  It scores
    all of its draws at once, so a large batch is passed in the blocks of
    _gram_draw_blocks: at lowdeg's chunk sizes, fresh pages for each
    temporary cost more than the products themselves.
    """
    if len(draws) == 1:
        rows, cols = _upper_pairs(draws[0].shape[-2])
        return _unit_gram_of(draws)[0][..., rows, cols]
    diag, lower = draws
    shape, s = diag.shape[:-1], diag.shape[-1]
    pairs = list(zip(*(x.tolist() for x in _upper_pairs(s))))
    samples = math.prod(shape)
    # sample axis last, so that each factor entry below is one contiguous array
    diag_t = diag.reshape(samples, s).T.copy()
    lower_t = lower.reshape(samples, s * (s - 1) // 2).T.copy()
    out = np.empty((samples, len(pairs)))
    acc, tmp = np.empty(samples), np.empty(samples)

    def entry(i, k):
        return diag_t[i] if k == i else lower_t[i * (i - 1) // 2 + k]

    def inner(i, j, out):
        np.multiply(entry(i, 0), entry(j, 0), out=out)
        for k in range(1, min(i, j) + 1):
            out += np.multiply(entry(i, k), entry(j, k), out=tmp)
        return out

    norms = []
    for x in range(s):
        w = inner(x, x, np.empty(samples))
        norms.append(np.sqrt(w, out=w))
    for col, (i, j) in enumerate(pairs):
        w = inner(i, j, acc)
        np.divide(w, np.multiply(norms[i], norms[j], out=tmp), out=out[:, col])
    return out.reshape(*shape, len(pairs))


def sample_full_geometric(
    n: int, p: float, d: int, rng: np.random.Generator
) -> tuple[Graph, np.ndarray | None]:
    """Full geometric model: n latents, edge iff inner product >= tau(p, d).

    Returns (graph, latents); latents exist iff d < n, and are None on the
    Gram route that every d >= n takes.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    tau = _tau(p, d)
    gram, latents = _unit_gram_of(_gram_draws(n, d, rng))
    return Graph(n, gram[_upper_pairs(n)] >= tau), latents


def _community_members(community, n: int) -> np.ndarray:
    """The distinct vertices of a community, ascending; each must lie in [0, n)."""
    members = np.asarray(community).ravel().astype(int)
    members.sort()
    # the distinct entries of the sorted copy; np.unique would import numpy.ma,
    # about 1.3 MiB of resident memory in a process that needs nothing else of it
    distinct = np.ones(members.size, dtype=bool)
    distinct[1:] = members[1:] != members[:-1]
    members = members[distinct]
    if members.size and (members[0] < 0 or members[-1] >= n):
        raise ValueError("community vertices must lie in [0, n)")
    return members


def _community_pairs(members: np.ndarray, n: int):
    """(upper, flat): a community's pairs (members[a], members[b]), a < b, in
    the row-major order of its strict upper triangle.  upper is
    np.triu_indices(members.size, k=1), the pairs by position in the
    community, and flat their pair indices in an n-vertex edge field.

    The one rule for where a community's pairs sit in an edge field.  It is
    built per call: a cache would hold one entry per community size.
    """
    upper = np.triu_indices(members.size, k=1)
    return upper, pair_index(members[upper[0]], members[upper[1]], n)


def sample_planted_fixed_community(
    community, params: ModelParams, rng: np.random.Generator
) -> PlantedSample:
    """Planted draw conditioned on the community being exactly the given set."""
    n = params.n
    members = _community_members(community, n)
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    draws = _fixed_community_draws(members.size, params, rng)
    edges, latents = _fixed_community_edges(members, params, draws)
    return PlantedSample(graph=Graph(n, edges), community=mask, latents=latents)


def _fixed_community_draws(size: int, params: ModelParams, rng: np.random.Generator) -> tuple:
    """The draws of one fixed-community graph, in order: the n(n-1)/2 edge
    coins (a uniform below p), then the community's Gram draws (see
    _gram_draws).  The coins are compared as they are drawn, so that the
    uniforms are not held."""
    return (_edge_coins(params.n, params.p, rng), *_gram_draws(size, params.d, rng))


def _edge_coins(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The n(n-1)/2 edge coins of a null or planted draw, in flat pair order:
    a uniform below p, so every coin at p = 1 and none at p = 0.

    The uniforms are drawn in blocks of _BLOCK_ELEMENTS into one buffer and
    compared into the bool field block by block, the same numbers in the
    same order as one rng.random(n(n-1)/2): the draw holds the field and
    one block of doubles, not a double per pair.
    """
    m = n * (n - 1) // 2
    # the buffer before the field, as one rng.random(m) < p allocates them: the
    # other order left about 0.1 MiB more peak RSS in a sweep at n = 300
    uniforms = np.empty(min(m, _BLOCK_ELEMENTS))
    coins = np.empty(m, dtype=bool)
    for start in range(0, m, _BLOCK_ELEMENTS):
        block = coins[start : start + _BLOCK_ELEMENTS]
        np.less(rng.random(out=uniforms[: block.size]), p, out=block)
    return coins


def _community_block(size: int, params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """The community's own edges, drawn after its coins: _block_edges of its
    Gram draws, a size x size bool matrix."""
    gram, _ = _unit_gram_of(_gram_draws(size, params.d, rng))
    return _block_edges(gram, params)


def _block_edges(gram: np.ndarray, params: ModelParams) -> np.ndarray:
    """A community's own edges from its unit Gram matrices (..., s, s), stacked:
    True at (a, b), a < b, where the normalized inner product of members a and
    b reaches tau, and False on and below the diagonal."""
    return np.triu(gram >= _tau(params.p, params.d), 1)


def _fixed_community_edges(members: np.ndarray, params: ModelParams, draws: tuple):
    """(edges, latents) of fixed-community graphs from _fixed_community_draws,
    stacked over any leading axes: an edge is its coin, except inside the
    community, where it is _block_edges.  The coins are overwritten in place."""
    edges, *gram_draws = draws
    gram, latents = _unit_gram_of(tuple(gram_draws))
    (su, sv), flat = _community_pairs(members, params.n)
    edges[..., flat] = _block_edges(gram, params)[..., su, sv]
    return edges, latents


def _planted_members(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """The vertices of a planted community, ascending: each joins independently
    with probability k/n, decided by the draw's first n uniforms."""
    return np.flatnonzero(rng.random(params.n) < params.k / params.n)


def sample_planted(params: ModelParams, rng: np.random.Generator) -> PlantedSample:
    """Planted model draw: Bernoulli(k/n) membership, then the fixed-community rule."""
    return sample_planted_fixed_community(_planted_members(params, rng), params, rng)


def sample_planted_fixed_size(
    s: int, params: ModelParams, rng: np.random.Generator
) -> PlantedSample:
    """Fixed-size variant: community uniform over size-s subsets, then the fixed rule."""
    s = int(s)
    if not 0 <= s <= params.n:
        raise ValueError(f"community size must lie in [0, n], got {s}")
    members = rng.permutation(params.n)[:s]
    return sample_planted_fixed_community(members, params, rng)
