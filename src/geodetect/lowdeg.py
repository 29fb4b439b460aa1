"""Low-degree Fourier diagnostics on small subgraphs.

The Fourier coefficient of the planted law at a subgraph H is the planted-model
mean of the normalized signed edge product prod (G_ij - p)/sqrt(p(1-p)) over
the edges of H.  Given membership and latents, an edge touching a non-member
is an independent centred coin, so the conditional mean vanishes unless every
vertex of H is a member: the coefficient is exactly (k/n)^{v(H)} times the
full geometric model's, and only the geometry is simulated.  Coefficients
vanish exactly whenever any connected component of H is a tree, and their
squares weighted by labeled-embedding counts form the truncated advantage sum
used as a hardness diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .graphs import (
    Arm,
    ModelParams,
    Seed,
    _gram_draw_blocks,
    _pair_cosines,
    _upper_pairs,
    pair_index,
)
from .sphere import solve_threshold

__all__ = [
    "SmallGraph",
    "FourierEstimate",
    "AdvantageReport",
    "FourierBound",
    "enumerate_graphs_upto",
    "small_graph_from_edges",
    "fourier_coefficient_mc",
    "low_degree_advantage",
    "rgg_fourier_bound",
]

V_MAX = 5
_MC_CHUNK = 65_536


def _pair_slots(v: int) -> list[tuple[int, int]]:
    """The pairs i < j of v vertices in pair order: (i, j) is bit pair_index(i, j, v) of a code."""
    return list(zip(*(x.tolist() for x in _upper_pairs(v))))


@lru_cache(maxsize=None)
def _slot_powers(v: int) -> np.ndarray:
    """Pair images of every vertex permutation as bit weights, shape (C(v,2), v!).

    Entry [b, r] is 1 << (pair index of the image of pair b under the r-th
    permutation), so a mask's image is the sum of the rows of its set bits.
    """
    slots = _pair_slots(v)
    targets = [
        [pair_index(min(perm[i], perm[j]), max(perm[i], perm[j]), v) for i, j in slots]
        for perm in permutations(range(v))
    ]
    return np.left_shift(1, np.array(targets, dtype=np.int64).T)


def _permuted_masks(v: int, masks) -> np.ndarray:
    """Edge bitmasks of every vertex permutation's image, shape masks.shape + (v!,)."""
    powers = _slot_powers(v)
    bits = np.asarray(masks, dtype=np.int64)[..., None] >> np.arange(len(powers)) & 1
    return bits @ powers


def _components(v: int, edges) -> list[set]:
    parent = list(range(v))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, set] = {}
    for x in range(v):
        groups.setdefault(find(x), set()).add(x)
    return list(groups.values())


@dataclass(frozen=True)
class SmallGraph:
    """An isomorphism-class representative on at most 7 vertices, no isolated vertices."""

    v: int
    edges: tuple[tuple[int, int], ...]
    canonical_code: int
    is_forest: bool
    component_count: int
    has_tree_component: bool
    automorphisms: int

    @property
    def e(self) -> int:
        return len(self.edges)

    def embedding_count(self, n: int) -> float:
        """Number of labeled copies of this graph in K_n: C(n, v) * v!/|Aut|."""
        return math.comb(n, self.v) * math.factorial(self.v) // self.automorphisms

    def __str__(self):
        return f"v={self.v} e={self.e} code={self.canonical_code}"


def small_graph_from_edges(v: int, edges) -> SmallGraph:
    v = int(v)
    if not 0 <= v <= 7:
        raise ValueError(f"small graphs have 0 to 7 vertices, got {v}")
    norm = []
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j or not (0 <= i < v and 0 <= j < v):
            raise ValueError(f"invalid edge ({i}, {j}) for v={v}")
        norm.append((min(i, j), max(i, j)))
    edge_set = frozenset(norm)
    if len(edge_set) != len(norm):
        raise ValueError("duplicate edges")
    comps = _components(v, edge_set)
    tree_comp = any(
        sum(1 for (a, b) in edge_set if a in comp) == len(comp) - 1 for comp in comps
    )
    mask = sum(1 << pair_index(i, j, v) for i, j in edge_set)
    images = _permuted_masks(v, mask)
    return SmallGraph(
        v=v,
        edges=tuple(sorted(edge_set)),
        canonical_code=int(images.min()),
        is_forest=len(edge_set) == v - len(comps),
        component_count=len(comps),
        has_tree_component=tree_comp,
        automorphisms=int((images == mask).sum()),
    )


def enumerate_graphs_upto(v_max: int) -> list[SmallGraph]:
    """Every isomorphism class with 2 <= v <= v_max, e >= 1, no isolated vertices."""
    v_max = int(v_max)
    if v_max > V_MAX:
        raise ValueError(f"enumeration is capped at v_max = {V_MAX}, got {v_max}")
    out = []
    for v in range(2, v_max + 1):
        slots = _pair_slots(v)
        masks = np.arange(1, 1 << len(slots))
        # isomorphic masks share a code; keep the first (smallest) mask of each class
        _, first = np.unique(_permuted_masks(v, masks).min(axis=1), return_index=True)
        for mask in masks[first].tolist():
            edges = [slots[b] for b in range(len(slots)) if mask >> b & 1]
            if len({x for edge in edges for x in edge}) == v:  # no isolated vertex
                out.append(small_graph_from_edges(v, edges))
    out.sort(key=lambda g: (g.v, g.e, g.canonical_code))
    return out


@dataclass(frozen=True)
class FourierEstimate:
    """Monte Carlo estimate of a Fourier coefficient with its standard error."""

    graph: SmallGraph
    phi: float
    stderr: float
    trials: int


def _pattern_codes(
    v: int, params: ModelParams, rng: np.random.Generator, batch: int
) -> np.ndarray:
    """Edge patterns of batch geometric samples on v vertices as integer codes, shape (batch,).

    Bit b of a sample's code is the indicator 1{<u_i, u_j> >= tau} of the
    pair (i, j) = _pair_slots(v)[b]: every one of the C(v, 2) pairs, read
    from one v x v Gram draw per sample (see graphs._pair_cosines).  The
    draws come in the blocks of graphs._gram_draw_blocks, each scored as it
    is drawn, so the batch holds its codes, the Bartlett route's v
    chi-squares per sample and one block: whenever d >= v a block is the
    rest of its factor (v(v-1)/2 normals per sample), with no (block, v, v)
    array; only d < v draws a block's v*d latent coordinates and their dense
    Gram.  Community membership and the p-coins off the community are never
    simulated; the readers of the codes apply their exact effect, the
    factor (k/n)^v.
    """
    tau = solve_threshold(params.p, params.d).tau
    codes = np.zeros(batch, dtype=np.int64)
    start = 0
    for draws in _gram_draw_blocks(v, params.d, rng, batch):
        cosines = _pair_cosines(draws)
        block = codes[start : start + len(cosines)]
        for b in range(cosines.shape[-1]):
            np.bitwise_or(block, 1 << b, out=block, where=cosines[:, b] >= tau)
        start += len(cosines)
    return codes


def _pattern_counts(v: int, params: ModelParams, trials: int, seed: Seed) -> np.ndarray:
    """Histogram of the edge patterns of trials samples on v vertices, 2^C(v, 2) int64 bins.

    Chunk c of up to _MC_CHUNK samples draws from seed.stream(c, arm=Arm.FOURIER).
    """
    counts = np.zeros(1 << math.comb(v, 2), dtype=np.int64)
    for chunk, start in enumerate(range(0, trials, _MC_CHUNK)):
        rng = seed.stream(chunk, arm=Arm.FOURIER)
        codes = _pattern_codes(v, params, rng, min(_MC_CHUNK, trials - start))
        counts += np.bincount(codes, minlength=counts.size)
    return counts


def _marginal(graph: SmallGraph, v: int, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """graph's own codes and their histogram, from a histogram of patterns on v vertices.

    Returns (own, own_counts): own[c] is the code of pattern c restricted to
    graph's edges, bit b for edge b, and own_counts the 2^e int64 histogram
    of those codes.
    """
    codes = np.arange(counts.size)
    own = np.zeros(counts.size, dtype=np.int64)
    for b, (i, j) in enumerate(graph.edges):
        own |= ((codes >> pair_index(i, j, v)) & 1) << b
    own_counts = np.zeros(1 << graph.e, dtype=np.int64)
    np.add.at(own_counts, own, counts)
    return own, own_counts


def _signed_products(graph: SmallGraph, params: ModelParams) -> np.ndarray:
    """The coefficient's per-sample value at every edge pattern of graph, indexed by code.

    The normalized signed edge product prod_b (x_b - p)/sqrt(p(1-p)), times
    the exact probability (k/n)^v that every vertex of the embedding is a
    community member.  Here v counts the vertices some edge touches: an
    isolated vertex of H puts no condition on membership.
    """
    p = params.p
    values = np.ones(1)
    for _ in graph.edges:  # the next edge is the next higher bit of the code
        values = np.concatenate([values * -p, values * (1.0 - p)])
    members = len({x for edge in graph.edges for x in edge})
    return values / (p * (1.0 - p)) ** (graph.e / 2.0) * (params.k / params.n) ** members


def _estimate(
    graph: SmallGraph, params: ModelParams, counts: np.ndarray, trials: int
) -> FourierEstimate:
    """The coefficient and its standard error from the histogram of graph's own edge patterns."""
    values = _signed_products(graph, params)
    phi = float((counts * values).sum()) / trials
    var = max(float((counts * values**2).sum()) / trials - phi**2, 0.0)
    return FourierEstimate(graph=graph, phi=phi, stderr=math.sqrt(var / trials), trials=trials)


def fourier_coefficient_mc(
    graph: SmallGraph,
    params: ModelParams,
    trials: int,
    seed: Seed | int,
) -> FourierEstimate:
    """Monte Carlo Fourier coefficient on the fixed embedding (vertices 0..v-1).

    By exchangeability the fixed embedding estimates the coefficient of the
    whole isomorphism class.  The Monte Carlo mean is the full geometric
    model's coefficient times the exact probability (k/n)^v that every vertex
    of the embedding is a community member, so a vanishing k/n gives a zero
    coefficient.  The patterns of all C(v, 2) pairs are counted into
    2^C(v, 2) bins and marginalised onto the graph's edges, as each row of
    low_degree_advantage is.
    """
    if graph.v > params.n:
        raise ValueError(f"graph needs {graph.v} vertices but n = {params.n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if isinstance(seed, int):
        seed = Seed(seed)
    counts = _pattern_counts(graph.v, params, trials, seed)
    return _estimate(graph, params, _marginal(graph, graph.v, counts)[1], trials)


@dataclass(frozen=True)
class AdvantageReport:
    """Truncated low-degree advantage: sum of embedding-count weighted phi^2.

    A diagnostic restricted to the subgraphs of the rows, not the full
    low-degree likelihood ratio.  Squares are bias-corrected by subtracting
    the squared standard error.  Each row is (graph, phi, stderr, skipped),
    with skipped true for an analytic zero.
    """

    value: float
    error: float
    rows: tuple


def low_degree_advantage(
    params: ModelParams,
    v_max: int,
    degree_cap: int,
    trials: int,
    seed: Seed | int,
) -> AdvantageReport:
    """Sum over non-isomorphic H with 1 <= e(H) <= degree_cap of count * phi^2.

    Graphs with a tree component contribute exactly zero (their coefficient
    factorizes through a vanishing tree factor) and are skipped analytically.
    Every other graph is read from one histogram: each of trials samples
    draws the geometry of v_max vertices once, and its pattern over all
    C(v_max, 2) pairs is counted.  Marginalised onto a graph's own edges, the
    counts give exactly fourier_coefficient_mc of the graph padded to v_max
    vertices at the same seed.  The rows share their samples, so the error
    propagates the covariance Sigma of the estimates, read from the same
    histogram: sqrt(4 g' Sigma g + 2 sum_HH' c_H c_H' Sigma_HH'^2) with
    g = c * phi, the delta-method variance of the bias-corrected squares.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if v_max > params.n:
        raise ValueError(f"v_max = {v_max} exceeds n = {params.n}")
    if isinstance(seed, int):
        seed = Seed(seed)
    graphs = [g for g in enumerate_graphs_upto(v_max) if 1 <= g.e <= degree_cap]
    if not all(g.has_tree_component for g in graphs):
        counts = _pattern_counts(v_max, params, trials, seed)
    total = 0.0
    rows, weights, phis, per_code = [], [], [], []
    for graph in graphs:
        if graph.has_tree_component:
            rows.append((graph, 0.0, 0.0, True))
            continue
        own, own_counts = _marginal(graph, v_max, counts)
        est = _estimate(graph, params, own_counts, trials)
        count = graph.embedding_count(params.n)
        total += count * (est.phi**2 - est.stderr**2)
        rows.append((graph, est.phi, est.stderr, False))
        weights.append(float(count))
        phis.append(est.phi)
        per_code.append(_signed_products(graph, params)[own])
    var = 0.0
    if per_code:
        weights, phis = np.array(weights), np.array(phis)
        # einsum makes no BLAS call, so the sums do not depend on the BLAS threads
        second = np.einsum("gc,hc,c->gh", per_code, per_code, counts) / trials
        sigma = (second - np.multiply.outer(phis, phis)) / trials
        g = weights * phis
        var = 4.0 * np.einsum("g,gh,h->", g, sigma, g) + 2.0 * np.einsum(
            "g,gh,h->", weights, sigma**2, weights
        )
    return AdvantageReport(
        value=total,
        error=math.sqrt(max(float(var), 0.0)),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class FourierBound:
    """Moment bound for a connected subgraph under the full geometric model.

    bound = (8p)^e * (C v e log^(3/2) d / sqrt(d))^ceil((v-1)/2); valid only
    when the stated growth precondition holds, reported via precondition_ok.
    The default C = 1 is a working constant, not the theorem's.
    """

    graph: SmallGraph
    p: float
    d: int
    constant: float
    bound: float
    precondition_ok: bool


def rgg_fourier_bound(
    graph: SmallGraph, p: float, d: int, constant: float = 1.0
) -> FourierBound:
    """Evaluate the (8p)^e moment bound for a connected small graph."""
    if graph.component_count != 1:
        raise ValueError("the moment bound applies to connected graphs only")
    growth = constant * graph.v * graph.e * math.log(d) ** 1.5
    ok = growth <= math.sqrt(d)
    bound = (8.0 * p) ** graph.e * (growth / math.sqrt(d)) ** math.ceil(
        (graph.v - 1) / 2
    )
    return FourierBound(
        graph=graph, p=p, d=int(d), constant=constant, bound=bound, precondition_ok=ok
    )
