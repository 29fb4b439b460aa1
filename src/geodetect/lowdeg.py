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
from itertools import combinations, permutations

import numpy as np

from .graphs import Arm, ModelParams, Seed, _unit_gram
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
    return list(combinations(range(v), 2))


@lru_cache(maxsize=None)
def _slot_powers(v: int) -> np.ndarray:
    """Slot images of every vertex permutation as bit weights, shape (C(v,2), v!).

    Entry [b, r] is 1 << (slot of the image of slot b under the r-th
    permutation), so a mask's image is the sum of the rows of its set bits.
    """
    slots = _pair_slots(v)
    index = {slot: b for b, slot in enumerate(slots)}
    targets = [
        [index[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in slots]
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
    if v > 7:
        raise ValueError(f"small graphs are limited to 7 vertices, got {v}")
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
    mask = sum(1 << b for b, slot in enumerate(_pair_slots(v)) if slot in edge_set)
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


def _edge_indicators(
    v: int, pairs, params: ModelParams, rng: np.random.Generator, batch: int
) -> np.ndarray:
    """Geometric edge indicators 1{<u_i, u_j> >= tau}, shape (batch, len(pairs)).

    Only the normalized inner products of the given pairs are formed, from one
    v x v Gram draw per sample: whenever d >= v straight from the Bartlett
    factor (v chi-squares and v(v-1)/2 normals per sample), with no
    (batch, v, v) array; only d < v draws, and briefly holds, the batch's v*d
    latent coordinates and their dense Gram.  Community membership and the
    p-coins off the community are never simulated; fourier_coefficient_mc
    applies their exact effect, the factor (k/n)^v.
    """
    tau = solve_threshold(params.p, params.d).tau
    cosines, _ = _unit_gram(v, params.d, rng, shape=(batch,), pairs=pairs)
    return cosines >= tau


def fourier_coefficient_mc(
    graph: SmallGraph,
    params: ModelParams,
    trials: int,
    seed: Seed | int,
) -> FourierEstimate:
    """Monte Carlo Fourier coefficient on the fixed embedding (vertices 0..v-1).

    By exchangeability the fixed embedding estimates the coefficient of the
    whole isomorphism class.  The Monte Carlo mean is the full geometric
    model's coefficient; the mean and its standard error are then scaled by
    the exact probability (k/n)^v that every vertex of the embedding is a
    community member, so a vanishing k/n gives a zero coefficient.  Here v
    counts the vertices some edge touches: an isolated vertex of H puts no
    condition on membership.
    """
    if graph.v > params.n:
        raise ValueError(f"graph needs {graph.v} vertices but n = {params.n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if isinstance(seed, int):
        seed = Seed(seed)
    norm = (params.p * (1.0 - params.p)) ** (graph.e / 2.0)
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_id = 0
    while done < trials:
        batch = min(_MC_CHUNK, trials - done)
        rng = seed.stream(chunk_id, arm=Arm.FOURIER)
        ind = _edge_indicators(graph.v, graph.edges, params, rng, batch)
        signed = (ind - params.p).prod(axis=1) / norm
        total += float(signed.sum())
        total_sq += float((signed**2).sum())
        done += batch
        chunk_id += 1
    phi = total / trials
    var = max(total_sq / trials - phi**2, 0.0)
    scale = (params.k / params.n) ** len({x for edge in graph.edges for x in edge})
    stderr = scale * math.sqrt(var / trials)
    return FourierEstimate(graph=graph, phi=scale * phi, stderr=stderr, trials=trials)


@dataclass(frozen=True)
class AdvantageReport:
    """Truncated low-degree advantage: sum of embedding-count weighted phi^2.

    A diagnostic restricted to subgraphs on at most v_max vertices, not the
    full low-degree likelihood ratio.  Squares are bias-corrected by
    subtracting the squared standard error.
    """

    value: float
    error: float
    v_max: int
    degree_cap: int
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
    factorizes through a vanishing tree factor) and are skipped analytically;
    everything else is estimated by Monte Carlo with bias-corrected squares
    and propagated uncertainty.  The graph at position idx of the enumeration
    draws from seed.spawn(idx), so no two (master, graph) pairs share a stream.
    """
    if isinstance(seed, int):
        seed = Seed(seed)
    total = 0.0
    var_total = 0.0
    rows = []
    for idx, graph in enumerate(enumerate_graphs_upto(v_max)):
        if not 1 <= graph.e <= degree_cap:
            continue
        count = graph.embedding_count(params.n)
        if graph.has_tree_component:
            rows.append((graph, 0.0, 0.0, True))
            continue
        est = fourier_coefficient_mc(graph, params, trials, seed.spawn(idx))
        contrib = count * (est.phi**2 - est.stderr**2)
        total += contrib
        # var of phi^2 around its bias-corrected value
        var_total += (count**2) * (
            4.0 * est.phi**2 * est.stderr**2 + 2.0 * est.stderr**4
        )
        rows.append((graph, est.phi, est.stderr, False))
    return AdvantageReport(
        value=total,
        error=math.sqrt(var_total),
        v_max=v_max,
        degree_cap=degree_cap,
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
