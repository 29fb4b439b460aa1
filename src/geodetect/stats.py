"""Signed subgraph statistics: triangle and cycle counts, wedge sums, scans.

A signed count replaces each edge indicator G_ij by the centered value
G_ij - p, so every statistic here has mean zero under the Erdos-Renyi null.
The global triangle count comes from integer counts of G itself: with T
triangles, W wedges and E edges it is T - p W + p^2 (n-2) E - p^3 C(n, 3),
exact from one float32 product of the 0/1 adjacency and rounded once
(signed_triangle_count).  A planted graph's counts also add up from those of
its edge coins outside the community and of the community's block
(_split_triangle_count), so the coins' part can be reused at every d.  Every
other statistic reads the centered adjacency Abar (centered_adjacency); the
triangle count of a subset, or of each subset a local search tries, is
Tr(Abar^3)/6 of its block.  A given subset's block (wedge sums, subset
triangles, oracle scans) comes from its own pairs of the edge field
(_subset_signed), with no n x n matrix.  The exhaustive scan adds each pair
completion of a prefix to the prefix's count, and its wedge sums to the
prefix's wedge sums (_exhaustive_scan).  The tests check the global count
against exact rational arithmetic and an explicit pair loop, and the
exhaustive scan against a block-by-block scorer, all kept in tests/oracles.py.

The ell = 3 cycle count is that global triangle count.  Every longer cycle
count, ell = 4 to 7, comes from one engine.  Moebius inversion over
the set partitions pi of the ell cycle positions (Alon, Yuster and Zwick) turns
the sum over distinct vertex tuples into sum_pi mu(pi) W(C_ell / pi), W the walk
sum of the quotient multigraph, whose m-fold edges carry Abar o^m.  An Eulerian
multigraph with a K4 minor has >= 8 edges, so for ell <= 7 each quotient contracts
by series-parallel elimination in O(n^3) time and O(n^2) memory.  Lengths stop at
7 because ell = 8 brings the first O(n^4) term.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import NamedTuple

import numpy as np

from .graphs import (
    Arm, Graph, Seed, _community_pairs, _upper_pairs, _vertex_subset, symmetric_matrix,
)

__all__ = [
    "ScanConfig",
    "centered_adjacency",
    "signed_triangle_count",
    "signed_cycle_count",
    "wedge_sums",
    "subset_signed_triangles",
    "scan_statistic",
    "constrained_scan_statistic",
]


MAX_CYCLE_LENGTH = 7
# per array of a block of prefixes in the exhaustive scan; a local search keeps
# a run of stacked graphs (_local_search_runs), and the blocks one pass tests,
# within about as much
_CHUNK_BYTES = 2**20
_A, _ONE = ("A",), ("one",)  # Abar and the all-ones vertex weight


def centered_adjacency(graph: Graph, p: float) -> np.ndarray:
    """Symmetric matrix with entries G_ij - p off the diagonal and 0 on it."""
    return symmetric_matrix(graph.edges - p, graph.n)


def _triangle_sum(a: np.ndarray):
    """Signed triangle count of a centered matrix: Tr(A^3) counts each one 6 times.

    Reduces over the last two axes: a float for one matrix, an array for a stack.
    """
    total = ((a @ a) * a).sum(axis=(-2, -1)) / 6.0
    return float(total) if total.ndim == 0 else total


def signed_triangle_count(graph: Graph, p: float) -> float:
    """Global signed triangle count, sum over i < j < l of (G_ij-p)(G_jl-p)(G_il-p).

    The count of _signed_triangle_counts on a stack of one adjacency.
    """
    return _signed_triangle_counts(graph.adjacency_matrix(np.float32)[None], p)[0]


def _signed_triangle_counts(adjacency: np.ndarray, p: float) -> list[float]:
    """signed_triangle_count of each float32 0/1 adjacency of a (B, n, n) stack."""
    n = adjacency.shape[-1]
    triangles, deg = _triangles_and_degrees(adjacency)
    wedges, edges = _wedges(deg).tolist(), (deg.sum(axis=-1) // 2).tolist()
    return [_signed_from_counts(n, p, *counts) for counts in zip(triangles, wedges, edges)]


def _triangles_and_degrees(adjacency: np.ndarray) -> tuple[list[int], np.ndarray]:
    """(T, deg) of each float32 0/1 symmetric adjacency G of a stack (..., m, m):
    T, its triangle count, a Python int per matrix, and deg, the int64
    degrees, shape (..., m).

    T = Tr(G^3)/6 comes from one float32 product.  Its entries and partial sums
    are integers below m < 2^24, so the product is exact in any BLAS order and
    for any stack; the float64 sums are exact while m^3 < 2^53.
    """
    walks = adjacency @ adjacency
    deg = np.diagonal(walks, axis1=-2, axis2=-1).astype(np.int64)  # (G^2)_ii = deg_i
    walks *= adjacency  # 6 T = sum of (G^2 o G)
    six_t = walks.sum(axis=(-2, -1), dtype=np.float64)
    return [int(x) // 6 for x in np.ravel(six_t).tolist()], deg


def _wedges(deg: np.ndarray) -> np.ndarray:
    """W = sum_i C(deg_i, 2) of int64 degrees (..., m), reduced over the last axis."""
    return (deg * (deg - 1)).sum(axis=-1) // 2


def _signed_from_counts(n: int, p: float, t: int, w: int, e: int) -> float:
    """S = T - p W + p^2 (n-2) E - p^3 C(n, 3), the signed triangle count of an
    n-vertex graph with T triangles, W wedges and E edges (Python ints).

    Expanding the product over i < j < l of (G_ij - p)(G_jl - p)(G_il - p)
    gives this sum.  With p = a/b exactly, S is one int / int, which Python
    rounds correctly: the result is the float nearest the exact value.
    """
    a, b = float(p).as_integer_ratio()
    num = ((t * b - w * a) * b + (n - 2) * e * a * a) * b - math.comb(n, 3) * a**3
    return num / b**3


class _CoinCounts(NamedTuple):
    """The integer counts of a planted draw's coin graph C: its coins on every
    pair but the community's own, whose S x S pairs are 0 in C.

    triangles, edges and wedges_outside (the wedges centred outside S) are
    Python ints; degrees holds C's int64 degrees of the members and cross the
    members' rows of C on the outsiders, X = C[S, outside], as packed bits in
    row-major order.  With the community's block H they give the graph's count
    (_split_triangle_count).
    """

    n: int
    triangles: int
    edges: int
    wedges_outside: int
    degrees: np.ndarray
    cross: np.ndarray


def _coin_counts(coins: np.ndarray, members: np.ndarray, n: int) -> _CoinCounts:
    """_CoinCounts of a flat field of n(n-1)/2 coins and the community's
    ascending members.

    C has no pair inside S, so a triangle of C has at most one member.  With
    Y = C[outside, outside], T(C) = T(Y) + sum_{a<b} (X^T X)_ab Y_ab: the
    triangles without a member, and those of each member u with an outside
    edge ab.  The work is the (n - s)^3 product of Y and the s (n - s)^2
    product of X, no n x n product.  Its peak is about 2 float32 n x n
    arrays, as the whole-graph count's: the coin adjacency while X and its
    outside rows are copied out of it, then Y, a product and X.
    """
    outside = np.ones(n, dtype=bool)
    outside[members] = False
    c = symmetric_matrix(coins, n, np.float32)
    x = c[members][:, outside]
    c = c[outside]
    y = c[:, outside]
    del c
    (t_y,), deg_y = _triangles_and_degrees(y)
    common = x.T @ x
    common *= y  # each outside pair twice
    triangles = t_y + int(common.sum(dtype=np.float64)) // 2
    del common
    degrees = x.sum(axis=1, dtype=np.float64).astype(np.int64)
    deg_outside = deg_y + x.sum(axis=0, dtype=np.float64).astype(np.int64)
    return _CoinCounts(
        n=n, triangles=triangles, edges=int(degrees.sum() + deg_outside.sum()) // 2,
        wedges_outside=int(_wedges(deg_outside)), degrees=degrees,
        cross=np.packbits(x != 0),  # flat: packing along axis 1 takes 5 times as long
    )


def _split_triangle_count(coins: _CoinCounts, block: np.ndarray, p: float) -> float:
    """signed_triangle_count of the graph G whose edges are the coins of C and,
    on the community's pairs, the block H: an s x s bool matrix, True only at
    (a, b), a < b, when members a and b are joined (graphs._block_edges).

    A triangle of G has at most one member, and is a triangle of C; or two
    members u < v, an H edge uv and the X X^T common outside neighbours of u
    and v; or three members, a triangle of H.  So T(G) = T(C) + sum_{u<v}
    H_uv (X X^T)_uv + T(H), deg_G = deg_C + deg_H and E(G) = E(C) + E(H), all
    integers: the count is exact and rounded as the whole graph's.  The work
    is the s x (n - s) product and H's own count, no n x n array.
    """
    s = block.shape[-1]
    h = block.astype(np.float32)
    h += h.T
    x = np.unpackbits(coins.cross, count=s * (coins.n - s)).reshape(s, coins.n - s)
    x = x.astype(np.float32)
    common = x @ x.T
    common *= h  # each pair u < v twice
    (t_h,), deg_h = _triangles_and_degrees(h)
    deg = coins.degrees + deg_h
    t = coins.triangles + int(common.sum(dtype=np.float64)) // 2 + t_h
    e = coins.edges + int(deg_h.sum()) // 2
    return _signed_from_counts(coins.n, p, t, coins.wedges_outside + int(_wedges(deg)), e)


def _prefix_blocks(n: int, size: int):
    """The size-subsets R of range(n) that leave two vertices above l = max(R).

    Yields (l, idx) in order of l, idx a (B, size) block of the prefixes ending
    in l, in lexicographic order.  With m = n - 1 - l, B keeps B * max(m, size)^2
    float64 values within _CHUNK_BYTES (B >= 1).
    """
    for l in range(size - 1, n - 2):
        chunk = max(1, _CHUNK_BYTES // (8 * max(n - 1 - l, size) ** 2))
        heads = combinations(range(l), size - 1)
        while block := list(islice(heads, chunk)):
            flat = np.fromiter(chain.from_iterable(block), dtype=int)
            idx = np.full((len(block), size), l)
            idx[:, :-1] = flat.reshape(len(block), size - 1)
            yield l, idx


def _t(x):
    """Transpose of a matrix expression (see _cycle_plan)."""
    if x[0] == "chain":
        return ("chain", *(f if i % 2 else _t(f) for i, f in enumerate(x[:0:-1])))
    return _had(*map(_t, x[1:])) if x[0] == "had" else x


def _had(*xs):
    """Entrywise product, flattened and sorted; the factors Abar lead, a shared prefix."""
    flat = [f for x in xs for f in (x[1:] if x[0] == "had" else (x,)) if f != _ONE]
    return ("had", *sorted(flat, key=repr)) if len(flat) > 1 else (flat or [_ONE])[0]


def _walk_sum(labels: tuple, built: set):
    """Walk sum of the quotient of C_ell by these block labels, by series-parallel elimination.

    A leaf, unweighted ones first, folds into its neighbour's weight; else the degree-2
    vertex v whose L diag(w_v) R makes fewest matmuls not in built goes.
    """
    edges, weights = {}, dict.fromkeys(labels, _ONE)

    def join(u, v, x):  # x is indexed [x_u, x_v]; a parallel edge multiplies in
        x = _had(edges[u, v], x) if (u, v) in edges else x
        edges[u, v], edges[v, u] = x, _t(x)
    for i, u in enumerate(labels):
        join(u, labels[i - 1], _A)
    while len(weights) > 1:
        if len(weights) == 2 and {*weights.values()} == {_ONE}:  # the entry sum of the edge
            return ("sum", min(edges.values(), key=repr))
        nbrs = {v: [u for s, u in edges if s == v] for v in weights}
        v = min(weights, key=lambda v: (len(nbrs[v]), weights[v] != _ONE, v))
        if len(nbrs[v]) == 1:
            (u,) = nbrs[v]
            weights[u] = _had(weights[u], ("matmul", edges[u, v], weights.pop(v)))
            del edges[u, v], edges[v, u]
            continue
        options = []  # treewidth <= 2: some vertex has two neighbours
        for v, (a, b) in ((v, ns) for v, ns in nbrs.items() if len(ns) == 2):
            xs = (edges[a, v], weights[v], edges[v, b])  # a chain, flattened
            c = ("chain", *(f for x in xs for f in (x[1:] if x[0] == "chain" else (x,))))
            options.append((sum(c[:k] not in built for k in range(4, len(c) + 1, 2)), v, a, b, c))
        _, v, a, b, c = min(options)
        built.update(c[:k] for k in range(4, len(c) + 1, 2))
        del weights[v], edges[a, v], edges[v, a], edges[b, v], edges[v, b]
        join(a, b, c)
    return ("sum", *weights.values())


def _cycle_plan(ell: int) -> tuple:
    """Terms (x, mu) of 2 ell C_ell = sum over pi of mu(pi) W(C_ell / pi), equal x merged.

    pi keeps neighbouring positions apart (Abar_ii = 0 zeroes the rest); many blocks go
    first.  Expressions: _A, _ONE, ("had", ...) entrywise, ("chain", X0, w1, X1, ...)
    for X0 diag(w1) X1 ..., ("matmul", X, w) for X @ w, and ("sum", x).
    """
    parts = [(0,)]
    for _ in range(ell - 1):  # block labels in order of first appearance
        parts = [q + (b,) for q in parts for b in range(max(q) + 2) if b != q[-1]]
    terms, built = Counter(), set()
    for q in sorted((q for q in parts if q[-1] != 0), key=max, reverse=True):
        mu = math.prod((-1) ** (s - 1) * math.factorial(s - 1) for s in map(q.count, set(q)))
        terms[_walk_sum(q, built)] += mu
    return tuple((x, mu) for x, mu in terms.items() if mu)


def _inputs(x) -> tuple:
    """The expressions _apply reads to form x, in the order it reads them."""
    y = x[1] if x[0] == "sum" else x
    if x[0] == "chain":  # X0 diag(w1) X1 ... Xk as (X0 ... X(k-1)) diag(wk) Xk
        left = x[1] if len(x) == 4 else x[:-2]
        return (left, x[-1]) if x[-2] == _ONE else (left, x[-2], x[-1])
    if y[0] == "had":  # Abar o^m first, as repeated products
        return (_had(*y[1:-1]), y[-1])
    return x[1:]


def _apply(x, args: list):
    """Value of x from the values of _inputs(x)."""
    if x[0] == "chain":
        left = args[0] if len(args) == 2 else args[0] * args[1]
        return left @ args[-1]
    if (x[1] if x[0] == "sum" else x)[0] == "had":  # a sum is one vdot
        return (np.vdot if x[0] == "sum" else np.multiply)(*args)
    return getattr(np, x[0])(*args)  # ("matmul", X, w) and ("sum", x) name their function


@lru_cache(maxsize=None)
def _cycle_program(ell: int) -> tuple:
    """_cycle_plan(ell) as steps (x, inputs, frees, mu), each product formed once.

    The steps form the products in the order a depth-first walk of the terms
    meets them.  `frees` lists the inputs whose last reader is this step, so a
    count drops each array once nothing later reads it; mu is nonzero on the
    step that forms a term.
    """
    order, done, mus = [], {_A, _ONE}, dict(_cycle_plan(ell))

    def visit(x):
        if x not in done:
            for z in _inputs(x):
                visit(z)
            done.add(x)
            order.append(x)
    for x in mus:
        visit(x)
    steps = [(x, _inputs(x)) for x in order]
    last = {z: i for i, (_, inputs) in enumerate(steps) for z in inputs}
    return tuple(
        (x, inputs, tuple(z for z in dict.fromkeys(inputs) if last[z] == i), mus.get(x, 0))
        for i, (x, inputs) in enumerate(steps)
    )


def signed_cycle_count(graph: Graph, p: float, ell: int) -> float:
    """Sum of the signed edge product over all distinct length-ell cycles, 3 <= ell <= 7.

    ell = 3 is signed_triangle_count, exact and correctly rounded.
    """
    ell = int(ell)
    if not 3 <= ell <= MAX_CYCLE_LENGTH:
        raise ValueError(f"cycle length must lie in [3, {MAX_CYCLE_LENGTH}], got {ell}")
    if ell == 3:
        return signed_triangle_count(graph, p)
    n = graph.n
    if n < ell:
        return 0.0
    values = {_A: centered_adjacency(graph, p), _ONE: np.ones(n)}
    total = 0
    for x, inputs, frees, mu in _cycle_program(ell):
        values[x] = _apply(x, [values[z] for z in inputs])
        for z in frees:
            del values[z]
        if mu:
            total += mu * float(values.pop(x))
    return total / (2 * ell)


def _wedge_matrix(sub_signed: np.ndarray) -> np.ndarray:
    """W[a, b] = sum over c < a of M[c, a] * M[c, b] for positions a < b.

    Works on the last two axes, so a stack of subsets gives a stack of W.
    """
    upper = np.triu(sub_signed, 1)
    return np.triu(np.swapaxes(upper, -1, -2) @ sub_signed, 1)


def _subset_signed(graph: Graph, p: float, subset) -> tuple[np.ndarray, np.ndarray]:
    """(verts, block): the subset's vertices ascending and its k x k block of
    the centered adjacency, read from its own pairs of the edge field."""
    verts = _vertex_subset(subset, graph.n)
    _, flat = _community_pairs(verts, graph.n)
    return verts, symmetric_matrix(graph.edges[flat] - p, verts.size)


def wedge_sums(graph: Graph, p: float, subset) -> dict[tuple[int, int], float]:
    """Signed wedge sums W_ij = sum over l in A, l < i of (G_li-p)(G_lj-p).

    The inner range l < i is intentionally asymmetric (an ordering-dependent
    quantity).
    Keys are vertex pairs (i, j) with i < j, both in the subset.
    """
    verts, sub = _subset_signed(graph, p, subset)
    w = _wedge_matrix(sub)
    return {
        (int(verts[a]), int(verts[b])): float(w[a, b])
        for a in range(len(verts))
        for b in range(a + 1, len(verts))
    }


def subset_signed_triangles(graph: Graph, p: float, subset) -> float:
    """Signed triangle count of the induced subgraph on the given vertex set."""
    _, sub = _subset_signed(graph, p, subset)
    return _triangle_sum(sub)


def _feasible(sub_signed: np.ndarray, sigma_sq: float, bound: float):
    """Wedge constraints of one subset block, or of each block in a stack."""
    w = _wedge_matrix(sub_signed)
    iu = _upper_pairs(w.shape[-1])
    vals = w[..., iu[0], iu[1]]
    # a dot product per block, summed as vals @ vals sums a single one
    sum_sq = (vals[..., None, :] @ vals[..., :, None])[..., 0, 0]
    return (sum_sq <= sigma_sq) & (np.abs(vals).max(axis=-1, initial=0.0) <= bound)


@dataclass(frozen=True)
class ScanConfig:
    """Scan test configuration.

    mode is one of 'exhaustive', 'planted-oracle', 'local-search'; sigma_sq
    and B, both >= 0 and given together, activate the wedge-sum constraints of
    the constrained scan.
    """

    k_minus: int
    mode: str = "exhaustive"
    restarts: int = 8
    sigma_sq: float | None = None
    B: float | None = None

    _MODES = ("exhaustive", "planted-oracle", "local-search")
    _EXHAUSTIVE_LIMIT = 10_000_000

    def __post_init__(self):
        if self.k_minus < 0:
            raise ValueError(f"k_minus must be >= 0, got {self.k_minus}")
        if self.mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}, got {self.mode!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if (self.sigma_sq is None) != (self.B is None):
            raise ValueError("sigma_sq and B are given together or not at all")
        if self.sigma_sq is not None and not (self.sigma_sq >= 0 and self.B >= 0):
            raise ValueError(f"sigma_sq and B must be >= 0, got {self.sigma_sq}, {self.B}")

    def admits(self, sub_signed: np.ndarray) -> bool:
        """True when the subset block meets the wedge constraints, if there are any."""
        return self.sigma_sq is None or bool(_feasible(sub_signed, self.sigma_sq, self.B))

    def check_exhaustive(self, n: int):
        if math.comb(n, self.k_minus) > self._EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"exhaustive scan over C({n}, {self.k_minus}) subsets exceeds "
                f"the {self._EXHAUSTIVE_LIMIT} limit"
            )


def _start_stream() -> np.random.Generator:
    """The stream a local search draws its starts from: fixed, so a scan reads the graph alone."""
    return Seed(0).stream(0, arm=Arm.LOCAL_SEARCH)


def _blocks(a: np.ndarray, base: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The block of rows[i] and cols[i] of the matrix of a stack a whose first
    row, in a viewed as (G n, n), is base[i]: one flat take for every i."""
    n = a.shape[-1]
    return a.reshape(-1).take(((base[:, None] + rows) * n)[:, :, None] + cols[:, None, :])


def _sweep_swaps(a, swept, base, current, tol, exact) -> tuple[list, np.ndarray]:
    """The swaps a sweep of each climb c in swept, (base[c], current[c]),
    tries in order (_local_search): an (L, 3) array of (c, pos, w) per climb,
    and whether the order of c' alone placed them.

    A candidate row is a member with a swap of gain > -tol; the swaps of a
    member before the first candidate row fail the exact test, whatever
    their order.  When the lowest candidate row by c' leads every other by
    more than 2 tol, it leads them by c too, so its first swap goes first; on
    a miss the climb sweeps again with exact[c] set.  On a near-tie, or with
    exact[c] set, the climb tries the swaps of every candidate row, its
    members sorted by the einsum's c.
    """
    base, current, tol, exact = base[swept], current[swept], tol[swept], exact[swept]
    m, k = current.shape
    n, ar = a.shape[-1], np.arange(m)
    outsider = np.ones((m, n), dtype=bool)
    outsider[ar[:, None], current] = False
    outside = outsider.nonzero()[1].reshape(m, n - k)
    rows = _blocks(a, base, np.concatenate([current, outside], axis=1), current)
    rq = rows @ rows[:, :k]  # A @ A on the members' rows, Q on the outsiders'
    rq *= rows
    del rows  # before the k x (n - k) arrays are made
    contrib, cq = rq[:, :k].sum(axis=-1) / 2.0, rq[:, k:]
    lift = 0.5 * cq.sum(axis=-1)[:, None, :] - cq.swapaxes(1, 2)  # gain + c
    cand = lift > (contrib - tol[:, None])[:, :, None]  # gain > -tol, up to a rounding
    key = np.where(cand.any(axis=-1), contrib, np.inf)
    pos = key.argmin(axis=1)
    low = key[ar, pos]
    key[ar, pos] = np.inf
    # a comparison, not a difference: inf - inf would warn
    placed = (key.min(axis=1) > low + 2.0 * tol) & ~exact
    lead = np.empty((m, 3), dtype=np.int64)  # the lowest candidate row's first swap
    lead[:, 0], lead[:, 1], lead[:, 2] = swept, pos, outside[ar, cand[ar, pos].argmax(axis=1)]
    swaps = [lead[i : i + 1] if one else lead[:0] for i, one in enumerate(placed.tolist())]
    tied = (~placed & (low < np.inf)).nonzero()[0]
    if tied.size:
        blocks = _blocks(a, base[tied], current[tied], current[tied])
        exact_c = np.stack([np.einsum("ij,jk,ki->i", b, b, b) for b in blocks]) / 2.0
        order = np.argsort(exact_c, axis=1)  # each row as np.argsort of it alone
        keep = cand[tied[:, None], order]
        climb, rank, col = np.nonzero(keep)
        pairs = np.empty((climb.size, 3), dtype=np.int64)
        pairs[:, 0], pairs[:, 1] = swept[tied[climb]], order[climb, rank]
        pairs[:, 2] = outside[tied[climb], col]
        ends = np.cumsum(keep.sum(axis=(1, 2))).tolist()
        for i, start, stop in zip(tied.tolist(), [0, *ends], ends):
            swaps[i] = pairs[start:stop]
    return swaps, placed


def _local_search(a: np.ndarray, cfg: ScanConfig) -> list:
    """Best of `restarts` first-improvement swap hill-climbs over size-k_minus
    subsets, for each matrix of a (G, n, n) stack: a list of G (value,
    subset), (None, None) where no subset qualifies.

    Each matrix's climbs start from the `restarts` random subsets drawn from
    _start_stream(), and all G * restarts climbs run in lockstep.  A sweep of
    a climb tries the swaps (member at pos -> outsider w) with pos in
    ascending order of the member's triangle contribution c[pos] =
    np.einsum("ij,jk,ki->i", A, A, A)[pos] / 2 of its block A = a[S, S], as
    np.argsort orders it, and w ascending; it takes the first whose
    _triangle_sum beats the current one and whose block cfg admits.  One
    product scores every swap: with C = a[outside, S], Q = C @ A and q_w =
    sum_j Q[w, j] C[w, j],

        gain[pos, w] = q_w / 2 - C[w, pos] Q[w, pos] - c[pos]

    (a_uu = 0, so this is -c[pos] + b^T A_{S-pos} b / 2 with b = C[w, S-pos]).
    Only swaps with gain > -tol get the exact test; the rest cannot pass it.

    Each pass sweeps the climbs that moved with stacked products, which read
    the cheaper c' = ((A @ A) * A).sum(-1) / 2 and take the einsum only on a
    near-tie (_sweep_swaps).  It then tests the next swaps of every climb in
    one stacked _triangle_sum call, and one _feasible call: the first swap of
    a sweep alone, twice as many after each miss, all within about
    _CHUNK_BYTES.  Both sums add at most k^3 products of entries bounded by
    m, so each is off by about 1e-16 k^4 m^3, far below tol for any k_minus
    under 1e6: every accepted swap, value and constraint verdict is the one
    the exact test alone would give, in the einsum order.
    """
    stack, n, k = a.shape[0], a.shape[-1], cfg.k_minus
    if k > n:
        return [(None, None)] * stack
    rng, restarts = _start_stream(), cfg.restarts
    starts = [np.sort(rng.permutation(n)[:k]) for _ in range(restarts)]
    current = np.array(starts * stack, dtype=np.int64).reshape(stack * restarts, k)
    base = np.repeat(np.arange(stack) * n, restarts)  # each climb's matrix (_blocks)
    top = np.maximum(a.max(axis=(-2, -1), initial=0.0), -a.min(axis=(-2, -1), initial=0.0))
    tol = np.repeat(1e-9 * k**3 * top**3, restarts)
    climbs = np.arange(base.size)
    val = _triangle_sum(_blocks(a, base, current, current))
    # queues[c] = [swaps, next, width, cheap]: the swaps of climb c's sweep,
    # the next to try, how many the next pass tries, and whether c' alone
    # placed them.  exact[c]: c's next sweep sorts by the einsum.  Subsets of
    # 0 or n vertices have no swap.
    swept, queues = (climbs if 0 < k < n else climbs[:0]), {}
    exact = np.zeros(climbs.size, dtype=bool)
    while swept.size or queues:
        again = []
        if swept.size:
            swaps, cheap = _sweep_swaps(a, swept, base, current, tol, exact)
            for c, swaps, cheap in zip(swept.tolist(), swaps, cheap.tolist()):
                if swaps.size:
                    queues[c] = [swaps, 0, 1, cheap]
        if not queues:
            break
        # the blocks of a pass, and the copies the tests make of them, stay
        # within about _CHUNK_BYTES
        cap = max(1, _CHUNK_BYTES // (32 * k * k * len(queues)))
        runs = {c: q[0][q[1] : q[1] + min(q[2], cap)] for c, q in queues.items()}
        swaps = np.concatenate(list(runs.values()))
        owner = swaps[:, 0]
        trial = current[owner]
        trial[np.arange(owner.size), swaps[:, 1]] = swaps[:, 2]
        trial.sort(axis=1)
        sub = _blocks(a, base[owner], trial, trial)
        tval = _triangle_sum(sub)
        ok = tval > val[owner]
        if cfg.sigma_sq is not None and ok.any():
            ok[ok] = _feasible(sub[ok], cfg.sigma_sq, cfg.B)
        hits, start = ok.tolist(), 0
        for c, run in runs.items():
            q, stop = queues[c], start + len(run)
            if True in hits[start:stop]:
                i = hits.index(True, start, stop)
                current[c], val[c], exact[c] = trial[i], tval[i], False
                del queues[c]
                again.append(c)
            elif q[1] + len(run) == len(q[0]):
                del queues[c]  # a local optimum, unless c' alone placed the swaps
                if q[3]:
                    exact[c] = True
                    again.append(c)
            else:
                q[1], q[2] = q[1] + len(run), 2 * q[2]
            start = stop
        swept = np.array(again, dtype=np.int64)
    admitted = np.ones(climbs.size, dtype=bool)
    if cfg.sigma_sq is not None:
        admitted = _feasible(_blocks(a, base, current, current), cfg.sigma_sq, cfg.B)
    results = []
    for g in range(stack):
        best_val, best = -math.inf, None
        for c in range(g * restarts, (g + 1) * restarts):
            if val[c] > best_val and admitted[c]:
                best_val, best = float(val[c]), c
        results.append((None, None) if best is None else (best_val, current[best].copy()))
    return results


def _local_search_runs(graphs, count: int, p: float, cfg: ScanConfig):
    """The local-search statistic of each graph of an iterable of about
    `count`, in order, None where no subset qualifies: a generator that takes
    the graphs a run at a time and scores each run in one stacked _local_search.

    A graph's matrix takes 8 n^2 bytes, and a sweep of each of its climbs
    about as much again: the climb's n x k rows of it and two k x (n - k)
    arrays, at most 9/8 of it in all.  A run keeps that within about
    _CHUNK_BYTES, and the runs are evened out over `count`.
    """
    graphs = iter(graphs)
    for first in graphs:  # each pass takes one run
        n = first.n
        size = max(1, _CHUNK_BYTES // (8 * n * n * (1 + cfg.restarts)))
        size = -(-count // -(-count // size))  # the same number of runs, evened out
        run = [first, *islice(graphs, size - 1)]
        a = np.empty((len(run), n, n))
        for i, graph in enumerate(run):
            a[i] = centered_adjacency(graph, p)
        values = [value for value, _ in _local_search(a, cfg)]
        del a  # before the next run's stack is made
        yield from values


def _scan_impl(graph: Graph, p: float, cfg: ScanConfig, oracle_subset):
    if cfg.mode == "planted-oracle":
        if oracle_subset is None:
            raise ValueError("planted-oracle mode requires an oracle subset")
        verts, sub = _subset_signed(graph, p, oracle_subset)
        if verts.size != cfg.k_minus:
            raise ValueError(
                f"oracle subset has size {verts.size}, expected k_minus = {cfg.k_minus}"
            )
        return (_triangle_sum(sub), verts) if cfg.admits(sub) else (None, None)
    a = centered_adjacency(graph, p)
    if cfg.mode == "local-search":
        return _local_search(a[None], cfg)[0]
    cfg.check_exhaustive(graph.n)
    return _exhaustive_scan(a, cfg)


def _completions_feasible(inside, x, gram, cfg: ScanConfig, iu, ju) -> np.ndarray:
    """Wedge constraints of every R + {u, v}, l < u < v, for a block of prefixes R.

    inside = a[R, R], x = a[R, u] over the u > l and gram = x^T x, whose [u, v]
    is W[u, v]; (iu, ju) are the pairs of the u > l, in _upper_pairs order.
    Returns a (B, pairs) mask, the pairs in that order.
    """
    w_uv = gram[:, iu, ju]
    w_in = _wedge_matrix(inside)
    w_out = np.swapaxes(np.triu(inside, 1), 1, 2) @ x  # W[r, u]
    sq = (w_out * w_out).sum(axis=1)
    top = np.maximum(np.abs(w_out).max(axis=1), np.abs(w_in).max(axis=(1, 2))[:, None])
    sum_sq = (w_in * w_in).sum(axis=(1, 2))[:, None] + sq[:, iu] + sq[:, ju] + w_uv * w_uv
    top = np.maximum(np.maximum(top[:, iu], top[:, ju]), np.abs(w_uv))
    return (sum_sq <= cfg.sigma_sq) & (top <= cfg.B)


def _tail_pairs(top: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(m, 1) for m <= top, read from the cached pairs of order top.

    Those are its last m (m - 1) / 2 pairs, shifted down by top - m, so a scan
    over the orders below top holds one order in the _upper_pairs cache.
    """
    rows, cols = _upper_pairs(top)
    tail = len(rows) - m * (m - 1) // 2
    return rows[tail:] - (top - m), cols[tail:] - (top - m)


def _exhaustive_scan(a: np.ndarray, cfg: ScanConfig):
    """Exact maximum over size-k_minus subsets, the lexicographically first among equals.

    Each subset is a prefix R of k_minus - 2 vertices, l = max(R), and a pair
    l < u < v, scored for every pair of a block of prefixes at once:

        f(R + {u, v}) = f(R) + t(u) + t(v) + a_uv (a[R, :]^T a[R, :])_uv,
        t(v) = a[R, v]^T a[R, R] a[R, v] / 2.

    The wedge matrix of R + {u, v} extends R's the same way: with
    U = triu(a[R, R], 1), W[r, u] = (U^T a[R, u])_r and W[u, v] is the
    (a[R, :]^T a[R, :])_uv of the value, so the constrained scan sums
    sum W^2 and max |W| per prefix and per added vertex, with no k x k block.

    Within a group of equal l the candidates come in lexicographic order, so a
    block's argmax is its lexicographically first maximum; across groups an equal
    value wins only with a lexicographically smaller subset.  Fewer than 3 vertices
    hold no triangle and no wedge: the first subset, range(k_minus), scores 0.
    """
    n, k_minus = a.shape[0], cfg.k_minus
    if k_minus > n:
        return None, None
    if k_minus < 3:
        return 0.0, np.arange(k_minus)
    best_val, best_set = -math.inf, None
    for l, idx in _prefix_blocks(n, k_minus - 2):
        iu, ju = _tail_pairs(n - k_minus + 2, n - 1 - l)  # the top order: l = k_minus - 3
        x = np.take(a[:, l + 1 :], idx, axis=0)  # a[R, u] for every u > l
        xt = np.swapaxes(x, 1, 2).copy()  # contiguous: a stack of BLAS products
        inside = a[idx[:, :, None], idx[:, None, :]]
        t = 0.5 * ((xt @ inside) * xt).sum(axis=2)
        gram = xt @ x  # W[u, v] of R + {u, v}
        vals = gram * a[l + 1 :, l + 1 :]
        vals += (_triangle_sum(inside)[:, None] + t)[:, :, None]
        vals += t[:, None, :]
        vals = vals[:, iu, ju]
        if cfg.sigma_sq is not None:
            vals = np.where(_completions_feasible(inside, x, gram, cfg, iu, ju), vals, -math.inf)
        row, col = divmod(int(np.argmax(vals)), len(iu))
        val = float(vals[row, col])
        subset = (*idx[row].tolist(), l + 1 + int(iu[col]), l + 1 + int(ju[col]))
        if val > best_val or (val == best_val and best_set is not None and subset < best_set):
            best_val, best_set = val, subset
    if best_set is None:
        return None, None
    return best_val, np.array(best_set)


def scan_statistic(graph: Graph, p: float, cfg: ScanConfig, oracle_subset=None):
    """Maximum signed triangle count over size-k_minus subsets; cfg has no constraints.

    exhaustive: exact maximum, the lexicographically first subset among equal
    values (see _exhaustive_scan).  planted-oracle: the value on the supplied
    subset (the type-II surrogate).  local-search: best of `restarts` swap
    hill-climbs from subsets drawn from one fixed stream (_start_stream), so
    the value reads the graph alone, and always <= the exact maximum.  Each
    sweep of a climb tries the swaps (member -> outsider) with the members in
    ascending order of their triangle contribution and the outsiders in
    ascending order, and takes the first that raises the exact sum; one
    matmul scores every swap of the sweep, and only the swaps whose score
    could beat the current sum are recomputed exactly.  The climbs run in
    lockstep, a stack of one graph here (_local_search_runs stacks a run of
    graphs): a pass sweeps them with stacked products, ordering the members
    by a cheap contribution and by the einsum only on near-ties, and tests
    their next swaps in one stacked call (_local_search).
    Returns (value, subset), or (None, None) when k_minus > n.
    """
    if cfg.sigma_sq is not None:
        raise ValueError("a constrained config needs constrained_scan_statistic")
    return _scan_impl(graph, p, cfg, oracle_subset)


def constrained_scan_statistic(graph: Graph, p: float, cfg: ScanConfig, oracle_subset=None):
    """Scan restricted to subsets with controlled signed wedge sums.

    A subset is feasible when sum of W_ij^2 <= sigma_sq and max |W_ij| <= B.
    Returns (None, None) when the feasible set is empty (or, in oracle mode,
    when the supplied subset is infeasible); the decision rule then reads
    'null'.
    """
    if cfg.sigma_sq is None:
        raise ValueError("constrained scan requires sigma_sq and B in the config")
    return _scan_impl(graph, p, cfg, oracle_subset)
