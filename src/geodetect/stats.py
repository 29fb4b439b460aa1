"""Signed subgraph statistics: triangle and cycle counts, wedge sums, scans.

A signed count replaces each edge indicator G_ij by the centered value
G_ij - p, so every statistic here has mean zero under the Erdos-Renyi null.
Every statistic reads the centered adjacency Abar (centered_adjacency), and
every triangle count, global, per subset, or over a stack of subsets inside a
scan, is Tr(Abar^3)/6 of the relevant block.  The tests cross-check it against
an explicit pair loop kept in tests/oracles.py.

Cycles of length 4 and 5 are trace polynomials as well (the cycle-counting
identities of Alon, Yuster and Zwick, re-derived for the weighted matrix
Abar).  With A2 = Abar @ Abar, A3 = A2 @ Abar and s_i = (A2)_ii:

    8 C4  = sum(A2 o A2) - 2 sum_i s_i^2 + sum(Abar o^4)
    10 C5 = sum(A3 o A2) - 5 sum_i (A3)_ii s_i + 5 sum(Abar o^3 o A2)

where o is the entrywise product and o^k the entrywise power.  The first term
of each is Tr(Abar^4) or Tr(Abar^5); the others remove the closed walks that
revisit a vertex.  Lengths 6 and 7 are enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice, permutations

import numpy as np

from .graphs import Graph, _upper_pairs, symmetric_matrix

__all__ = [
    "ScanConfig",
    "centered_adjacency",
    "signed_triangle_count",
    "signed_cycle_count",
    "cycle_vertex_orders",
    "wedge_sums",
    "wedge_sums_symmetric",
    "subset_signed_triangles",
    "scan_statistic",
    "constrained_scan_statistic",
    "signed_embedding_product",
]


_ENUM_MAX_N = 64
_ENUM_MAX_ELL = 7
_CHUNK_BYTES = 2**20  # per gathered block of the cycle enumeration and the exhaustive scan


def _cycle_max_n(ell: int) -> float:
    """Largest n signed_cycle_count takes at this length: enumerated lengths stop at 64."""
    return _ENUM_MAX_N if ell > 5 else math.inf


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
    """Global signed triangle count, sum over i < j < l of (G_ij-p)(G_jl-p)(G_il-p)."""
    return _triangle_sum(centered_adjacency(graph, p))


def cycle_vertex_orders(ell: int) -> list[tuple[int, ...]]:
    """Distinct cyclic orders of ell labeled vertices, each unordered cycle once.

    Fixing position 0 and requiring the second entry to be smaller than the
    last kills the 2*ell symmetries, leaving (ell-1)!/2 orders.
    """
    orders = []
    for perm in permutations(range(1, ell)):
        if perm[0] < perm[-1]:
            orders.append((0,) + perm)
    return orders


@lru_cache(maxsize=32)
def _cycle_pair_slots(ell: int) -> np.ndarray:
    """For each cyclic order, the ell consecutive position pairs (as sorted slots)."""
    orders = cycle_vertex_orders(ell)
    slots = np.empty((len(orders), ell, 2), dtype=np.int64)
    for r, order in enumerate(orders):
        for e in range(ell):
            u, v = order[e], order[(e + 1) % ell]
            slots[r, e] = (min(u, v), max(u, v))
    return slots


def _subset_blocks(n: int, size: int, per_subset: int):
    """The size-subsets of range(n) in lexicographic order, as (B, size) index blocks.

    B keeps B * per_subset float64 values within _CHUNK_BYTES.
    """
    chunk = max(1, _CHUNK_BYTES // (8 * max(1, per_subset)))
    combos = combinations(range(n), size)
    while block := list(islice(combos, chunk)):
        flat = np.fromiter(chain.from_iterable(block), dtype=int, count=len(block) * size)
        yield flat.reshape(len(block), size)


def _cycle_trace_sum(a: np.ndarray, ell: int) -> float:
    """Signed 4- or 5-cycle count of a centered matrix from its traces."""
    a2 = a @ a
    s = np.diagonal(a2)
    sq = a * a
    if ell == 4:
        return float((a2 * a2).sum() - 2.0 * (s @ s) + (sq * sq).sum()) / 8.0
    a3 = a2 @ a
    return float(
        (a3 * a2).sum() - 5.0 * (np.diagonal(a3) @ s) + 5.0 * (sq * a * a2).sum()
    ) / 10.0


def _cycle_enumerated_sum(a: np.ndarray, ell: int) -> float:
    """Signed ell-cycle count by streaming over all C(n, ell) * (ell-1)!/2 cycles."""
    slots = _cycle_pair_slots(ell)
    total = 0.0
    for sub in _subset_blocks(a.shape[0], ell, slots.shape[0] * ell):
        vals = a[sub[:, slots[:, :, 0]], sub[:, slots[:, :, 1]]]
        total += float(vals.prod(axis=2).sum())
    return total


def signed_cycle_count(graph: Graph, p: float, ell: int) -> float:
    """Sum of the signed edge product over all distinct length-ell cycles.

    ell = 3 is the triangle count Tr(Abar^3)/6.  ell = 4 and 5 use the trace
    identities, with A2 = Abar @ Abar, A3 = A2 @ Abar and s_i = (A2)_ii:

        8 C4  = sum(A2 o A2) - 2 sum_i s_i^2 + sum(Abar o^4)
        10 C5 = sum(A3 o A2) - 5 sum_i (A3)_ii s_i + 5 sum(Abar o^3 o A2)

    (o the entrywise product).  These three work at any n.  ell = 6 and 7
    enumerate all C(n, ell) * (ell-1)!/2 cycles and refuse n > 64; longer
    cycles are refused.
    """
    ell = int(ell)
    if ell == 3:
        return signed_triangle_count(graph, p)
    if not 3 <= ell <= _ENUM_MAX_ELL:
        raise ValueError(f"cycle length must lie in [3, {_ENUM_MAX_ELL}], got {ell}")
    n = graph.n
    if n > _cycle_max_n(ell):
        raise ValueError(
            f"cycle enumeration (ell = {ell}) is limited to n <= {_ENUM_MAX_N}, got n = {n}"
        )
    if n < ell:
        return 0.0
    a = centered_adjacency(graph, p)
    if ell <= 5:
        return _cycle_trace_sum(a, ell)
    return _cycle_enumerated_sum(a, ell)


def _wedge_matrix(sub_signed: np.ndarray) -> np.ndarray:
    """W[a, b] = sum over c < a of M[c, a] * M[c, b] for positions a < b.

    Works on the last two axes, so a stack of subsets gives a stack of W.
    """
    upper = np.triu(sub_signed, 1)
    return np.triu(np.swapaxes(upper, -1, -2) @ sub_signed, 1)


def _subset_signed(graph: Graph, p: float, subset) -> tuple[np.ndarray, np.ndarray]:
    verts = np.asarray(sorted(int(v) for v in subset), dtype=int)
    if verts.size and (verts[0] < 0 or verts[-1] >= graph.n):
        raise ValueError("subset vertices must lie in [0, n)")
    if np.unique(verts).size != verts.size:
        raise ValueError("subset contains duplicate vertices")
    a = centered_adjacency(graph, p)
    return verts, a[np.ix_(verts, verts)]


def wedge_sums(graph: Graph, p: float, subset) -> dict[tuple[int, int], float]:
    """Signed wedge sums W_ij = sum over l in A, l < i of (G_li-p)(G_lj-p).

    The inner range l < i is intentionally asymmetric (an ordering-dependent
    quantity); see wedge_sums_symmetric for the order-free diagnostic variant.
    Keys are vertex pairs (i, j) with i < j, both in the subset.
    """
    verts, sub = _subset_signed(graph, p, subset)
    w = _wedge_matrix(sub)
    return {
        (int(verts[a]), int(verts[b])): float(w[a, b])
        for a in range(len(verts))
        for b in range(a + 1, len(verts))
    }


def wedge_sums_symmetric(graph: Graph, p: float, subset) -> dict[tuple[int, int], float]:
    """Symmetric wedge variant: the inner sum runs over all l in A, l not in {i, j}."""
    verts, sub = _subset_signed(graph, p, subset)
    out = {}
    size = len(verts)
    for a in range(size):
        for b in range(a + 1, size):
            col = sub[:, a] * sub[:, b]
            out[(int(verts[a]), int(verts[b]))] = float(col.sum() - col[a] - col[b])
    return out


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
    and B activate the wedge-sum constraints of the constrained scan.
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

    def check_exhaustive(self, n: int):
        if math.comb(n, self.k_minus) > self._EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"exhaustive scan over C({n}, {self.k_minus}) subsets exceeds "
                f"the {self._EXHAUSTIVE_LIMIT} limit"
            )


def _local_search(
    a: np.ndarray,
    n: int,
    k_minus: int,
    restarts: int,
    rng: np.random.Generator,
    constraint=None,
):
    """Best of `restarts` first-improvement swap hill-climbs over size-k_minus subsets.

    A sweep tries the swaps (member at pos -> outsider w) with pos in
    ascending order of the member's triangle contribution c[pos] and w
    ascending, and takes the first whose _triangle_sum beats the current one
    and whose block passes the constraint.  One matmul scores every swap of a
    sweep: with C = a[outside, S], Q = C @ a[S, S] and q_w = sum_j Q[w, j] C[w, j],

        gain[pos, w] = q_w / 2 - C[w, pos] Q[w, pos] - c[pos]

    (a_uu = 0, so this is -c[pos] + b^T A_{S-pos} b / 2 with b = C[w, S-pos]).
    Only swaps with gain > -tol get the exact test; the rest cannot pass it,
    so every accepted swap, value and constraint call is the one the exact
    test alone would give.  Returns (-inf, None) when no subset qualifies.
    """
    if k_minus > n:
        return -math.inf, None
    # both sums add at most k^3 products of entries bounded by m, so each is
    # off by about 1e-16 k^4 m^3: far below tol for any k_minus under 1e6
    tol = 1e-9 * k_minus**3 * float(np.abs(a).max(initial=0.0)) ** 3
    best_val, best_set = -math.inf, None
    for _ in range(restarts):
        current = np.sort(rng.permutation(n)[:k_minus])
        val = _triangle_sum(a[current[:, None], current])
        improved = True
        while improved:
            improved = False
            inside = a[current[:, None], current]
            # triangle contribution of each member
            contrib = np.einsum("ij,jk,ki->i", inside, inside, inside) / 2.0
            order = np.argsort(contrib)
            member = np.zeros(n, dtype=bool)
            member[current] = True
            outside = np.flatnonzero(~member)
            cross = a[outside[:, None], current]
            cq = cross * (cross @ inside)
            gain = 0.5 * cq.sum(axis=1) - cq.T - contrib[:, None]
            # remove the worst contributor first, outsiders in ascending order
            for flat in np.flatnonzero(gain[order] > -tol):
                row, col = divmod(int(flat), outside.size)
                trial = current.copy()
                trial[order[row]] = outside[col]
                trial.sort()
                sub = a[trial[:, None], trial]
                tval = _triangle_sum(sub)
                if tval > val and (constraint is None or constraint(sub)):
                    current, val = trial, tval
                    improved = True
                    break
        if constraint is not None:
            sub = a[current[:, None], current]
            if not constraint(sub):
                continue
        if val > best_val:
            best_val, best_set = val, current
    return best_val, best_set


def _scan_impl(
    graph: Graph,
    p: float,
    cfg: ScanConfig,
    oracle_subset,
    rng,
    constraint,
):
    n = graph.n
    if cfg.mode == "planted-oracle":
        if oracle_subset is None:
            raise ValueError("planted-oracle mode requires an oracle subset")
        verts, sub = _subset_signed(graph, p, oracle_subset)
        if verts.size != cfg.k_minus:
            raise ValueError(
                f"oracle subset has size {verts.size}, expected k_minus = {cfg.k_minus}"
            )
        if constraint is not None and not constraint(sub):
            return None, None
        return _triangle_sum(sub), verts
    a = centered_adjacency(graph, p)
    if cfg.mode == "local-search":
        if rng is None:
            rng = np.random.default_rng(0)
        val, subset = _local_search(a, n, cfg.k_minus, cfg.restarts, rng, constraint)
        if subset is None:
            return None, None
        return val, subset
    # exhaustive: score the subsets a block at a time, keep the first maximum
    cfg.check_exhaustive(n)
    best_val, best_set = -math.inf, None
    for idx in _subset_blocks(n, cfg.k_minus, cfg.k_minus**2):
        subs = a[idx[:, :, None], idx[:, None, :]]
        vals = _triangle_sum(subs)
        if constraint is not None:
            vals = np.where(constraint(subs), vals, -math.inf)
        best = int(np.argmax(vals))
        if vals[best] > best_val:
            best_val, best_set = float(vals[best]), idx[best].copy()
    if best_set is None:
        return None, None
    return best_val, best_set


def scan_statistic(
    graph: Graph,
    p: float,
    cfg: ScanConfig,
    oracle_subset=None,
    rng: np.random.Generator | None = None,
):
    """Maximum signed triangle count over size-k_minus subsets.

    exhaustive: exact maximum.  planted-oracle: the value on the supplied
    subset (the type-II surrogate).  local-search: best of `restarts` swap
    hill-climbs from random subsets, always <= the exact maximum.  Each
    sweep of a climb tries the swaps (member -> outsider) with the members in
    ascending order of their triangle contribution and the outsiders in
    ascending order, and takes the first that raises the exact sum; one
    matmul scores every swap of the sweep, and only the swaps whose score
    could beat the current sum are recomputed exactly.
    Returns (value, subset), or (None, None) when k_minus > n.
    """
    return _scan_impl(graph, p, cfg, oracle_subset, rng, constraint=None)


def constrained_scan_statistic(
    graph: Graph,
    p: float,
    cfg: ScanConfig,
    oracle_subset=None,
    rng: np.random.Generator | None = None,
):
    """Scan restricted to subsets with controlled signed wedge sums.

    A subset is feasible when sum of W_ij^2 <= sigma_sq and max |W_ij| <= B.
    Returns (None, None) when the feasible set is empty (or, in oracle mode,
    when the supplied subset is infeasible); the decision rule then reads
    'null'.
    """
    if cfg.sigma_sq is None or cfg.B is None:
        raise ValueError("constrained scan requires sigma_sq and B in the config")
    constraint = lambda sub: _feasible(sub, cfg.sigma_sq, cfg.B)  # noqa: E731
    return _scan_impl(graph, p, cfg, oracle_subset, rng, constraint=constraint)


def signed_embedding_product(graph: Graph, p: float, edges) -> float:
    """Product of (G_ij - p) over an explicit list of distinct vertex pairs."""
    seen = set()
    total = 1.0
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) is not a valid edge")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        total *= (1.0 if graph.has_edge(*key) else 0.0) - p
    return total
