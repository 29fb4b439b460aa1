"""Independently coded reference kernels the tests check the library against."""

import math
from fractions import Fraction
from itertools import chain, combinations, islice, permutations

import mpmath
import numpy as np
from scipy.special import betainc

from geodetect import __version__
from geodetect.detection import statistic_value
from geodetect.ensembles import (
    composite_planted_graph,
    sample_spherical_wishart,
    spectral_deviation,
)
from geodetect.graphs import (
    Arm,
    ModelParams,
    Seed,
    _gram_draws,
    _unit_gram_of,
    sample_planted,
    sample_planted_fixed_community,
)
from geodetect.lowdeg import enumerate_graphs_upto
from geodetect.sphere import (
    _check_dimension,
    _recurrence_coeffs,
    sample_uniform_sphere,
    solve_threshold,
)
from geodetect.stats import _triangle_sum, centered_adjacency, signed_triangle_count


def inner_product_tail_betainc(t: float, d: int) -> float:
    """P(<U1, U2> >= t) as the regularized incomplete beta I_{(1-t)/2}((d-1)/2, (d-1)/2).

    (X + 1)/2 ~ Beta((d-1)/2, (d-1)/2).  Forming (1 - t)/2 in double precision
    costs scipy's betainc about 2e-13 relative at d = 1e5 and 7.5e-12 at
    d = 1e9, so this reference is used only for d <= 1e4, where it is within
    6e-14 of inner_product_tail_mpmath.
    """
    if d > 10**4:
        raise ValueError(f"the incomplete-beta reference is trusted for d <= 1e4, got {d}")
    a = (d - 1) / 2.0
    return float(betainc(a, a, (1.0 - t) / 2.0))


def inner_product_tail_mpmath(t: float, d: int, dps: int = 50) -> float:
    """P(<U1, U2> >= t) as a dps-digit mpmath integral in the angle, for any d.

    With x = sin(phi) the tail is c_d times the integral of cos^(d-2)(phi) over
    [asin t, pi/2], c_d = Gamma(d/2) / (Gamma((d-1)/2) sqrt(pi)).  The float t
    is taken exactly.  Breakpoints at multiples of 1/sqrt(d-2) past the cap edge
    follow the bulk; beyond 48 of them the integrand is below e^-1000 of its
    value at the edge, since cos(phi0 + s) <= cos(phi0) cos(s).  For t < 0 the
    tail is 1 - tail(-t), formed before rounding.
    """
    with mpmath.workdps(dps):
        x = mpmath.mpf(t)
        c = mpmath.exp(mpmath.loggamma(mpmath.mpf(d) / 2) - mpmath.loggamma(mpmath.mpf(d - 1) / 2))
        c /= mpmath.sqrt(mpmath.pi)
        phi0 = mpmath.asin(abs(x))
        scale = 1 / mpmath.sqrt(d - 2)
        end = min(phi0 + 48 * scale, mpmath.pi / 2)
        points = [phi0 + k * scale for k in (0, 0.25, 0.5, 1, 2, 4, 8, 16, 32)]
        points = [q for q in points if q < end] + [end]
        tail = c * mpmath.quad(lambda phi: mpmath.cos(phi) ** (d - 2), points)
        return float(tail if x >= 0 else 1 - tail)


def gegenbauer_eval(m: int, d: int, x):
    """The orthonormal polynomial q_m of mu at x by the series' three-term recurrence.

    Seeds q_0 = 1 and q_1 = sqrt(d) x, then q_{m+1} = a_m x q_m - b_m q_{m-1}
    with the library's coefficients, which the basis integrates against mu.
    """
    m = int(m)
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    d = _check_dimension(d)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("x must lie in [-1, 1]")
    q_prev = np.ones_like(x)
    if m == 0:
        return q_prev if q_prev.ndim else float(q_prev)
    q_cur = math.sqrt(d) * x
    for mm in range(1, m):
        a, b = _recurrence_coeffs(mm, d)
        q_prev, q_cur = q_cur, a * x * q_cur - b * q_prev
    return q_cur if q_cur.ndim else float(q_cur)


def log_multiplicity_mpmath(m: int, d: int, dps: int = 40) -> float:
    """log N_m from the exact integer N_m = C(d+m-1, m) - C(d+m-3, m-2), by dps-digit mpmath."""
    exact = math.comb(d + m - 1, m) - (math.comb(d + m - 3, m - 2) if m >= 2 else 0)
    with mpmath.workdps(dps):
        return float(mpmath.log(exact))


def multiplicity(m: int, d: int) -> float:
    """N_m, the number of degree-m spherical harmonics on S^{d-1}, from the exact integer.

    N_m = C(d+m-1, m) - C(d+m-3, m-2).  Raises OverflowError when N_m does not
    fit a double, rather than returning inf.
    """
    if m < 0 or d < 3:
        raise ValueError(f"need m >= 0 and d >= 3, got m={m}, d={d}")
    exact = math.comb(d + m - 1, m) - (math.comb(d + m - 3, m - 2) if m >= 2 else 0)
    return float(exact)  # int -> float raises OverflowError past the double range


def signed_embedding_product(graph, p: float, edges) -> float:
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


def wedge_sums_symmetric(graph, p: float, subset) -> dict:
    """Symmetric wedge sums W_ij = sum over l in the subset, l not in {i, j}, of (G_li-p)(G_lj-p).

    Keys are the pairs (i, j), i < j, of the subset.
    """
    a = centered_adjacency(graph, p)
    verts = sorted(int(v) for v in subset)
    return {
        (i, j): float(sum(a[l, i] * a[l, j] for l in verts if l not in (i, j)))
        for i, j in combinations(verts, 2)
    }


def signed_triangle_count_direct(graph, p: float) -> float:
    """Sum over i < j < l of (G_ij-p)(G_jl-p)(G_il-p), explicit pair loop."""
    a = centered_adjacency(graph, p)
    n = graph.n
    total = 0.0
    for i in range(n - 2):
        row_i = a[i]
        for j in range(i + 1, n - 1):
            total += row_i[j] * float(row_i[j + 1 :] @ a[j, j + 1 :])
    return total


def signed_triangle_count_exact(graph, p: float) -> float:
    """The signed triangle count from Python-int counts and Fraction(p), rounded once.

    Sum over i < j < l of (G_ij-p)(G_jl-p)(G_il-p) = T - p W + p^2 (n-2) E - p^3 C(n, 3),
    with T the triangles (each edge's common neighbours, each triangle met on its
    three edges), W = sum_i C(deg_i, 2) the wedges and E the edges, all read off
    the edge list.  float() of the exact Fraction is the nearest float.
    """
    n = graph.n
    rows, cols = np.triu_indices(n, k=1)
    edges = [(int(i), int(j)) for i, j in zip(rows[graph.edges], cols[graph.edges])]
    nbrs = [set() for _ in range(n)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    t = sum(len(nbrs[i] & nbrs[j]) for i, j in edges) // 3
    w = sum(math.comb(len(s), 2) for s in nbrs)
    q = Fraction(p)
    return float(t - q * w + q**2 * (n - 2) * len(edges) - q**3 * math.comb(n, 3))


def symmetric_matrix_fancy(values, n: int, dtype=float) -> np.ndarray:
    """graphs.symmetric_matrix by fancy indexing: the pair values written to (i, j) and to (j, i)."""
    a = np.zeros((n, n), dtype=dtype)
    rows, cols = np.triu_indices(n, k=1)
    a[rows, cols] = values
    a[cols, rows] = values
    return a


def symmetric_matrix_added(values, n: int, dtype=float) -> np.ndarray:
    """graphs.symmetric_matrix by addition: the pair values filled into the
    upper triangle of zeros, then the transpose added, for a stack too."""
    a = np.zeros((*np.shape(values)[:-1], n, n), dtype=dtype)
    a[np.broadcast_to(np.triu(np.ones((n, n), dtype=bool), 1), a.shape)] = np.ravel(values)
    a += a.swapaxes(-1, -2)  # the lower triangle is 0, so this mirrors the upper one
    return a


def cycle_vertex_orders(ell: int) -> list[tuple[int, ...]]:
    """Distinct cyclic orders of ell labeled vertices, each unordered cycle once.

    Fixing position 0 and requiring the second entry to be smaller than the
    last kills the 2*ell symmetries, leaving (ell-1)!/2 orders.
    """
    return [(0,) + perm for perm in permutations(range(1, ell)) if perm[0] < perm[-1]]


def signed_cycle_count_enumerated(graph, p: float, ell: int) -> float:
    """Sum of the signed edge product over all C(n, ell) * (ell-1)!/2 cycles.

    Streams the vertex subsets in blocks and gathers every cyclic order of
    each one.
    """
    a = centered_adjacency(graph, p)
    orders = np.asarray(cycle_vertex_orders(ell))
    successors = np.roll(orders, -1, axis=1)
    chunk = max(1, 2_000_000 // orders.size)
    combos = combinations(range(graph.n), ell)
    total = 0.0
    while True:
        block = np.fromiter(
            (v for combo in islice(combos, chunk) for v in combo), dtype=np.int64
        )
        if block.size == 0:
            return total
        sub = block.reshape(-1, ell)
        total += float(a[sub[:, orders], sub[:, successors]].prod(axis=2).sum())


def signed_cycle_count_traces(graph, p: float, ell: int) -> float:
    """Signed 4- or 5-cycle count from the trace identities of Alon, Yuster and Zwick.

    Re-derived for the weighted matrix Abar, with A2 = Abar @ Abar, A3 = A2 @ Abar,
    s_i = (A2)_ii, o the entrywise product and o^k the entrywise power:

        8 C4  = sum(A2 o A2) - 2 sum_i s_i^2 + sum(Abar o^4)
        10 C5 = sum(A3 o A2) - 5 sum_i (A3)_ii s_i + 5 sum(Abar o^3 o A2)

    The first term of each is Tr(Abar^4) or Tr(Abar^5); the others remove the
    closed walks that revisit a vertex.
    """
    a = centered_adjacency(graph, p)
    a2 = a @ a
    s = np.diagonal(a2)
    sq = a * a
    if ell == 4:
        return float((a2 * a2).sum() - 2.0 * (s @ s) + (sq * sq).sum()) / 8.0
    if ell != 5:
        raise ValueError(f"the trace identities cover ell = 4 and 5, got {ell}")
    a3 = a2 @ a
    return float(
        (a3 * a2).sum() - 5.0 * (np.diagonal(a3) @ s) + 5.0 * (sq * a * a2).sum()
    ) / 10.0


def exhaustive_scan_blocks(a, k_minus, constraint=None):
    """Exhaustive scan that gathers each subset's k x k block and takes Tr(A^3)/6 of it.

    Walks the size-k_minus subsets of range(len(a)) in lexicographic order,
    2^15 at a time, and keeps the first maximum among the subsets whose block
    passes the constraint.  Returns (None, None) when none does.
    """
    best_val, best_set = -math.inf, None
    combos = combinations(range(len(a)), k_minus)
    while block := list(islice(combos, 2**15)):
        flat = np.fromiter(chain.from_iterable(block), dtype=int, count=len(block) * k_minus)
        idx = flat.reshape(len(block), k_minus)
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


def unit_gram_latent(s: int, d: int, rng, shape=()):
    """The library's latent Gram route at any d: s uniform unit vectors, then their Gram.

    For d < s it makes the same draws as graphs._unit_gram_of(graphs._gram_draws(...)),
    in the same order.
    """
    u = sample_uniform_sphere(d, rng, size=(*tuple(shape), s))
    return u @ u.swapaxes(-1, -2), u


def local_search_swap_loop(a, n, k_minus, restarts, rng, constraint=None):
    """Swap hill-climb that runs the exact test on every candidate swap in turn.

    Same contract as stats._local_search: for each restart, a sweep walks the
    members in ascending order of their triangle contribution and, for each,
    the outsiders in ascending order, and takes the first swap whose
    _triangle_sum beats the current one and whose block passes the constraint.
    """
    best_val, best_set = -math.inf, None
    for _ in range(max(1, restarts)):
        current = np.sort(rng.permutation(n)[:k_minus])
        val = _triangle_sum(a[np.ix_(current, current)])
        improved = True
        while improved:
            improved = False
            inside = a[np.ix_(current, current)]
            contrib = np.einsum("ij,jk,ki->i", inside, inside, inside) / 2.0
            order = np.argsort(contrib)
            outside = np.setdiff1d(np.arange(n), current, assume_unique=False)
            for pos in order:
                for cand in outside:
                    trial = current.copy()
                    trial[pos] = cand
                    trial.sort()
                    sub = a[np.ix_(trial, trial)]
                    tval = _triangle_sum(sub)
                    if tval > val and (constraint is None or constraint(sub)):
                        current, val = trial, tval
                        improved = True
                        break
                if improved:
                    break
        if constraint is not None:
            sub = a[np.ix_(current, current)]
            if not constraint(sub):
                continue
        if val > best_val:
            best_val, best_set = val, current
    return best_val, best_set


def canonical_code_by_permutation(v: int, edge_set: frozenset) -> int:
    """Minimal edge bitmask over all vertex permutations, one permutation at a time."""
    slots = list(combinations(range(v), 2))
    best = None
    for perm in permutations(range(v)):
        mask = 0
        for b, (i, j) in enumerate(slots):
            pi, pj = perm[i], perm[j]
            if (min(pi, pj), max(pi, pj)) in edge_set:
                mask |= 1 << b
        if best is None or mask < best:
            best = mask
    return best


def automorphisms_by_permutation(v: int, edge_set: frozenset) -> int:
    """Number of vertex permutations that map the edge set onto itself."""
    return sum(
        all((min(perm[i], perm[j]), max(perm[i], perm[j])) in edge_set for i, j in edge_set)
        for perm in permutations(range(v))
    )


def edge_indicators_with_membership(v: int, pairs, params, rng, batch: int) -> np.ndarray:
    """Planted-marginal edge indicators on the first v vertices, every coin simulated.

    Draws Bernoulli(k/n) membership bits and a v x v Gram block; a pair of
    members is adjacent iff its inner product reaches tau, any other pair
    flips its own p-coin.  Unlike lowdeg._pattern_codes, no factor is left
    to apply: the plain mean of the normalized signed edge product estimates
    the planted Fourier coefficient.
    """
    tau = solve_threshold(params.p, params.d).tau
    member = rng.random((batch, v)) < params.k / params.n
    gram, _ = _unit_gram_of(_gram_draws(v, params.d, rng, (batch,)))
    out = np.empty((batch, len(pairs)))
    for col, (i, j) in enumerate(pairs):
        both = member[:, i] & member[:, j]
        coin = rng.random(batch) < params.p
        out[:, col] = np.where(both, gram[:, i, j] >= tau, coin)
    return out


def edge_indicators_dense(v: int, pairs, params, rng, batch: int) -> np.ndarray:
    """The bits of lowdeg._pattern_codes at the given pairs through the dense
    Gram: the batch's v x v blocks, then one gather, shape (batch, len(pairs)).

    Makes the same draws in the same order as the library on both routes.
    """
    tau = solve_threshold(params.p, params.d).tau
    gram, _ = _unit_gram_of(_gram_draws(v, params.d, rng, (batch,)))
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return gram[:, rows, cols] >= tau


def advantage_by_sample_products(params, v_max: int, degree_cap: int, trials: int, seed, chunk: int):
    """lowdeg.low_degree_advantage from the per-sample signed products of every graph.

    Every sample gathers all C(v_max, 2) edge indicators from the dense Gram,
    from the library's chunk streams; each graph's product is formed over its
    own columns, and the covariance of the means is the products' sample
    covariance over trials.  Returns (value, error, phi): the bias-corrected
    sum, its delta-method error sqrt(4 g' S g + 2 sum c c' S^2) with g = c phi,
    and the coefficient of each estimated graph in enumeration order.
    """
    slots = list(combinations(range(v_max), 2))
    column = {slot: b for b, slot in enumerate(slots)}
    bits = np.concatenate([
        edge_indicators_dense(
            v_max, slots, params, seed.stream(c, arm=Arm.FOURIER), min(chunk, trials - start)
        )
        for c, start in enumerate(range(0, trials, chunk))
    ])
    p = params.p
    graphs = [
        g for g in enumerate_graphs_upto(v_max)
        if 1 <= g.e <= degree_cap and not g.has_tree_component
    ]
    products = np.stack([
        (params.k / params.n) ** g.v
        * (bits[:, [column[edge] for edge in g.edges]] - p).prod(axis=1)
        / (p * (1 - p)) ** (g.e / 2)
        for g in graphs
    ], axis=1)
    phi = products.mean(axis=0)
    sigma = np.cov(products, rowvar=False, bias=True).reshape(len(graphs), len(graphs)) / trials
    count = np.array([float(g.embedding_count(params.n)) for g in graphs])
    value = float(np.sum(count * (phi**2 - np.diag(sigma))))
    g = count * phi
    error = math.sqrt(4 * g @ sigma @ g + 2 * count @ sigma**2 @ count)
    return value, error, phi


def planted_trial_full_draw(spec, seed, trial: int):
    """detection._planted_values of one trial, drawing the whole planted
    graph before it checks the community size: None when the size is outside
    [k_minus, k_plus], else the statistic of the planted draw."""
    sample = sample_planted(spec.params, seed.stream(trial, arm=Arm.PLANTED))
    members = sample.members
    if not spec.params.k_minus <= members.size <= spec.params.k_plus:
        return None
    oracle = None if spec.scan is None else members[: spec.scan.k_minus]
    return statistic_value(spec, sample.graph, oracle)


def wishart_report_per_trial(k, d, trials, seed, n=None, community_size=None, p=0.5) -> dict:
    """The `wishart` report, one trial and one per-draw call at a time.

    The arguments are the [wishart] keys and the master seed; the result is the
    report dict the command writes.  Every draw is a public per-draw function
    on its own stream, and the route sums are added trial by trial.
    """
    seed = Seed(seed)
    deviations = [
        spectral_deviation(sample_spherical_wishart(k, d, seed.stream(t, arm=Arm.WISHART)))
        for t in range(trials)
    ]
    ref = math.sqrt(k / d)
    spectral = {
        "k": k, "d": d, "draws": trials,
        "mean_deviation": float(np.mean(deviations)),
        "q99": float(np.quantile(deviations, 0.99)),
        "sqrt_k_over_d": ref,
        "within_10x_fraction": float(np.mean(np.asarray(deviations) <= 10 * ref)),
    }
    k1 = spectral_deviation(sample_spherical_wishart(1, d, seed.stream(0, arm=Arm.WISHART_K1)))

    route = None
    if n is not None:
        size = n // 2 if community_size is None else community_size
        params = ModelParams(n=n, p=p, d=d, k=max(size, 1))
        community = np.arange(size)
        comp_edges, comp_tri, dir_edges, dir_tri = 0.0, 0.0, 0.0, 0.0
        m = n * (n - 1) // 2
        for t in range(trials):
            g1 = composite_planted_graph(community, params, seed.stream(t, arm=Arm.COMPOSITE))
            comp_edges += g1.edge_count / m
            comp_tri += signed_triangle_count(g1, params.p)
            rng = seed.stream(t, arm=Arm.FIXED_COMMUNITY)
            s2 = sample_planted_fixed_community(community, params, rng)
            dir_edges += s2.graph.edge_count / m
            dir_tri += signed_triangle_count(s2.graph, params.p)
        route = {
            "n": n, "community_size": size, "p": params.p, "d": d, "trials": trials,
            "edge_marginal": {"composite": comp_edges / trials, "direct": dir_edges / trials},
            "f_tri_mean": {"composite": comp_tri / trials, "direct": dir_tri / trials},
        }
    return {
        "version": __version__, "seed": seed.master,
        "spectral": spectral, "k1_deviation": k1, "route_check": route,
    }
