"""Independently coded reference kernels the tests check the library against."""

from itertools import combinations, islice

import numpy as np

from geodetect.stats import centered_adjacency, cycle_vertex_orders


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


def signed_cycle_count_enumerated(graph, p: float, ell: int) -> float:
    """Sum of the signed edge product over all C(n, ell) * (ell-1)!/2 cycles.

    Streams the vertex subsets in blocks and gathers every cyclic order of
    each one, so it also runs at n > 64 for short cycles.
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
