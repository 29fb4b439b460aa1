"""Independently coded reference kernels the tests check the library against."""

from geodetect.stats import centered_adjacency


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
