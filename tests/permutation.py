"""Node relabeling for the permutation-equivariance tests: the package itself
never renumbers a graph's nodes."""
from typing import Sequence

from stgormer.graph import SpatioTemporalGraph


def relabel(g: SpatioTemporalGraph, perm: Sequence[int]) -> SpatioTemporalGraph:
    """Apply a node permutation: old node i becomes perm[i]."""
    if sorted(perm) != list(range(g.num_nodes)):
        raise ValueError("perm must be a permutation of node indices")
    pairs = [(perm[u], perm[v]) for u, v in g.edges]
    if g.directed:
        return SpatioTemporalGraph.from_edge_list(g.num_nodes, pairs, directed=True)
    # symmetric closure survives relabeling; keep one orientation per edge
    uniq = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    return SpatioTemporalGraph.from_edge_list(g.num_nodes, uniq, directed=False)
