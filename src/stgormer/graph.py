"""Traffic graph representation: degree counts and all-pairs shortest hop distances.

Edges are unweighted hops. Undirected graphs are stored as symmetric directed
arc sets so degree counting and BFS have a single code path.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .kv import read_lines

UNREACHABLE = -1


class GraphFormatError(ValueError):
    """Edge-list file violates the documented format."""


@dataclass(frozen=True)
class SpatioTemporalGraph:
    """Fixed sensor/region graph underlying a traffic series.

    ``edges`` holds directed arcs in sorted order.  For ``directed=False``
    the arc set is the symmetric closure of the undirected edge set.
    Prefer :meth:`from_edge_list` over the raw constructor.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = True

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        seen: set[tuple[int, int]] = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop {u}->{v} not allowed")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(
                    f"edge {u}->{v} out of range for {self.num_nodes} nodes"
                )
            if (u, v) in seen:
                raise ValueError(f"duplicate edge {u}->{v}")
            seen.add((u, v))
        if not self.directed:
            for u, v in self.edges:
                if (v, u) not in seen:
                    raise ValueError(f"undirected arc set missing reverse of {u}->{v}")

    @classmethod
    def from_edge_list(
        cls,
        num_nodes: int,
        pairs: Iterable[tuple[int, int]],
        directed: bool = True,
    ) -> "SpatioTemporalGraph":
        """Build a graph from raw (u, v) pairs, canonicalizing arc order.

        Undirected input pairs may arrive in either orientation; a pair and
        its reverse count as the same edge (duplicates rejected).
        """
        if directed:
            edges = sorted((int(u), int(v)) for u, v in pairs)
            return cls(num_nodes, tuple(edges), True)
        half: set[tuple[int, int]] = set()
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop {u}->{v} not allowed")
            key = (min(u, v), max(u, v))
            if key in half:
                raise ValueError(f"duplicate edge {key[0]}->{key[1]}")
            half.add(key)
        closure = half | {(v, u) for (u, v) in half}
        return cls(num_nodes, tuple(sorted(closure)), False)

    def adjacency(self) -> list[list[int]]:
        """Successor lists indexed by source node."""
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            adj[u].append(v)
        return adj

    def undirected_edges(self) -> list[tuple[int, int]]:
        """One representative (u < v) per undirected edge; only valid when not directed."""
        if self.directed:
            raise ValueError("undirected_edges requires directed=False")
        return [(u, v) for u, v in self.edges if u < v]


def degrees(g: SpatioTemporalGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-node indegree and outdegree over the stored arc set.

    For undirected graphs the two vectors coincide with the plain degree.
    """
    indeg = np.zeros(g.num_nodes, dtype=np.int64)
    outdeg = np.zeros(g.num_nodes, dtype=np.int64)
    for u, v in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    return indeg, outdeg


def shortest_path_matrix(g: SpatioTemporalGraph) -> np.ndarray:
    """All-pairs shortest hop distances (N x N, int64) by per-source BFS; -1
    when unreachable."""
    n = g.num_nodes
    adj = g.adjacency()
    values = np.full((n, n), UNREACHABLE, dtype=np.int64)
    for src in range(n):
        row = values[src]
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = row[u]
            for v in adj[u]:
                if row[v] == UNREACHABLE:
                    row[v] = du + 1
                    queue.append(v)
    return values


def canonical_text(g: SpatioTemporalGraph) -> str:
    """Canonical edge-list serialization: header, then lexicographically sorted edges."""
    kind = "directed" if g.directed else "undirected"
    lines = [f"{g.num_nodes} {kind}"]
    pairs = list(g.edges) if g.directed else g.undirected_edges()
    lines.extend(f"{u} {v}" for u, v in sorted(pairs))
    return "\n".join(lines) + "\n"


def save_graph(g: SpatioTemporalGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text(g))


def load_graph(path) -> SpatioTemporalGraph:
    """Parse an edge-list file, reporting the offending line on malformed input."""
    lines = read_lines(path, GraphFormatError)
    header_idx = None
    num_nodes = 0
    directed = True
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header_idx is None:
            parts = line.split(" ")
            if len(parts) != 2 or parts[1] not in ("directed", "undirected"):
                raise GraphFormatError(
                    f"line {lineno}: malformed header {line!r}, "
                    "expected '<N> <directed|undirected>'"
                )
            try:
                num_nodes = int(parts[0])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: node count {parts[0]!r} is not an integer"
                ) from None
            if num_nodes <= 0:
                raise GraphFormatError(f"line {lineno}: node count must be positive")
            directed = parts[1] == "directed"
            header_idx = lineno
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected '<u> <v>', got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: non-integer node index in {line!r}"
            ) from None
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise GraphFormatError(
                f"line {lineno}: node index out of range for {num_nodes} nodes"
            )
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop {u} {v} not allowed")
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        pairs.append((u, v))

    if header_idx is None:
        raise GraphFormatError("line 1: missing header '<N> <directed|undirected>'")
    return SpatioTemporalGraph.from_edge_list(num_nodes, pairs, directed=directed)
