import numpy as np
import pytest

from permutation import relabel
from stgormer.graph import (UNREACHABLE, GraphFormatError, SpatioTemporalGraph,
                            canonical_text, degrees, load_graph, save_graph,
                            shortest_path_matrix)


def random_directed(rng, max_nodes=20, edge_prob=0.3):
    n = int(rng.integers(1, max_nodes + 1))
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < edge_prob]
    return SpatioTemporalGraph.from_edge_list(n, pairs, directed=True)


def floyd_warshall_oracle(g):
    """Independent all-pairs oracle over the hop-count semiring."""
    n = g.num_nodes
    inf = float("inf")
    dist = [[0.0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        dist[u][v] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return np.array([[UNREACHABLE if dist[i][j] == inf else int(dist[i][j])
                      for j in range(n)] for i in range(n)], dtype=np.int64)


class TestDegrees:
    def test_undirected_triangle(self):
        g = SpatioTemporalGraph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)],
                                               directed=False)
        indeg, outdeg = degrees(g)
        assert indeg.tolist() == [2, 2, 2]
        assert outdeg.tolist() == [2, 2, 2]

    def test_directed_chain(self):
        g = SpatioTemporalGraph.from_edge_list(3, [(0, 1), (1, 2)])
        indeg, outdeg = degrees(g)
        assert indeg.tolist() == [0, 1, 1]
        assert outdeg.tolist() == [1, 1, 0]

    def test_matches_edge_scan_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_directed(rng)
            indeg, outdeg = degrees(g)
            for v in range(g.num_nodes):
                assert indeg[v] == sum(1 for (a, b) in g.edges if b == v)
                assert outdeg[v] == sum(1 for (a, b) in g.edges if a == v)

    def test_degree_sums_equal_edge_count(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_directed(rng)
            indeg, outdeg = degrees(g)
            assert indeg.sum() == outdeg.sum() == len(g.edges)

    def test_empty_graph(self):
        g = SpatioTemporalGraph.from_edge_list(4, [])
        indeg, outdeg = degrees(g)
        assert indeg.tolist() == [0, 0, 0, 0]
        assert outdeg.tolist() == [0, 0, 0, 0]


class TestShortestPaths:
    def test_path_graph(self):
        g = SpatioTemporalGraph.from_edge_list(3, [(0, 1), (1, 2)], directed=False)
        spd = shortest_path_matrix(g)
        assert spd[0, 2] == 2
        assert spd[0, 1] == 1
        assert np.all(np.diag(spd) == 0)

    def test_disconnected_pair(self):
        g = SpatioTemporalGraph.from_edge_list(2, [])
        spd = shortest_path_matrix(g)
        assert spd[0, 1] == UNREACHABLE
        assert spd[1, 0] == UNREACHABLE

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            g = random_directed(rng, edge_prob=0.2)
            spd = shortest_path_matrix(g)
            assert spd.dtype == np.int64
            assert np.array_equal(spd, floyd_warshall_oracle(g))
            n = g.num_nodes
            assert np.all(np.diag(spd) == 0)
            assert np.all((spd == UNREACHABLE) | ((spd >= 0) & (spd <= n - 1)))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_directed(rng, max_nodes=12)
            vals = shortest_path_matrix(g)
            n = g.num_nodes
            for i in range(n):
                for k in range(n):
                    for j in range(n):
                        if vals[i, k] >= 0 and vals[k, j] >= 0 and vals[i, j] >= 0:
                            assert vals[i, j] <= vals[i, k] + vals[k, j]

    def test_permutation_conjugates_spd(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = random_directed(rng, max_nodes=12)
            perm = rng.permutation(g.num_nodes)
            h = relabel(g, perm.tolist())
            spd_g = shortest_path_matrix(g)
            spd_h = shortest_path_matrix(h)
            for i in range(g.num_nodes):
                for j in range(g.num_nodes):
                    assert spd_h[perm[i], perm[j]] == spd_g[i, j]
            indeg_g, outdeg_g = degrees(g)
            indeg_h, outdeg_h = degrees(h)
            assert np.array_equal(indeg_h[perm], indeg_g)
            assert np.array_equal(outdeg_h[perm], outdeg_g)

    def test_added_edge_never_increases_distances(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = random_directed(rng, max_nodes=10, edge_prob=0.25)
            missing = [(u, v) for u in range(g.num_nodes)
                       for v in range(g.num_nodes)
                       if u != v and (u, v) not in set(g.edges)]
            if not missing:
                continue
            extra = missing[int(rng.integers(len(missing)))]
            g2 = SpatioTemporalGraph.from_edge_list(
                g.num_nodes, list(g.edges) + [extra])
            before = shortest_path_matrix(g)
            after = shortest_path_matrix(g2)
            both = (before != UNREACHABLE) & (after != UNREACHABLE)
            assert np.all(after[both] <= before[both])
            # reachability can only grow
            assert np.all((before == UNREACHABLE) | (after != UNREACHABLE))


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            SpatioTemporalGraph.from_edge_list(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpatioTemporalGraph(3, ((0, 1), (0, 1)), True)

    def test_undirected_reverse_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpatioTemporalGraph.from_edge_list(3, [(0, 1), (1, 0)], directed=False)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SpatioTemporalGraph.from_edge_list(3, [(0, 5)])


class TestGraphFiles:
    def test_parse_chain(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 directed\n0 1\n1 2\n")
        g = load_graph(p)
        assert g.num_nodes == 3 and g.directed
        assert g.edges == ((0, 1), (1, 2))

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# traffic net\n\n3 undirected\n# ring\n0 1\n\n1 2\n")
        g = load_graph(p)
        assert not g.directed
        assert g.undirected_edges() == [(0, 1), (1, 2)]

    def test_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 directed\n0 1\n0 5\n")
        with pytest.raises(GraphFormatError, match="line 3"):
            load_graph(p)

    def test_duplicate_names_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 directed\n0 1\n0 1\n")
        with pytest.raises(GraphFormatError, match="line 3"):
            load_graph(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 sideways\n0 1\n")
        with pytest.raises(GraphFormatError, match="header"):
            load_graph(p)

    def test_round_trip_is_canonical_identity(self, tmp_path):
        rng = np.random.default_rng(99)
        for i in range(20):
            directed = bool(i % 2)
            g = random_directed(rng) if directed else \
                SpatioTemporalGraph.from_edge_list(
                    int(rng.integers(2, 15)), [], directed=False)
            if not directed:
                n = g.num_nodes
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < 0.3]
                g = SpatioTemporalGraph.from_edge_list(n, pairs, directed=False)
            p = tmp_path / f"g{i}.txt"
            save_graph(g, p)
            text = p.read_text()
            assert text == canonical_text(g)
            g2 = load_graph(p)
            save_graph(g2, p)
            assert p.read_text() == text
            assert g2 == g

    def test_load_accepts_unsorted_and_canonicalizes(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("4 directed\n2 3\n0 1\n1 0\n")
        g = load_graph(p)
        assert canonical_text(g) == "4 directed\n0 1\n1 0\n2 3\n"
