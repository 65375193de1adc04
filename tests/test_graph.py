"""Graph construction, Laplacian products, and spectral bounds."""

import math
import re
import time

import numpy as np
import pytest

from dfalopt import (
    Graph,
    GraphError,
    build_topology,
    consensus_violation,
    laplacian_apply,
    laplacian_dense,
    laplacian_quadratic,
    load_edge_file,
    spectral_bounds,
)
from conftest import bits, pin_graphs, pin_stacks, random_connected_graph


class TestBuildTopology:
    def test_star_two_nodes(self):
        g = build_topology("star", 2)
        assert g.edges == ((1, 2),)
        assert tuple(g.degrees) == (1, 1)

    def test_clique_four(self):
        g = build_topology("clique", 4)
        assert len(g.edges) == 6
        assert all(d == 3 for d in g.degrees)

    def test_star_five_degrees(self):
        g = build_topology("star", 5)
        assert tuple(g.degrees) == (4, 1, 1, 1, 1)

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            build_topology("torus", 4)


class TestGraphInvariants:
    def test_degree_sum_is_twice_edges(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            assert int(g.degrees.sum()) == 2 * len(g.edges)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, ((1, 1), (1, 2), (2, 3)))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(3, ((1, 2), (1, 2), (2, 3)))

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="unreachable"):
            Graph(4, ((1, 2), (3, 4)))
        # N - 1 edges or more, so the search, not the edge count, finds node 4
        with pytest.raises(GraphError, match=r"unreachable nodes \[4\]"):
            Graph(4, ((1, 2), (1, 3), (2, 3)))

    def test_wrong_order_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, ((2, 1), (2, 3)))

    @pytest.mark.parametrize("edges", [((1.5, 2), (2, 3)), ((True, 2), (2, 3))])
    def test_node_ids_must_be_integers(self, edges):
        # 1.5 once built edge (1, 2), and True passed as node 1
        edge = re.escape(str(edges[0]))
        message = rf"a node id of edge {edge} must be an integer, got {edges[0][0]}"
        with pytest.raises(GraphError, match=message):
            Graph(3, edges)

    @pytest.mark.parametrize("num_nodes", [3.0, "3"])
    def test_node_count_must_be_an_integer(self, num_nodes):
        # 3.0 once ended in a TypeError from np.bincount
        with pytest.raises(GraphError, match=f"node count must be an integer, got {num_nodes!r}"):
            Graph(num_nodes, ((1, 2), (2, 3)))

    @pytest.mark.parametrize("edge", [(1, 2, 3), (1,), [1, 2], 2])
    def test_edges_must_be_pairs(self, edge):
        # (1, 2, 3) once ended in "too many values to unpack"
        with pytest.raises(GraphError, match=rf"edge {re.escape(repr(edge))} is not a pair"):
            Graph(3, (edge, (2, 3)))

    def test_numpy_integer_node_ids_accepted(self):
        g = Graph(3, ((np.int64(1), np.int32(2)), (2, 3)))
        assert g.degrees.tolist() == [1, 2, 1]


class TestLaplacianApply:
    def test_two_node_path(self):
        g = Graph(2, ((1, 2),))
        out = laplacian_apply(g, np.array([[1.0], [0.0]]))
        assert np.allclose(out, [[1.0], [-1.0]])

    def test_consensus_null_space(self, rng):
        g = random_connected_graph(rng, 6)
        x = np.tile(rng.standard_normal(3), (6, 1))
        assert np.allclose(laplacian_apply(g, x), 0.0, atol=1e-14)

    def test_star_three(self):
        g = build_topology("star", 3)
        out = laplacian_apply(g, np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(out, [[-3.0], [1.0], [2.0]])

    def test_block_count_mismatch(self):
        g = Graph(2, ((1, 2),))
        with pytest.raises(ValueError):
            laplacian_apply(g, np.zeros((3, 2)))

    def test_bit_for_bit_the_integer_degree_form(self, rng):
        # laplacian_apply reads the float column; the form it replaced converted
        # the integer degrees on every call
        for g in pin_graphs():
            for x in pin_stacks(rng, g.num_nodes, 5):
                old = g.degrees[:, None] * x
                old -= g.neighbor_sum(x)
                assert bits(laplacian_apply(g, x)) == bits(old)

    def test_matches_dense_kronecker(self, rng):
        for _ in range(100):
            N = int(rng.integers(2, 9))
            n = int(rng.integers(1, 4))
            g = random_connected_graph(rng, N)
            x = rng.standard_normal((N, n))
            dense = np.kron(laplacian_dense(g), np.eye(n))
            expect = (dense @ x.ravel()).reshape(N, n)
            assert np.allclose(laplacian_apply(g, x), expect, atol=1e-12)


class TestLaplacianQuadratic:
    def test_consensus_zero(self, rng):
        g = random_connected_graph(rng, 5)
        x = np.tile(rng.standard_normal(2), (5, 1))
        assert laplacian_quadratic(g, x) == pytest.approx(0.0, abs=1e-14)

    def test_two_node_path(self):
        g = Graph(2, ((1, 2),))
        assert laplacian_quadratic(g, np.array([[1.0], [0.0]])) == pytest.approx(1.0)

    def test_clique_three(self):
        g = build_topology("clique", 3)
        x = np.array([[1.0], [2.0], [4.0]])
        assert laplacian_quadratic(g, x) == pytest.approx(14.0)

    def test_equals_inner_product_with_apply(self, rng):
        for _ in range(50):
            N = int(rng.integers(2, 9))
            g = random_connected_graph(rng, N)
            x = rng.standard_normal((N, 3))
            quad = laplacian_quadratic(g, x)
            inner = float(np.sum(x * laplacian_apply(g, x)))
            assert quad == pytest.approx(inner, abs=1e-12)


class TestSpectralBounds:
    def test_two_node_path(self):
        assert spectral_bounds(Graph(2, ((1, 2),)))[0] == pytest.approx(2.0)

    def test_clique_five(self):
        psi_max, _ = spectral_bounds(build_topology("clique", 5))
        assert psi_max == pytest.approx(5.0, abs=1e-9)

    def test_star_five(self):
        psi_max, psi_second = spectral_bounds(build_topology("star", 5))
        assert psi_max == pytest.approx(5.0, abs=1e-9)
        assert psi_second == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_eigensolve(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            psi_max, psi_second = spectral_bounds(g)
            eigs = np.linalg.eigvalsh(laplacian_dense(g))
            assert psi_max == pytest.approx(eigs[-1], abs=1e-9)
            assert psi_second == pytest.approx(eigs[1], abs=1e-9)
            assert psi_second > 0

    def test_psi_max_exceeds_max_degree(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            assert spectral_bounds(g)[0] >= g.degrees.max() + 1 - 1e-9

    def test_path_past_the_old_dense_cutoff(self):
        # Laplacian eigenvalues of a path on N nodes: 2 - 2 cos(pi k / N)
        N = 600
        psi_max, psi_second = spectral_bounds(path_graph(N))
        assert psi_max == pytest.approx(2 - 2 * np.cos(np.pi * (N - 1) / N), abs=1e-9)
        assert psi_second == pytest.approx(2 - 2 * np.cos(np.pi / N), abs=1e-9)

    def test_large_graph_gets_the_edge_degree_bound(self):
        started = time.monotonic()
        psi_max, psi_second = spectral_bounds(path_graph(3000))
        assert time.monotonic() - started < 5.0
        assert psi_max == 4.0
        assert np.isnan(psi_second)


def path_graph(num_nodes):
    return Graph(num_nodes, tuple((i, i + 1) for i in range(1, num_nodes)))


class TestDegrees:
    def test_degrees_are_computed_once_and_read_only(self):
        g = build_topology("star", 5)
        assert g.degrees is g.degrees
        assert not g.degrees.flags.writeable
        with pytest.raises(ValueError):
            g.degrees[0] = 0

    def test_float_degree_columns_are_built_once_and_read_only(self):
        for g in pin_graphs():
            assert bits(g.degree_col) == bits(g.degrees[:, None].astype(float))
            assert bits(g.degree_col1) == bits(g.degrees[:, None] + 1.0)
            assert g.degree_col is g.degree_col and g.degree_col1 is g.degree_col1
            for col in (g.degree_col, g.degree_col1):
                with pytest.raises(ValueError):
                    col[0, 0] = 0.0

    def test_graphs_still_compare_by_edges(self):
        assert build_topology("star", 4) == build_topology("star", 4)
        assert build_topology("star", 4) != build_topology("clique", 4)


def edge_loop_oracle(g, x):
    """Laplacian apply, quadratic form, disagreement and dense Laplacian,
    each accumulated edge by edge."""
    apply = g.degrees[:, None] * x
    quad, cv = 0.0, 0.0
    dense = np.diag(g.degrees.astype(float))
    for i, j in g.edges:
        d = x[i - 1] - x[j - 1]
        apply[i - 1] -= x[j - 1]
        apply[j - 1] -= x[i - 1]
        quad += float(d @ d)
        cv = max(cv, float(np.linalg.norm(d)))
        dense[i - 1, j - 1] = dense[j - 1, i - 1] = -1.0
    return apply, quad, cv, dense


class TestNeighbourArrays:
    @staticmethod
    def _graphs(rng):
        for k in range(50):
            g = random_connected_graph(rng, int(rng.integers(2, 12)) if k else 8)
            if k == 0:
                # an edge file may list its edges in any order
                shuffled = tuple(g.edges[t] for t in rng.permutation(len(g.edges)))
                g = Graph(g.num_nodes, shuffled)
                assert g.edges != tuple(sorted(g.edges))
            yield g

    def test_array_products_match_the_edge_loop_and_dense(self, rng):
        for g in self._graphs(rng):
            N, n = g.num_nodes, int(rng.integers(1, 5))
            x = rng.standard_normal((N, n))
            apply, quad, cv, dense = edge_loop_oracle(g, x)
            np.testing.assert_array_equal(laplacian_dense(g), dense)
            by_dense = (np.kron(dense, np.eye(n)) @ x.ravel()).reshape(N, n)
            for expect in (apply, by_dense):
                np.testing.assert_allclose(
                    laplacian_apply(g, x), expect, rtol=0, atol=1e-12
                )
            for expect in (quad, x.ravel() @ by_dense.ravel()):
                assert abs(laplacian_quadratic(g, x) - expect) <= 1e-12
            assert abs(consensus_violation(g, x) - cv / np.sqrt(n)) <= 1e-12

    def test_csr_rows_are_the_sorted_neighbours(self, rng):
        for g in self._graphs(rng):
            adjacency = {i: set() for i in range(1, g.num_nodes + 1)}
            for i, j in g.edges:
                adjacency[i].add(j)
                adjacency[j].add(i)
            assert g.nbr_ptr.tolist() == [0, *np.cumsum(g.degrees).tolist()]
            for i in range(1, g.num_nodes + 1):
                row = g.nbr_idx[g.nbr_ptr[i - 1]:g.nbr_ptr[i]]
                assert row.tolist() == sorted(j - 1 for j in adjacency[i])
                assert g.degrees[i - 1] == len(adjacency[i])
            assert g.edge_idx.tolist() == [[i - 1, j - 1] for i, j in g.edges]

    def test_arrays_are_read_only(self):
        g = build_topology("star", 4)
        for arr in (g.nbr_ptr, g.nbr_idx, g.edge_idx):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1


class TestEdgeFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n3\n1 2  # inline\n2 3\n")
        g = load_edge_file(str(path))
        assert g.num_nodes == 3
        assert g.edges == ((1, 2), (2, 3))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2 3\n")
        with pytest.raises(GraphError, match="malformed"):
            load_edge_file(str(path))
        path.write_text("# a comment\n\n  # and another\n")
        with pytest.raises(GraphError, match=r"bad\.txt: empty edge file"):
            load_edge_file(str(path))
        path.write_text("four\n1 2\n")
        with pytest.raises(GraphError, match=r"bad\.txt: first line must be the node count"):
            load_edge_file(str(path))

    def test_non_integer_token_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2\n2 x\n")
        with pytest.raises(GraphError, match=r"bad\.txt: malformed edge line '2 x'"):
            load_edge_file(str(path))

    def test_disconnected_file(self, tmp_path):
        path = tmp_path / "disc.txt"
        path.write_text("4\n1 2\n3 4\n")
        with pytest.raises(GraphError, match="unreachable"):
            load_edge_file(str(path))

    def test_build_topology_from_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2\n1 2\n")
        g = build_topology("edge-file", 0, path=str(path))
        assert g.edges == ((1, 2),)

    @pytest.mark.parametrize("kind", ["star", "clique"])
    def test_file_with_a_named_kind_rejected(self, tmp_path, kind):
        # the file was once dropped in silence and a star built instead
        path = tmp_path / "g.txt"
        path.write_text("2\n1 2\n")
        with pytest.raises(GraphError, match=f"not '{kind}'"):
            build_topology(kind, 2, path=str(path))


class TestConsensusViolation:
    def test_largest_edge_disagreement(self):
        g = build_topology("star", 3)
        x = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        assert consensus_violation(g, x) == 5.0 / np.sqrt(2.0)

    def test_zero_at_consensus(self, rng):
        g = random_connected_graph(rng, 6)
        x = np.tile(rng.standard_normal(3), (6, 1))
        assert consensus_violation(g, x) == 0.0

    def test_bit_for_bit_the_linalg_norm_form(self, rng):
        for g in pin_graphs():
            i, j = g.edge_idx.T
            for n in (1, 2, 7):
                for x in pin_stacks(rng, g.num_nodes, n):
                    old = float(np.max(np.linalg.norm(x[i] - x[j], axis=1))) / math.sqrt(n)
                    assert bits(consensus_violation(g, x)) == bits(old)

    def test_nan_propagates(self):
        g = build_topology("star", 3)
        x = np.array([[0.0, 0.0], [3.0, 4.0], [np.nan, 0.0]])
        assert math.isnan(consensus_violation(g, x))

    @pytest.mark.parametrize("shape", [(6, 4), (3, 4), (4,), (5, 0)])
    def test_one_block_per_node_required(self, shape):
        # (6, 4) once returned 0.0, (3, 4) raised an IndexError, a vector
        # numpy's AxisError and zero-width blocks a ZeroDivisionError
        g = build_topology("star", 5)
        with pytest.raises(ValueError, match=r"expected stacked vector of 5 blocks"):
            consensus_violation(g, np.zeros(shape))
