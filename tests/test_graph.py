"""Graph container, edge canonicalization, and normalized adjacency."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mvge.graph import (
    Graph,
    ValidationError,
    canonicalize_edges,
    normalized_adjacency,
)

from conftest import edge_lists


def test_triangle_degrees(triangle):
    assert triangle.degrees.tolist() == [2, 2, 2]
    assert triangle.num_edges == 3


def test_duplicate_and_reversed_edges_collapse():
    g, rep = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1
    assert rep.duplicates_dropped == 2
    # one undirected edge stored as two directed entries
    assert g.neighbors.size == 2
    assert g.neighbors_of(0).tolist() == [1]
    assert g.neighbors_of(1).tolist() == [0]


def test_self_loops_dropped():
    g, rep = Graph.from_edges(3, [(0, 0), (0, 1), (2, 2)])
    assert rep.self_loops_dropped == 2
    assert g.num_edges == 1


def test_out_of_range_node_rejected():
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(-1, 0)])


def test_canonicalize_orders_within_pair():
    out, rep = canonicalize_edges(np.array([[2, 0], [1, 2]]), num_nodes=3)
    assert out.tolist() == [[0, 2], [1, 2]]
    assert rep.self_loops_dropped == 0 and rep.duplicates_dropped == 0


def test_neighbors_sorted_and_csr_consistent():
    g, _ = Graph.from_edges(5, [(3, 1), (3, 0), (3, 4), (0, 1)])
    assert g.neighbors_of(3).tolist() == [0, 1, 4]
    assert g.offsets[-1] == g.neighbors.size
    g.validate()


def test_edge_array_is_canonical():
    g, _ = Graph.from_edges(4, [(2, 1), (3, 0)])
    ea = g.edge_array()
    assert ea.tolist() == [[0, 3], [1, 2]]
    assert np.all(ea[:, 0] < ea[:, 1])


def test_has_edge_mask_accepts_either_order(triangle):
    u = np.array([0, 1, 0, 2])
    v = np.array([1, 0, 2, 1])
    assert triangle.has_edge_mask(u, v).all()
    assert not triangle.has_edge_mask(np.array([0]), np.array([0]))[0]


def test_has_edge_mask_on_edgeless_graph():
    g, _ = Graph.from_edges(4, [])
    out = g.has_edge_mask(np.array([2, 1, 0]), np.array([3, 2, 0]))
    assert out.dtype == bool and out.tolist() == [False, False, False]


def test_single_node_adjacency_is_identity(single_node):
    m = normalized_adjacency(single_node)
    assert m.indptr.tolist() == [0, 1]
    assert m.indices.tolist() == [0]
    assert m.data.tolist() == [1.0]


def test_one_edge_adjacency_weights():
    g, _ = Graph.from_edges(2, [(0, 1)])
    s = normalized_adjacency(g)
    dense = s.toarray()
    # both nodes have degree 1, every entry is 1/(1+1)
    assert np.allclose(dense, 0.5)


def test_path_adjacency_off_diagonal():
    g, _ = Graph.from_edges(3, [(0, 1), (1, 2)])
    s = normalized_adjacency(g)
    dense = s.toarray()
    # deg(0)=1, deg(1)=2 so the 0-1 weight is 1/sqrt(2*3)
    assert dense[0, 1] == pytest.approx(1.0 / np.sqrt(6.0))
    assert dense[1, 0] == pytest.approx(1.0 / np.sqrt(6.0))
    assert dense[0, 2] == 0.0


def test_regular_graph_rows_sum_to_one(triangle):
    s = normalized_adjacency(triangle)
    sums = np.asarray(s.sum(axis=1)).ravel()
    assert np.allclose(sums, 1.0)


def test_adjacency_row_sum_formula():
    g, _ = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    s = normalized_adjacency(g)
    deg = g.degrees.astype(np.float64)
    sums = np.asarray(s.sum(axis=1)).ravel()
    for v in range(4):
        expected = 1.0 / (deg[v] + 1.0)
        for u in g.neighbors_of(v):
            expected += 1.0 / np.sqrt((deg[v] + 1.0) * (deg[u] + 1.0))
        assert sums[v] == pytest.approx(expected)


def test_normalized_adjacency_triples_sorted(star5):
    m = normalized_adjacency(star5)
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    same_row = np.diff(rows) == 0
    assert np.all(np.diff(m.indices)[same_row] > 0)
    assert m.data.shape == rows.shape == m.indices.shape


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_from_edges_roundtrip_properties(ne):
    n, edges = ne
    g, _ = Graph.from_edges(n, edges)
    g.validate()
    # symmetry: u in N(v) iff v in N(u)
    for v in range(n):
        for u in g.neighbors_of(v):
            assert v in g.neighbors_of(u)
    # degrees consistent with CSR widths
    assert g.degrees.sum() == g.neighbors.size
    assert g.num_edges * 2 == g.neighbors.size


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_cached_edge_arrays_match_references(ne):
    n, edges = ne
    g, _ = Graph.from_edges(n, edges)
    fresh = Graph(g.num_nodes, g.offsets, g.neighbors)
    np.testing.assert_array_equal(g.sources, np.repeat(np.arange(n), np.diff(g.offsets)))
    assert not g.sources.flags.writeable
    dense = np.zeros((n, n))
    e = g.edge_array()
    dense[e[:, 0], e[:, 1]] = dense[e[:, 1], e[:, 0]] = 1.0
    assert g.adjacency.dtype == np.float64
    np.testing.assert_array_equal(g.adjacency.toarray(), dense)
    # each cache is built once, and none of them is a dataclass field
    assert g.sources is g.sources and g.adjacency is g.adjacency
    assert g._edge_keys is g._edge_keys
    assert g == fresh and repr(g) == repr(fresh)


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_normalized_adjacency_symmetric(ne):
    n, edges = ne
    g, _ = Graph.from_edges(n, edges)
    m = normalized_adjacency(g)
    assert (abs(m - m.T) > 1e-12).nnz == 0
    assert np.allclose(m.diagonal(), 1.0 / (g.degrees + 1.0))


def loop_validate_message(g):
    """The per-node check Graph.validate first used, kept as a reference:
    the message it raised for self-loops, order and symmetry, or None."""
    for v in range(g.num_nodes):
        nb = g.neighbors_of(v)
        if np.any(nb == v):
            return f"self-loop at node {v}"
        if np.any(np.diff(nb) <= 0):
            return f"neighbor list of node {v} not strictly increasing"
    src = np.repeat(np.arange(g.num_nodes), np.diff(g.offsets))
    fwd = src * g.num_nodes + g.neighbors
    rev = g.neighbors * g.num_nodes + src
    if not np.array_equal(np.sort(fwd), np.sort(rev)):
        return "adjacency is not symmetric"
    return None


@st.composite
def corrupted_csr(draw):
    """A valid CSR graph with some neighbor entries overwritten: by a random
    node id (duplicates, disorder, asymmetry) or by the row's own id (self-loop)."""
    n, edges = draw(edge_lists(max_nodes=10, max_edges=30))
    g, _ = Graph.from_edges(n, edges)
    nb = g.neighbors.copy()
    src = np.repeat(np.arange(n), g.degrees)
    if nb.size:
        edits = draw(st.lists(st.tuples(st.integers(0, nb.size - 1),
                                        st.integers(0, n - 1), st.booleans()),
                              max_size=4))
        for pos, value, self_loop in edits:
            nb[pos] = src[pos] if self_loop else value
    return Graph(n, g.offsets.copy(), nb)


@given(corrupted_csr())
@settings(max_examples=200, deadline=None)
def test_validate_matches_loop_reference(g):
    want = loop_validate_message(g)
    if want is None:
        g.validate()
    else:
        with pytest.raises(ValidationError) as err:
            g.validate()
        assert str(err.value) == want


def test_validate_self_loop_precedes_disorder_at_same_node():
    # node 1 lists [2, 1, 0]: both faults, the self-loop is reported
    g = Graph(3, np.array([0, 1, 4, 5]), np.array([1, 2, 1, 0, 1]))
    with pytest.raises(ValidationError, match="^self-loop at node 1$"):
        g.validate()
    # an earlier node's disorder wins over a later self-loop
    g = Graph(3, np.array([0, 2, 3, 4]), np.array([2, 1, 1, 2]))
    with pytest.raises(ValidationError, match="^neighbor list of node 0 not strictly"):
        g.validate()


def test_validate_empty_graph():
    Graph(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)).validate()
