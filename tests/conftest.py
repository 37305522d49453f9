"""Shared fixtures and hypothesis strategies for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

import mvge.model
from mvge.data import Dataset
from mvge.graph import Graph


@pytest.fixture
def triangle():
    g, _ = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    return g


@pytest.fixture
def path3():
    # 0 - 1 - 2
    g, _ = Graph.from_edges(3, [(0, 1), (1, 2)])
    return g


@pytest.fixture
def single_node():
    g, _ = Graph.from_edges(1, [])
    return g


@pytest.fixture
def star5():
    # hub 0 with leaves 1..4
    g, _ = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    return g


def make_dataset(g, features, labels=None, num_classes=None, name="test"):
    x = np.ascontiguousarray(features, dtype=np.float64)
    y = None if labels is None else np.asarray(labels, dtype=np.int64)
    return Dataset(graph=g, features=x, labels=y, num_classes=num_classes, name=name)


def force_workers(monkeypatch, workers):
    """Run ``mvge.model._side_by_side`` on ``workers`` threads, whatever the BLAS."""
    monkeypatch.setattr(mvge.model, "adjacency_workers", lambda: workers)


def random_dataset(rng, n=20, f=4, c=3, p_edge=0.2):
    """Small random dataset for smoke-level checks."""
    mask = np.triu(rng.random((n, n)) < p_edge, k=1)
    edges = np.argwhere(mask)
    g, _ = Graph.from_edges(n, edges)
    x = rng.normal(size=(n, f))
    y = rng.integers(0, c, size=n)
    return make_dataset(g, x, y, num_classes=c)


# -- hypothesis strategies ---------------------------------------------------

@st.composite
def edge_lists(draw, max_nodes=30, max_edges=60):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    edges = draw(st.lists(pairs, max_size=max_edges))
    return n, edges


@st.composite
def labeled_graphs(draw, max_nodes=50, max_classes=4):
    n, edges = draw(edge_lists(max_nodes=max_nodes))
    c = draw(st.integers(min_value=1, max_value=max_classes))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=c - 1),
            min_size=n,
            max_size=n,
        )
    )
    g, _ = Graph.from_edges(n, edges)
    return g, np.asarray(labels, dtype=np.int64)


@st.composite
def feature_matrices(draw, max_rows=12, max_cols=6):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    flat = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.asarray(flat, dtype=np.float64).reshape(rows, cols)


@st.composite
def hostile_datasets(draw, plain_features=False):
    """Unlabeled datasets of at most 16 nodes with isolated nodes, disconnected
    parts and near-complete or complete edge sets. Feature columns are
    random, all zero or constant; with ``plain_features`` every column is
    random."""
    n = draw(st.integers(min_value=0, max_value=16))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    fill = draw(st.sampled_from([0.0, 0.15, 0.5, 0.9, 1.0]))
    parts = draw(st.integers(min_value=1, max_value=4))
    isolated = draw(st.integers(min_value=0, max_value=n))
    u, v = np.triu_indices(n, k=1)
    # edges only inside a part (node mod parts), none at nodes below `isolated`
    keep = (rng.random(u.size) < fill) & (u % parts == v % parts) & (u >= isolated)
    g, _ = Graph.from_edges(n, np.stack([u[keep], v[keep]], axis=1))
    f = draw(st.integers(min_value=1, max_value=4))
    x = rng.normal(size=(n, f))
    if not plain_features:
        for j in range(f):
            x[:, j] = draw(st.sampled_from([x[:, j], 0.0, 2.5]))
    return make_dataset(g, x)
