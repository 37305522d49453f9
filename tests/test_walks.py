"""Random-walk sampling and the walk-averaged feature view."""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvge.graph import Graph, ValidationError
from mvge.walks import (
    AGGREGATORS,
    ViewPair,
    WalkConfig,
    _walks,
    build_views,
    walk_aggregate,
)

from conftest import edge_lists

M64 = 2**64 - 1


def reference_mix(z, key):
    """splitmix64's output function of z ^ key on Python integers."""
    z = ((z ^ key) + 0x9E3779B97F4A7C15) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def reference_walk(g, seed, start, length):
    """One walker, one step at a time, with the hash in Python integers."""
    key = reference_mix(reference_mix(reference_mix(seed, 0), start), length)
    cur, out = start, []
    for k in range(length):
        nbrs = g.neighbors_of(cur)
        if nbrs.size == 0:
            return [start] * length
        cur = int(nbrs[((reference_mix(key, k) >> 32) * nbrs.size) >> 32])
        out.append(cur)
    return out


def test_single_edge_walk_alternates():
    g, _ = Graph.from_edges(2, [(0, 1)])
    assert _walks(g, 0, 3).tolist() == [[1, 0, 1], [0, 1, 0]]


def test_isolated_start_stays_at_root(single_node):
    assert _walks(single_node, 0, 5).tolist() == [[0] * 5]


def test_walk_length_and_adjacency(triangle):
    seq = _walks(triangle, 1, 7)[0]
    assert len(seq) == 7
    prev = 0
    for node in seq:
        assert node in triangle.neighbors_of(prev)
        prev = int(node)


def test_first_step_uniform_on_triangle(triangle):
    hits = np.zeros(3)
    for seed in range(10000):
        hits[_walks(triangle, seed, 1)[0, 0]] += 1
    freq = hits / 10000
    assert freq[0] == 0.0
    assert abs(freq[1] - 0.5) <= 0.02
    assert abs(freq[2] - 0.5) <= 0.02


@given(edge_lists(max_nodes=15), st.integers(min_value=0, max_value=M64),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_walks_match_one_walker_reference(ne, seed, length):
    n, edges = ne
    g, _ = Graph.from_edges(n, edges)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # uint64 wraparound must stay silent
        got = _walks(g, seed, length)
    assert got.dtype == np.int64
    assert got.tolist() == [reference_walk(g, seed, v, length) for v in range(n)]


def test_single_edge_aggregate_value():
    # the forced walk [1,0,1] from node 0 visits features b,a,b
    g, _ = Graph.from_edges(2, [(0, 1)])
    a, b = 4.0, 10.0
    x = np.array([[a], [b]])
    out = walk_aggregate(g, x, WalkConfig(lengths=(3,), seed=0))
    assert out[0, 0] == pytest.approx((2 * b + a) / 3)
    assert out[1, 0] == pytest.approx((2 * a + b) / 3)


def test_concat_width_is_lengths_times_features(triangle):
    x = np.random.default_rng(0).normal(size=(3, 5))
    out = walk_aggregate(triangle, x, WalkConfig(lengths=(3, 5, 10), aggr="concat"))
    assert out.shape == (3, 15)


def test_mean_and_sum_keep_feature_width(triangle):
    x = np.random.default_rng(0).normal(size=(3, 5))
    mean = walk_aggregate(triangle, x, WalkConfig(lengths=(3, 5), aggr="mean", seed=4))
    total = walk_aggregate(triangle, x, WalkConfig(lengths=(3, 5), aggr="sum", seed=4))
    assert mean.shape == (3, 5)
    assert total.shape == (3, 5)
    assert np.allclose(total, 2 * mean)


def test_constant_features_are_fixed_point(triangle):
    c = np.array([2.0, -1.0, 0.5])
    x = np.tile(c, (3, 1))
    out = walk_aggregate(triangle, x, WalkConfig(lengths=(3, 5), aggr="concat"))
    assert np.allclose(out, np.tile(c, (3, 2)))


def test_isolated_node_falls_back_to_own_features():
    g, _ = Graph.from_edges(3, [(0, 1)])
    x = np.array([[1.0], [2.0], [7.0]])
    out = walk_aggregate(g, x, WalkConfig(lengths=(3, 5), aggr="concat"))
    assert np.allclose(out[2], [7.0, 7.0])


def test_matching_neighborhood_features_reproduce_own():
    # components {0,1} and {2,3} are feature-constant, so every walk
    # average equals the root's own vector
    g, _ = Graph.from_edges(4, [(0, 1), (2, 3)])
    x = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 0.0], [5.0, 0.0]])
    out = walk_aggregate(g, x, WalkConfig(lengths=(3,), aggr="mean"))
    assert np.allclose(out, x)


def test_deterministic_given_seed(triangle):
    x = np.random.default_rng(2).normal(size=(3, 4))
    cfg = WalkConfig(lengths=(3, 5), seed=11)
    assert np.array_equal(walk_aggregate(triangle, x, cfg), walk_aggregate(triangle, x, cfg))


def test_node_streams_untangled():
    """Walks are per-node streams, so adding nodes keeps old walks."""
    g1, _ = Graph.from_edges(2, [(0, 1)])
    g2, _ = Graph.from_edges(3, [(0, 1)])
    x1 = np.array([[1.0], [2.0]])
    x2 = np.array([[1.0], [2.0], [9.0]])
    cfg = WalkConfig(lengths=(5,), seed=3)
    a = walk_aggregate(g1, x1, cfg)
    b = walk_aggregate(g2, x2, cfg)
    assert np.allclose(a, b[:2])


def test_build_views_pins_ego(triangle):
    x = np.random.default_rng(5).normal(size=(3, 4))
    pair = build_views(triangle, x, WalkConfig())
    assert isinstance(pair, ViewPair)
    assert np.array_equal(pair.x_ego, x)
    assert pair.x_agg.shape == (3, 12)
    assert np.all(np.isfinite(pair.x_agg))


def test_walk_config_validation():
    with pytest.raises(ValidationError):
        WalkConfig(lengths=())
    with pytest.raises(ValidationError):
        WalkConfig(lengths=(0,))
    with pytest.raises(ValidationError):
        WalkConfig(lengths=(3, 3))
    with pytest.raises(ValidationError):
        WalkConfig(aggr="max")
    with pytest.raises(ValidationError, match="seed"):
        WalkConfig(seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        WalkConfig(seed=2**64)
    assert set(AGGREGATORS) == {"concat", "mean", "sum"}


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_config_seed_rejects_other_types(value):
    # a float seed was cast to uint64 by the walk hash
    with pytest.raises(ValidationError, match=f"seed must be an integer, got {value!r}"):
        WalkConfig(seed=value)
    assert WalkConfig(seed=np.uint64(3)).seed == 3


@given(edge_lists(max_nodes=15), st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=40, deadline=None)
def test_aggregate_within_feature_bounds(ne, seed):
    n, edges = ne
    g, _ = Graph.from_edges(n, edges)
    x = np.random.default_rng(seed).normal(size=(n, 3))
    out = walk_aggregate(g, x, WalkConfig(lengths=(3, 5), aggr="concat", seed=seed))
    lo, hi = x.min(axis=0), x.max(axis=0)
    tiled_lo, tiled_hi = np.tile(lo, 2), np.tile(hi, 2)
    assert np.all(out >= tiled_lo - 1e-9)
    assert np.all(out <= tiled_hi + 1e-9)


@st.composite
def grown_graphs(draw):
    """A graph, and the same graph with extra nodes whose edges stay
    among themselves."""
    n, edges = draw(edge_lists(max_nodes=12))
    m, extra = draw(edge_lists(max_nodes=8))
    grown = edges + [(u + n, v + n) for u, v in extra]
    return (n, edges), (n + m, grown)


@given(grown_graphs(), st.integers(min_value=0, max_value=M64),
       st.sampled_from(AGGREGATORS))
@settings(max_examples=60, deadline=None)
def test_walk_view_properties(graphs, seed, aggr):
    (n, edges), (n2, edges2) = graphs
    g, _ = Graph.from_edges(n, edges)
    g2, _ = Graph.from_edges(n2, edges2)
    x2 = np.random.default_rng(seed % 2**32).normal(size=(n2, 3))
    x = x2[:n]
    cfg = WalkConfig(lengths=(2, 4), aggr=aggr, seed=seed)
    # every step follows an edge, except a walker on an isolated node
    for length in cfg.lengths:
        walk = _walks(g, seed, length)
        prev = np.arange(n)
        for k in range(length):
            moved = g.degrees[prev] > 0
            assert np.all(g.has_edge_mask(prev[moved], walk[moved, k]))
            assert np.array_equal(walk[~moved, k], prev[~moved])
            prev = walk[:, k]
    out = walk_aggregate(g, x, cfg)
    isolated = g.degrees == 0
    width = 2 if aggr == "concat" else 1
    own = np.tile(x, width) * (2.0 if aggr == "sum" else 1.0)
    assert np.array_equal(out[isolated], own[isolated])
    # adding nodes leaves the old rows bit-identical
    assert np.array_equal(walk_aggregate(g2, x2, cfg)[:n], out)


def test_isolated_fallbacks_logged(caplog):
    g, _ = Graph.from_edges(5, [(0, 1)])
    with caplog.at_level(logging.DEBUG, logger="mvge.walks"):
        walk_aggregate(g, np.ones((5, 2)), WalkConfig(lengths=(3,)))
    assert "3 of 5 nodes are isolated" in caplog.text
