"""Edge homophily metrics against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings

from mvge.graph import Graph, ValidationError
from mvge.homophily import (
    MAX_BINS,
    global_homophily,
    homophily_histogram,
    homophily_report,
    local_homophily,
)

from conftest import labeled_graphs


def test_uniform_labels_give_one(triangle):
    assert global_homophily(triangle, np.zeros(3, dtype=np.int64)) == 1.0


def test_alternating_path_two_thirds():
    # edges (0,1) (1,2) (2,3) with labels a,a,b,b: only (1,2) crosses
    g, _ = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = global_homophily(g, np.array([0, 0, 1, 1]))
    assert h == pytest.approx(2.0 / 3.0)


def test_star_same_label_leaves(star5):
    labels = np.array([1, 1, 1, 1, 1])
    assert global_homophily(star5, labels) == 1.0
    labels = np.array([0, 1, 1, 1, 1])
    assert global_homophily(star5, labels) == 0.0


def test_empty_edge_set_rejected(single_node):
    with pytest.raises(ValidationError, match="empty edge set"):
        global_homophily(single_node, np.array([0]))


def test_local_mixed_neighborhood():
    # node 0 with label a and neighbors labeled a, a, b
    g, _ = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    local = local_homophily(g, np.array([0, 0, 0, 1]))
    assert local[0] == pytest.approx(2.0 / 3.0)
    assert local[1] == 1.0
    assert local[3] == 0.0


def test_local_isolated_is_nan():
    g, _ = Graph.from_edges(3, [(0, 1)])
    local = local_homophily(g, np.array([0, 0, 1]))
    assert np.isnan(local[2])
    assert local[0] == 1.0


def test_label_count_mismatch_rejected(triangle):
    with pytest.raises(ValidationError):
        global_homophily(triangle, np.array([0, 1]))
    with pytest.raises(ValidationError):
        local_homophily(triangle, np.array([0, 1]))


def test_histogram_boundary_goes_right():
    counts = homophily_histogram(np.array([0.0, 0.5, 1.0]), bins=2)
    assert counts.tolist() == [1, 2]


def test_histogram_excludes_nan():
    counts = homophily_histogram(np.array([np.nan, 0.2, np.nan]), bins=10)
    assert counts.sum() == 1
    assert counts[2] == 1


def test_histogram_top_edge_in_last_bin():
    counts = homophily_histogram(np.ones(7), bins=10)
    assert counts[-1] == 7
    assert counts.sum() == 7


def test_histogram_empty_input():
    counts = homophily_histogram(np.array([]), bins=4)
    assert counts.tolist() == [0, 0, 0, 0]


def test_histogram_rejects_zero_bins():
    with pytest.raises(ValidationError):
        homophily_histogram(np.array([0.5]), bins=0)


def test_histogram_bins_bounded_above():
    # one bin more than MAX_BINS, or 10**20 (past int64), is refused before bincount
    assert len(homophily_histogram(np.array([0.5]), bins=MAX_BINS)) == MAX_BINS
    for bins in (MAX_BINS + 1, 10**20):
        with pytest.raises(ValidationError, match=f"bins must be in \\[1, {MAX_BINS}\\]"):
            homophily_histogram(np.array([0.5]), bins=bins)


def test_report_fields(path3):
    labels = np.array([0, 0, 1])
    rep = homophily_report(path3, labels, bins=4)
    assert rep.global_ratio == pytest.approx(0.5)
    assert rep.bins == 4
    assert rep.num_undefined_local == 0
    d = rep.to_dict()
    assert d["global"] == pytest.approx(0.5)
    assert sum(d["histogram"]) == 3
    assert d["num_undefined_local"] == 0


def test_report_counts_isolated_nodes():
    g, _ = Graph.from_edges(4, [(0, 1)])
    rep = homophily_report(g, np.array([0, 0, 1, 1]))
    assert rep.num_undefined_local == 2
    assert rep.histogram.sum() == 2


@given(labeled_graphs())
@settings(max_examples=60, deadline=None)
def test_global_matches_edge_enumeration(gl):
    g, labels = gl
    if g.num_edges == 0:
        return
    agree = 0
    for u, v in g.edge_array():
        agree += int(labels[u] == labels[v])
    assert global_homophily(g, labels) == pytest.approx(agree / g.num_edges)


@given(labeled_graphs())
@settings(max_examples=60, deadline=None)
def test_local_matches_neighbor_enumeration(gl):
    g, labels = gl
    local = local_homophily(g, labels)
    for v in range(g.num_nodes):
        nb = g.neighbors_of(v)
        if nb.size == 0:
            assert np.isnan(local[v])
        else:
            frac = np.mean(labels[nb] == labels[v])
            assert local[v] == pytest.approx(frac)


@given(labeled_graphs())
@settings(max_examples=60, deadline=None)
def test_degree_weighted_local_mean_equals_global(gl):
    """Sum of local * degree counts each intra edge twice."""
    g, labels = gl
    if g.num_edges == 0:
        return
    local = local_homophily(g, labels)
    deg = g.degrees.astype(np.float64)
    weighted = np.nansum(local * deg) / deg.sum()
    assert weighted == pytest.approx(global_homophily(g, labels))
