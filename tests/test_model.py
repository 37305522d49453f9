"""Encoders, losses, training loop, and the alpha/beta grid search."""

import dataclasses
import itertools
import multiprocessing
import platform
import sys
import threading
import tracemalloc
import warnings
from datetime import timedelta

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mvge.model
from mvge.evaluate import grid_search_alpha_beta
from mvge.graph import Graph, ValidationError, normalized_adjacency
from mvge.model import (
    EGO_ENCODERS,
    MERGE_FNS,
    TASKS,
    MVGEConfig,
    MVGEModel,
    TrainingDivergedError,
    _prepare,
    _train_step,
    embedding_dim_std,
    merge_embeddings,
    total_loss,
    train,
)
from mvge.numerics import sigmoid, softplus
from mvge.synth import SynthSpec, generate_synthetic
from mvge.walks import ViewPair, build_views

from conftest import (edge_lists, feature_matrices, force_workers, hostile_datasets,
                      make_dataset, random_dataset)
from oracles import adjacency_loss, grad_check, kl_feature_loss, softmax_rows


def toy_cfg(**kw):
    base = dict(dim_ego=6, dim_agg=6, hidden_dim=8, epochs=2, seed=0)
    base.update(kw)
    return MVGEConfig(**base)


def toy_model(n=5, f_ego=4, f_agg=4, **kw):
    cfg = toy_cfg(**kw)
    return MVGEModel(cfg, f_ego=f_ego, f_agg=f_agg), cfg


# -- encoders ----------------------------------------------------------------

@pytest.mark.parametrize("encoder", EGO_ENCODERS)
def test_params_names_and_shapes_in_order(encoder):
    # the two branches differ in input and embedding width, so a width taken
    # from the other branch shows; Adam and the digests walk this order
    model, cfg = toy_model(f_ego=4, f_agg=7, dim_ego=6, dim_agg=3, ego_encoder=encoder)
    h = cfg.hidden_dim
    inner = ("ego_b1", (1, h)) if encoder == "linear" else ("ego_w2", (h, h))
    assert [(k, p.value.shape) for k, p in model.params.items()] == [
        ("ego_w1", (4, h)), inner, ("ego_skip_w", (4 + h, 6)), ("ego_skip_b", (1, 6)),
        ("agg_w1", (7, h)), ("agg_w2", (h, h)), ("agg_skip_w", (7 + h, 3)), ("agg_skip_b", (1, 3)),
        ("dec_ego_w", (6, 4)), ("dec_ego_b", (1, 4)), ("dec_agg_w", (3, 7)), ("dec_agg_b", (1, 7))]
    for p in model.params.values():
        assert p.grad.shape == p.value.shape and not p.grad.any()


def test_zero_input_zero_output():
    model, _ = toy_model()
    h, _ = model.encode_ego(np.zeros((5, 4)))
    # biases start at zero, so the linear path maps 0 to 0
    assert np.allclose(h, 0.0)


def test_ego_output_width():
    model, cfg = toy_model()
    h, _ = model.encode_ego(np.random.default_rng(0).normal(size=(5, 4)))
    assert h.shape == (5, cfg.dim_ego)


def test_agg_output_width(triangle):
    model, cfg = toy_model(n=3)
    s = normalized_adjacency(triangle)
    x = np.random.default_rng(0).normal(size=(3, 4))
    h, _ = model.encode_agg(x, s, s @ x)
    assert h.shape == (3, cfg.dim_agg)


def test_ego_feature_width_checked():
    model, _ = toy_model(f_ego=4)
    with pytest.raises(ValidationError, match="ego features"):
        model.encode_ego(np.zeros((5, 7)))


def test_agg_feature_width_checked(triangle):
    model, _ = toy_model(n=3, f_agg=4)
    with pytest.raises(ValidationError, match="expected 4 agg features, got 7"):
        model.encode_agg(np.zeros((3, 7)), normalized_adjacency(triangle), np.zeros((3, 7)))


@pytest.mark.parametrize("branch", ["ego", "agg"])
def test_graph_convolution_branch_needs_operator(branch):
    # S x is taken once per training, before the first step; given S alone,
    # a graph convolution refuses to run rather than take S x itself
    model, _ = toy_model(ego_encoder="gcn")
    encode = model.encode_ego if branch == "ego" else model.encode_agg
    for s in (None, normalized_adjacency(Graph.from_edges(5, [])[0])):
        with pytest.raises(ValidationError, match=f"gcn {branch} encoder needs"):
            encode(np.zeros((5, 4)), s, None)


def test_ego_row_permutation_equivariance():
    model, _ = toy_model()
    x = np.random.default_rng(1).normal(size=(5, 4))
    perm = np.array([3, 0, 4, 1, 2])
    h, _ = model.encode_ego(x)
    h_p, _ = model.encode_ego(x[perm])
    assert np.allclose(h_p, h[perm], atol=1e-9)


def test_agg_permutation_equivariance_with_permuted_operator():
    # permute features and the adjacency together; embeddings must follow
    g, _ = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    perm = np.array([2, 4, 0, 1, 3])
    inv = np.argsort(perm)
    g_p, _ = Graph.from_edges(5, [(inv[u], inv[v]) for u, v in g.edge_array()])
    model, _ = toy_model(n=5)
    x = np.random.default_rng(2).normal(size=(5, 4))
    s, s_p = normalized_adjacency(g), normalized_adjacency(g_p)
    h, _ = model.encode_agg(x, s, s @ x)
    h_p, _ = model.encode_agg(x[perm], s_p, s_p @ x[perm])
    assert np.allclose(h_p, h[perm], atol=1e-9)


def test_isolated_node_gcn_is_scaled_mlp():
    # with no edges S == I, so each row passes through the GCN alone
    g, _ = Graph.from_edges(3, [])
    s = normalized_adjacency(g)
    model, _ = toy_model(n=3)
    x = np.random.default_rng(3).normal(size=(3, 4))
    h_all, _ = model.encode_agg(x, s, s @ x)
    g1, _ = Graph.from_edges(1, [])
    s1 = normalized_adjacency(g1)
    h_one, _ = model.encode_agg(x[1:2], s1, s1 @ x[1:2])
    assert np.allclose(h_one, h_all[1:2])


def test_constant_rows_on_regular_graph_stay_constant(triangle):
    s = normalized_adjacency(triangle)
    model, _ = toy_model(n=3)
    x = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (3, 1))
    h, _ = model.encode_agg(x, s, s @ x)
    assert np.allclose(h, h[0])


def test_gcn_ego_encoder_variant(triangle):
    model, cfg = toy_model(n=3, ego_encoder="gcn")
    s = normalized_adjacency(triangle)
    x = np.random.default_rng(4).normal(size=(3, 4))
    h, _ = model.encode_ego(x, s, s @ x)
    assert h.shape == (3, cfg.dim_ego)
    with pytest.raises(ValidationError, match="adjacency"):
        model.encode_ego(x)


def test_same_seed_same_init():
    a, _ = toy_model(seed=5)
    b, _ = toy_model(seed=5)
    for k in a.params:
        assert np.array_equal(a.params[k].value, b.params[k].value)


# -- merge -------------------------------------------------------------------

def test_merge_concat_widths():
    h = merge_embeddings(np.ones((4, 64)), np.zeros((4, 64)), "concat")
    assert h.shape == (4, 128)
    assert np.all(h[:, :64] == 1.0) and np.all(h[:, 64:] == 0.0)


def test_merge_sum_cancels():
    x = np.random.default_rng(0).normal(size=(3, 5))
    assert np.allclose(merge_embeddings(x, -x, "sum"), 0.0)


def test_merge_mean_is_half_sum():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    assert np.allclose(
        merge_embeddings(a, b, "mean"), merge_embeddings(a, b, "sum") / 2.0
    )


def test_merge_dim_mismatch_rejected():
    with pytest.raises(ValidationError):
        merge_embeddings(np.ones((3, 4)), np.ones((3, 5)), "sum")
    with pytest.raises(ValidationError):
        merge_embeddings(np.ones((3, 4)), np.ones((2, 4)), "concat")
    with pytest.raises(ValidationError):
        merge_embeddings(np.ones((3, 4)), np.ones((3, 4)), "outer")


# -- losses ------------------------------------------------------------------

def test_kl_zero_at_equality():
    x = np.random.default_rng(0).normal(size=(6, 5))
    assert kl_feature_loss(x, x.copy()) == 0.0


def test_kl_point_mass_vs_uniform():
    x = np.array([[40.0, -40.0]])  # softmax is numerically [1, 0]
    z = np.array([[0.0, 0.0]])
    assert kl_feature_loss(x, z) == pytest.approx(np.log(2.0), abs=1e-6)


def test_kl_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        kl_feature_loss(np.ones((2, 3)), np.ones((3, 2)))


def test_kl_matches_manual_formula():
    rng = np.random.default_rng(7)
    x, z = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    p, q = softmax_rows(x), softmax_rows(z)
    manual = float((p * (np.log(p) - np.log(q))).sum())
    assert kl_feature_loss(x, z) == pytest.approx(manual, rel=1e-12)


@given(feature_matrices(), st.sampled_from([np.float32, np.float64]))
@settings(max_examples=60, deadline=None)
def test_softmax_pass_gives_both_halves(x, dtype):
    # one exp serves the softmax, with the bits of a softmax alone, and the log
    # softmax, floored at log(_LOG_FLOOR)
    x = x.astype(dtype)
    q, log_q = mvge.model._softmax(x.copy())
    assert q.dtype == log_q.dtype == dtype
    np.testing.assert_array_equal(q, softmax_rows(x))
    want = np.maximum(scipy.special.log_softmax(x.astype(np.float64), axis=1),
                      np.log(mvge.model._LOG_FLOOR))
    np.testing.assert_allclose(log_q, want, rtol=0.0, atol=1e-4 if dtype is np.float32 else 1e-12)


@given(feature_matrices(), st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=60, deadline=None)
def test_kl_non_negative(x, seed):
    z = np.random.default_rng(seed).normal(size=x.shape)
    assert kl_feature_loss(x, z) >= 0.0


def test_adjacency_loss_at_zero_embeddings(triangle):
    h = np.zeros((3, 4))
    assert adjacency_loss(h, triangle, mode="full") == pytest.approx(np.log(2.0))


def test_adjacency_loss_at_zero_no_edges():
    g, _ = Graph.from_edges(3, [])
    assert adjacency_loss(np.zeros((3, 4)), g, mode="full") == pytest.approx(np.log(2.0))


def test_adjacency_loss_two_node_brute_force():
    g, _ = Graph.from_edges(2, [(0, 1)])
    h = np.array([[1.0, 3.0], [1.0, 3.0]])  # dot products all 10
    z = h @ h.T
    a = np.array([[0.0, 1.0], [1.0, 0.0]])  # diagonal treated as non-edge
    manual = 0.0
    for i in range(2):
        for j in range(2):
            p = 1.0 / (1.0 + np.exp(-z[i, j]))
            manual -= a[i, j] * np.log(p) + (1 - a[i, j]) * np.log(1 - p)
    manual /= 4.0
    assert adjacency_loss(h, g, mode="full") == pytest.approx(manual, rel=1e-9)


def test_adjacency_loss_decreases_with_alignment(path3):
    aligned = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]) * 2.0
    scattered = np.array([[2.0, 0.0], [-2.0, 0.0], [2.0, 0.0]])
    assert adjacency_loss(aligned, path3, "full") < adjacency_loss(scattered, path3, "full")


def test_sampled_adjacency_close_to_full_on_balanced_graph():
    """Both modes average BCE over positives and (all or sampled) negatives.

    With every negative sampled many times the sampled estimate should
    land near a positives-plus-negatives reweighting of the full loss;
    here we only check the two agree within a loose statistical band.
    """
    ds = random_dataset(np.random.default_rng(0), n=12, p_edge=0.5)
    h = np.random.default_rng(1).normal(size=(12, 6)) * 0.1
    full = adjacency_loss(h, ds.graph, "full")
    sampled = np.mean([
        adjacency_loss(h, ds.graph, "sampled", rng=np.random.default_rng(k))
        for k in range(64)
    ])
    # at small h both modes sit near log 2; the diagonal and class-balance
    # differences keep them from matching exactly
    assert abs(sampled - full) < 0.05


def test_sampled_mode_rejects_complete_graph():
    g, _ = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValidationError, match="complete"):
        adjacency_loss(np.ones((3, 2)), g, "sampled")


def test_adjacency_row_mismatch_rejected(triangle):
    with pytest.raises(ValidationError):
        adjacency_loss(np.zeros((4, 2)), triangle, "full")


# Reference implementations of the adjacency loss as first written: one
# dense N x N pass in full mode, np.add.at scatters in sampled mode.

def dense_adjacency_oracle(h, g):
    n = g.num_nodes
    z = h @ h.T
    rows = np.repeat(np.arange(n), g.degrees)
    cols = g.neighbors
    loss = (softplus(-z).sum() + z.sum() - z[rows, cols].sum()) / (n * n)
    grad_z = scipy.special.expit(z)
    grad_z[rows, cols] -= 1.0
    return float(loss), (2.0 / (n * n)) * (grad_z @ h)


def sampled_adjacency_oracle(h, g, rng, sample_ratio=1.0):
    n = g.num_nodes
    pr = np.repeat(np.arange(n), g.degrees)
    pc = g.neighbors
    n_pos = pr.size
    n_neg = max(1, int(round(sample_ratio * n_pos)))
    nr = np.empty(n_neg, dtype=np.int64)
    nc = np.empty(n_neg, dtype=np.int64)
    got = 0
    while got < n_neg:
        cand_r = rng.integers(0, n, size=(n_neg - got) * 2)
        cand_c = rng.integers(0, n, size=(n_neg - got) * 2)
        ok = (cand_r != cand_c) & ~g.has_edge_mask(cand_r, cand_c)
        take = min(int(ok.sum()), n_neg - got)
        nr[got:got + take] = cand_r[ok][:take]
        nc[got:got + take] = cand_c[ok][:take]
        got += take
    z_pos = np.einsum("ij,ij->i", h[pr], h[pc])
    z_neg = np.einsum("ij,ij->i", h[nr], h[nc])
    total = n_pos + n_neg
    loss = (softplus(-z_pos).sum() + (z_neg + softplus(-z_neg)).sum()) / total
    coef_pos = (sigmoid(z_pos) - 1.0) / total
    coef_neg = sigmoid(z_neg) / total
    d_h = np.zeros_like(h)
    np.add.at(d_h, pr, coef_pos[:, None] * h[pc])
    np.add.at(d_h, pc, coef_pos[:, None] * h[pr])
    np.add.at(d_h, nr, coef_neg[:, None] * h[nc])
    np.add.at(d_h, nc, coef_neg[:, None] * h[nr])
    return float(loss), d_h


def strip_bytes(n, rows):
    """Bytes of `rows` strip rows at n nodes in the current strip dtype."""
    return np.dtype(mvge.model._WORK_DTYPE).itemsize * n * rows


def set_block_rows(monkeypatch, n, rows):
    """Make the full adjacency loss use row blocks of `rows` rows at n nodes;
    after use_float64_work when both are wanted."""
    monkeypatch.setattr(mvge.model, "_ADJ_BLOCK_BYTES", strip_bytes(n, rows))


def use_float64_work(monkeypatch):
    """Run the encoders, the KL decoders and both adjacency losses in float64,
    where the losses match the dense and scatter oracles to 1e-12 and finite
    differences resolve the training step."""
    monkeypatch.setattr(mvge.model, "_WORK_DTYPE", np.float64)


def assert_adjacency_matches(got, want):
    assert abs(got[0] - want[0]) <= 1e-12
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)


ADJ_GRAPHS = {
    "random": lambda: random_dataset(np.random.default_rng(20), n=10, p_edge=0.3).graph,
    "edgeless": lambda: Graph.from_edges(10, [])[0],
    "isolated": lambda: Graph.from_edges(10, [(0, 3), (3, 4), (4, 9), (1, 3)])[0],
}


@pytest.mark.parametrize("graph", sorted(ADJ_GRAPHS))
@pytest.mark.parametrize("rows", [1, 3, 4, 10, 11])
def test_full_adjacency_blocks_match_dense_oracle(monkeypatch, graph, rows):
    # 10 nodes: blocks of 3 and 4 leave a short last block, 10 and 11 are one block
    g = ADJ_GRAPHS[graph]()
    h = np.random.default_rng(21).normal(size=(10, 5))
    use_float64_work(monkeypatch)
    set_block_rows(monkeypatch, 10, rows)
    got = mvge.model._adjacency_terms(h, g, "full")
    assert_adjacency_matches(got, dense_adjacency_oracle(h, g))
    assert adjacency_loss(h, g, "full") == got[0]


@given(edge_lists(max_nodes=12, max_edges=40),
       st.integers(min_value=1, max_value=13),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=60, deadline=None)
def test_full_adjacency_property_matches_dense_oracle(graph, rows, seed):
    n, edges = graph
    g, _ = Graph.from_edges(n, edges)
    h = np.random.default_rng(seed).normal(size=(n, 4))
    with pytest.MonkeyPatch.context() as mp:
        use_float64_work(mp)
        set_block_rows(mp, n, rows)
        got = mvge.model._adjacency_terms(h, g, "full")
    assert_adjacency_matches(got, dense_adjacency_oracle(h, g))


@given(edge_lists(max_nodes=12, max_edges=40),
       st.integers(min_value=1, max_value=13),
       st.integers(min_value=0, max_value=2 ** 16),
       st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=12.0)))
@settings(max_examples=100, deadline=None)
def test_full_adjacency_saturating_scales_match_dense_oracle(graph, rows, seed, scale):
    # scale 12 on 4 dims puts |z| in the hundreds, where sigmoid and softplus saturate
    n, edges = graph
    g, _ = Graph.from_edges(n, edges)
    h = scale * np.random.default_rng(seed).normal(size=(n, 4))
    with pytest.MonkeyPatch.context() as mp:
        use_float64_work(mp)
        set_block_rows(mp, n, rows)
        loss, d_h = mvge.model._adjacency_terms(h, g, "full")
    want_loss, want_d_h = dense_adjacency_oracle(h, g)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert np.abs(d_h - want_d_h).max() <= 1e-12 * np.abs(want_d_h).max()


# float32 strips against float64 strips and the dense oracle. Over 4000
# seeded draws of this kind the loss differed by at most 1.0e-7 relative and
# the gradient by at most 7.9e-6 of max|grad|; the bounds leave 10x margin
@given(edge_lists(max_nodes=12, max_edges=40),
       st.integers(min_value=1, max_value=13),
       st.sampled_from([1, 4, 32]),
       st.integers(min_value=0, max_value=2 ** 16),
       st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=12.0)))
@settings(max_examples=100, deadline=None)
def test_full_adjacency_float32_strips_track_float64(graph, rows, d, seed, scale):
    n, edges = graph
    g, _ = Graph.from_edges(n, edges)
    h = scale * np.random.default_rng(seed).normal(size=(n, d))
    got = {}
    for dtype in (np.float32, np.float64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mvge.model, "_WORK_DTYPE", dtype)
            set_block_rows(mp, n, rows)
            got[dtype] = mvge.model._adjacency_terms(h, g, "full")
    loss, d_h = got[np.float32]
    assert d_h.dtype == np.float64
    for want_loss, want_d_h in (got[np.float64], dense_adjacency_oracle(h, g)):
        assert abs(loss - want_loss) <= 1e-6 * abs(want_loss)
        assert np.abs(d_h - want_d_h).max() <= 1e-4 * np.abs(want_d_h).max()


# |z| past float32's 3.4e38: at 1e20 a strip product overflows, at 1e40 the
# cast of H itself; float64 strips still give a finite loss at both
@pytest.mark.parametrize("scale", [1e20, 1e40])
def test_full_adjacency_past_float32_range_is_not_finite(monkeypatch, scale):
    g = ADJ_GRAPHS["random"]()
    h = scale * np.random.default_rng(31).normal(size=(10, 5))
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(adjacency_loss(h, g, "full"))
    use_float64_work(monkeypatch)
    assert np.isfinite(adjacency_loss(h, g, "full"))


# features past float32's 3.4e38 (1e40) overflow in train()'s cast, so both
# modes diverge at epoch 0. At 1e20 full mode's strips overflow at epoch 0;
# sampled mode's float64 loss stays finite there, but the encoders' float32
# weight gradients overflow, so its loss turns nan after the first Adam step
@pytest.mark.parametrize("scale", [1e20, 1e40])
def test_train_past_float32_range_diverges_at_once(monkeypatch, scale):
    ds = random_dataset(np.random.default_rng(32), n=12, p_edge=0.3)
    ds = make_dataset(ds.graph, scale * ds.features)
    for mode in ("full", "sampled"):
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(TrainingDivergedError) as err:
                    train(ds, toy_cfg(epochs=3, adj_loss_mode=mode))
            assert err.value.epoch == (1 if mode == "sampled" and scale == 1e20 else 0)


@pytest.mark.parametrize("graph", sorted(ADJ_GRAPHS))
@pytest.mark.parametrize("rows", [1, 3, 10])
def test_full_adjacency_loss_without_gradient_is_identical(monkeypatch, graph, rows):
    g = ADJ_GRAPHS[graph]()
    h = np.random.default_rng(24).normal(size=(10, 5)) * 3.0
    set_block_rows(monkeypatch, 10, rows)
    assert adjacency_loss(h, g, "full") == mvge.model._adjacency_terms(h, g, "full")[0]


def test_full_adjacency_peak_allocation_is_block_sized():
    import tracemalloc

    n, d = 2000, 16
    g, _ = Graph.from_edges(n, np.random.default_rng(25).integers(0, n, size=(4 * n, 2)))
    h = np.random.default_rng(26).normal(size=(n, d))
    tracemalloc.start()
    try:
        mvge.model._adjacency_terms(h, g, "full")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one strip per part, each part's sums buffer, and a few N x d arrays;
    # the dense N x N matrix alone would be 32 MB
    assert peak <= 3 * mvge.model._ADJ_BLOCK_BYTES + 4 * h.nbytes < 8 * n * n


def test_full_adjacency_peak_allocation_is_block_sized_on_two_workers(monkeypatch):
    force_workers(monkeypatch, 2)
    test_full_adjacency_peak_allocation_is_block_sized()


@given(edge_lists(max_nodes=40, max_edges=80),
       st.integers(min_value=1, max_value=41),
       st.integers(min_value=1, max_value=41),
       st.integers(min_value=0, max_value=2 ** 16))
@example(graph=(1, []), rows=1, sums_rows=1, seed=0)  # part A is empty
@example(graph=(12, []), rows=5, sums_rows=1, seed=1)  # edgeless
@example(graph=(10, [(0, 3), (3, 4), (4, 9), (1, 3)]), rows=3, sums_rows=2, seed=2)  # isolated
@settings(max_examples=80, deadline=None)
def test_full_adjacency_same_bits_on_one_or_two_workers(graph, rows, sums_rows, seed):
    # on the float32 default, and on float64 strips against the dense oracle
    n, edges = graph
    g, _ = Graph.from_edges(n, edges)
    h = np.random.default_rng(seed).normal(size=(n, 4))
    want = dense_adjacency_oracle(h, g)
    for float64 in (False, True):
        got = []
        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                if float64:
                    use_float64_work(mp)
                set_block_rows(mp, n, rows)
                mp.setattr(mvge.model, "_ADJ_SUMS_BYTES", strip_bytes(n, sums_rows))
                force_workers(mp, workers)
                got.append(mvge.model._adjacency_terms(h, g, "full"))
        assert got[0][0] == got[1][0]
        assert got[0][1].tobytes() == got[1][1].tobytes()
    for terms in got:
        assert_adjacency_matches(terms, want)


@pytest.mark.parametrize("threads", [None, 1, 2])
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_adjacency_workers_two_only_at_one_blas_thread_and_two_cpus(monkeypatch, threads, cpus):
    monkeypatch.setattr(mvge.model, "blas_info", lambda: ("libopenblas.so", threads))
    monkeypatch.setattr(mvge.model, "usable_cpus", lambda: cpus)
    want = 2 if threads == 1 and cpus >= 2 else 1
    assert mvge.model.adjacency_workers() == want


def test_full_adjacency_concurrent_callers_share_the_worker(monkeypatch):
    # more calling threads than cores, switching often, through a pool made
    # under the race; each must get the bits of a lone call
    force_workers(monkeypatch, 2)
    g = ADJ_GRAPHS["random"]()
    h = np.random.default_rng(29).normal(size=(10, 5))
    set_block_rows(monkeypatch, 10, 2)
    want = mvge.model._adjacency_terms(h, g, "full")
    monkeypatch.setattr(mvge.model, "_POOL", None)
    got = []

    def call():
        for _ in range(50):
            got.append(mvge.model._adjacency_terms(h, g, "full"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 200
    assert all(loss == want[0] and d_h.tobytes() == want[1].tobytes() for loss, d_h in got)


@pytest.mark.parametrize("mode", ["full", "sampled"])
def test_concurrent_trainings_share_the_worker(monkeypatch, mode):
    # as above, for whole trainings on one graph whose cached edge arrays are
    # first built under the race; each must get the bits of a lone training
    force_workers(monkeypatch, 2)
    base = random_dataset(np.random.default_rng(30), n=30, p_edge=0.2)
    cfg = toy_cfg(epochs=3, adj_loss_mode=mode)
    want = train(base, cfg)[1].h.tobytes()
    g = base.graph
    ds = make_dataset(Graph(g.num_nodes, g.offsets, g.neighbors), base.features)
    monkeypatch.setattr(mvge.model, "_POOL", None)
    got = []

    def call():
        for _ in range(5):
            got.append(train(ds, cfg)[1].h.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 20


def _train_digest(ds, cfg, conn):
    _, emb, _ = train(ds, cfg)
    conn.send(emb.h.tobytes())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_trains_on_two_workers_after_parent_did(monkeypatch):
    force_workers(monkeypatch, 2)
    ds = random_dataset(np.random.default_rng(27), n=30, p_edge=0.2)
    cfg = toy_cfg(epochs=3, adj_loss_mode="full")
    _, emb, _ = train(ds, cfg)  # starts the worker thread in this process
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_train_digest, args=(ds, cfg, send))
    child.start()
    send.close()
    try:
        # a pool inherited across fork has no live thread: submit would hang
        assert recv.poll(60), "forked child did not finish training within 60 s"
        assert recv.recv() == emb.h.tobytes()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


def test_diverging_train_on_two_workers_warns_nothing(monkeypatch):
    force_workers(monkeypatch, 2)
    ds = random_dataset(np.random.default_rng(28), n=30, p_edge=0.2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDivergedError):
            train(ds, toy_cfg(epochs=5, lr=1e300, adj_loss_mode="full"))
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("mode", ["auto", "full"])
def test_train_on_empty_graph_raises_validation_error(mode):
    ds = make_dataset(Graph.from_edges(0, [])[0], np.zeros((0, 3)))
    ds.validate()
    with pytest.raises(ValidationError, match="at least one node"):
        train(ds, toy_cfg(adj_loss_mode=mode))
    with pytest.raises(ValidationError, match="at least one node"):
        adjacency_loss(np.zeros((0, 3)), ds.graph, "full")


@pytest.mark.parametrize("graph", ["random", "isolated"])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 3.0])
def test_sampled_adjacency_matches_scatter_oracle(monkeypatch, graph, ratio):
    g = ADJ_GRAPHS[graph]()
    h = np.random.default_rng(22).normal(size=(10, 5))
    use_float64_work(monkeypatch)
    want = sampled_adjacency_oracle(h, g, np.random.default_rng(5), ratio)
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        got = mvge.model._adjacency_terms(h, g, "sampled", rng=np.random.default_rng(5),
                                          sample_ratio=ratio)
        assert_adjacency_matches(got, want)


@given(edge_lists(max_nodes=16, max_edges=60),
       st.integers(min_value=1, max_value=3),
       st.sampled_from([0.5, 1.0, 3.0]),
       st.integers(min_value=0, max_value=2 ** 16))
@example(graph=(10, [(0, 3), (3, 4), (4, 9), (1, 3)]), rows=2, ratio=1.0, seed=0)  # isolated
@example(graph=(6, [(2, 4)]), rows=1, ratio=3.0, seed=1)  # one edge
@settings(max_examples=80, deadline=None)
def test_sampled_adjacency_chunks_match_scatter_oracle(graph, rows, ratio, seed):
    # the same bits on one or two workers on the float32 default, and on
    # float64 work against the scatter oracle
    n, edges = graph
    g, _ = Graph.from_edges(n, edges)
    # at most half the pairs are edges, so the negatives fill well within the round cap
    assume(0 < 2 * g.num_edges <= n * (n - 1) // 2)
    h = np.random.default_rng(seed).normal(size=(n, 4))
    for float64 in (False, True):
        got = []
        for workers in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                if float64:
                    use_float64_work(mp)
                mp.setattr(mvge.model, "_PAIR_CHUNK_ROWS", rows)
                force_workers(mp, workers)
                got.append(mvge.model._adjacency_terms(h, g, "sampled",
                                                       rng=np.random.default_rng(seed),
                                                       sample_ratio=ratio))
        assert got[0][0] == got[1][0]
        assert got[0][1].tobytes() == got[1][1].tobytes()
    assert_adjacency_matches(got[0], sampled_adjacency_oracle(h, g, np.random.default_rng(seed),
                                                              ratio))


# float32 sampled loss against float64, on the same negatives. Over 4277
# draws of this kind and its corners (up to 40 nodes, d up to 32, |z| into
# the thousands) the loss differed by at most 6.6e-5 relative and the gradient
# by at most 5.2e-6 of max|grad|; the bounds leave 10x margin
@given(edge_lists(max_nodes=40, max_edges=80),
       st.sampled_from([1, 4, 32]),
       st.sampled_from([0.5, 1.0, 3.0]),
       st.integers(min_value=0, max_value=2 ** 16),
       st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=12.0)))
@settings(max_examples=100, deadline=None)
def test_sampled_adjacency_float32_tracks_float64(graph, d, ratio, seed, scale):
    n, edges = graph
    g, _ = Graph.from_edges(n, edges)
    assume(0 < 2 * g.num_edges <= n * (n - 1) // 2)
    h = scale * np.random.default_rng(seed).normal(size=(n, d))
    got = {}
    for dtype in (np.float32, np.float64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mvge.model, "_WORK_DTYPE", dtype)
            got[dtype] = mvge.model._adjacency_terms(h, g, "sampled",
                                                     rng=np.random.default_rng(seed),
                                                     sample_ratio=ratio)
    (loss, d_h), (want_loss, want_d_h) = got[np.float32], got[np.float64]
    assert d_h.dtype == np.float64
    assert abs(loss - want_loss) <= 7e-4 * abs(want_loss)
    assert np.abs(d_h - want_d_h).max() <= 6e-5 * np.abs(want_d_h).max()


def test_sampled_adjacency_peak_allocation_has_no_edge_by_dim_gathers():
    import tracemalloc

    n, d = 5000, 128
    g, _ = Graph.from_edges(n, np.random.default_rng(25).integers(0, n, size=(4 * n, 2)))
    h = np.random.default_rng(26).normal(size=(n, d))
    tracemalloc.start()
    try:
        mvge.model._adjacency_terms(h, g, "sampled", rng=np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few N x d arrays and up to 32 float64 or int64 arrays per directed edge;
    # one (E, d) gather of the pair embeddings alone is 41 MB here
    n_dir = g.neighbors.size
    assert peak <= 4 * h.nbytes + 32 * 8 * n_dir < 8 * n_dir * d


def near_complete_graph(n=10):
    # the complete graph minus one edge: 2 of every n^2 draws are negatives
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if (u, v) != (0, 1)])[0]


def test_sampled_near_complete_graph_within_round_cap():
    h = np.random.default_rng(23).normal(size=(10, 3))
    assert np.isfinite(adjacency_loss(h, near_complete_graph(), "sampled",
                                      rng=np.random.default_rng(0)))


def test_sampled_rejection_loop_bounded(monkeypatch):
    monkeypatch.setattr(mvge.model, "_NEG_MAX_ROUNDS", 1)
    with pytest.raises(ValidationError, match=r"acceptance rate 2\.00%"):
        adjacency_loss(np.ones((10, 2)), near_complete_graph(), "sampled",
                       rng=np.random.default_rng(0))


def test_total_loss_pure_ego():
    assert total_loss(3.0, 7.0, 11.0, alpha=1.0, beta=1.0) == 3.0


def test_total_loss_pure_adjacency():
    assert total_loss(3.0, 7.0, 11.0, alpha=0.3, beta=0.0) == 11.0


def test_total_loss_arithmetic_example():
    assert total_loss(2.0, 4.0, 1.0, alpha=0.5, beta=0.5) == pytest.approx(2.0)


def test_total_loss_masks_tasks():
    # a masked task's loss reaches total_loss as 0.0, so it adds exactly nothing
    ds = random_dataset(np.random.default_rng(3), n=8, f=2, c=2, p_edge=0.4)
    for mask in ({"ego"}, {"agg"}, {"adj"}, {"ego", "agg"}, {"agg", "adj"}):
        cfg = toy_cfg(task_mask=frozenset(mask), alpha=0.3, beta=0.6)
        _, _, trace = train(ds, cfg)
        losses = {"ego": trace.l_ego, "agg": trace.l_agg, "adj": trace.l_s}
        for task, loss in losses.items():
            assert (loss != 0.0).all() if task in mask else not loss.any()
        want = [total_loss(*row, cfg.alpha, cfg.beta) for row in zip(*losses.values())]
        assert trace.l_total.tolist() == want, mask


@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_total_loss_affine_coefficients(alpha, beta):
    """Probing with unit losses recovers the three mixing coefficients."""
    base = total_loss(0.0, 0.0, 0.0, alpha, beta)
    c_ego = total_loss(1.0, 0.0, 0.0, alpha, beta) - base
    c_agg = total_loss(0.0, 1.0, 0.0, alpha, beta) - base
    c_adj = total_loss(0.0, 0.0, 1.0, alpha, beta) - base
    assert base == 0.0
    assert c_ego == pytest.approx(beta * alpha, abs=1e-12)
    assert c_agg == pytest.approx(beta * (1.0 - alpha), abs=1e-12)
    assert c_adj == pytest.approx(1.0 - beta, abs=1e-12)


# -- gradients ---------------------------------------------------------------

def toy_step(ds, **cfg_kw):
    """A fresh model on ``ds`` and a closure that runs one _train_step of it,
    on a fixed negative-sampling stream, and returns the total loss. The
    closure prepares its inputs itself, so they take the _WORK_DTYPE it runs
    under."""
    cfg = toy_cfg(**cfg_kw)
    views = build_views(ds.graph, ds.features, cfg.walk_config())
    s = normalized_adjacency(ds.graph)
    model = MVGEModel(cfg, views.x_ego.shape[1], views.x_agg.shape[1])
    mode = cfg.resolve_adj_mode(ds.graph.num_nodes)

    def step():
        rng = np.random.default_rng(7)  # fixed stream keeps sampled mode smooth
        s_work, inputs = _prepare(model, views, s)
        return _train_step(model, inputs, s_work, ds.graph, mode, rng)[3]

    return model, step


def grad_check_toy(ds=None, **cfg_kw):
    """grad_check over every parameter of the combined loss on a toy graph,
    with all the float32 work in float64. Each step records the sign of every
    ReLU output in the encoder caches, so that grad_check sees a kink that its
    step crosses."""
    if ds is None:
        ds = random_dataset(np.random.default_rng(3), n=8, f=2, c=2, p_edge=0.4)
    model, loss = toy_step(ds, dim_ego=3, dim_agg=3, hidden_dim=4, **cfg_kw)
    sides, encode = {}, model._encode

    def recording_encode(name, x, s, sx):
        h, cache = encode(name, x, s, sx)
        sides[name] = [(cache[k] > 0.0).tobytes() for k in ("g1", "inner") if k in cache]
        return h, cache

    with pytest.MonkeyPatch.context() as mp:
        use_float64_work(mp)
        mp.setattr(model, "_encode", recording_encode)
        return grad_check(loss, model.params, max_entries_per_param=12,
                          relu_sides=lambda: (sides["ego"], sides["agg"]))


def test_gradients_full_model():
    assert grad_check_toy() < 1e-4


def test_gradients_gcn_ego_variant():
    assert grad_check_toy(ego_encoder="gcn") < 1e-4


def test_gradients_sum_merge():
    assert grad_check_toy(merge_fn="sum") < 1e-4


def test_gradients_full_adjacency_several_blocks(monkeypatch):
    use_float64_work(monkeypatch)
    set_block_rows(monkeypatch, 8, 3)  # the toy graph has 8 nodes: blocks 3, 3, 2
    assert grad_check_toy() < 1e-4
    assert grad_check_toy(task_mask=frozenset({"adj"})) < 1e-4


def test_gradients_sampled_adjacency():
    assert grad_check_toy(adj_loss_mode="sampled") < 1e-4


def test_gradients_single_task_masks():
    assert grad_check_toy(task_mask=frozenset({"ego"})) < 1e-4
    assert grad_check_toy(task_mask=frozenset({"adj"})) < 1e-4


TASK_MASKS = [frozenset(m) for k in (1, 2, 3) for m in itertools.combinations(TASKS, k)]


# each branch's d_h is the adjacency gradient's share plus the decoder's; a
# masked task or a zero weight (alpha 0 or 1 drops a decoder, beta 1 the
# adjacency term) leaves one of the two, or neither, to make it
@given(st.sampled_from(TASK_MASKS), st.sampled_from(MERGE_FNS),
       st.sampled_from([{}, {"alpha": 0.0}, {"alpha": 1.0}, {"beta": 1.0}]),
       st.sampled_from(["full", "sampled"]), st.sampled_from(EGO_ENCODERS))
@settings(max_examples=100, deadline=None)
def test_gradients_every_task_mask_merge_and_zero_weight(mask, merge, weights, mode, encoder):
    assert grad_check_toy(task_mask=mask, merge_fn=merge, adj_loss_mode=mode,
                          ego_encoder=encoder, **weights) < 1e-4


@pytest.mark.parametrize("encoder", EGO_ENCODERS)
def test_encode_caches_no_concatenation_and_backward_empties_the_cache(encoder):
    # the skip layer takes x and inner apart, so no cached array is f + hidden
    # wide; _backward drops d_h and every activation, and leaves only inputs
    ds = random_dataset(np.random.default_rng(5), n=10, p_edge=0.3)
    cfg = toy_cfg(ego_encoder=encoder)
    views = build_views(ds.graph, ds.features, cfg.walk_config())
    model = MVGEModel(cfg, views.x_ego.shape[1], views.x_agg.shape[1])
    s, inputs = _prepare(model, views, normalized_adjacency(ds.graph))
    for name, (x, _, _, sx) in inputs.items():
        h, cache = model._encode(name, x, s, sx)
        wide = model.widths[name] + cfg.hidden_dim
        assert all(a.shape[1] < wide for a in cache.values() if isinstance(a, np.ndarray))
        cache["d_h"] = np.ones_like(h)
        model._backward(name, cache)
        assert all(any(v is kept for kept in (x, sx, s)) for v in cache.values()), sorted(cache)


KINK_DATASET = make_dataset(
    Graph.from_edges(11, [(1, 6), (3, 6), (3, 9), (4, 6), (5, 6), (6, 9), (8, 9), (8, 10)])[0],
    np.array([[-1.33197984], [0.61392966], [0.60277683], [-1.76771858], [0.3470301],
              [-0.25042135], [0.7815227], [-0.43906219], [-0.01824086], [0.34285152],
              [-0.87626169]]))


def test_kink_draw_fails_the_central_difference_alone():
    # keeps the @examples below on a draw whose check needs the one-sided difference
    model, loss = toy_step(KINK_DATASET, dim_ego=3, dim_agg=3, hidden_dim=4, ego_encoder="gcn")
    with pytest.MonkeyPatch.context() as mp:
        use_float64_work(mp)
        assert grad_check(loss, model.params, max_entries_per_param=12) > 1e-2


# 60 examples take about 4 s on a 2-vCPU VM; the deadline catches a path
# that spins, such as a negative-sampling loop without its bound
@given(hostile_datasets(plain_features=True), st.sampled_from(["full", "sampled"]),
       st.sampled_from(EGO_ENCODERS))
# one node, no edge, one tiny feature: every gradient entry is 1e-9 to 1e-7,
# down where the central difference's roundoff is
@example(ds=make_dataset(Graph.from_edges(1, [])[0], np.array([[0.00123015]])),
         mode="full", encoder="linear")
# one agg second-convolution ReLU input lies 1.8e-6 from zero, inside the
# central difference's reach: grad_check must step away from it
@example(ds=KINK_DATASET, mode="full", encoder="gcn")
@example(ds=KINK_DATASET, mode="sampled", encoder="gcn")
@settings(max_examples=60, deadline=timedelta(seconds=5))
def test_gradients_on_hostile_graphs(ds, mode, encoder):
    # zero or constant features put ReLU inputs exactly on the kink, where
    # finite differences disagree, so the features here are random
    try:
        worst = grad_check_toy(ds, adj_loss_mode=mode, ego_encoder=encoder)
    except ValidationError:  # no node, no edge, or no negative pair to sample
        return
    assert worst < 1e-4


# one float32 training step against float64, from the same parameters. Over
# 3873 seeded draws of this kind (127 more drew sampled mode without an
# edge or a non-edge), with the encoders, the KL decoders and both adjacency
# losses in float32, the total loss differed by at most 5.5e-7 relative and a
# parameter's gradient by at most 6.3e-4 of its largest entry. That worst
# case, and the only one above 1.8e-4, is the ego decoder's bias on two
# features, whose column sums of q - p nearly cancel; the next parameter
# kind stayed within 1.8e-5
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.1, max_value=0.6), st.sampled_from(EGO_ENCODERS),
       st.sampled_from(["full", "sampled"]), st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=60, deadline=None)
def test_float32_train_step_tracks_float64(n, f, p_edge, encoder, mode, seed):
    ds = random_dataset(np.random.default_rng(seed), n=n, f=f, p_edge=p_edge)
    # sampled mode needs an edge and a non-edge
    assume(mode == "full" or 0 < ds.graph.neighbors.size < n * (n - 1))
    got = {}
    for dtype in (np.float32, np.float64):
        model, step = toy_step(ds, ego_encoder=encoder, adj_loss_mode=mode)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mvge.model, "_WORK_DTYPE", dtype)
            got[dtype] = step(), model.params
    loss, params = got[np.float32]
    want_loss, want_params = got[np.float64]
    assert abs(loss - want_loss) <= 3e-6 * abs(want_loss)
    for name, p in params.items():
        assert p.value.dtype == p.grad.dtype == np.float64
        want = want_params[name].grad
        assert np.abs(p.grad - want).max() <= 1e-3 * np.abs(want).max()


# one float32 KL decoder call against float64, from the same parameters. Each
# entry of q - p lies in [-1, 1], so a gradient's float32 error is measured
# against the magnitudes each of its entries sums: w n for the bias, w sum_i
# |h_ik| for the weights and w sum_j |W_kj| for d_h; the loss's against its two
# sums, the cross-entropy KL + H(p) and the entropy H(p). Over 6888 draws of
# this kind and its corners the worst ratios were 1.8e-6 for the loss and
# 5.5e-7, 8.6e-7 and 1.2e-6 for the gradients; the bounds leave 10x margin.
# The loss takes sum p log p in float64 and log q as a log-softmax; over 30000
# draws weighted to the corners its worst ratio was 5.2e-6, against 129 draws
# past the bound when it took log p and log q of the float32 p and q.
# w is a task weight, beta * alpha or beta * (1 - alpha); below float32's
# smallest normal, 1.2e-38, the scaled float32 gradient flushes to zero, so
# MVGEConfig refuses a weight between 0 and it
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=8),
       st.sampled_from([1, 4, 32]),
       st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
       st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=12.0)),
       st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=12.0)),
       st.integers(min_value=0, max_value=2 ** 16))
# a nearly one-hot row: a float32 p or q near 1, and its log near 0, carried
# roundoff of up to eps / 2 however small the loss and entropy were, 4.2e-8
# against 2.9e-8 allowed, until log q became a log-softmax (now 4.3e-10)
@example(n=1, f=2, d=1, w=0.0, x_scale=4.0, h_scale=7.0, seed=5000)
@settings(max_examples=100, deadline=None)
def test_float32_kl_decoder_tracks_float64(n, f, d, w, x_scale, h_scale, seed):
    rng = np.random.default_rng(seed)
    x = x_scale * rng.normal(size=(n, f))
    p, log_p = mvge.model._softmax(x)
    p_log_p = float((p * log_p).sum())
    h = h_scale * rng.normal(size=(n, d))
    got = {}
    for dtype in (np.float32, np.float64):
        model, _ = toy_model(f_ego=f, dim_ego=d, dim_agg=d, seed=seed)
        d_h = np.zeros_like(h)  # the float64 d_h that a step adds the decoder's share into
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mvge.model, "_WORK_DTYPE", dtype)
            loss, d_dec = model._decode("ego", h, p.astype(dtype), p_log_p, w)
        if d_dec is not None:
            d_h += d_dec
        got[dtype] = loss, model.params["dec_ego_b"].grad, model.params["dec_ego_w"].grad, d_h
    entropy = -(p * np.log(np.maximum(p, 1e-12))).sum()
    dec_w = model.params["dec_ego_w"].value
    scales = (got[np.float64][0] + 2.0 * entropy, w * n,
              w * np.abs(h).sum(axis=0)[:, None], w * np.abs(dec_w).sum(axis=1))
    for value, want, scale, bound in zip(got[np.float32], got[np.float64], scales,
                                         (2e-5, 6e-6, 9e-6, 1.2e-5)):
        assert np.asarray(value).dtype == np.float64
        assert np.all(np.abs(value - want) <= bound * scale)


@pytest.mark.parametrize("encoder", EGO_ENCODERS)
@pytest.mark.parametrize("epochs", [1, 3])
def test_train_takes_s_x_once_per_training(monkeypatch, encoder, epochs):
    # S x once per graph convolution in _prepare; after it, each convolution
    # branch takes one S product in every step and one in the final pass
    calls = []
    spmm = mvge.model.spmm
    monkeypatch.setattr(mvge.model, "spmm", lambda s, x: calls.append(x.shape) or spmm(s, x))
    ds = random_dataset(np.random.default_rng(5), n=10, p_edge=0.3)
    train(ds, toy_cfg(epochs=epochs, ego_encoder=encoder))
    branches = 2 if encoder == "gcn" else 1
    assert len(calls) == branches * (epochs + 2)


@pytest.mark.parametrize("encoder", EGO_ENCODERS)
def test_prepare_gives_every_array_in_the_work_dtype(encoder):
    ds = random_dataset(np.random.default_rng(5), n=10, p_edge=0.3)
    cfg = toy_cfg(ego_encoder=encoder)
    views = build_views(ds.graph, ds.features, cfg.walk_config())
    model = MVGEModel(cfg, views.x_ego.shape[1], views.x_agg.shape[1])
    for dtype in (np.float32, np.float64):
        with pytest.MonkeyPatch.context() as mp:
            if dtype == np.float64:
                use_float64_work(mp)
            s, inputs = _prepare(model, views, normalized_adjacency(ds.graph))
        assert (inputs["ego"].sx is None) == (encoder == "linear")
        arrays = [s] + [a for b in inputs.values() for a in (b.x, b.p, b.sx) if a is not None]
        assert all(a.dtype == dtype for a in arrays)


@pytest.mark.parametrize("encoder", EGO_ENCODERS)
def test_float32_encoders_leave_float64_outputs(encoder):
    ds = random_dataset(np.random.default_rng(33), n=12, p_edge=0.3)
    model, emb, _ = train(ds, toy_cfg(epochs=2, ego_encoder=encoder))
    for h in (emb.h, emb.h_ego, emb.h_agg):
        assert h.dtype == np.float64
    for p in model.params.values():
        assert p.value.dtype == p.grad.dtype == np.float64


# -- training loop -----------------------------------------------------------

def test_two_epoch_toy_run():
    ds = random_dataset(np.random.default_rng(0), n=8, f=3, c=2, p_edge=0.4)
    _, emb, trace = train(ds, toy_cfg(epochs=2))
    assert len(trace) == 2
    assert np.all(np.isfinite(trace.l_total))
    assert np.all(np.isfinite(emb.h))
    assert emb.h.shape == (8, 12)


def test_trace_rows_format():
    ds = random_dataset(np.random.default_rng(0), n=8)
    _, _, trace = train(ds, toy_cfg(epochs=3))
    rows = trace.rows()
    assert [r[0] for r in rows] == [0, 1, 2]
    assert all(len(r) == 5 for r in rows)


def test_loss_descends_on_synthetic():
    spec = SynthSpec(
        num_nodes=500, num_classes=5, target_homophily=0.5, avg_degree=4.0,
        feature_dim=8, class_separation=1.0, noise_sigma=0.5, seed=0,
    )
    ds = generate_synthetic(spec)
    _, _, trace = train(ds, MVGEConfig(epochs=200, dim_ego=16, dim_agg=16, hidden_dim=32))
    assert trace.l_total[-1] < trace.l_total[0]


def test_same_seed_identical_embeddings():
    ds = random_dataset(np.random.default_rng(4), n=15)
    a = train(ds, toy_cfg(epochs=5, seed=9))[1]
    b = train(ds, toy_cfg(epochs=5, seed=9))[1]
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.h_ego, b.h_ego)


def test_different_seed_differs():
    ds = random_dataset(np.random.default_rng(4), n=15)
    a = train(ds, toy_cfg(epochs=5, seed=1))[1]
    b = train(ds, toy_cfg(epochs=5, seed=2))[1]
    assert not np.array_equal(a.h, b.h)


def test_zero_epochs_returns_initial_embeddings():
    ds = random_dataset(np.random.default_rng(5), n=10)
    _, emb, trace = train(ds, toy_cfg(epochs=0))
    assert len(trace) == 0
    assert np.all(np.isfinite(emb.h))


def test_masked_task_logs_zero():
    ds = random_dataset(np.random.default_rng(6), n=10)
    _, _, trace = train(ds, toy_cfg(epochs=3, task_mask=frozenset({"ego"})))
    assert np.all(trace.l_agg == 0.0)
    assert np.all(trace.l_s == 0.0)
    assert np.all(trace.l_ego > 0.0)


def test_no_adjacency_task_skips_the_loss_and_the_step_merge(monkeypatch):
    # only the adjacency loss reads the merged h of a step, so with "adj"
    # masked out neither it nor the merge runs; the final embeddings still merge
    calls = []
    adjacency_terms, merge = mvge.model._adjacency_terms, mvge.model.merge_embeddings
    monkeypatch.setattr(mvge.model, "_adjacency_terms",
                        lambda *a, **kw: calls.append("adj") or adjacency_terms(*a, **kw))
    monkeypatch.setattr(mvge.model, "merge_embeddings",
                        lambda *a: calls.append("merge") or merge(*a))
    ds = random_dataset(np.random.default_rng(6), n=10)
    _, emb, trace = train(ds, toy_cfg(epochs=3, task_mask=frozenset({"ego", "agg"})))
    assert calls == ["merge"]
    assert np.all(trace.l_s == 0.0)
    assert np.array_equal(emb.h, np.hstack([emb.h_ego, emb.h_agg]))


@pytest.mark.parametrize("workers", [1, 2])
def test_sampled_training_peak_allocation_per_node(monkeypatch, workers):
    # a step holds each large array once and lets go of it after its last read.
    # One sampled-mode training of the default model at N=3000 peaks at
    # 6,574-6,578 B a node (tracemalloc, one or two workers, CPython 3.11).
    # The figure is printed, so that `pytest -s` shows it on any Python
    force_workers(monkeypatch, workers)
    n = 3000
    ds = generate_synthetic(SynthSpec(num_nodes=n, num_classes=5, target_homophily=0.8,
                                      avg_degree=4.0, feature_dim=32, seed=1))
    cfg = MVGEConfig(epochs=2, seed=1, adj_loss_mode="sampled")
    views = build_views(ds.graph, ds.features, cfg.walk_config())
    tracemalloc.start()
    try:
        train(ds, cfg, views=views)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"training peak at N={n}, sampled, {workers} worker(s), "
          f"CPython {platform.python_version()}: {peak / n:.0f} B a node")
    if sys.version_info >= (3, 11):
        assert peak / n < 7300
    else:
        # before 3.11 a caller's value stack keeps each argument until the call
        # returns, so the merged h stays alive through the adjacency loss
        assert peak / n < 9500


def test_merged_matches_merge_fn():
    ds = random_dataset(np.random.default_rng(7), n=10)
    _, emb, _ = train(ds, toy_cfg(epochs=2))
    assert np.array_equal(emb.h, np.hstack([emb.h_ego, emb.h_agg]))
    _, emb_s, _ = train(ds, toy_cfg(epochs=2, merge_fn="sum"))
    assert np.allclose(emb_s.h, emb_s.h_ego + emb_s.h_agg)


def test_sampled_mode_trains(tmp_path):
    ds = random_dataset(np.random.default_rng(8), n=20, p_edge=0.3)
    _, emb, trace = train(ds, toy_cfg(epochs=4, adj_loss_mode="sampled"))
    assert np.all(np.isfinite(trace.l_s))
    assert np.all(np.isfinite(emb.h))


# 150 examples take about 2 s on a 2-vCPU VM
@given(hostile_datasets(), st.sampled_from(["full", "sampled"]),
       st.sampled_from(EGO_ENCODERS))
@settings(max_examples=150, deadline=timedelta(seconds=5))
def test_train_on_hostile_graphs_is_finite_or_a_clean_error(ds, mode, encoder):
    cfg = toy_cfg(dim_ego=3, dim_agg=3, hidden_dim=4, epochs=3, walk_lengths=(2, 3),
                  adj_loss_mode=mode, ego_encoder=encoder)
    try:
        _, emb, trace = train(ds, cfg)
    except (ValidationError, TrainingDivergedError):
        return
    assert np.isfinite(trace.l_total).all() and np.isfinite(trace.l_s).all()
    for h in (emb.h, emb.h_ego, emb.h_agg):
        assert h.shape[0] == ds.num_nodes and np.isfinite(h).all()


@given(hostile_datasets(), st.sampled_from(EGO_ENCODERS), st.sampled_from(MERGE_FNS),
       st.sampled_from(["full", "sampled"]),
       st.sampled_from([TASKS, ("agg", "adj"), ("ego", "adj")]),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=timedelta(seconds=5))
def test_train_same_bits_on_one_or_two_workers(ds, encoder, merge, mode, tasks, rows):
    cfg = toy_cfg(dim_ego=3, dim_agg=3, hidden_dim=4, epochs=3, walk_lengths=(2, 3),
                  adj_loss_mode=mode, ego_encoder=encoder, merge_fn=merge,
                  task_mask=frozenset(tasks))
    got = []
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            force_workers(mp, workers)
            set_block_rows(mp, max(ds.num_nodes, 1), rows)
            mp.setattr(mvge.model, "_PAIR_CHUNK_ROWS", rows)
            try:
                _, emb, trace = train(ds, cfg)
            except (ValidationError, TrainingDivergedError) as exc:
                got.append(repr(exc))
                continue
        got.append([a.tobytes() for a in (emb.h, emb.h_ego, emb.h_agg, trace.l_ego,
                                          trace.l_agg, trace.l_s, trace.l_total)])
    assert got[0] == got[1]


def test_diverged_error_carries_epoch():
    err = TrainingDivergedError(17, "boom")
    assert err.epoch == 17
    assert "boom" in str(err)


# -- config ------------------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(ValidationError):
        MVGEConfig(alpha=1.5)
    with pytest.raises(ValidationError):
        MVGEConfig(beta=-0.1)
    with pytest.raises(ValidationError):
        MVGEConfig(dim_ego=0)
    with pytest.raises(ValidationError):
        MVGEConfig(task_mask=frozenset())
    with pytest.raises(ValidationError):
        MVGEConfig(task_mask=frozenset({"ego", "bogus"}))
    with pytest.raises(ValidationError):
        MVGEConfig(merge_fn="sum", dim_ego=32, dim_agg=64)
    with pytest.raises(ValidationError):
        MVGEConfig(ego_encoder="transformer")
    with pytest.raises(ValidationError):
        MVGEConfig(lr=0.0)
    with pytest.raises(ValidationError):
        MVGEConfig(epochs=-1)


@pytest.mark.parametrize("name", ["epochs", "dim_ego", "dim_agg", "hidden_dim", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_config_integer_fields_reject_other_types(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        MVGEConfig(**{name: value})
    assert getattr(MVGEConfig(**{name: np.int64(3)}), name) == 3


def test_config_seed_must_fit_uint64():
    with pytest.raises(ValidationError, match="seed"):
        MVGEConfig(seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        MVGEConfig(seed=2**64)
    assert MVGEConfig(seed=2**64 - 1).walk_config().seed == 2**64 - 1


def test_config_adj_mode_resolution():
    assert MVGEConfig().resolve_adj_mode(100) == "full"
    assert MVGEConfig().resolve_adj_mode(5001) == "sampled"
    assert MVGEConfig(adj_loss_mode="sampled").resolve_adj_mode(10) == "sampled"
    assert MVGEConfig(adj_loss_mode="full").resolve_adj_mode(10 ** 6) == "full"


# -- embedding statistics ----------------------------------------------------

def test_dim_std_constant_column_is_zero():
    h = np.column_stack([np.full(5, 3.0), np.arange(5, dtype=np.float64)])
    assert embedding_dim_std(h)[0] == 0.0


def test_dim_std_population_formula():
    assert embedding_dim_std(np.array([[0.0], [2.0]]))[0] == 1.0


def test_dim_std_needs_two_rows():
    with pytest.raises(ValidationError):
        embedding_dim_std(np.ones((1, 4)))


# -- grid search -------------------------------------------------------------

def test_grid_search_table_and_argmax():
    ds = random_dataset(np.random.default_rng(9), n=24, f=3, c=2, p_edge=0.25)
    cfg = toy_cfg(epochs=2, dim_ego=4, dim_agg=4, hidden_dim=4)
    alpha, beta, table = grid_search_alpha_beta(ds, cfg, grid_step=0.5)
    assert len(table) == 9  # (1/0.5 + 1)^2
    best = max(t[2] for t in table)
    found = [t for t in table if t[0] == alpha and t[1] == beta]
    assert found and found[0][2] == best


def test_grid_search_full_grid_size():
    ds = random_dataset(np.random.default_rng(10), n=12, f=2, c=2, p_edge=0.3)
    cfg = toy_cfg(epochs=1, dim_ego=2, dim_agg=2, hidden_dim=2)
    _, _, table = grid_search_alpha_beta(ds, cfg, grid_step=0.1)
    assert len(table) == 121
    alphas = sorted({t[0] for t in table})
    assert alphas == pytest.approx([i / 10 for i in range(11)])


def test_grid_search_single_class_tie_break():
    g, labels = random_dataset(np.random.default_rng(11), n=10, c=2).graph, np.zeros(10, dtype=np.int64)
    ds = make_dataset(g, np.random.default_rng(12).normal(size=(10, 3)), labels, num_classes=1)
    cfg = toy_cfg(epochs=1, dim_ego=2, dim_agg=2, hidden_dim=2)
    alpha, beta, table = grid_search_alpha_beta(ds, cfg, grid_step=0.5)
    assert all(t[2] == 1.0 for t in table)
    assert (alpha, beta) == (0.0, 0.0)


def test_grid_search_requires_labels():
    ds = random_dataset(np.random.default_rng(13), n=10)
    ds = make_dataset(ds.graph, ds.features, None, None)
    with pytest.raises(ValidationError, match="labels"):
        grid_search_alpha_beta(ds, toy_cfg())


def test_grid_search_rejects_bad_step():
    ds = random_dataset(np.random.default_rng(14), n=10)
    with pytest.raises(ValidationError):
        grid_search_alpha_beta(ds, toy_cfg(), grid_step=0.3)
