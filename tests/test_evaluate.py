"""Downstream probes: classifier, metrics, splits, and task harnesses."""

import subprocess
import sys
from datetime import timedelta
from unittest.mock import patch

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import mvge.model
from mvge.evaluate import (
    EvalReport,
    LogRegModel,
    SplitSpec,
    _sample_label_pairs,
    _sample_non_edges,
    grid_search_alpha_beta,
    link_prediction_eval,
    link_split,
    micro_f1,
    node_classification_eval,
    pair_embed_l2,
    pairwise_eval,
    roc_auc,
)
from mvge.graph import Graph, ValidationError
from mvge.model import MVGEConfig
from mvge.synth import SynthSpec, generate_synthetic

from conftest import hostile_datasets, labeled_graphs, make_dataset, random_dataset


# -- logistic regression probe -----------------------------------------------

def test_logreg_separable_two_class():
    x = np.array([[0.0, 0.0], [0.1, 0.2], [5.0, 5.0], [5.2, 4.9]])
    y = np.array([0, 0, 1, 1])
    clf = LogRegModel().fit(x, y)
    assert micro_f1(y, clf.predict(x)) == 1.0


def test_logreg_identical_features_predicts_majority():
    x = np.ones((10, 3))
    y = np.array([0] * 7 + [1] * 3)
    clf = LogRegModel().fit(x, y)
    assert np.all(clf.predict(np.ones((4, 3))) == 0)


def test_logreg_well_separated_blobs():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    x = np.concatenate([rng.normal(c, 1.0, size=(60, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 60)
    perm = rng.permutation(180)
    x, y = x[perm], y[perm]
    clf = LogRegModel().fit(x[:120], y[:120], num_classes=3)
    acc = micro_f1(y[120:], clf.predict(x[120:]))
    assert acc > 0.95


def test_logreg_single_class_degenerate():
    clf = LogRegModel().fit(np.random.default_rng(1).normal(size=(5, 2)),
                            np.full(5, 2, dtype=np.int64), num_classes=4)
    assert np.all(clf.predict(np.zeros((3, 2))) == 2)


def test_logreg_scores_shape_binary_and_multiclass():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 3))
    clf2 = LogRegModel().fit(x, (x[:, 0] > 0).astype(np.int64), num_classes=2)
    assert clf2.scores(x).shape == (20, 2)
    y3 = rng.integers(0, 3, size=20)
    clf3 = LogRegModel().fit(x, y3, num_classes=3)
    assert clf3.scores(x).shape == (20, 3)


@pytest.mark.parametrize("label", [0, 1])
def test_logreg_binary_scores_positive_column(label):
    # column 1 of a binary probe's scores is what the pair protocols rank by
    x = np.random.default_rng(3).normal(size=(12, 3))
    clf = LogRegModel().fit(x, (x[:, 0] > 0).astype(np.int64), num_classes=2)
    z = ((x - clf.mu) / clf.sd) @ clf.weights + clf.bias
    np.testing.assert_array_equal(clf.scores(x)[:, 1], z[:, 0])
    # a single-class training set scores every pair by that class
    clf = LogRegModel().fit(x, np.full(12, label), num_classes=2)
    assert clf.scores(x)[:, 1].tolist() == [float(label)] * 12


def test_logreg_standardization_shift_invariant():
    """Standardizing from train rows makes the probe offset-invariant."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    a = LogRegModel().fit(x, y).predict(x)
    b = LogRegModel().fit(x + 100.0, y).predict(x + 100.0)
    assert np.array_equal(a, b)


# -- metrics -----------------------------------------------------------------

def test_micro_f1_perfect():
    assert micro_f1(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0


def test_micro_f1_all_wrong():
    assert micro_f1(np.array([0, 0, 0]), np.array([1, 1, 1])) == 0.0


def test_micro_f1_three_of_four():
    assert micro_f1(np.array([0, 1, 1, 0]), np.array([0, 1, 1, 1])) == 0.75


def test_micro_f1_rejects_empty_and_mismatch():
    with pytest.raises(ValidationError):
        micro_f1(np.array([]), np.array([]))
    with pytest.raises(ValidationError):
        micro_f1(np.array([0, 1]), np.array([0]))


def test_micro_f1_equals_accuracy_on_random_vectors():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        c = int(rng.integers(1, 6))
        y = rng.integers(0, c, size=n)
        p = rng.integers(0, c, size=n)
        assert micro_f1(y, p) == pytest.approx(np.mean(y == p))


def pooled_micro_f1(y_true, y_pred):
    """Micro-F1 from per-class true/false positive and negative counts."""
    tp = fp = fn = 0
    for c in np.unique(np.concatenate([y_true, y_pred])):
        tp += int(((y_pred == c) & (y_true == c)).sum())
        fp += int(((y_pred == c) & (y_true != c)).sum())
        fn += int(((y_pred != c) & (y_true == c)).sum())
    return 0.0 if tp == 0 else 2.0 * tp / (2 * tp + fp + fn)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_micro_f1_matches_pooled_counts_exactly(data):
    n = data.draw(st.integers(min_value=1, max_value=300))
    c = data.draw(st.integers(min_value=1, max_value=8))
    labels = st.lists(st.integers(min_value=0, max_value=c - 1), min_size=n, max_size=n)
    y = np.array(data.draw(labels))
    p = np.array(data.draw(labels))
    assert micro_f1(y, p) == pooled_micro_f1(y, p)


def test_roc_auc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert roc_auc(scores, labels) == 1.0


def test_roc_auc_all_ties_is_half():
    assert roc_auc(np.ones(6), np.array([0, 1, 0, 1, 0, 1])) == 0.5


def test_roc_auc_known_example():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    assert roc_auc(scores, labels) == 0.75


def test_roc_auc_one_class_rejected():
    with pytest.raises(ValidationError):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_roc_auc_matches_brute_force(data):
    n = data.draw(st.integers(min_value=2, max_value=200))
    labels = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=1), min_size=n, max_size=n)))
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = np.array(data.draw(st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=n, max_size=n)))
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
    assert roc_auc(scores, labels) == pytest.approx(brute, abs=1e-12)


def rankdata_auc(scores, labels):
    ranks = scipy.stats.rankdata(scores)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_roc_auc_matches_rankdata_exactly(data):
    """Heavy ties and infinities: the average ranks equal scipy's bit for bit."""
    n = data.draw(st.integers(min_value=2, max_value=300))
    labels = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=1), min_size=n, max_size=n)))
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    values = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 3.0, np.inf])
    scores = np.array(data.draw(st.lists(
        st.one_of(values, st.floats(allow_nan=False)), min_size=n, max_size=n)))
    assert roc_auc(scores, labels) == rankdata_auc(scores, labels)


def test_roc_auc_rejects_nan_scores():
    with pytest.raises(ValidationError, match="NaN"):
        roc_auc(np.array([0.1, np.nan, 0.3, 0.2]), np.array([0, 1, 0, 1]))


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, mvge; print('scipy.stats' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


# -- node classification harness ---------------------------------------------

def test_one_hot_embeddings_score_one():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, size=60)
    h = np.eye(4)[labels]
    rep = node_classification_eval(h, labels, SplitSpec("node", repeats=3))
    assert rep.mean == 1.0
    assert rep.metric == "micro_f1"


def test_random_embeddings_score_chance():
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(5), 100)
    h = rng.normal(size=(500, 16))
    rep = node_classification_eval(h, labels, SplitSpec("node", repeats=5))
    assert abs(rep.mean - 0.2) <= 0.05


def test_single_repeat_zero_std():
    labels = np.array([0, 1] * 10)
    h = np.eye(2)[labels]
    rep = node_classification_eval(h, labels, SplitSpec("node", repeats=1))
    assert rep.std == 0.0
    assert len(rep.scores) == 1


def test_node_eval_needs_two_classes():
    with pytest.raises(ValidationError, match="2 classes"):
        node_classification_eval(np.ones((5, 2)), np.zeros(5, dtype=np.int64),
                                 SplitSpec("node"))


def test_node_eval_deterministic():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, size=40)
    h = rng.normal(size=(40, 8))
    a = node_classification_eval(h, labels, SplitSpec("node", repeats=2, seed=3))
    b = node_classification_eval(h, labels, SplitSpec("node", repeats=2, seed=3))
    assert a.scores == b.scores


def test_report_consistency():
    labels = np.repeat([0, 1], 20)
    h = np.random.default_rng(8).normal(size=(40, 4))
    rep = node_classification_eval(h, labels, SplitSpec("node", repeats=4))
    assert rep.mean == pytest.approx(np.mean(rep.scores))
    assert rep.std == pytest.approx(np.std(rep.scores))
    d = rep.to_dict()
    assert set(d) == {"task", "metric", "scores", "mean", "std"}


# -- link split --------------------------------------------------------------

def ring_graph(n):
    g, _ = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    return g


def test_link_split_counts():
    g = ring_graph(100)  # exactly 100 edges
    split = link_split(g, SplitSpec("link"))
    assert split.test_pos.shape == (15, 2)
    assert split.test_neg.shape == (15, 2)
    assert split.train_pos.shape == (85, 2)
    assert split.train_neg.shape == (85, 2)
    assert split.train_graph.num_edges == 85


def test_link_split_disjoint_and_clean():
    g = ring_graph(60)
    split = link_split(g, SplitSpec("link"), repeat=2)
    train_keys = {tuple(e) for e in split.train_graph.edge_array()}
    # no test positive survives in the train graph
    assert not train_keys & {tuple(e) for e in split.test_pos}
    # negatives are non-edges of the original graph
    for pairset in (split.train_neg, split.test_neg):
        assert not g.has_edge_mask(pairset[:, 0], pairset[:, 1]).any()
    # train and test negatives do not overlap
    neg_train = {tuple(e) for e in split.train_neg}
    neg_test = {tuple(e) for e in split.test_neg}
    assert not neg_train & neg_test


def test_link_split_deterministic():
    g = ring_graph(40)
    a = link_split(g, SplitSpec("link", seed=5), repeat=1)
    b = link_split(g, SplitSpec("link", seed=5), repeat=1)
    assert np.array_equal(a.test_pos, b.test_pos)
    assert np.array_equal(a.train_neg, b.train_neg)
    c = link_split(g, SplitSpec("link", seed=5), repeat=2)
    assert not np.array_equal(a.test_pos, c.test_pos)


@pytest.mark.parametrize("task", ["node", "link", "pair"])
def test_split_spec_rejects_negative_seed(task):
    with pytest.raises(ValidationError, match="seed"):
        SplitSpec(task, seed=-1)


@pytest.mark.parametrize("name", ["repeats", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_split_spec_integer_fields_reject_other_types(name, value):
    # repeats=True ran one repeat, repeats=2.5 failed later in range()
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        SplitSpec("node", **{name: value})
    assert getattr(SplitSpec("node", **{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize("value", [True, "0.3", [0.3]])
def test_split_spec_train_fraction_rejects_other_types(value):
    with pytest.raises(ValidationError, match="train_fraction must be a real number"):
        SplitSpec("link", train_fraction=value)


def test_link_split_complete_graph_rejected():
    g, _ = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(ValidationError, match="non-edge"):
        link_split(g, SplitSpec("link"))


def test_link_split_too_few_edges_rejected():
    g, _ = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValidationError, match="split"):
        link_split(g, SplitSpec("link"))


# -- pair samplers against the two loops they replaced -----------------------

def reference_non_edges(g, count, rng):
    n = g.num_nodes
    pool = n * (n - 1) // 2 - g.num_edges
    if count > pool:
        raise ValidationError(f"need {count} non-edge pairs but only {pool} exist")
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    if count * 4 > pool:
        iu, iv = np.triu_indices(n, k=1)
        mask = ~g.has_edge_mask(iu, iv)
        iu, iv = iu[mask], iv[mask]
        pick = rng.choice(iu.size, size=count, replace=False)
        return np.stack([iu[pick], iv[pick]], axis=1).astype(np.int64)
    taken = set()
    out = np.empty((count, 2), dtype=np.int64)
    got = 0
    while got < count:
        m = (count - got) * 2
        a = rng.integers(0, n, size=m)
        b = rng.integers(0, n, size=m)
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        ok = (u != v) & ~g.has_edge_mask(u, v)
        for uu, vv in zip(u[ok], v[ok]):
            key = int(uu) * n + int(vv)
            if key in taken:
                continue
            taken.add(key)
            out[got] = (uu, vv)
            got += 1
            if got == count:
                break
    return out


def reference_label_pairs(labels, count, same, rng):
    n = labels.shape[0]
    counts = np.bincount(labels)
    same_pool = int((counts * (counts - 1) // 2).sum())
    pool = same_pool if same else n * (n - 1) // 2 - same_pool
    if count > pool:
        kind = "same-class" if same else "different-class"
        raise ValidationError(f"need {count} {kind} pairs but only {pool} exist")
    if count * 4 > pool:
        iu, iv = np.triu_indices(n, k=1)
        mask = (labels[iu] == labels[iv]) if same else (labels[iu] != labels[iv])
        iu, iv = iu[mask], iv[mask]
        pick = rng.choice(iu.size, size=count, replace=False)
        return np.stack([iu[pick], iv[pick]], axis=1).astype(np.int64)
    taken = set()
    out = np.empty((count, 2), dtype=np.int64)
    got = 0
    while got < count:
        m = (count - got) * 2
        a = rng.integers(0, n, size=m)
        b = rng.integers(0, n, size=m)
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        match = (labels[u] == labels[v]) if same else (labels[u] != labels[v])
        ok = (u != v) & match
        for uu, vv in zip(u[ok], v[ok]):
            key = int(uu) * n + int(vv)
            if key in taken:
                continue
            taken.add(key)
            out[got] = (uu, vv)
            got += 1
            if got == count:
                break
    return out


def assert_same_draw(sample, reference, pool, data):
    """Same pairs, same error message and the same RNG state afterwards.

    Counts are drawn both below pool / 4 (the rejection loop) and up to
    pool + 2 (the enumeration fallback and the too-many message). The
    enumeration's block budget is drawn too, from one row per block to
    all rows in one."""
    count = data.draw(st.one_of(st.integers(min_value=0, max_value=pool // 4),
                                st.integers(min_value=0, max_value=pool + 2)))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    block = data.draw(st.integers(min_value=1, max_value=3000))
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = reference(count, rng_ref)
    except ValidationError as e:
        with pytest.raises(ValidationError) as got:
            sample(count, rng_new)
        assert str(got.value) == str(e)
        return
    with patch("mvge.graph._PAIR_BLOCK", block):
        out = sample(count, rng_new)
    assert out.dtype == want.dtype and np.array_equal(out, want)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@given(labeled_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_sample_non_edges_matches_reference(graph_labels, data):
    g, _ = graph_labels
    n = g.num_nodes
    assert_same_draw(lambda c, r: _sample_non_edges(g, c, r),
                     lambda c, r: reference_non_edges(g, c, r),
                     n * (n - 1) // 2 - g.num_edges, data)


@given(labeled_graphs(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_sample_label_pairs_matches_reference(graph_labels, same, data):
    _, labels = graph_labels
    n = labels.shape[0]
    counts = np.bincount(labels)
    same_pool = int((counts * (counts - 1) // 2).sum())
    assert_same_draw(lambda c, r: _sample_label_pairs(labels, c, same, r),
                     lambda c, r: reference_label_pairs(labels, c, same, r),
                     same_pool if same else n * (n - 1) // 2 - same_pool, data)


# -- pair features -----------------------------------------------------------

def test_pair_embed_l2_zero_for_equal():
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(pair_embed_l2(v, v), np.zeros(3))


def test_pair_embed_l2_symmetric():
    u, v = np.array([1.0, 2.0]), np.array([3.0, -1.0])
    assert np.array_equal(pair_embed_l2(u, v), pair_embed_l2(v, u))


def test_pair_embed_l2_hand_example():
    assert pair_embed_l2(np.array([1.0, 2.0]), np.array([0.0, 4.0])).tolist() == [1.0, 4.0]


def test_pair_embed_l2_dim_mismatch():
    with pytest.raises(ValidationError):
        pair_embed_l2(np.ones(3), np.ones(4))


# -- end-to-end harnesses ----------------------------------------------------

def fast_cfg(**kw):
    base = dict(dim_ego=8, dim_agg=8, hidden_dim=8, epochs=30,
                walk_lengths=(3, 5), seed=0)
    base.update(kw)
    return MVGEConfig(**base)


def test_protocols_train_through_the_model_module(monkeypatch):
    """Every protocol training looks up mvge.model.train (and the grid search
    mvge.model.build_views) when it runs, so a wrapper installed there, such
    as a tracer's, sees it."""
    calls = []

    def counting(name):
        real = getattr(mvge.model, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mvge.model, "train", counting("train"))
    monkeypatch.setattr(mvge.model, "build_views", counting("build_views"))
    ds = random_dataset(np.random.default_rng(11), n=30, c=2, p_edge=0.2)
    cfg = fast_cfg(epochs=2)
    link_prediction_eval(ds, cfg, SplitSpec("link", repeats=2))
    pairwise_eval(ds, cfg, SplitSpec("pair", repeats=1))
    # a training given no views builds them
    assert calls == ["train", "build_views"] * 3
    calls.clear()
    grid_search_alpha_beta(ds, cfg, grid_step=1.0)
    assert calls == ["build_views"] + ["train"] * 4


@given(hostile_datasets(), st.data())
@settings(max_examples=40, deadline=timedelta(seconds=5))
def test_probes_on_one_to_four_classes(ds, data):
    """With fewer than 2 classes present the node and pair probes raise
    ValidationError; otherwise they score in [0, 1] (the pair probe may still
    refuse a graph with too few edges or pairs). A probe fitted on one class
    predicts it."""
    n = ds.num_nodes
    c = data.draw(st.integers(min_value=1, max_value=4))
    labels = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    ds = make_dataset(ds.graph, ds.features, labels, num_classes=c)
    h = ds.features
    present = np.unique(labels).size
    for task in ("node", "pair"):
        spec = SplitSpec(task, repeats=2)
        try:
            if task == "node":
                report = node_classification_eval(h, labels, spec)
            else:
                report = pairwise_eval(ds, fast_cfg(), spec, h=h)
        except ValidationError as exc:
            assert present < 2 or (task == "pair" and "2 classes" not in str(exc))
            continue
        assert present >= 2
        assert all(0.0 <= x <= 1.0 for x in report.scores)
    if n:
        one = labels == labels[0]
        clf = LogRegModel().fit(h[one], labels[one], num_classes=c)
        assert (clf.predict(h) == labels[0]).all()


def test_pairwise_eval_with_one_hot_embeddings():
    ds = random_dataset(np.random.default_rng(9), n=60, c=3, p_edge=0.1)
    h = np.eye(3)[ds.labels]
    rep = pairwise_eval(ds, fast_cfg(), SplitSpec("pair", repeats=3), h=h)
    assert rep.mean > 0.99
    assert len(rep.scores) == 3


def test_pairwise_eval_single_class_rejected():
    ds = random_dataset(np.random.default_rng(10), n=20, p_edge=0.2)
    ds = make_dataset(ds.graph, ds.features, np.zeros(20, dtype=np.int64), 1)
    with pytest.raises(ValidationError, match="2 classes"):
        pairwise_eval(ds, fast_cfg(), SplitSpec("pair"), h=np.ones((20, 4)))


@pytest.mark.parametrize("rows", [59, 61])
def test_pairwise_eval_rejects_wrong_row_count(rows):
    ds = random_dataset(np.random.default_rng(9), n=60, c=3, p_edge=0.1)
    with pytest.raises(ValidationError, match=f"^embedding rows {rows} != num_nodes 60$"):
        pairwise_eval(ds, fast_cfg(), SplitSpec("pair", repeats=1), h=np.ones((rows, 3)))


def test_pairwise_eval_trains_when_no_embeddings_given():
    spec = SynthSpec(num_nodes=80, num_classes=2, target_homophily=0.9,
                     avg_degree=4.0, feature_dim=6, class_separation=3.0,
                     noise_sigma=0.3, seed=1)
    ds = generate_synthetic(spec)
    rep = pairwise_eval(ds, fast_cfg(), SplitSpec("pair", repeats=2))
    assert rep.mean > 0.5
    assert len(rep.scores) == 2


def test_link_prediction_above_chance():
    spec = SynthSpec(num_nodes=500, num_classes=5, target_homophily=0.5,
                     avg_degree=4.0, feature_dim=8, class_separation=1.0,
                     noise_sigma=0.5, seed=2)
    ds = generate_synthetic(spec)
    log = []
    rep = link_prediction_eval(ds, fast_cfg(epochs=50), SplitSpec("link", repeats=3),
                               split_log=log)
    # above chance by 3 sigma of the repeat scatter (floored for stability)
    assert rep.mean > 0.5 + 3.0 * max(rep.std, 0.01)
    assert len(rep.scores) == 3
    assert len(log) == 3
    assert {"repeat", "test_pos", "test_neg"} <= set(log[0])


def test_split_spec_defaults_and_validation():
    assert SplitSpec("node").train_fraction == 0.3
    assert SplitSpec("link").train_fraction == 0.85
    assert SplitSpec("pair").train_fraction == 0.85
    assert SplitSpec("node", train_fraction=0.5).train_fraction == 0.5
    with pytest.raises(ValidationError):
        SplitSpec("ranking")
    with pytest.raises(ValidationError):
        SplitSpec("node", train_fraction=1.5)
    with pytest.raises(ValidationError):
        SplitSpec("node", repeats=0)
