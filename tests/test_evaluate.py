"""Downstream probes: classifier, metrics, splits, and task harnesses."""

import copy
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
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
from mvge.graph import Graph, ValidationError, sample_pairs
from mvge.model import MVGEConfig
from mvge.synth import SynthSpec, generate_synthetic

from conftest import (force_workers, hostile_datasets, labeled_graphs, make_dataset,
                      random_dataset)
from oracles import distinct_pairs_one_by_one, float64_logreg_fit, node_eval_one_fit_per_repeat


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


# float32 rounding of the features and of the two products moved a fit's
# weights from the all-float64 loop's by at most 1.5e-7 of the largest weight
# over 3000 seeded problems like these, and flipped no prediction on the
# training rows; a float16 layout moves them by 1e-4 to 5e-4
PROBE_WEIGHT_TOL = 1e-5
PROBE_AGREEMENT = 0.98


@st.composite
def probe_problems(draw):
    """Shifted and scaled Gaussian class blobs: 50-150 rows, 1-12 columns,
    every one of 1-4 classes present."""
    c = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=50, max_value=150))
    d = draw(st.integers(min_value=1, max_value=12))
    separation = draw(st.floats(min_value=0.5, max_value=2.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    y = rng.permutation(np.arange(n) % c)
    x = rng.normal(size=(n, d)) + separation * rng.normal(size=(c, d))[y]
    return x * rng.uniform(0.1, 10.0, size=d) + rng.uniform(-100.0, 100.0, size=d), y, c


@settings(max_examples=40, deadline=None)
@given(probe_problems())
def test_logreg_fit_tracks_float64_reference(problem):
    x, y, c = problem
    clf = LogRegModel().fit(x, y, num_classes=c)
    if c == 1:
        assert clf.degenerate_class == 0
        assert not clf.predict(x).any()
        return
    w, b = float64_logreg_fit(x, y, c)
    scale = max(1.0, np.abs(w).max(), np.abs(b).max())
    assert np.abs(clf.weights - w).max() <= PROBE_WEIGHT_TOL * scale
    assert np.abs(clf.bias - b).max() <= PROBE_WEIGHT_TOL * scale
    ref = copy.copy(clf)
    ref.weights, ref.bias = w, b
    assert (clf.predict(x) == ref.predict(x)).mean() >= PROBE_AGREEMENT


@pytest.mark.parametrize("classes", [2, 5])
def test_logreg_fit_peak_allocation(classes):
    n, d = 3000, 64
    y = np.arange(n) % classes
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n, d)) + rng.normal(size=(classes, d))[y]
    tracemalloc.start()
    try:
        LogRegModel().fit(x, y, num_classes=classes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float64 standardized rows (1x) and their float32 layout (0.5x) meet
    # once; a step's arrays are classes x n. Two float64 copies would be 2x
    assert peak <= 1.6 * x.nbytes


@pytest.mark.parametrize("classes", [2, 3])
def test_logreg_refit_same_bits(classes):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(200, 16))
    y = np.arange(200) % classes
    a = LogRegModel().fit(x, y, num_classes=classes)
    b = LogRegModel().fit(x.copy(), y.copy(), num_classes=classes)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def probe_stacks(draw):
    """1-4 training sets of n rows by d columns over k of 2-5 classes, as a
    stack; some draws give one slice a single class."""
    reps = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    y = rng.integers(0, k, size=(reps, n))
    single = draw(st.none() | st.integers(min_value=0, max_value=reps - 1))
    if single is not None:
        y[single] = draw(st.integers(min_value=0, max_value=k - 1))
    x = rng.normal(size=(reps, n, d)) + rng.normal(size=(k, d))[y]
    return x * rng.uniform(0.1, 10.0, size=d) + rng.uniform(-100.0, 100.0, size=d), y, k


@settings(max_examples=60, deadline=None)
@given(probe_stacks(), st.integers(min_value=1, max_value=30))
def test_stacked_fit_same_bits_as_each_slice_alone(problem, m):
    x, y, k = problem
    stack = LogRegModel().fit(x, y, num_classes=k)
    rows = np.random.default_rng(m).normal(size=(m, x.shape[2])) * 3.0
    assert len(stack.slices()) == x.shape[0]
    for r, part in enumerate(stack.slices()):
        alone = LogRegModel().fit(x[r], y[r], num_classes=k)
        assert stack.degenerate_class[r] == part.degenerate_class == alone.degenerate_class
        assert (alone.degenerate_class is not None) == (np.unique(y[r]).size == 1)
        if alone.degenerate_class is not None:  # not trained: zero weights, one class
            assert not (alone.weights.any() or alone.bias.any())
            assert (alone.predict(rows) == alone.degenerate_class).all()
        for name in ("mu", "sd", "weights", "bias"):
            assert same_bits(getattr(stack, name)[r], getattr(alone, name)), name
            assert same_bits(getattr(part, name), getattr(alone, name)), name
        assert same_bits(part.scores(rows), alone.scores(rows))
        assert same_bits(part.predict(rows), alone.predict(rows))


def test_stacked_fit_standardizes_one_slice_at_a_time():
    reps, n, d, classes = 4, 3000, 64, 5
    y = np.tile(np.arange(n) % classes, (reps, 1))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(reps, n, d)) + rng.normal(size=(classes, d))[y]
    tracemalloc.start()
    try:
        LogRegModel().fit(x, y, num_classes=classes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beside the float32 layouts of all slices (0.5x of the stack) live either
    # one slice's float64 standardized rows or a step's arrays, a few of
    # R x classes x n floats. The whole stack standardized at once would be 1x
    assert peak <= 0.5 * x.nbytes + max(1.2 * x[0].nbytes, 8 * 8 * y.size * classes)


@pytest.mark.parametrize("classes", [2, 5])
def test_logreg_fit_peak_allocation_on_two_workers(monkeypatch, classes):
    force_workers(monkeypatch, 2)
    test_logreg_fit_peak_allocation(classes)


def test_stacked_fit_standardizes_one_slice_at_a_time_on_two_workers(monkeypatch):
    force_workers(monkeypatch, 2)
    test_stacked_fit_standardizes_one_slice_at_a_time()


@settings(max_examples=60, deadline=None)
@given(probe_stacks() | probe_problems())
# n = 1: the first column half is empty, and every slice has a single class
@example(problem=(np.array([[[1.0, -2.0]], [[3.0, 0.5]]]), np.array([[1], [0]]), 2))
# n = 2: one column a half, beside a single-class slice
@example(problem=(np.array([[[1.0, -2.0], [0.5, 4.0]], [[3.0, 0.5], [-1.0, 2.0]]]),
                  np.array([[0, 2], [1, 1]]), 3))
def test_fit_same_bits_on_one_or_two_workers(problem):
    x, y, k = problem
    fits = []
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            force_workers(mp, workers)
            fits.append(LogRegModel().fit(x, y, num_classes=k))
    for name in ("mu", "sd", "weights", "bias"):
        assert same_bits(getattr(fits[0], name), getattr(fits[1], name)), name


def test_each_probe_step_runs_its_column_halves_side_by_side(monkeypatch):
    calls = []
    side_by_side = mvge.model._side_by_side

    def spy(first, second):
        calls.append(1)
        return side_by_side(first, second)

    monkeypatch.setattr(mvge.model, "_side_by_side", spy)
    rng = np.random.default_rng(7)
    LogRegModel().fit(rng.normal(size=(40, 3)), np.arange(40) % 3, num_classes=3)
    assert len(calls) == LogRegModel.ITERATIONS
    calls.clear()
    LogRegModel().fit(rng.normal(size=(2, 40, 3)), np.full((2, 40), 1), num_classes=3)
    assert not calls  # no slice to train, no step


def test_concurrent_probe_fits_share_the_worker(monkeypatch):
    # more calling threads than cores, switching often, through a pool made
    # under the race; each must get the bits of a lone fit
    force_workers(monkeypatch, 2)
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(3, 30, 4)), np.arange(90).reshape(3, 30) % 3
    want = LogRegModel().fit(x, y, num_classes=3).weights.tobytes()
    monkeypatch.setattr(mvge.model, "_POOL", None)
    got = []

    def call():
        for _ in range(3):
            got.append(LogRegModel().fit(x, y, num_classes=3).weights.tobytes())

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
    assert got == [want] * 12


def test_stacked_fit_is_scored_through_slices():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 20, 3))
    clf = LogRegModel().fit(x, np.arange(40).reshape(2, 20) % 2, num_classes=2)
    for method in (clf.scores, clf.predict):
        with pytest.raises(ValidationError, match=r"scored through slices\(\)"):
            method(x[0])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=4, max_value=80),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**16))
def test_node_eval_scores_match_one_fit_per_repeat(classes, n, repeats, seed):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % classes)
    h = rng.normal(size=(n, 6)) + rng.normal(size=(classes, 6))[labels]
    spec = SplitSpec("node", repeats=repeats, seed=seed)
    report = node_classification_eval(h, labels, spec)
    assert list(report.scores) == node_eval_one_fit_per_repeat(h, labels, spec)


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
    if count * 4 > pool or 16 * pool * pool < count * (n * (n - 1) // 2):
        iu, iv = np.triu_indices(n, k=1)
        mask = ~g.has_edge_mask(iu, iv)
        iu, iv = iu[mask], iv[mask]
        pick = rng.choice(iu.size, size=count, replace=False)
        return np.stack([iu[pick], iv[pick]], axis=1).astype(np.int64)
    return distinct_pairs_one_by_one(n, count, lambda u, v: ~g.has_edge_mask(u, v), rng)


def reference_label_pairs(labels, count, same, rng):
    n = labels.shape[0]
    counts = np.bincount(labels)
    same_pool = int((counts * (counts - 1) // 2).sum())
    pool = same_pool if same else n * (n - 1) // 2 - same_pool
    if count > pool:
        kind = "same-class" if same else "different-class"
        raise ValidationError(f"need {count} {kind} pairs but only {pool} exist")
    if count * 4 > pool or 16 * pool * pool < count * (n * (n - 1) // 2):
        iu, iv = np.triu_indices(n, k=1)
        mask = (labels[iu] == labels[iv]) if same else (labels[iu] != labels[iv])
        iu, iv = iu[mask], iv[mask]
        pick = rng.choice(iu.size, size=count, replace=False)
        return np.stack([iu[pick], iv[pick]], axis=1).astype(np.int64)
    return distinct_pairs_one_by_one(n, count, lambda u, v: (labels[u] == labels[v]) == same,
                                     rng)


def assert_same_draw(sample, reference, pool, total, data):
    """Same pairs, same error message and the same RNG state afterwards.

    Counts are drawn both up to min(pool / 4, 16 * pool**2 / total) (the
    rejection loop), total being all n(n-1)/2 pairs, and up to pool + 2 (the
    enumeration fallback and the too-many message). Count 0 is asked of every
    pool, listed or not, and must give no pairs and draw nothing."""
    rejected = min(pool // 4, 16 * pool * pool // max(total, 1))
    count = data.draw(st.one_of(st.integers(min_value=0, max_value=rejected),
                                st.integers(min_value=0, max_value=pool + 2)))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    none = sample(0, rng)
    assert none.dtype == np.int64 and none.shape == (0, 2)
    assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = reference(count, rng_ref)
    except ValidationError as e:
        with pytest.raises(ValidationError) as got:
            sample(count, rng_new)
        assert str(got.value) == str(e)
        return
    out = sample(count, rng_new)
    assert out.dtype == want.dtype and np.array_equal(out, want)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@given(st.integers(min_value=2, max_value=14), st.data())
@settings(max_examples=200, deadline=None)
def test_rejection_path_matches_the_one_by_one_loop(n, data):
    # few nodes and up to a quarter of the pool, so that rounds draw pairs kept
    # before; the listing is never asked for
    total = n * (n - 1) // 2
    iu, iv = np.triu_indices(n, 1)
    kept = np.zeros((n, n), dtype=bool)
    kept[iu, iv] = kept[iv, iu] = data.draw(st.lists(st.booleans(), min_size=total,
                                                     max_size=total))
    pool = int(kept[iu, iv].sum())
    count = data.draw(st.integers(min_value=0, max_value=min(pool // 4, 16 * pool**2 // total)))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)

    def listed():
        raise AssertionError("the pool was listed")
    out = sample_pairs(n, count, pool, "kept", lambda u, v: kept[u, v], listed, rng_new)
    want = distinct_pairs_one_by_one(n, count, lambda u, v: kept[u, v], rng_ref)
    assert out.dtype == want.dtype and out.shape == want.shape
    assert out.tolist() == want.tolist()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@given(labeled_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_sample_non_edges_matches_reference(graph_labels, data):
    g, _ = graph_labels
    total = g.num_nodes * (g.num_nodes - 1) // 2
    assert_same_draw(lambda c, r: _sample_non_edges(g, c, r),
                     lambda c, r: reference_non_edges(g, c, r),
                     total - g.num_edges, total, data)


@given(labeled_graphs(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_sample_label_pairs_matches_reference(graph_labels, same, data):
    _, labels = graph_labels
    total = labels.shape[0] * (labels.shape[0] - 1) // 2
    counts = np.bincount(labels)
    same_pool = int((counts * (counts - 1) // 2).sum())
    assert_same_draw(lambda c, r: _sample_label_pairs(labels, c, same, r),
                     lambda c, r: reference_label_pairs(labels, c, same, r),
                     same_pool if same else total - same_pool, total, data)


def test_dense_label_pair_fallback_time_grows_with_the_pool():
    # 5000 four-member classes on 20000 nodes hold 30000 same-class pairs. A walk
    # over all 2e8 pairs took about 2.3 s on a 2-vCPU VM, the pool a few ms
    labels = np.arange(20000) % 5000
    start = time.perf_counter()
    pairs = _sample_label_pairs(labels, 10000, True, np.random.default_rng(0))
    assert time.perf_counter() - start < 0.5
    assert len(np.unique(pairs, axis=0)) == 10000
    assert (pairs[:, 0] < pairs[:, 1]).all()
    assert (labels[pairs[:, 0]] == labels[pairs[:, 1]]).all()


def test_label_pair_rejection_time_is_bounded():
    # 2000 classes of 20 on 40000 nodes: 380000 same-class pairs, under 0.05% of
    # all 8e8. Rejection drew about 2100 uniform pairs per kept one, 3.6 s on a
    # 2-vCPU VM; 16 * pool**2 < count * total lists the pool instead
    labels = np.arange(40000) % 2000
    start = time.perf_counter()
    pairs = _sample_label_pairs(labels, 80000, True, np.random.default_rng(0))
    assert time.perf_counter() - start < 0.5
    assert len(np.unique(pairs, axis=0)) == 80000
    assert (pairs[:, 0] < pairs[:, 1]).all()
    assert (labels[pairs[:, 0]] == labels[pairs[:, 1]]).all()


def test_label_pair_draw_between_the_two_bounds_stays_on_rejection():
    # 70 classes on 19800 nodes, as many pairs as a 63000-edge graph: a pool of
    # 2.8e6, about 0.6 * sqrt(count * total). Listing it peaked at 150 MB and took
    # about as long as rejection's 4.4e6 draws, which peak near 8 MB
    labels = np.arange(19800) % 70
    tracemalloc.start()
    try:
        pairs = _sample_label_pairs(labels, 63000, True, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert len(np.unique(pairs, axis=0)) == 63000
    assert (labels[pairs[:, 0]] == labels[pairs[:, 1]]).all()


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
    # four grid points; the two at beta = 0 share one training
    assert calls == ["build_views"] + ["train"] * 3


@pytest.mark.parametrize("grid_step, trainings", [(0.5, 7), (0.1, 111)])
def test_grid_search_trains_the_beta_0_row_once(monkeypatch, grid_step, trainings):
    real, points = mvge.model.train, []

    def counting(ds, cfg, **kwargs):
        points.append((cfg.alpha, cfg.beta))
        return real(ds, cfg, **kwargs)

    monkeypatch.setattr(mvge.model, "train", counting)
    ds = random_dataset(np.random.default_rng(11), n=30, c=2, p_edge=0.2)
    _, _, table = grid_search_alpha_beta(ds, fast_cfg(epochs=1), grid_step=grid_step)
    steps = round(1 / grid_step)
    grid = [(i / steps, j / steps) for i in range(steps + 1) for j in range(steps + 1)]
    assert [(a, b) for a, b, _ in table] == grid
    assert points == [(a, b) for a, b in grid if b > 0.0 or a == 0.0]
    assert len(points) == trainings
    assert len({score for _, b, score in table if b == 0.0}) == 1


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["full", "sampled"]), st.sampled_from(sorted(mvge.model.MERGE_FNS)),
       st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2**16))
def test_alpha_changes_no_bit_at_beta_0(mode, merge_fn, alpha, seed):
    """Why the grid trains its beta = 0 row once: both KL weights are 0 there."""
    ds = random_dataset(np.random.default_rng(seed), n=25, c=3, p_edge=0.2)
    cfg = fast_cfg(epochs=3, beta=0.0, adj_loss_mode=mode, merge_fn=merge_fn, seed=seed)
    _, a, _ = mvge.model.train(ds, cfg)
    _, b, _ = mvge.model.train(ds, replace(cfg, alpha=alpha))
    for name in ("h", "h_ego", "h_agg"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


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


@given(st.integers(0, 59), st.integers(0, 2), st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=30, deadline=None)
def test_non_finite_embeddings_rejected(row, col, value):
    ds = random_dataset(np.random.default_rng(9), n=60, c=3, p_edge=0.1)
    h = np.eye(3)[ds.labels]
    h[row, col] = value
    with pytest.raises(ValidationError, match="^embeddings contain non-finite values$"):
        node_classification_eval(h, ds.labels, SplitSpec("node", repeats=1))
    with pytest.raises(ValidationError, match="^embeddings contain non-finite values$"):
        pairwise_eval(ds, fast_cfg(), SplitSpec("pair", repeats=1), h=h)


def test_pairwise_eval_trains_when_no_embeddings_given():
    spec = SynthSpec(num_nodes=80, num_classes=2, target_homophily=0.9,
                     avg_degree=4.0, feature_dim=6, class_separation=3.0,
                     noise_sigma=0.3, seed=1)
    ds = generate_synthetic(spec)
    rep = pairwise_eval(ds, fast_cfg(), SplitSpec("pair", repeats=2))
    assert rep.mean > 0.5
    assert len(rep.scores) == 2


def test_link_prediction_above_chance():
    # at h = 0.5 the edges carry little link signal, so one graph's AUC says
    # little: the claim is pooled over 16 graphs, the mean of their per-graph
    # means above chance by 3 standard errors
    means, log = [], []
    for seed in range(16):
        spec = SynthSpec(num_nodes=500, num_classes=5, target_homophily=0.5,
                         avg_degree=4.0, feature_dim=8, class_separation=1.0,
                         noise_sigma=0.5, seed=seed)
        ds = generate_synthetic(spec)
        rep = link_prediction_eval(ds, fast_cfg(epochs=50), SplitSpec("link", repeats=3),
                                   split_log=log if seed == 0 else None)
        means.append(rep.mean)
        assert len(rep.scores) == 3
    assert np.mean(means) > 0.5 + 3.0 * np.std(means, ddof=1) / np.sqrt(len(means))
    assert len(log) == 3
    assert {"repeat", "test_pos", "test_neg"} <= set(log[0])


def _labeled_ds():
    return random_dataset(np.random.default_rng(9), n=20, c=3, p_edge=0.3)


# one bad input each, with the message it must raise
EVAL_INPUT_CHECKS = {
    "fit vector x": (lambda ds: LogRegModel().fit(np.ones(4), np.zeros(4)),
                     r"^bad training shapes \(4,\) / \(4,\)$"),
    "fit label count": (lambda ds: LogRegModel().fit(np.ones((4, 2)), np.zeros(3)),
                        r"^bad training shapes \(4, 2\) / \(3,\)$"),
    "fit no rows": (lambda ds: LogRegModel().fit(np.ones((0, 2)), np.zeros(0)),
                    r"^bad training shapes \(0, 2\) / \(0,\)$"),
    "scores before fit": (lambda ds: LogRegModel().scores(np.ones((2, 2))),
                          "^classifier is not fitted$"),
    "roc_auc lengths": (lambda ds: roc_auc(np.ones(3), np.array([0, 1])),
                        r"^bad score shapes \(3,\) / \(2,\)$"),
    "roc_auc matrix": (lambda ds: roc_auc(np.ones((2, 2)), np.array([[0, 1], [1, 0]])),
                       r"^bad score shapes \(2, 2\) / \(2, 2\)$"),
    "node spec": (lambda ds: node_classification_eval(ds.features, ds.labels, SplitSpec("link")),
                  "^expected a node SplitSpec, got 'link'$"),
    "link_split spec": (lambda ds: link_split(ds.graph, SplitSpec("pair")),
                        "^expected a link SplitSpec, got 'pair'$"),
    "link spec": (lambda ds: link_prediction_eval(ds, fast_cfg(), SplitSpec("node")),
                  "^expected a link SplitSpec, got 'node'$"),
    "pair spec": (lambda ds: pairwise_eval(ds, fast_cfg(), SplitSpec("link"), h=ds.features),
                  "^expected a pair SplitSpec, got 'link'$"),
    "pair unlabeled": (lambda ds: pairwise_eval(make_dataset(ds.graph, ds.features), fast_cfg(),
                                                SplitSpec("pair"), h=ds.features),
                       "^pair evaluation needs labels$"),
    **{f"val_fraction {v}": (lambda ds, v=v: grid_search_alpha_beta(ds, fast_cfg(), val_fraction=v),
                             rf"^val_fraction must be in \(0, 1\), got {v}$")
       for v in (0.0, 1.0, -0.5, 1.5)},
}


@pytest.mark.parametrize("case", EVAL_INPUT_CHECKS)
def test_input_checks_raise(case):
    make, message = EVAL_INPUT_CHECKS[case]
    with pytest.raises(ValidationError, match=message):
        make(_labeled_ds())


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
