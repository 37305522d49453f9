"""Downstream task harnesses for trained embeddings.

Three protocols: node classification (logistic-regression probe,
Micro-F1), link prediction (remove test edges, retrain embeddings on
the rest, score pair features, ROC-AUC), and pairwise same-class
classification (sampled same/different-class node pairs, ROC-AUC);
plus the alpha/beta grid search, which scores the node probe on a
validation split. Every split and sample is drawn from a seeded stream,
so reports are reproducible end to end.

Trainings go through the ``mvge.model`` module attribute, never a name
bound here at import, so a wrapper installed on ``mvge.model.train``
sees the protocols' retrains too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

import mvge.model
from mvge.data import Dataset
from mvge.graph import AT_LEAST_0, AT_LEAST_1, Graph, ValidationError, check_fields, sample_pairs
# the pair protocol calls it by this module's name, so a wrapper set here sees its draws
from mvge.graph import sample_label_pairs as _sample_label_pairs
from mvge.numerics import Adam, Param, child_seed, sigmoid

TASK_NAMES = ("node", "link", "pair")
TASK_METRICS = {"node": "micro_f1", "link": "roc_auc", "pair": "roc_auc"}
DEFAULT_TRAIN_FRACTION = {"node": 0.3, "link": 0.85, "pair": 0.85}

# stream tags, disjoint from the model module's 2**32 + 1 and 2**32 + 2
_VAL_TAG = 2**32 + 3
_NODE_TAG = 2**32 + 16
_SPLIT_TAG = 2**32 + 17
_PAIR_TAG = 2**32 + 18
_LINK_MODEL_TAG = 2**32 + 19

_STD_FLOOR = 1e-8


@dataclass(frozen=True)
class SplitSpec:
    """What to evaluate and how to split.

    train_fraction defaults per task: 0.3 of nodes for node
    classification, 0.85 of positives for the link and pair tasks.
    """

    task: str = field(metadata={"choices": TASK_NAMES})
    train_fraction: float | None = field(
        default=None, metadata={"rule": (lambda v: 0.0 < v < 1.0, "in (0, 1)")})
    repeats: int = field(default=10, metadata={"rule": AT_LEAST_1})
    seed: int = field(default=0, metadata={"rule": AT_LEAST_0})

    def __post_init__(self):
        check_fields(self)
        if self.train_fraction is None:
            object.__setattr__(self, "train_fraction", DEFAULT_TRAIN_FRACTION[self.task])


@dataclass(frozen=True)
class EvalReport:
    task: str
    metric: str
    scores: tuple[float, ...]
    mean: float
    std: float

    def to_dict(self) -> dict:
        return {**asdict(self), "scores": list(self.scores)}


def _make_report(task: str, scores: list[float]) -> EvalReport:
    arr = np.asarray(scores, dtype=np.float64)
    return EvalReport(
        task=task,
        metric=TASK_METRICS[task],
        scores=tuple(float(x) for x in arr),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=0)),
    )


def _count_ceil(v: float) -> int:
    """ceil(v), except values a float hair above an integer snap down."""
    f = math.floor(v)
    return int(f if v - f <= 1e-9 else f + 1)


class LogRegModel:
    """One-vs-rest logistic regression probe.

    Features are standardized with the training rows' mean and
    deviation; all per-class classifiers train jointly by full-batch
    Adam. Binary problems use a single classifier, and a single-class
    training set degenerates to always predicting that class.

    ``fit`` also takes a stack of R training sets of equal size, x of
    shape (R, n, d) and y of shape (R, n), and trains them in one Adam
    loop. Each slice keeps its own standardization and degenerate case,
    and gets the same bits as a fit of that slice alone; a single
    training set is the stack of one. After a stacked fit the fitted
    arrays carry a leading R axis, ``degenerate_class`` is a tuple with
    one entry per slice, and ``slices()`` gives each slice as a model of
    its own to score with.
    """

    LR = 0.1
    ITERATIONS = 300
    L2 = 1e-4

    def __init__(self):
        self.num_classes: int | None = None
        self.degenerate_class: int | tuple[int | None, ...] | None = None
        self.mu: np.ndarray | None = None
        self.sd: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self.bias: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray, num_classes: int | None = None):
        # in C order a slice's mean and std sum as in a fit of that slice alone
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        stacked = x.ndim == 3
        xr, yr = (x, y) if stacked else (x[None], y[None])
        if xr.ndim != 3 or yr.shape != xr.shape[:2] or yr.size == 0:
            raise ValidationError(f"bad training shapes {x.shape} / {y.shape}")
        if num_classes is None:
            num_classes = int(y.max()) + 1
        self.num_classes = num_classes
        reps, n, d = xr.shape
        n_out = 1 if num_classes == 2 else num_classes
        mu = xr.mean(axis=1)
        sd = xr.std(axis=1, ddof=0)
        sd[sd < _STD_FLOOR] = 1.0
        degenerate = tuple(int(p[0]) if p.size == 1 else None for p in map(np.unique, yr))
        live = [r for r, c in enumerate(degenerate) if c is None]
        # two float32 layouts per slice, features by rows: columns [0, k) and [k, n)
        # with k = n // 2 on any worker count, which a step runs side by side; each
        # product streams its half in order. Each slice is standardized in float64
        # straight into its two slots. Weights, bias and Adam stay float64
        k = n // 2
        halves = (np.empty((len(live), d, k), dtype=np.float32),
                  np.empty((len(live), d, n - k), dtype=np.float32))
        for i, r in enumerate(live):
            xs = xr[r] - mu[r]
            xs /= sd[r]
            halves[0][i], halves[1][i] = xs[:k].T, xs[k:].T
            del xs
        y_live = yr[live]
        targets_t = (
            (y_live == 1).astype(np.float64)[:, None, :]
            if n_out == 1
            else (np.arange(num_classes)[:, None] == y_live[:, None, :]).astype(np.float64)
        )
        t_halves = (targets_t[..., :k], targets_t[..., k:])
        params = {
            "w": Param(np.zeros((len(live), d, n_out))),
            "b": Param(np.zeros((len(live), 1, n_out))),
        }
        opt = Adam(params, lr=self.LR)

        def partials(j, w32, b_t):
            """Weight and bias gradient partials of column half j."""
            d_z_t = (sigmoid(w32 @ halves[j] + b_t) - t_halves[j]) / n
            return halves[j] @ d_z_t.swapaxes(1, 2).astype(np.float32), d_z_t.sum(axis=2)[:, None, :]

        for _ in range(self.ITERATIONS if live else 0):
            w = params["w"].value
            w32, b_t = w.swapaxes(1, 2).astype(np.float32), params["b"].value.swapaxes(1, 2)
            for g_w, g_b in mvge.model._side_by_side(lambda: partials(0, w32, b_t),
                                                     lambda: partials(1, w32, b_t)):
                params["w"].grad += g_w
                params["b"].grad += g_b
            params["w"].grad += 2.0 * self.L2 * w
            opt.step()
        weights = np.zeros((reps, d, n_out))
        bias = np.zeros((reps, 1, n_out))
        weights[live] = params["w"].value
        bias[live] = params["b"].value
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise FloatingPointError("non-finite classifier weights")
        if not stacked:
            mu, sd, weights, bias, degenerate = mu[0], sd[0], weights[0], bias[0], degenerate[0]
        self.mu, self.sd, self.weights, self.bias = mu, sd, weights, bias
        self.degenerate_class = degenerate
        return self

    def slices(self) -> list[LogRegModel]:
        """Each slice of a stacked fit as a fitted model of its own."""
        out = []
        for r, c in enumerate(self.degenerate_class):
            m = LogRegModel()
            m.num_classes, m.degenerate_class = self.num_classes, c
            m.mu, m.sd, m.weights, m.bias = self.mu[r], self.sd[r], self.weights[r], self.bias[r]
            out.append(m)
        return out

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Per-class decision scores, shape (n, num_classes)."""
        if self.weights is None:
            raise ValidationError("classifier is not fitted")
        if isinstance(self.degenerate_class, tuple):
            raise ValidationError("a stacked fit is scored through slices()")
        x = np.asarray(x, dtype=np.float64)
        if self.degenerate_class is not None:
            out = np.zeros((x.shape[0], self.num_classes))
            out[:, self.degenerate_class] = 1.0
            return out
        z = ((x - self.mu) / self.sd) @ self.weights + self.bias
        if self.weights.shape[1] == 1 and self.num_classes == 2:
            return np.concatenate([-z, z], axis=1)
        return z

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.scores(x).argmax(axis=1).astype(np.int64)


def micro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Micro-averaged F1 over classes.

    For single-label predictions the pooled false positives and false
    negatives both count the mismatches, so 2tp / (2tp + fp + fn) is plain
    accuracy: one exact count of matches over n, rounded once.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValidationError(f"bad label shapes {y_true.shape} / {y_pred.shape}")
    if y_true.size == 0:
        raise ValidationError("micro_f1 needs at least one example")
    return float((y_true == y_pred).mean())


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based ROC-AUC; tied scores get their average rank. NaN scores
    raise ``ValidationError``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError(f"bad score shapes {scores.shape} / {labels.shape}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("roc_auc needs both classes present")
    if np.isnan(scores).any():
        raise ValidationError("roc_auc got NaN scores")
    # 1-based average ranks: a tie group over sorted positions [start, end)
    # gets (start + 1 + end) / 2
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], scores.size]
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _probe_f1(h: np.ndarray, labels: np.ndarray, train_idx: np.ndarray,
              test_idx: np.ndarray, num_classes: int | None) -> list[float]:
    """Micro-F1 on the test rows of each probe, fitted as one stack: row r of
    ``train_idx`` (R, n_train) and ``test_idx`` (R, n_test) is repeat r."""
    clf = LogRegModel().fit(h[train_idx], labels[train_idx], num_classes=num_classes)
    return [micro_f1(labels[t], m.predict(h[t])) for m, t in zip(clf.slices(), test_idx)]


def node_classification_eval(h: np.ndarray, labels: np.ndarray,
                             spec: SplitSpec) -> EvalReport:
    """Uniform train/test node splits, probe per repeat, Micro-F1."""
    if spec.task != "node":
        raise ValidationError(f"expected a node SplitSpec, got {spec.task!r}")
    h = np.asarray(h, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if not np.isfinite(h).all():
        raise ValidationError("embeddings contain non-finite values")
    if h.shape[0] != labels.shape[0]:
        raise ValidationError("embedding and label row counts differ")
    if np.unique(labels).size < 2:
        raise ValidationError("node classification needs at least 2 classes")
    n = h.shape[0]
    num_classes = int(labels.max()) + 1
    n_train = min(max(int(round(spec.train_fraction * n)), 1), n - 1)
    perms = np.stack([np.random.default_rng([spec.seed, _NODE_TAG, r]).permutation(n)
                      for r in range(spec.repeats)])
    return _make_report("node", _probe_f1(h, labels, perms[:, :n_train], perms[:, n_train:],
                                          num_classes))


@dataclass(frozen=True)
class LinkSplit:
    """One link-prediction split; pair arrays are (k, 2) with u < v."""

    train_graph: Graph
    train_pos: np.ndarray
    train_neg: np.ndarray
    test_pos: np.ndarray
    test_neg: np.ndarray


def _sample_non_edges(g: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` distinct unordered non-adjacent pairs. The dense path lists
    all total = n(n-1)/2 pairs, but only when the non-edges, pool, number fewer
    than 4 * count or than total / 16 (16 * pool**2 < count * total <= pool * total),
    so that total < 4 * count + 2 * num_edges, linear in the input."""
    def listed():
        iu, iv = np.triu_indices(g.num_nodes, 1)
        kept = ~g.has_edge_mask(iu, iv)
        return np.stack([iu[kept], iv[kept]], axis=1)

    n = g.num_nodes
    return sample_pairs(n, count, n * (n - 1) // 2 - g.num_edges, "non-edge",
                        lambda u, v: ~g.has_edge_mask(u, v), listed, rng)


def link_split(g: Graph, spec: SplitSpec, repeat: int = 0) -> LinkSplit:
    """Hold out test edges plus matched negatives; the train graph
    keeps only the remaining edges.

    Negatives are non-edges of the full graph, so no sampled pair is
    ever a removed edge; train and test negatives are disjoint.
    """
    if spec.task != "link":
        raise ValidationError(f"expected a link SplitSpec, got {spec.task!r}")
    e = g.num_edges
    n_test = _count_ceil((1.0 - spec.train_fraction) * e)
    if n_test < 1 or e - n_test < 1:
        raise ValidationError(
            f"cannot split {e} edges into train/test at fraction {spec.train_fraction}"
        )
    rng = np.random.default_rng([spec.seed, _SPLIT_TAG, repeat])
    edges = g.edge_array()
    perm = rng.permutation(e)
    test_pos = edges[np.sort(perm[:n_test])]
    train_pos = edges[np.sort(perm[n_test:])]
    negs = _sample_non_edges(g, n_test + train_pos.shape[0], rng)
    test_neg, train_neg = negs[:n_test], negs[n_test:]
    train_graph, _ = Graph.from_edges(g.num_nodes, train_pos)
    return LinkSplit(
        train_graph=train_graph, train_pos=train_pos, train_neg=train_neg,
        test_pos=test_pos, test_neg=test_neg,
    )


def pair_embed_l2(e_u: np.ndarray, e_v: np.ndarray) -> np.ndarray:
    """Elementwise squared difference; symmetric in its arguments."""
    e_u = np.asarray(e_u, dtype=np.float64)
    e_v = np.asarray(e_v, dtype=np.float64)
    if e_u.shape != e_v.shape:
        raise ValidationError(f"dim mismatch: {e_u.shape} vs {e_v.shape}")
    d = e_u - e_v
    return np.multiply(d, d, out=d)  # in place: one (m, d) array fewer alive


def _pair_auc(h: np.ndarray, train_pos: np.ndarray, train_neg: np.ndarray,
              test_pos: np.ndarray, test_neg: np.ndarray) -> float:
    """Fit the probe on the squared-difference features of the train pairs,
    positives labelled 1, and return its ROC-AUC on the test pairs."""
    def features_labels(pos, neg):
        pairs = np.concatenate([pos, neg])
        y = np.concatenate([np.ones(pos.shape[0], dtype=np.int64),
                            np.zeros(neg.shape[0], dtype=np.int64)])
        return pair_embed_l2(h[pairs[:, 0]], h[pairs[:, 1]]), y

    x_train, y_train = features_labels(train_pos, train_neg)
    x_test, y_test = features_labels(test_pos, test_neg)
    clf = LogRegModel().fit(x_train, y_train, num_classes=2)
    return roc_auc(clf.scores(x_test)[:, 1], y_test)


def link_prediction_eval(ds: Dataset, cfg: mvge.model.MVGEConfig, spec: SplitSpec,
                         split_log: list | None = None) -> EvalReport:
    """Per repeat: resplit, retrain embeddings on the train graph only,
    fit the probe on train pair features, AUC on held-out pairs.

    ``split_log`` (if a list) receives one dict of test pairs per
    repeat so the holdout is auditable.
    """
    out = []
    for r in range(spec.repeats):
        split = link_split(ds.graph, spec, repeat=r)
        cfg_r = replace(cfg, seed=child_seed(cfg.seed, _LINK_MODEL_TAG, r))
        _, emb, _ = mvge.model.train(replace(ds, graph=split.train_graph), cfg_r)
        out.append(_pair_auc(emb.h, split.train_pos, split.train_neg,
                             split.test_pos, split.test_neg))
        if split_log is not None:
            split_log.append({
                "repeat": r,
                "test_pos": split.test_pos.tolist(),
                "test_neg": split.test_neg.tolist(),
            })
    return _make_report("link", out)


def pairwise_eval(ds: Dataset, cfg: mvge.model.MVGEConfig, spec: SplitSpec,
                  h: np.ndarray | None = None) -> EvalReport:
    """Same-class-pair detection from one embedding of the full graph.

    Each repeat samples as many positive (same-class) and negative
    (different-class) pairs as the graph has edges, splits both sets
    85/15, fits the probe on the train portion, and scores AUC on the
    rest. Pass ``h`` to skip training and evaluate given embeddings.
    """
    if spec.task != "pair":
        raise ValidationError(f"expected a pair SplitSpec, got {spec.task!r}")
    if ds.labels is None:
        raise ValidationError("pair evaluation needs labels")
    labels = ds.labels
    if np.unique(labels).size < 2:
        raise ValidationError("pair evaluation needs at least 2 classes")
    n_pairs = ds.graph.num_edges
    if n_pairs < 2:
        raise ValidationError("pair evaluation needs at least 2 edges to size samples")
    if h is None:
        _, emb, _ = mvge.model.train(ds, cfg)
        h = emb.h
    h = np.asarray(h, dtype=np.float64)
    if not np.isfinite(h).all():
        raise ValidationError("embeddings contain non-finite values")
    if h.shape[0] != ds.num_nodes:
        raise ValidationError(f"embedding rows {h.shape[0]} != num_nodes {ds.num_nodes}")
    n_test = _count_ceil((1.0 - spec.train_fraction) * n_pairs)
    n_test = min(max(n_test, 1), n_pairs - 1)
    out = []
    for r in range(spec.repeats):
        rng = np.random.default_rng([spec.seed, _PAIR_TAG, r])
        pos = _sample_label_pairs(labels, n_pairs, True, rng)
        neg = _sample_label_pairs(labels, n_pairs, False, rng)
        out.append(_pair_auc(h, pos[n_test:], neg[n_test:], pos[:n_test], neg[:n_test]))
    return _make_report("pair", out)


def grid_search_alpha_beta(ds: Dataset, cfg: mvge.model.MVGEConfig, grid_step: float = 0.1,
                           val_fraction: float = 0.7):
    """Pick (alpha, beta) by validation Micro-F1 over the full grid.

    Trains one model per grid point (walk features computed once and
    shared), scores a logistic-regression probe on a fixed held-out
    node split, and returns (best_alpha, best_beta, table) where the
    table lists (alpha, beta, score) rows in grid order. Ties keep the
    earliest point, so the lowest alpha and then the lowest beta.

    The beta = 0 points share one training and score: alpha only weighs
    the KL terms, as beta * alpha and beta * (1 - alpha), and at beta = 0
    both weights are 0, so alpha changes no trained bit.
    """
    if ds.labels is None:
        raise ValidationError("grid search needs labels")
    if not 0.0 < grid_step <= 1.0:
        raise ValidationError(f"grid_step must be in (0, 1], got {grid_step}")
    steps = int(round(1.0 / grid_step))
    if abs(steps * grid_step - 1.0) > 1e-9:
        raise ValidationError(f"grid_step {grid_step} must divide 1 evenly")
    if not 0.0 < val_fraction < 1.0:
        raise ValidationError(f"val_fraction must be in (0, 1), got {val_fraction}")

    views = mvge.model.build_views(ds.graph, ds.features, cfg.walk_config())
    n = ds.num_nodes
    perm = np.random.default_rng([cfg.seed, _VAL_TAG]).permutation(n)
    n_train = min(max(int(round((1.0 - val_fraction) * n)), 1), n - 1)

    values = [i / steps for i in range(steps + 1)]
    # sized by the labels, as in node_classification_eval, not by meta.json
    num_classes = int(ds.labels.max()) + 1
    table: list[tuple[float, float, float]] = []
    best = (-1.0, 0.0, 0.0)
    beta0_score = None
    for a in values:
        for b in values:
            if b == 0.0 and beta0_score is not None:
                score = beta0_score
            else:
                _, emb, _ = mvge.model.train(ds, replace(cfg, alpha=a, beta=b), views=views)
                score = _probe_f1(emb.h, ds.labels, perm[None, :n_train],
                                  perm[None, n_train:], num_classes)[0]
                if b == 0.0:
                    beta0_score = score
            table.append((a, b, score))
            if score > best[0]:
                best = (score, a, b)
    return best[1], best[2], table
