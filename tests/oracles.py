"""Reference implementations that only the tests call.

- ``grad_check``: central differences against the hand-derived gradients.
- ``adjacency_loss``: the adjacency loss alone, without its gradient.
- ``kl_feature_loss``: the KL reconstruction loss from raw target features.
- ``float64_logreg_fit``: the probe's all-float64 training loop, which
  ``LogRegModel.fit`` ran before it moved to one float32 feature layout.
- ``node_eval_one_fit_per_repeat``: node classification scores from one
  probe fit per repeat, as taken before the repeats were fitted as a stack.
- ``canonicalize_edges_by_rows``: ``canonicalize_edges`` with the row-wise
  ``np.unique(axis=0)`` it deduplicated with before it used int64 keys.
- ``softmax_rows``: a row-wise softmax on its own, with the bits of the
  softmax half of ``mvge.model._softmax``.
"""

import numpy as np

from mvge.evaluate import _NODE_TAG, _STD_FLOOR, LogRegModel, SplitSpec, micro_f1
from mvge.graph import EdgeRepairs, Graph, ValidationError
from mvge.model import _adjacency_terms, _kl_terms, _softmax
from mvge.numerics import Adam, Param, sigmoid

# ulps of error allowed in each loss that grad_check evaluates; see its docstring
ROUNDOFF_ULPS = 4
_EPS = float(np.finfo(np.float64).eps)


def grad_check(
    loss_fn,
    params: dict[str, Param],
    epsilon: float = 1e-5,
    max_entries_per_param: int = 40,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn()`` must recompute the loss from the current parameter
    values and leave the full analytic gradient in each param's ``grad``.
    A deterministic sample of entries per parameter is probed; the
    relative error is max(0, |analytic - numeric| - floor) /
    max(1e-8, |analytic| + |numeric|).

    ``floor`` is the roundoff of the central difference. Each float64 loss
    is taken to be correct to ``ROUNDOFF_ULPS`` ulps, so (plus - minus) /
    (2 epsilon) may be off by ROUNDOFF_ULPS * eps * (|plus| + |minus|) /
    (2 epsilon), about 1e-10 for an O(1) loss at epsilon 1e-5. A gradient
    entry near that size cannot be resolved, and the floor keeps its
    roundoff from reading as a relative error near 1.
    """
    rng = np.random.default_rng(seed)
    base = loss_fn()
    if not np.isfinite(base):
        raise FloatingPointError(f"non-finite loss {base!r} in grad_check")
    analytic = {k: p.grad.copy() for k, p in params.items()}
    for p in params.values():
        p.zero_grad()

    worst = 0.0
    for k, p in params.items():
        flat = p.value.reshape(-1)
        n = flat.size
        idx = np.arange(n) if n <= max_entries_per_param else rng.choice(
            n, size=max_entries_per_param, replace=False
        )
        for i in idx:
            orig = flat[i]
            flat[i] = orig + epsilon
            plus = loss_fn()
            flat[i] = orig - epsilon
            minus = loss_fn()
            flat[i] = orig
            for q in params.values():
                q.zero_grad()
            if not (np.isfinite(plus) and np.isfinite(minus)):
                raise FloatingPointError("non-finite loss during grad_check probe")
            numeric = (plus - minus) / (2.0 * epsilon)
            floor = ROUNDOFF_ULPS * _EPS * (abs(plus) + abs(minus)) / (2.0 * epsilon)
            a = analytic[k].reshape(-1)[i]
            err = max(0.0, abs(a - numeric) - floor) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    loss_fn()  # restore gradient state for the caller
    return worst


def adjacency_loss(h: np.ndarray, g: Graph, mode: str = "full",
                   rng: np.random.Generator | None = None,
                   sample_ratio: float = 1.0) -> float:
    """Cross-entropy between sigmoid(H H^T) and the adjacency matrix."""
    return _adjacency_terms(h, g, mode, rng=rng, sample_ratio=sample_ratio)[0]


def kl_feature_loss(targets: np.ndarray, recon: np.ndarray) -> float:
    """KL divergence between row-softmaxed targets and reconstructions.

    The target distribution is treated as fixed; only the
    reconstruction side carries gradient (which is softmax(recon) -
    softmax(targets) with respect to the reconstruction logits).
    """
    if targets.shape != recon.shape:
        raise ValidationError(f"shape mismatch: {targets.shape} vs {recon.shape}")
    targets = np.asarray(targets, dtype=np.float64)
    p, log_p = _softmax(targets)
    p_log_p = float((p * log_p).sum(dtype=np.float64))
    return _kl_terms(p, p_log_p, np.asarray(recon, dtype=np.float64))[0]


def float64_logreg_fit(x: np.ndarray, y: np.ndarray, num_classes: int):
    """(weights, bias) of the float64 probe loop on a training set with at
    least two classes, at ``LogRegModel``'s LR, ITERATIONS and L2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    mu = x.mean(axis=0)
    sd = x.std(axis=0, ddof=0)
    sd = np.where(sd < _STD_FLOOR, 1.0, sd)
    xs = (x - mu) / sd
    n_out = 1 if num_classes == 2 else num_classes
    targets = (
        (y == 1).astype(np.float64)[:, None]
        if n_out == 1
        else np.eye(num_classes)[y]
    )
    params = {
        "w": Param(np.zeros((x.shape[1], n_out))),
        "b": Param(np.zeros((1, n_out))),
    }
    opt = Adam(params, lr=LogRegModel.LR)
    n = xs.shape[0]
    for _ in range(LogRegModel.ITERATIONS):
        z = xs @ params["w"].value + params["b"].value
        d_z = (sigmoid(z) - targets) / n
        params["w"].grad += xs.T @ d_z + 2.0 * LogRegModel.L2 * params["w"].value
        params["b"].grad += d_z.sum(axis=0, keepdims=True)
        opt.step()
    return params["w"].value, params["b"].value


def node_eval_one_fit_per_repeat(h: np.ndarray, labels: np.ndarray,
                                 spec: SplitSpec) -> list[float]:
    """The Micro-F1 of each repeat of ``node_classification_eval``, with its
    splits, from one ``LogRegModel`` fit per repeat."""
    n = h.shape[0]
    n_train = min(max(int(round(spec.train_fraction * n)), 1), n - 1)
    out = []
    for r in range(spec.repeats):
        perm = np.random.default_rng([spec.seed, _NODE_TAG, r]).permutation(n)
        train, test = perm[:n_train], perm[n_train:]
        clf = LogRegModel().fit(h[train], labels[train], num_classes=int(labels.max()) + 1)
        out.append(micro_f1(labels[test], clf.predict(h[test])))
    return out


def canonicalize_edges_by_rows(edges, num_nodes: int):
    """The unique undirected pairs and repair counts of ``canonicalize_edges``,
    deduplicated by sorting the (lo, hi) rows as a structured view."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = edges[:, 0] == edges[:, 1]
    edges = edges[~loops]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0) if len(lo) else np.empty((0, 2), np.int64)
    return pairs, EdgeRepairs(self_loops_dropped=int(loops.sum()),
                              duplicates_dropped=len(edges) - len(pairs))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)
