"""Two-branch graph embedding network and its training loop.

One branch encodes raw node features through a pair of linear layers
with a concat skip; the other encodes walk-aggregated features through
a two-layer graph convolution with a concat skip. Each branch is
trained to reconstruct its own input under a row-softmax KL loss, and
the merged embedding is trained to reconstruct the adjacency matrix
through an inner-product decoder. The three losses combine as

    L = beta * (alpha * l_ego + (1 - alpha) * l_agg) + (1 - beta) * l_s.

Gradients are computed in closed form for this fixed graph; see
``numerics`` for the per-operation rules and the optimizer.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from mvge.data import Dataset, EmbeddingSet
from mvge.graph import Graph, ValidationError, normalized_adjacency
from mvge.numerics import (
    Adam,
    Param,
    blas_info,
    glorot,
    sigmoid,
    softmax_rows,
    softplus,
    spmm,
    spmm_backward,
    usable_cpus,
)
from mvge.walks import ViewPair, WalkConfig, build_views

MERGE_FNS = ("concat", "sum", "mean")
TASKS = ("ego", "agg", "adj")
EGO_ENCODERS = ("linear", "gcn")
ADJ_LOSS_MODES = ("auto", "full", "sampled")

# node count above which "auto" switches the adjacency loss to sampling; full mode
# needs O(block * N) memory, so this bounds its O(N^2) time per epoch, not memory.
# train() seconds and node_f1 (10-repeat probe) of the default config at seed 1,
# 1 BLAS thread (so two full-mode workers), 2-vCPU Xeon VM, on synth graphs with
# 5 classes, avg degree 4 and 32 features:
#      N    h   full s  sampled s  full f1  sampled f1
#   2000  0.2    29.6     23.0     0.3667    0.3678
#   2000  0.8    26.8     21.9     0.5401    0.5414
#   3500  0.2    64.8     40.1     0.4156    0.4149
#   3500  0.8    59.8     40.0     0.5995    0.6002
#   5000  0.2   100.1     52.1     0.4143    0.4145
#   5000  0.8    95.3     48.3     0.6339    0.6346
#   8000  0.2   232.9     87.6     0.4531    0.4534
#   8000  0.8   224.7     88.7     0.6454    0.6450
# F1 agrees within 0.0013 throughout, and sampling trains 1.2-1.3x faster at
# 2000, 1.5-1.6x at 3500, 1.9-2.0x at 5000 and 2.5-2.7x at 8000. The switch
# sits at 3500, past which sampling saves the most; below it full mode keeps the
# exact objective where it costs least, cora (2708 nodes) and citeseer (3327)
# included
FULL_ADJ_MAX_NODES = 3500

# per-part budget, in bytes, for the widest float64 strip of H H^T in the full
# adjacency loss (its rows times N); each of the two parts holds one strip, so a
# call holds at most two. Median ms per call of the one-part loop at 1/2/4/8 MB,
# d=128, 1 BLAS thread, 2 MB L2: 45/44/48/57 at N=1490, 577/487/473/420 at
# N=5000. With two parts on one worker at N=5000, 2 MB gave 542-614 ms against
# 532-561 ms at 4 MB
_ADJ_BLOCK_BYTES = 4 << 20

# bytes of the buffer each part takes its |z| and softplus sums through, in
# row chunks of one strip (at least one row)
_ADJ_SUMS_BYTES = 256 << 10

# rounds of the sampled-mode negative rejection loop before it gives up
_NEG_MAX_ROUNDS = 1000

# default_rng([seed, tag]) stream tags for init, negatives and validation;
# walks draw from no Generator (they hash seed, node, length and step)
_INIT_TAG = 2**32 + 1
_NEG_TAG = 2**32 + 2
_VAL_TAG = 2**32 + 3

_LOG_FLOOR = 1e-12


class TrainingDivergedError(RuntimeError):
    """Raised when the loss turns non-finite; carries the epoch index."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class MVGEConfig:
    """Everything that determines a training run, walks included."""

    dim_ego: int = 64
    dim_agg: int = 64
    hidden_dim: int = 128
    alpha: float = 0.5
    beta: float = 0.8
    epochs: int = 200
    lr: float = 0.01
    seed: int = 0
    walk_lengths: tuple[int, ...] = (3, 5, 10)
    aggr: str = "concat"
    merge_fn: str = "concat"
    task_mask: frozenset[str] = frozenset(TASKS)
    ego_encoder: str = "linear"
    adj_loss_mode: str = "auto"
    sample_ratio: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "walk_lengths", tuple(int(x) for x in self.walk_lengths))
        object.__setattr__(self, "task_mask", frozenset(self.task_mask))
        for name, low in (("dim_ego", 1), ("dim_agg", 1), ("hidden_dim", 1),
                          ("epochs", 0), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {v!r}")
            if v < low:
                raise ValidationError(f"{name} must be >= {low}, got {v}")
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        for name in ("lr", "sample_ratio"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be finite and positive, got {v}")
        self.walk_config()  # lengths, aggr and seed
        for name, choices in (("merge_fn", MERGE_FNS), ("ego_encoder", EGO_ENCODERS),
                              ("adj_loss_mode", ADJ_LOSS_MODES)):
            if getattr(self, name) not in choices:
                raise ValidationError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.merge_fn in ("sum", "mean") and self.dim_ego != self.dim_agg:
            raise ValidationError(
                f"merge_fn {self.merge_fn!r} needs dim_ego == dim_agg, "
                f"got {self.dim_ego} and {self.dim_agg}"
            )
        bad = self.task_mask - set(TASKS)
        if bad:
            raise ValidationError(f"unknown tasks in task_mask: {sorted(bad)}")
        if not self.task_mask:
            raise ValidationError("task_mask must enable at least one task")

    @property
    def embedding_dim(self) -> int:
        if self.merge_fn == "concat":
            return self.dim_ego + self.dim_agg
        return self.dim_ego

    def walk_config(self) -> WalkConfig:
        return WalkConfig(lengths=self.walk_lengths, aggr=self.aggr, seed=self.seed)

    def resolve_adj_mode(self, num_nodes: int) -> str:
        if self.adj_loss_mode != "auto":
            return self.adj_loss_mode
        return "full" if num_nodes <= FULL_ADJ_MAX_NODES else "sampled"


@dataclass(frozen=True)
class TrainTrace:
    """Per-epoch loss record; masked tasks are logged as 0.0."""

    l_ego: np.ndarray
    l_agg: np.ndarray
    l_s: np.ndarray
    l_total: np.ndarray

    def __len__(self) -> int:
        return len(self.l_total)

    def rows(self) -> list[tuple[int, float, float, float, float]]:
        return [
            (i, float(self.l_ego[i]), float(self.l_agg[i]),
             float(self.l_s[i]), float(self.l_total[i]))
            for i in range(len(self))
        ]


class MVGEModel:
    """Parameter container plus the forward passes of both branches.

    Parameters live in an insertion-ordered dict of ``Param`` so the
    optimizer and gradient checker can walk them uniformly. Biases
    exist only on the dense layers; graph-convolution layers are
    bias-free.
    """

    def __init__(self, cfg: MVGEConfig, f_ego: int, f_agg: int):
        self.cfg = cfg
        self.f_ego = f_ego
        self.f_agg = f_agg
        rng = np.random.default_rng([cfg.seed, _INIT_TAG])
        h = cfg.hidden_dim
        p: dict[str, Param] = {}
        p["ego_w1"] = Param(glorot(rng, f_ego, h))
        if cfg.ego_encoder == "linear":
            p["ego_b1"] = Param(np.zeros((1, h)))
        else:
            p["ego_w2"] = Param(glorot(rng, h, h))
        p["ego_skip_w"] = Param(glorot(rng, f_ego + h, cfg.dim_ego))
        p["ego_skip_b"] = Param(np.zeros((1, cfg.dim_ego)))
        p["agg_w1"] = Param(glorot(rng, f_agg, h))
        p["agg_w2"] = Param(glorot(rng, h, h))
        p["agg_skip_w"] = Param(glorot(rng, f_agg + h, cfg.dim_agg))
        p["agg_skip_b"] = Param(np.zeros((1, cfg.dim_agg)))
        p["dec_ego_w"] = Param(glorot(rng, cfg.dim_ego, f_ego))
        p["dec_ego_b"] = Param(np.zeros((1, f_ego)))
        p["dec_agg_w"] = Param(glorot(rng, cfg.dim_agg, f_agg))
        p["dec_agg_b"] = Param(np.zeros((1, f_agg)))
        self.params = p

    def encode_ego(self, x: np.ndarray, s: sp.csr_matrix | None = None):
        """Forward the raw-feature branch; returns (h_ego, cache)."""
        return self._encode("ego", x, s)

    def encode_agg(self, x_agg: np.ndarray, s: sp.csr_matrix):
        """Forward the walk-feature branch; returns (h_agg, cache)."""
        return self._encode("agg", x_agg, s)

    def _is_linear(self, name: str) -> bool:
        return name == "ego" and self.cfg.ego_encoder == "linear"

    def _encode(self, name: str, x: np.ndarray, s: sp.csr_matrix | None):
        """One branch: a linear layer or two graph convolutions, then a dense
        skip layer over [x, inner]; returns (h, cache)."""
        p = self.params
        f = self.f_ego if name == "ego" else self.f_agg
        if x.shape[1] != f:
            raise ValidationError(f"expected {f} {name} features, got {x.shape[1]}")
        if self._is_linear(name):
            a1 = x @ p["ego_w1"].value + p["ego_b1"].value
            inner = np.maximum(a1, 0.0)
            cache = {"x": x, "a1": a1}
        else:
            if s is None:
                raise ValidationError(f"gcn {name} encoder needs the normalized adjacency")
            s1 = spmm(s, x @ p[f"{name}_w1"].value)
            g1 = np.maximum(s1, 0.0)
            s2 = spmm(s, g1 @ p[f"{name}_w2"].value)
            inner = np.maximum(s2, 0.0)
            cache = {"x": x, "s1": s1, "g1": g1, "s2": s2, "s_op": s}
        cache["c"] = np.concatenate([x, inner], axis=1)
        h = cache["c"] @ p[f"{name}_skip_w"].value + p[f"{name}_skip_b"].value
        return h, cache

    def embeddings(self, views: ViewPair, s: sp.csr_matrix) -> EmbeddingSet:
        h_ego, _ = self.encode_ego(views.x_ego, s)
        h_agg, _ = self.encode_agg(views.x_agg, s)
        return EmbeddingSet(
            h_ego=h_ego, h_agg=h_agg,
            h=merge_embeddings(h_ego, h_agg, self.cfg.merge_fn),
        )

    def _backward_ego(self, d_h: np.ndarray, cache: dict) -> None:
        self._backward("ego", d_h, cache)

    def _backward_agg(self, d_h: np.ndarray, cache: dict) -> None:
        self._backward("agg", d_h, cache)

    def _backward(self, name: str, d_h: np.ndarray, cache: dict) -> None:
        p = self.params
        skip_w = p[f"{name}_skip_w"]
        skip_w.grad += cache["c"].T @ d_h
        p[f"{name}_skip_b"].grad += d_h.sum(axis=0, keepdims=True)
        d_inner = (d_h @ skip_w.value.T)[:, cache["x"].shape[1]:]
        if self._is_linear(name):
            d_a1 = d_inner * (cache["a1"] > 0.0)
            p["ego_w1"].grad += cache["x"].T @ d_a1
            p["ego_b1"].grad += d_a1.sum(axis=0, keepdims=True)
            return
        d_s2 = d_inner * (cache["s2"] > 0.0)
        d_b2 = spmm_backward(cache["s_op"], d_s2)
        p[f"{name}_w2"].grad += cache["g1"].T @ d_b2
        d_g1 = d_b2 @ p[f"{name}_w2"].value.T
        d_s1 = d_g1 * (cache["s1"] > 0.0)
        d_b1 = spmm_backward(cache["s_op"], d_s1)
        p[f"{name}_w1"].grad += cache["x"].T @ d_b1

    def _decode(self, name: str, h: np.ndarray, p: np.ndarray, w: float,
                d_h: np.ndarray) -> float:
        """One branch's KL decoder against target distribution ``p``: returns
        its loss, and adds ``w`` times its gradient to the decoder parameters
        and to ``d_h`` in place."""
        dec_w = self.params[f"dec_{name}_w"]
        dec_b = self.params[f"dec_{name}_b"]
        loss, d_recon = _kl_terms(p, h @ dec_w.value + dec_b.value)
        if w != 0.0:
            d_recon = w * d_recon
            dec_w.grad += h.T @ d_recon
            dec_b.grad += d_recon.sum(axis=0, keepdims=True)
            d_h += d_recon @ dec_w.value.T
        return loss


def merge_embeddings(h_ego: np.ndarray, h_agg: np.ndarray, fn: str) -> np.ndarray:
    if fn not in MERGE_FNS:
        raise ValidationError(f"merge_fn must be one of {MERGE_FNS}, got {fn!r}")
    if h_ego.shape[0] != h_agg.shape[0]:
        raise ValidationError("row count mismatch between views")
    if fn == "concat":
        return np.concatenate([h_ego, h_agg], axis=1)
    if h_ego.shape[1] != h_agg.shape[1]:
        raise ValidationError(
            f"merge_fn {fn!r} needs matching dims, got {h_ego.shape[1]} and {h_agg.shape[1]}"
        )
    return h_ego + h_agg if fn == "sum" else (h_ego + h_agg) / 2.0


def kl_feature_loss(targets: np.ndarray, recon: np.ndarray) -> float:
    """KL divergence between row-softmaxed targets and reconstructions.

    The target distribution is treated as fixed; only the
    reconstruction side carries gradient (which is softmax(recon) -
    softmax(targets) with respect to the reconstruction logits).
    """
    if targets.shape != recon.shape:
        raise ValidationError(f"shape mismatch: {targets.shape} vs {recon.shape}")
    targets = np.asarray(targets, dtype=np.float64)
    return _kl_terms(softmax_rows(targets), np.asarray(recon, dtype=np.float64))[0]


def _kl_terms(p: np.ndarray, recon: np.ndarray):
    """Loss and logit gradient for a precomputed target distribution."""
    q = softmax_rows(recon)
    logs = np.log(np.maximum(p, _LOG_FLOOR)) - np.log(np.maximum(q, _LOG_FLOOR))
    return float((p * logs).sum()), q - p


def adjacency_loss(h: np.ndarray, g: Graph, mode: str = "full",
                   rng: np.random.Generator | None = None,
                   sample_ratio: float = 1.0) -> float:
    """Cross-entropy between sigmoid(H H^T) and the adjacency matrix."""
    return _adjacency_terms(h, g, mode, rng=rng, sample_ratio=sample_ratio)[0]


def _adjacency_terms(h: np.ndarray, g: Graph, mode: str,
                     rng: np.random.Generator | None = None,
                     sample_ratio: float = 1.0):
    if h.shape[0] != g.num_nodes:
        raise ValidationError(f"embedding rows {h.shape[0]} != num_nodes {g.num_nodes}")
    n = g.num_nodes
    if mode == "full":
        if n == 0:
            raise ValidationError("full adjacency loss needs at least one node")
        # loss = (sum softplus(z) - sum_edges z) / n^2 over z = H H^T; the edge sum
        # is sum(H * A H), softplus(z) = (z + |z|) / 2 + log1p(exp(-|z|)), and
        # sum(z) = |col|^2 with col the column sums of H
        ah = g.adjacency @ h
        col = h.sum(axis=0)
        block = max(1, _ADJ_BLOCK_BYTES // (8 * n))
        sums_rows = max(1, _ADJ_SUMS_BYTES // (8 * n))
        k = _split_row(n, block)
        # d_h = (2 / n^2) (sigmoid(z) - A) H with sigmoid(z) = (1 + tanh(z / 2)) / 2:
        # t collects tanh(z / 2) H, and the 1 adds col to every row. Each part gets
        # its own buffers, all allocated here so that no worker thread keeps freed
        # strips in an arena of its own
        t, t_b = np.zeros_like(h), np.zeros_like(h)
        part_a, part_b = (
            (h, lo, hi, block, np.empty(min(block, hi - lo) * (n - lo)),
             np.empty(sums_rows * n), np.empty((n - lo, h.shape[1])), t_part)
            for lo, hi, t_part in ((0, k, t), (k, n, t_b)))
        if adjacency_workers() == 2:
            # numpy's errstate is context-local; the worker runs in a copy of ours
            future = _pool().submit(contextvars.copy_context().run, _adjacency_part, *part_b)
            try:
                abs_a, log_a = _adjacency_part(*part_a)
            finally:
                abs_b, log_b = future.result()
        else:
            abs_a, log_a = _adjacency_part(*part_a)
            abs_b, log_b = _adjacency_part(*part_b)
        # A's results before B's, so the bits do not depend on the worker count
        t += t_b
        abs_sum, log_sum = abs_a + abs_b, log_a + log_b
        loss = (0.5 * (col @ col + abs_sum) + log_sum - (h * ah).sum()) / (n * n)
        t += col
        t -= 2.0 * ah
        return float(loss), t / (n * n)
    if mode != "sampled":
        raise ValidationError(f"adjacency loss mode must be full or sampled, got {mode!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    pr, pc = g.sources, g.neighbors
    n_pos = pr.size
    if n_pos == 0:
        raise ValidationError("sampled adjacency loss needs at least one edge")
    n_neg = max(1, int(round(sample_ratio * n_pos)))
    if n * (n - 1) - n_pos <= 0:
        raise ValidationError("graph is complete, no negative pairs to sample")
    nr = np.empty(n_neg, dtype=np.int64)
    nc = np.empty(n_neg, dtype=np.int64)
    got = rounds = 0
    while got < n_neg:
        if rounds == _NEG_MAX_ROUNDS:
            rate = 1.0 - (n + n_pos) / (n * n)  # chance that one drawn pair is a non-edge
            raise ValidationError(
                f"negative sampling filled {got} of {n_neg} pairs in {rounds} rounds at "
                f"acceptance rate {rate:.2%}; the graph is too dense for sampled mode")
        rounds += 1
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
    loss = (softplus(-z_pos).sum() + softplus(z_neg).sum()) / total
    coef_pos = (sigmoid(z_pos) - 1.0) / total
    coef_neg = sigmoid(z_neg) / total
    # one symmetric coefficient matrix; duplicate pairs sum on construction
    coef = sp.csr_matrix(
        (np.concatenate([coef_pos, coef_pos, coef_neg, coef_neg]),
         (np.concatenate([pr, pc, nr, nc]), np.concatenate([pc, pr, nc, nr]))),
        shape=(n, n),
    )
    return float(loss), coef @ h


def _adjacency_part(h, lo, hi, block, strip, chunk_buf, prod, t):
    """Row strips [lo, hi) of the upper triangle of z = H H^T, each at most
    ``block`` rows: returns the sums of |z| and of log1p(exp(-|z|)) over the
    unordered node pairs they hold, and adds tanh(z / 2) H into ``t``. Writes
    only into the buffers it is given, so that it can run on a worker thread."""
    n = h.shape[0]
    abs_sum = log_sum = 0.0
    for s0 in range(lo, hi, block):
        s1 = min(s0 + block, hi)
        b, w = s1 - s0, n - s0
        # z is symmetric: strip [s0, s1) x [s0, n) scores each unordered pair
        # once; its diagonal tile counts once and the rest twice
        z = strip[:b * w].reshape(b, w)
        np.matmul(h[s0:s1], h[s0:].T, out=z)
        step = chunk_buf.size // w
        for r0 in range(0, b, step):
            e = chunk_buf[:min(step, b - r0) * w].reshape(-1, w)
            np.abs(z[r0:r0 + step], out=e)
            abs_sum += 2.0 * e.sum() - e[:, :b].sum()
            np.negative(e, out=e)
            np.exp(e, out=e)
            np.log1p(e, out=e)
            log_sum += 2.0 * e.sum() - e[:, :b].sum()
        z *= 0.5
        np.tanh(z, out=z)
        t[s0:s1] += np.matmul(z, h[s0:], out=prod[:b])
        t[s1:] += np.matmul(z[:, b:].T, h[s0:s1], out=prod[:n - s1])
    return abs_sum, log_sum


def _split_row(n: int, block: int) -> int:
    """The first row of part B: the k in [0, n] at which the strip cost
    sum b * (n - s0) of rows [0, k) and of rows [k, n) is most even, near
    n (1 - 1/sqrt 2). It depends on n and the strip height only."""
    def cost(lo, hi):
        return sum(min(block, hi - s0) * (n - s0) for s0 in range(lo, hi, block))

    lo, hi = 0, n
    while lo < hi:  # the first k where A costs at least B; A grows with k, B shrinks
        mid = (lo + hi) // 2
        if cost(0, mid) < cost(mid, n):
            lo = mid + 1
        else:
            hi = mid
    if lo > 0 and max(cost(0, lo - 1), cost(lo - 1, n)) <= max(cost(0, lo), cost(lo, n)):
        return lo - 1
    return lo


def adjacency_workers() -> int:
    """Threads the full-mode adjacency loss runs on: 2 only when the loaded
    BLAS reports exactly one thread and the process may use 2 or more CPUs,
    else 1. Two workers over a multi-threaded BLAS oversubscribe the cores."""
    return 2 if blas_info()[1] == 1 and usable_cpus() >= 2 else 1


_POOL: tuple[int, ThreadPoolExecutor] | None = None


def _pool() -> ThreadPoolExecutor:
    """The one worker thread of part B, made on first use. A pool inherited
    across fork has no live thread, so a new process id gets a new pool. Two
    threads racing here may each make one; the pool that is not kept is
    collected, and its thread exits."""
    global _POOL
    if _POOL is None or _POOL[0] != os.getpid():
        _POOL = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="mvge-adjacency"))
    return _POOL[1]


def total_loss(l_ego: float, l_agg: float, l_s: float,
               alpha: float, beta: float,
               task_mask: frozenset[str] = frozenset(TASKS)) -> float:
    """Combined objective; masked tasks contribute exactly zero."""
    e = l_ego if "ego" in task_mask else 0.0
    a = l_agg if "agg" in task_mask else 0.0
    s = l_s if "adj" in task_mask else 0.0
    return beta * (alpha * e + (1.0 - alpha) * a) + (1.0 - beta) * s


def _train_step(model: MVGEModel, views: ViewPair, s: sp.csr_matrix,
                g: Graph, p_ego: np.ndarray, p_agg: np.ndarray,
                adj_mode: str, neg_rng: np.random.Generator):
    """One forward/backward pass; gradients are left in model.params."""
    cfg = model.cfg
    mask = cfg.task_mask
    h_ego, cache_ego = model.encode_ego(views.x_ego, s)
    h_agg, cache_agg = model.encode_agg(views.x_agg, s)
    h = merge_embeddings(h_ego, h_agg, cfg.merge_fn)

    l_ego = l_agg = l_s = 0.0
    d_h_ego = np.zeros_like(h_ego)
    d_h_agg = np.zeros_like(h_agg)

    if "ego" in mask:
        l_ego = model._decode("ego", h_ego, p_ego, cfg.beta * cfg.alpha, d_h_ego)
    if "agg" in mask:
        l_agg = model._decode("agg", h_agg, p_agg, cfg.beta * (1.0 - cfg.alpha), d_h_agg)
    if "adj" in mask:
        l_s, d_h_adj = _adjacency_terms(h, g, adj_mode, rng=neg_rng,
                                        sample_ratio=cfg.sample_ratio)
        w = 1.0 - cfg.beta
        if w != 0.0:
            d_h_adj = w * d_h_adj
            if cfg.merge_fn == "concat":
                d_h_ego += d_h_adj[:, :cfg.dim_ego]
                d_h_agg += d_h_adj[:, cfg.dim_ego:]
            else:
                share = d_h_adj if cfg.merge_fn == "sum" else 0.5 * d_h_adj
                d_h_ego += share
                d_h_agg += share

    model._backward_ego(d_h_ego, cache_ego)
    model._backward_agg(d_h_agg, cache_agg)
    return l_ego, l_agg, l_s, total_loss(l_ego, l_agg, l_s, cfg.alpha, cfg.beta, mask)


def train(ds: Dataset, cfg: MVGEConfig, *, views: ViewPair | None = None):
    """Full-batch training for cfg.epochs; deterministic per seed.

    Returns (model, embeddings, trace). Raises TrainingDivergedError
    with the offending epoch index if any loss turns non-finite.
    ``views`` may be passed to reuse precomputed walk features; they
    must come from this dataset with this config's walk settings.
    """
    ds.validate()
    g = ds.graph
    if views is None:
        views = build_views(g, ds.features, cfg.walk_config())
    s = normalized_adjacency(g)
    model = MVGEModel(cfg, f_ego=views.x_ego.shape[1], f_agg=views.x_agg.shape[1])
    p_ego = softmax_rows(views.x_ego)
    p_agg = softmax_rows(views.x_agg)
    adj_mode = cfg.resolve_adj_mode(g.num_nodes)
    neg_rng = np.random.default_rng([cfg.seed, _NEG_TAG])
    opt = Adam(model.params, lr=cfg.lr)

    trace = np.zeros((cfg.epochs, 4), dtype=np.float64)
    # a diverging run overflows before its loss turns non-finite; the checks
    # below raise for it, so numpy's warnings would only repeat them
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            l_e, l_a, l_s, l_t = _train_step(model, views, s, g, p_ego, p_agg,
                                             adj_mode, neg_rng)
            trace[epoch] = (l_e, l_a, l_s, l_t)
            if not np.isfinite(l_t):
                raise TrainingDivergedError(
                    epoch, f"non-finite loss {l_t!r} at epoch {epoch}"
                )
            opt.step()

        emb = model.embeddings(views, s)
    if not (np.isfinite(emb.h).all() and np.isfinite(emb.h_ego).all()
            and np.isfinite(emb.h_agg).all()):
        raise TrainingDivergedError(cfg.epochs, "non-finite embeddings after training")
    return model, emb, TrainTrace(
        l_ego=trace[:, 0].copy(), l_agg=trace[:, 1].copy(),
        l_s=trace[:, 2].copy(), l_total=trace[:, 3].copy(),
    )


def embedding_dim_std(h: np.ndarray) -> np.ndarray:
    """Population standard deviation of each embedding dimension."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] < 2:
        raise ValidationError(f"need a matrix with >= 2 rows, got shape {h.shape}")
    return h.std(axis=0, ddof=0)


def grid_search_alpha_beta(ds: Dataset, cfg: MVGEConfig, grid_step: float = 0.1,
                           val_fraction: float = 0.7):
    """Pick (alpha, beta) by validation Micro-F1 over the full grid.

    Trains one model per grid point (walk features computed once and
    shared), scores a logistic-regression probe on a fixed held-out
    node split, and returns (best_alpha, best_beta, table) where the
    table lists (alpha, beta, score) rows in grid order. Ties keep the
    earliest point, so the lowest alpha and then the lowest beta.
    """
    from mvge.evaluate import LogRegModel, micro_f1

    if ds.labels is None:
        raise ValidationError("grid search needs labels")
    if not 0.0 < grid_step <= 1.0:
        raise ValidationError(f"grid_step must be in (0, 1], got {grid_step}")
    steps = int(round(1.0 / grid_step))
    if abs(steps * grid_step - 1.0) > 1e-9:
        raise ValidationError(f"grid_step {grid_step} must divide 1 evenly")
    if not 0.0 < val_fraction < 1.0:
        raise ValidationError(f"val_fraction must be in (0, 1), got {val_fraction}")

    views = build_views(ds.graph, ds.features, cfg.walk_config())
    n = ds.num_nodes
    rng = np.random.default_rng([cfg.seed, _VAL_TAG])
    perm = rng.permutation(n)
    n_train = int(round((1.0 - val_fraction) * n))
    n_train = min(max(n_train, 1), n - 1)
    train_idx, val_idx = perm[:n_train], perm[n_train:]

    values = [i / steps for i in range(steps + 1)]
    table: list[tuple[float, float, float]] = []
    best = (-1.0, 0.0, 0.0)
    for a in values:
        for b in values:
            point = replace(cfg, alpha=a, beta=b)
            _, emb, _ = train(ds, point, views=views)
            clf = LogRegModel()
            clf.fit(emb.h[train_idx], ds.labels[train_idx],
                    num_classes=ds.num_classes)
            score = micro_f1(ds.labels[val_idx], clf.predict(emb.h[val_idx]))
            table.append((a, b, score))
            if score > best[0]:
                best = (score, a, b)
    return best[1], best[2], table
