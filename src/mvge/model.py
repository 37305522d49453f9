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
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from mvge.data import Dataset, EmbeddingSet
from mvge.graph import Graph, ValidationError, check_fields, normalized_adjacency
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

# rows of each buffer through which sampled mode gathers the embeddings of its
# node pairs, so that a call holds O(rows * d) of them, not O(E * d). Of 64,
# 128, 256, 512 and 1024 rows, 256 was fastest at N=20000, d=128
_PAIR_CHUNK_ROWS = 256

# default_rng([seed, tag]) stream tags for init and negatives (mvge.evaluate
# holds the others); walks draw from no Generator (they hash seed, node, length
# and step)
_INIT_TAG = 2**32 + 1
_NEG_TAG = 2**32 + 2

_LOG_FLOOR = 1e-12

log = logging.getLogger(__name__)


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
        object.__setattr__(self, "task_mask", frozenset(self.task_mask))
        check_fields(self, ints=("dim_ego", "dim_agg", "hidden_dim", "epochs", "seed"),
                     reals=("alpha", "beta", "lr", "sample_ratio"))
        for name, low in (("dim_ego", 1), ("dim_agg", 1), ("hidden_dim", 1),
                          ("epochs", 0), ("seed", 0)):
            v = getattr(self, name)
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
        # checks the lengths, aggr and seed, and gives the lengths as ints
        object.__setattr__(self, "walk_lengths", self.walk_config().lengths)
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
        # the cache keeps only what _backward reads: relu(v) > 0 exactly where
        # v > 0 (NaN and -0.0 included), so the ReLU outputs give the masks
        if self._is_linear(name):
            inner = np.maximum(x @ p["ego_w1"].value + p["ego_b1"].value, 0.0)
            cache = {"x": x}
        else:
            if s is None:
                raise ValidationError(f"gcn {name} encoder needs the normalized adjacency")
            g1 = np.maximum(spmm(s, x @ p[f"{name}_w1"].value), 0.0)
            inner = np.maximum(spmm(s, g1 @ p[f"{name}_w2"].value), 0.0)
            cache = {"x": x, "g1": g1, "s_op": s}
        cache["c"] = np.concatenate([x, inner], axis=1)
        h = cache["c"] @ p[f"{name}_skip_w"].value + p[f"{name}_skip_b"].value
        return h, cache

    def embeddings(self, views: ViewPair, s: sp.csr_matrix) -> EmbeddingSet:
        (h_ego, _), (h_agg, _) = _side_by_side(lambda: self.encode_ego(views.x_ego, s),
                                               lambda: self.encode_agg(views.x_agg, s))
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
        f = cache["x"].shape[1]
        d_inner = (d_h @ skip_w.value.T)[:, f:]
        d_inner *= cache["c"][:, f:] > 0.0
        if self._is_linear(name):
            p["ego_w1"].grad += cache["x"].T @ d_inner
            p["ego_b1"].grad += d_inner.sum(axis=0, keepdims=True)
            return
        d_b2 = spmm_backward(cache["s_op"], d_inner)
        p[f"{name}_w2"].grad += cache["g1"].T @ d_b2
        d_g1 = d_b2 @ p[f"{name}_w2"].value.T
        d_g1 *= cache["g1"] > 0.0
        d_b1 = spmm_backward(cache["s_op"], d_g1)
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
        (abs_b, log_b), (abs_a, log_a) = _side_by_side(lambda: _adjacency_part(*part_b),
                                                       lambda: _adjacency_part(*part_a))
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
    # loss = (sum over edges u -> v of softplus(-z) + sum over the sampled
    # non-edges of softplus(z)) / (both counts). z is symmetric, so each
    # undirected edge is scored once and counts twice
    n_pos = g.neighbors.size
    if n_pos == 0:
        raise ValidationError("sampled adjacency loss needs at least one edge")
    n_neg = max(1, int(round(sample_ratio * n_pos)))
    if n * (n - 1) - n_pos <= 0:
        raise ValidationError("graph is complete, no negative pairs to sample")
    total = n_pos + n_neg
    # each part gets its own gather buffer, allocated here as in full mode;
    # the negatives stay on the calling thread, the only one that draws from rng
    buf_p, buf_n = (np.empty((2, min(_PAIR_CHUNK_ROWS, rows), h.shape[1]))
                    for rows in (n_pos // 2, n_neg))
    (loss_p, d_h), (loss_n, d_h_n) = _side_by_side(
        lambda: _positive_part(h, g, total, buf_p),
        lambda: _negative_part(h, g, n_neg, total, rng, buf_n))
    # P's results before N's, so the bits do not depend on the worker count
    d_h += d_h_n
    return float((loss_p + loss_n) / total), d_h


def _positive_part(h, g: Graph, total: int, buf):
    """Twice the softplus(-z) sum over the undirected edges, and the edge
    part of the gradient, (sigmoid(z) - 1) / total on both directions, times H."""
    e = g.edge_array()
    z = _pair_dots(h, e[:, 0], e[:, 1], buf)
    coef = 2.0 * (sigmoid(z) - 1.0) / total
    # the coefficients lie straight on A's pattern: no COO build, no index sort
    a = g.adjacency
    return 2.0 * softplus(-z).sum(), sp.csr_matrix((coef[g.edge_ids], a.indices, a.indptr),
                                                   shape=a.shape) @ h


def _negative_part(h, g: Graph, n_neg: int, total: int, rng, buf):
    """The softplus(z) sum over ``n_neg`` ordered non-edges drawn from ``rng``,
    and their part of the gradient, sigmoid(z) / total on both directions, times H."""
    n = g.num_nodes
    nr = np.empty(n_neg, dtype=np.int64)
    nc = np.empty(n_neg, dtype=np.int64)
    got = rounds = drawn = kept = 0
    while got < n_neg:
        if rounds == _NEG_MAX_ROUNDS:
            # the chance that one drawn pair is a non-edge
            rate = 1.0 - (n + g.neighbors.size) / (n * n)
            raise ValidationError(
                f"negative sampling filled {got} of {n_neg} pairs in {rounds} rounds at "
                f"acceptance rate {rate:.2%}; the graph is too dense for sampled mode")
        rounds += 1
        cand_r = rng.integers(0, n, size=(n_neg - got) * 2)
        cand_c = rng.integers(0, n, size=(n_neg - got) * 2)
        ok = (cand_r != cand_c) & ~g.has_edge_mask(cand_r, cand_c)
        accepted = int(ok.sum())
        drawn += ok.size
        kept += accepted
        take = min(accepted, n_neg - got)
        nr[got:got + take] = cand_r[ok][:take]
        nc[got:got + take] = cand_c[ok][:take]
        got += take
    log.debug("sampled adjacency loss: %d of %d drawn pairs were non-edges (%.2f%%) "
              "in %d rounds", kept, drawn, 100.0 * kept / drawn, rounds)
    z = _pair_dots(h, nr, nc, buf)
    coef = sigmoid(z) / total
    # one symmetric coefficient matrix; duplicate pairs sum on construction
    a = sp.csr_matrix((np.concatenate([coef, coef]),
                       (np.concatenate([nr, nc]), np.concatenate([nc, nr]))), shape=(n, n))
    return softplus(z).sum(), a @ h


def _pair_dots(h, rows, cols, buf):
    """z[i] = h[rows[i]] . h[cols[i]], gathered through ``buf`` (two blocks of
    rows) chunk by chunk, so that no (len(rows), d) array is made."""
    z = np.empty(rows.size)
    step = buf.shape[1]
    for r0 in range(0, rows.size, step):
        r1 = min(r0 + step, rows.size)
        # mode="clip" writes straight into out; "raise" would buffer the gather
        u = np.take(h, rows[r0:r1], axis=0, out=buf[0, :r1 - r0], mode="clip")
        v = np.take(h, cols[r0:r1], axis=0, out=buf[1, :r1 - r0], mode="clip")
        np.einsum("ij,ij->i", u, v, out=z[r0:r1])
    return z


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
    """Threads a training step runs on: 2 only when the loaded BLAS reports
    exactly one thread and the process may use 2 or more CPUs, else 1. Two
    workers over a multi-threaded BLAS oversubscribe the cores."""
    return 2 if blas_info()[1] == 1 and usable_cpus() >= 2 else 1


def _side_by_side(first, second):
    """Returns (first(), second()). On two workers ``first`` runs on the worker
    thread while the calling thread runs ``second``; on one, first then second.
    The two must touch disjoint outputs, and ``first`` must not call this
    function itself: the one worker thread would wait on its own queue."""
    if adjacency_workers() == 1:
        return first(), second()
    # numpy's errstate is context-local; the worker runs in a copy of ours
    future = _pool().submit(contextvars.copy_context().run, first)
    try:
        b = second()
    finally:
        a = future.result()
    return a, b


_POOL: tuple[int, ThreadPoolExecutor] | None = None


def _pool() -> ThreadPoolExecutor:
    """The one worker thread of ``_side_by_side``, made on first use. A pool
    inherited across fork has no live thread, so a new process id gets a new
    pool. Two threads racing here may each make one; the pool that is not kept
    is collected, and its thread exits."""
    global _POOL
    if _POOL is None or _POOL[0] != os.getpid():
        _POOL = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="mvge-worker"))
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

    def branch(name, encode, x, p, w):
        """Encode one view and decode it; the two branches share no output."""
        h_view, cache = encode(x, s)
        d_h_view = np.zeros_like(h_view)
        loss = model._decode(name, h_view, p, w, d_h_view) if name in mask else 0.0
        return h_view, cache, d_h_view, loss

    (h_ego, cache_ego, d_h_ego, l_ego), (h_agg, cache_agg, d_h_agg, l_agg) = _side_by_side(
        lambda: branch("ego", model.encode_ego, views.x_ego, p_ego, cfg.beta * cfg.alpha),
        lambda: branch("agg", model.encode_agg, views.x_agg, p_agg,
                       cfg.beta * (1.0 - cfg.alpha)))
    h = merge_embeddings(h_ego, h_agg, cfg.merge_fn)

    l_s = 0.0
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

    _side_by_side(lambda: model._backward_ego(d_h_ego, cache_ego),
                  lambda: model._backward_agg(d_h_agg, cache_agg))
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
    log.info("training on %d nodes: %s adjacency loss (adj_loss_mode %s), %d worker thread(s)",
             g.num_nodes, adj_mode, cfg.adj_loss_mode, adjacency_workers())
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
