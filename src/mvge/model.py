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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from mvge.data import Dataset, EmbeddingSet
from mvge.graph import (AT_LEAST_0, AT_LEAST_1, FINITE_POSITIVE, SEED_RANGE, UNIT_RANGE,
                        Graph, ValidationError, check_fields, normalized_adjacency)
from mvge.numerics import (
    Adam,
    Param,
    blas_info,
    glorot,
    sigmoid,
    softplus,
    spmm,
    spmm_backward,
    usable_cpus,
)
from mvge.walks import AGGREGATORS, ViewPair, WalkConfig, build_views

MERGE_FNS = ("concat", "sum", "mean")
TASKS = ("ego", "agg", "adj")
EGO_ENCODERS = ("linear", "gcn")
ADJ_LOSS_MODES = ("auto", "full", "sampled")

# node count above which "auto" switches the adjacency loss to sampling; full mode
# needs O(block * N) memory, so this bounds its O(N^2) time per epoch, not memory.
# train() seconds and node_f1 (10-repeat probe) of the default config at seed 1,
# 1 BLAS thread (so two full-mode workers), 2-vCPU Xeon VM, on synth graphs with
# 5 classes, avg degree 4 and 32 features. The 3500 and 5000 rows are from float32
# strips and two-worker sampling; the 2000 and 8000 rows are older, from float64
# strips and one-thread sampling, so compare the modes within a row only:
#      N    h   full s  sampled s  full f1  sampled f1
#   2000  0.2    29.6     23.0     0.3667    0.3678
#   2000  0.8    26.8     21.9     0.5401    0.5414
#   3500  0.2    39.8     18.6     0.4156    0.4149
#   3500  0.8    33.7     18.3     0.5995    0.6002
#   5000  0.2    64.5     38.7     0.4143    0.4145
#   5000  0.8    53.7     31.7     0.6339    0.6346
#   8000  0.2   232.9     87.6     0.4531    0.4534
#   8000  0.8   224.7     88.7     0.6454    0.6450
# F1 agrees within 0.0013 throughout, and sampling trains 1.2-1.3x faster at
# 2000, 1.8-2.1x at 3500, 1.7x at 5000 and 2.5-2.7x at 8000. The switch sits at
# 3500, past which sampling saves the most; below it full mode keeps the exact
# objective where it costs least, cora (2708 nodes) and citeseer (3327) included
FULL_ADJ_MAX_NODES = 3500

# seconds of one full-mode adjacency loss call at N=5000, d=128 on float32 strips,
# 2-vCPU Xeon VM; its time grows as N^2, so full mode forced above
# FULL_ADJ_MAX_NODES logs 0.24 * (N / 5000)^2 s per epoch at INFO (about 24 s at
# N=50000, extrapolated)
_FULL_SECONDS_AT_5000 = 0.24

# per-part budget, in bytes, for the widest strip of H H^T in the full adjacency
# loss (its rows times N times the strip itemsize); each of the two parts holds
# one strip, so a call holds at most two. Median ms per call of the one-part
# float32 loop at 2/4/8 MB, d=128, 1 BLAS thread, 2 MB L2: 26/28/29 at N=1490,
# 230/197/198 at N=5000. Both parts at N=5000, two runs of 11 calls: 241-262,
# 237-250 and 226-234 ms on one worker, 185-242, 146-242 and 137-158 ms on two.
# 8 MB gains under 5% on one worker and doubles the strips' memory
_ADJ_BLOCK_BYTES = 4 << 20

# dtype of the float32 work: x, S, S x, the activations and every product of
# the encoders, the skip layer's x W_x and inner W_in summed included; p, the
# recon product, softmax, log q, q - p and the share of d_h of the KL
# decoders; the strips z = H H^T and their |z|, exp, log1p and tanh passes in
# full mode; the copy of H the pair dots gather from and the coefficient
# matrices in sampled mode. Sums, losses, the parameters, their gradients
# (float32 products added into float64), Adam, h and every d_h are float64: a
# branch's d_h is the adjacency gradient's share with the decoder's added in.
# float32 holds values up to 3.4e38: features past it overflow in _prepare's
# cast, and row norms of H past 1.8e19 overflow a strip (z_ii = |h_i|^2). Both
# end in a non-finite loss, never a wrong finite value. Finite differences
# cannot resolve a float32 loss, so the tests' gradient checks set this to float64
_WORK_DTYPE = np.float32

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

    dim_ego: int = field(default=64, metadata={"rule": AT_LEAST_1})
    dim_agg: int = field(default=64, metadata={"rule": AT_LEAST_1})
    hidden_dim: int = field(default=128, metadata={"rule": AT_LEAST_1})
    alpha: float = field(default=0.5, metadata={"rule": UNIT_RANGE})
    beta: float = field(default=0.8, metadata={"rule": UNIT_RANGE})
    epochs: int = field(default=200, metadata={"rule": AT_LEAST_0})
    lr: float = field(default=0.01, metadata={"rule": FINITE_POSITIVE})
    seed: int = field(default=0, metadata={"rule": SEED_RANGE})
    walk_lengths: tuple[int, ...] = WalkConfig.lengths
    aggr: str = field(default=WalkConfig.aggr, metadata={"choices": AGGREGATORS})
    merge_fn: str = field(default="concat", metadata={"choices": MERGE_FNS})
    task_mask: frozenset[str] = frozenset(TASKS)
    ego_encoder: str = field(default="linear", metadata={"choices": EGO_ENCODERS})
    adj_loss_mode: str = field(default="auto", metadata={"choices": ADJ_LOSS_MODES})
    sample_ratio: float = field(default=1.0, metadata={"rule": FINITE_POSITIVE})

    def __post_init__(self):
        object.__setattr__(self, "task_mask", frozenset(self.task_mask))
        check_fields(self)
        # checks the lengths and gives them as ints
        object.__setattr__(self, "walk_lengths", self.walk_config().lengths)
        tiny = float(np.finfo(np.float32).tiny)  # a float32 decoder gradient flushes below it
        for what, w in (("alpha", self.beta * self.alpha),
                        ("(1 - alpha)", self.beta * (1.0 - self.alpha))):
            if 0.0 < w < tiny:
                raise ValidationError(f"task weight beta * {what} = {w:.3g} is below float32's "
                                      f"smallest normal {tiny:.3g}; its gradient would flush to 0")
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
        cols = zip(self.l_ego, self.l_agg, self.l_s, self.l_total)
        return [(i, *map(float, row)) for i, row in enumerate(cols)]


class MVGEModel:
    """Parameter container plus the forward passes of both branches.

    Parameters live in an insertion-ordered dict of ``Param`` so the
    optimizer and gradient checker can walk them uniformly. Biases
    exist only on the dense layers; graph-convolution layers are
    bias-free.
    """

    def __init__(self, cfg: MVGEConfig, f_ego: int, f_agg: int):
        self.cfg = cfg
        self.widths = {"ego": f_ego, "agg": f_agg}
        dims = {"ego": cfg.dim_ego, "agg": cfg.dim_agg}
        rng = np.random.default_rng([cfg.seed, _INIT_TAG])
        h = cfg.hidden_dim
        p: dict[str, Param] = {}
        for name, f in self.widths.items():
            p[f"{name}_w1"] = Param(glorot(rng, f, h))
            if self._is_linear(name):
                p[f"{name}_b1"] = Param(np.zeros((1, h)))
            else:
                p[f"{name}_w2"] = Param(glorot(rng, h, h))
            p[f"{name}_skip_w"] = Param(glorot(rng, f + h, dims[name]))
            p[f"{name}_skip_b"] = Param(np.zeros((1, dims[name])))
        for name, f in self.widths.items():
            p[f"dec_{name}_w"] = Param(glorot(rng, dims[name], f))
            p[f"dec_{name}_b"] = Param(np.zeros((1, f)))
        self.params = p

    def encode_ego(self, x: np.ndarray, s: sp.csr_matrix | None = None, sx=None):
        """Forward the raw-feature branch; returns (h_ego, cache)."""
        return self._encode("ego", x, s, sx)

    def encode_agg(self, x_agg: np.ndarray, s: sp.csr_matrix, sx):
        """Forward the walk-feature branch; returns (h_agg, cache)."""
        return self._encode("agg", x_agg, s, sx)

    def _is_linear(self, name: str) -> bool:
        return name == "ego" and self.cfg.ego_encoder == "linear"

    def _encode(self, name: str, x: np.ndarray, s: sp.csr_matrix | None, sx):
        """One branch: a linear layer or two graph convolutions, then a dense
        skip layer over [x, inner], on x, S and ``sx`` = S x as ``_prepare``
        gives them, in _WORK_DTYPE; returns the float64 h and the cache. The
        first convolution is relu((S x) W1)."""
        p = self.params
        f = self.widths[name]
        if x.shape[1] != f:
            raise ValidationError(f"expected {f} {name} features, got {x.shape[1]}")
        dt = _WORK_DTYPE
        # the cache keeps only what _backward reads: relu(v) > 0 exactly where
        # v > 0 (NaN and -0.0 included), so the ReLU outputs give the masks
        if self._is_linear(name):
            inner = x @ p[f"{name}_w1"].value.astype(dt)
            inner += p[f"{name}_b1"].value.astype(dt)
            cache = {"x": x}
        else:
            if s is None or sx is None:
                raise ValidationError(f"gcn {name} encoder needs the normalized adjacency and S x")
            g1 = sx @ p[f"{name}_w1"].value.astype(dt)
            np.maximum(g1, 0.0, out=g1)
            inner = spmm(s, g1 @ p[f"{name}_w2"].value.astype(dt))
            cache = {"x": x, "sx": sx, "g1": g1, "s_op": s}
        np.maximum(inner, 0.0, out=inner)
        cache["inner"] = inner
        # the skip layer over [x, inner] as two products, skip_w's rows split at f
        skip_w = p[f"{name}_skip_w"].value
        h = x @ skip_w[:f].astype(dt)
        h += inner @ skip_w[f:].astype(dt)
        return h + p[f"{name}_skip_b"].value, cache

    def embeddings(self, inputs: dict[str, _Inputs], s: sp.csr_matrix) -> EmbeddingSet:
        """Both branches' embeddings, from what ``_prepare`` returns, and their merge."""
        ego, agg = inputs["ego"], inputs["agg"]
        (h_ego, _), (h_agg, _) = _side_by_side(lambda: self.encode_ego(ego.x, s, ego.sx),
                                               lambda: self.encode_agg(agg.x, s, agg.sx))
        return EmbeddingSet(h_ego, h_agg, merge_embeddings(h_ego, h_agg, self.cfg.merge_fn))

    def _backward_ego(self, cache: dict) -> None:
        self._backward("ego", cache)

    def _backward_agg(self, cache: dict) -> None:
        self._backward("agg", cache)

    def _backward(self, name: str, cache: dict) -> None:
        """Adds the branch's weight gradients for the float64 gradient of h
        that ``cache`` holds as "d_h": each a _WORK_DTYPE product added into
        float64. Consumes ``cache``: d_h and the activations leave it after
        their last read, so that each is freed then."""
        p = self.params
        dt = _WORK_DTYPE
        skip_w = p[f"{name}_skip_w"]
        d_h = cache.pop("d_h")
        p[f"{name}_skip_b"].grad += d_h.sum(axis=0, keepdims=True)
        d_h = d_h.astype(dt, copy=False)
        f = self.widths[name]
        inner = cache.pop("inner")
        skip_w.grad[:f] += cache["x"].T @ d_h
        skip_w.grad[f:] += inner.T @ d_h
        d_inner = d_h @ skip_w.value[f:].astype(dt).T
        d_inner *= inner > 0.0
        del d_h, inner
        if self._is_linear(name):
            p[f"{name}_w1"].grad += cache["x"].T @ d_inner
            p[f"{name}_b1"].grad += d_inner.sum(axis=0, keepdims=True, dtype=np.float64)
            return
        d_b2 = spmm_backward(cache["s_op"], d_inner)
        del d_inner
        g1 = cache.pop("g1")
        p[f"{name}_w2"].grad += g1.T @ d_b2
        d_g1 = d_b2 @ p[f"{name}_w2"].value.astype(dt).T
        d_g1 *= g1 > 0.0
        del d_b2, g1
        # S is symmetric, so x^T S d_g1 = (S x)^T d_g1
        p[f"{name}_w1"].grad += cache["sx"].T @ d_g1

    def _decode(self, name: str, h: np.ndarray, p: np.ndarray, p_log_p: float, w: float):
        """One branch's KL decoder against ``_prepare``'s target ``p`` and sum
        ``p_log_p``, in _WORK_DTYPE: adds ``w`` times its gradient to the
        decoder parameters, and returns its loss and ``w`` times its gradient
        with respect to h, in _WORK_DTYPE (None when ``w`` is 0)."""
        dt = _WORK_DTYPE
        dec_w, dec_b = self.params[f"dec_{name}_w"], self.params[f"dec_{name}_b"]
        h = h.astype(dt)
        w_dt = dec_w.value.astype(dt)
        recon = h @ w_dt
        recon += dec_b.value.astype(dt)
        loss, d_recon = _kl_terms(p, p_log_p, recon)
        del recon  # _kl_terms left log q in it
        if w == 0.0:
            return loss, None
        d_recon *= w
        dec_w.grad += h.T @ d_recon
        dec_b.grad += d_recon.sum(axis=0, keepdims=True, dtype=np.float64)
        return loss, d_recon @ w_dt.T


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


def _kl_terms(p: np.ndarray, p_log_p: float, recon: np.ndarray):
    """Loss and logit gradient for a target distribution ``p`` whose sum of
    p log p is ``p_log_p``, in the inputs' dtype; p log q is summed in float64.
    Overwrites ``recon``, as ``_softmax`` does."""
    q, log_q = _softmax(recon)
    p_log_q = np.multiply(p, log_q, out=log_q).sum(dtype=np.float64)
    q -= p
    return p_log_p - float(p_log_q), q


def _softmax(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax(x), over a row sum in x's dtype, and log softmax(x), at least
    log(_LOG_FLOOR), from one exp of x less its row max: the shifted x less the log
    of a float64 row sum, so a log near 0 stays precise. Both in x's dtype; the log
    softmax is x itself, overwritten in place."""
    x -= x.max(axis=1, keepdims=True)
    e = np.exp(x)
    x -= np.log(e.sum(axis=1, keepdims=True, dtype=np.float64)).astype(x.dtype)
    e /= e.sum(axis=1, keepdims=True)
    return e, np.maximum(x, float(np.log(_LOG_FLOOR)), out=x)


def _adjacency_terms(h: np.ndarray, g: Graph, mode: str,
                     rng: np.random.Generator | None = None,
                     sample_ratio: float = 1.0):
    """Cross-entropy between sigmoid(H H^T) and the adjacency matrix, and
    its gradient with respect to H. Any mode but "full" samples negatives from ``rng``."""
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
        # taken before the strip buffers exist, so that its product is not held beside them
        edge_sum = (h * ah).sum()
        col = h.sum(axis=0)
        dt = np.dtype(_WORK_DTYPE)
        block = max(1, _ADJ_BLOCK_BYTES // (dt.itemsize * n))
        sums_rows = max(1, _ADJ_SUMS_BYTES // (dt.itemsize * n))
        k = _split_row(n, block)
        # past _WORK_DTYPE's range the loss comes out non-finite, which is the
        # caller's to report; the worker runs in a copy of this errstate
        with np.errstate(over="ignore", invalid="ignore"):
            hs = h.astype(dt, copy=False)
            # d_h = (2 / n^2) (sigmoid(z) - A) H with sigmoid(z) = (1 + tanh(z / 2)) / 2:
            # t collects tanh(z / 2) H, and the 1 adds col to every row. Each part
            # gets its own buffers, all allocated here so that no worker thread
            # keeps freed strips in an arena of its own
            t, t_b = np.zeros_like(h), np.zeros_like(h)
            part_a, part_b = (
                (hs, lo, hi, block, np.empty(min(block, hi - lo) * (n - lo), dt),
                 np.empty(sums_rows * n, dt), np.empty((n - lo, h.shape[1]), dt), t_part)
                for lo, hi, t_part in ((0, k, t), (k, n, t_b)))
            (abs_b, log_b), (abs_a, log_a) = _side_by_side(lambda: _adjacency_part(*part_b),
                                                           lambda: _adjacency_part(*part_a))
            # A's results before B's, so the bits do not depend on the worker count
            t += t_b
            abs_sum, log_sum = abs_a + abs_b, log_a + log_b
            loss = (0.5 * (col @ col + abs_sum) + log_sum - edge_sum) / (n * n)
            t += col
            ah *= 2.0
            t -= ah
            t /= n * n
        return float(loss), t
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
    dt = _WORK_DTYPE
    # both parts read one copy of H in the work dtype, each through its own
    # gather buffer, allocated here as in full mode. The negatives stay on the
    # calling thread, the only one that draws from rng. Each large array goes
    # after its last read; h only where the caller holds no other reference
    hs = h.astype(dt)
    del h
    buf_p, buf_n = (np.empty((2, min(_PAIR_CHUNK_ROWS, rows), hs.shape[1]), dt)
                    for rows in (n_pos // 2, n_neg))
    (loss_p, d_h_p), (loss_n, d_h_n) = _side_by_side(
        lambda: _positive_part(hs, g, total, buf_p),
        lambda: _negative_part(hs, g, n_neg, total, rng, buf_n))
    del hs
    # P's results before N's, so the bits do not depend on the worker count
    d_h = d_h_p.astype(np.float64)
    del d_h_p
    d_h += d_h_n
    return float((loss_p + loss_n) / total), d_h


def _positive_part(hs, g: Graph, total: int, buf):
    """Twice the softplus(-z) sum over the undirected edges, and the edge part
    of the gradient, (sigmoid(z) - 1) / total on both directions, times hs."""
    e = g.edge_array()
    z = _pair_dots(hs, e[:, 0], e[:, 1], buf)
    coef = (2.0 * (sigmoid(z) - 1.0) / total).astype(hs.dtype)
    # the coefficients lie straight on A's pattern: no COO build, no index sort
    a = g.adjacency
    return 2.0 * softplus(-z).sum(), sp.csr_matrix((coef[g.edge_ids], a.indices, a.indptr),
                                                   shape=a.shape) @ hs


def _negative_part(hs, g: Graph, n_neg: int, total: int, rng, buf):
    """The softplus(z) sum over ``n_neg`` ordered non-edges drawn from ``rng``,
    and their part of the gradient, sigmoid(z) / total on both directions, times hs."""
    n = g.num_nodes
    def non_edges(r, c):
        return (r != c) & ~g.has_edge_mask(r, c)
    nr = np.empty(n_neg, dtype=np.int64)
    nc = np.empty(n_neg, dtype=np.int64)
    got = rounds = tested = kept = 0
    while got < n_neg:
        if rounds == _NEG_MAX_ROUNDS:
            # the chance that one drawn pair is a non-edge
            rate = 1.0 - (n + g.neighbors.size) / (n * n)
            raise ValidationError(
                f"negative sampling filled {got} of {n_neg} pairs in {rounds} rounds at "
                f"acceptance rate {rate:.2%}; the graph is too dense for sampled mode")
        rounds += 1
        need = n_neg - got
        cand_r = rng.integers(0, n, size=2 * need)
        cand_c = rng.integers(0, n, size=2 * need)
        # the round keeps the first ``need`` non-edges in draw order. On a sparse
        # graph nearly every pair is one, so a prefix a little past ``need``
        # usually holds them, and the rest is tested only when it falls short
        cut = need + need // 32 + 16
        ok = non_edges(cand_r[:cut], cand_c[:cut])
        if np.count_nonzero(ok) < need:
            ok = np.concatenate([ok, non_edges(cand_r[cut:], cand_c[cut:])])
        accepted = int(ok.sum())
        tested += ok.size
        kept += accepted
        take = min(accepted, need)
        nr[got:got + take] = cand_r[:ok.size][ok][:take]
        nc[got:got + take] = cand_c[:ok.size][ok][:take]
        got += take
    log.debug("sampled adjacency loss: %d of %d tested pairs were non-edges (%.2f%%) "
              "in %d rounds; a round tests only as many of its drawn pairs as it needs",
              kept, tested, 100.0 * kept / tested, rounds)
    z = _pair_dots(hs, nr, nc, buf)
    coef = (sigmoid(z) / total).astype(hs.dtype)
    # one symmetric coefficient matrix; duplicate pairs sum on construction
    a = sp.csr_matrix((np.concatenate([coef, coef]),
                       (np.concatenate([nr, nc]), np.concatenate([nc, nr]))), shape=(n, n))
    return softplus(z).sum(), a @ hs


def _pair_dots(h, rows, cols, buf):
    """z[i] = h[rows[i]] . h[cols[i]], summed in float64, gathered through
    ``buf`` (two blocks of rows, in h's dtype) chunk by chunk, so that no
    (len(rows), d) array is made."""
    z = np.empty(rows.size)
    step = buf.shape[1]
    for r0 in range(0, rows.size, step):
        r1 = min(r0 + step, rows.size)
        # mode="clip" writes straight into out; "raise" would buffer the gather
        u = np.take(h, rows[r0:r1], axis=0, out=buf[0, :r1 - r0], mode="clip")
        v = np.take(h, cols[r0:r1], axis=0, out=buf[1, :r1 - r0], mode="clip")
        np.einsum("ij,ij->i", u, v, out=z[r0:r1])
    return z


def _adjacency_part(hs, lo, hi, block, strip, chunk_buf, prod, t):
    """Row strips [lo, hi) of the upper triangle of z = H H^T, each at most
    ``block`` rows, with H given as ``hs`` in the strip dtype: returns the
    float64 sums of |z| and of log1p(exp(-|z|)) over the unordered node pairs
    they hold, and adds tanh(z / 2) H into the float64 ``t``. Writes only into
    the buffers it is given, so that it can run on a worker thread."""
    n = hs.shape[0]
    abs_sum = log_sum = 0.0
    for s0 in range(lo, hi, block):
        s1 = min(s0 + block, hi)
        b, w = s1 - s0, n - s0
        # z is symmetric: strip [s0, s1) x [s0, n) scores each unordered pair
        # once; its diagonal tile counts once and the rest twice
        z = strip[:b * w].reshape(b, w)
        np.matmul(hs[s0:s1], hs[s0:].T, out=z)
        step = chunk_buf.size // w
        for r0 in range(0, b, step):
            e = chunk_buf[:min(step, b - r0) * w].reshape(-1, w)
            np.abs(z[r0:r0 + step], out=e)
            abs_sum += 2.0 * e.sum(dtype=np.float64) - e[:, :b].sum(dtype=np.float64)
            np.negative(e, out=e)
            np.exp(e, out=e)
            np.log1p(e, out=e)
            log_sum += 2.0 * e.sum(dtype=np.float64) - e[:, :b].sum(dtype=np.float64)
        z *= 0.5
        np.tanh(z, out=z)
        t[s0:s1] += np.matmul(z, hs[s0:], out=prod[:b])
        t[s1:] += np.matmul(z[:, b:].T, hs[s0:s1], out=prod[:n - s1])
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


def total_loss(l_ego: float, l_agg: float, l_s: float, alpha: float, beta: float) -> float:
    """Combined objective; ``_train_step`` passes 0.0 for a masked task's loss."""
    return beta * (alpha * l_ego + (1.0 - alpha) * l_agg) + (1.0 - beta) * l_s


class _Inputs(NamedTuple):
    """One branch's view x, KL target p = softmax(x), float64 sum of p log p, S x or None."""

    x: np.ndarray
    p: np.ndarray
    p_log_p: float
    sx: np.ndarray | None


def _prepare(model: MVGEModel, views: ViewPair, s: sp.csr_matrix):
    """What every step of one training reads, made once: S and, keyed "ego" and
    "agg", each branch's ``_Inputs``, the arrays in _WORK_DTYPE; S x only for a
    graph convolution. Features past the dtype's range turn inf in the cast,
    and the loss of the first step with them."""
    s = s.astype(_WORK_DTYPE)
    inputs = {}
    for name, x in (("ego", views.x_ego), ("agg", views.x_agg)):
        (p, log_p), xw = _softmax(x.copy()), x.astype(_WORK_DTYPE)
        p_log_p = float(np.multiply(log_p, p, out=log_p).sum(dtype=np.float64))
        del log_p  # before S x: held through it, it raised pubmed-sampled's peak RSS
        inputs[name] = _Inputs(xw, p.astype(_WORK_DTYPE), p_log_p,
                               None if model._is_linear(name) else spmm(s, xw))
    return s, inputs


def _train_step(model: MVGEModel, inputs: dict[str, _Inputs], s: sp.csr_matrix,
                g: Graph, adj_mode: str, neg_rng: np.random.Generator):
    """One forward/backward pass on ``_prepare``'s inputs; gradients are left in model.params."""
    cfg = model.cfg
    mask = cfg.task_mask

    def branch(name, encode, w):
        """Encode one view and decode it; the two branches share no output."""
        x, p, p_log_p, sx = inputs[name]
        h_view, cache = encode(x, s, sx)
        loss, d_dec = model._decode(name, h_view, p, p_log_p, w) if name in mask else (0.0, None)
        return h_view, cache, d_dec, loss

    (h_ego, cache_ego, dec_ego, l_ego), (h_agg, cache_agg, dec_agg, l_agg) = _side_by_side(
        lambda: branch("ego", model.encode_ego, cfg.beta * cfg.alpha),
        lambda: branch("agg", model.encode_agg, cfg.beta * (1.0 - cfg.alpha)))
    shapes = h_ego.shape, h_agg.shape
    concat = cfg.merge_fn == "concat"

    # only the adjacency loss reads the views' h, through their merge; the merged
    # h is popped into the call so that the loss can free it (from CPython 3.11
    # on, a call's arguments are the callee's alone)
    l_s, parts = 0.0, (None, None)
    if "adj" in mask:
        h = [merge_embeddings(h_ego, h_agg, cfg.merge_fn)]
        del h_ego, h_agg
        l_s, d_h_adj = _adjacency_terms(h.pop(), g, adj_mode, rng=neg_rng,
                                        sample_ratio=cfg.sample_ratio)
        w = 1.0 - cfg.beta
        if w != 0.0:
            d_h_adj *= w
            if cfg.merge_fn == "mean":
                d_h_adj *= 0.5
            parts = ((d_h_adj[:, :cfg.dim_ego], d_h_adj[:, cfg.dim_ego:]) if concat
                     else (d_h_adj, d_h_adj))
        del d_h_adj
    else:
        del h_ego, h_agg

    # each branch's float64 d_h is its share of the adjacency gradient plus the
    # decoder's _WORK_DTYPE one. Under concat the share is a column slice of the
    # branch's own, so the sum goes into it in place; sum and mean share one array
    for cache, part, dec, shape in zip((cache_ego, cache_agg), parts, (dec_ego, dec_agg), shapes):
        if part is None:
            part = np.zeros(shape) if dec is None else dec.astype(np.float64)
        elif dec is not None:
            part = np.add(part, dec, out=part if concat else None)
        cache["d_h"] = part
    # _backward frees each d_h once it has cast it, so the step holds none
    del parts, part, dec, dec_ego, dec_agg
    _side_by_side(lambda: model._backward_ego(cache_ego),
                  lambda: model._backward_agg(cache_agg))
    return l_ego, l_agg, l_s, total_loss(l_ego, l_agg, l_s, cfg.alpha, cfg.beta)


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
    adj_mode = cfg.resolve_adj_mode(g.num_nodes)
    log.info("training on %d nodes: %s adjacency loss (adj_loss_mode %s), %d worker thread(s)",
             g.num_nodes, adj_mode, cfg.adj_loss_mode, adjacency_workers())
    if adj_mode == "full" and g.num_nodes > FULL_ADJ_MAX_NODES:
        log.info("full adjacency loss on %d nodes, above %d: about %.3g s per epoch, "
                 "growing as N^2", g.num_nodes, FULL_ADJ_MAX_NODES,
                 _FULL_SECONDS_AT_5000 * (g.num_nodes / 5000) ** 2)
    neg_rng = np.random.default_rng([cfg.seed, _NEG_TAG])
    opt = Adam(model.params, lr=cfg.lr)

    trace = np.zeros((cfg.epochs, 4), dtype=np.float64)
    # a diverging run overflows before its loss turns non-finite; the checks
    # below raise for it, so numpy's warnings would only repeat them
    with np.errstate(over="ignore", invalid="ignore"):
        s, inputs = _prepare(model, views, s)
        for epoch in range(cfg.epochs):
            trace[epoch] = loss = _train_step(model, inputs, s, g, adj_mode, neg_rng)
            if not np.isfinite(loss[3]):
                raise TrainingDivergedError(epoch, f"non-finite loss {loss[3]!r} at epoch {epoch}")
            opt.step()

        emb = model.embeddings(inputs, s)
    if not all(np.isfinite(m).all() for m in (emb.h, emb.h_ego, emb.h_agg)):
        raise TrainingDivergedError(cfg.epochs, "non-finite embeddings after training")
    return model, emb, TrainTrace(*trace.T.copy())


def embedding_dim_std(h: np.ndarray) -> np.ndarray:
    """Population standard deviation of each embedding dimension."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] < 2:
        raise ValidationError(f"need a matrix with >= 2 rows, got shape {h.shape}")
    return h.std(axis=0, ddof=0)
