"""Random-walk feature aggregation.

Each node gets a second feature vector built by averaging raw features
over unbiased random walks rooted at it, one walk per configured
length. Short walks keep the view local; longer walks pull in a wider
neighborhood and act as a low-pass filter over the graph.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from mvge.graph import Graph, ValidationError, check_fields

log = logging.getLogger(__name__)

AGGREGATORS = ("concat", "mean", "sum")


@dataclass(frozen=True)
class WalkConfig:
    """Settings for walk sampling and per-node aggregation.

    lengths: walk lengths, one walk sampled per length per node.
    aggr: how per-length averages combine into one vector. "concat"
        stacks them in ascending length order; "mean" and "sum" reduce
        across lengths and keep the raw feature width.
    seed: root seed in [0, 2**64); node v's walks hash it with v, so the
        walk set is independent of iteration order and of other nodes.
    """

    lengths: tuple[int, ...] = (3, 5, 10)
    aggr: str = "concat"
    seed: int = 0

    def __post_init__(self):
        lengths = tuple(self.lengths)
        for x in lengths:
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValidationError(f"walk lengths must be integers, got {x!r}")
        lengths = tuple(int(x) for x in lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise ValidationError("lengths must be non-empty")
        if any(x < 1 for x in lengths):
            raise ValidationError(f"walk lengths must be >= 1, got {lengths}")
        if len(set(lengths)) != len(lengths):
            raise ValidationError(f"walk lengths must be distinct, got {lengths}")
        if self.aggr not in AGGREGATORS:
            raise ValidationError(f"aggr must be one of {AGGREGATORS}, got {self.aggr!r}")
        check_fields(self, ints=("seed",))
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class ViewPair:
    """The two model inputs: raw features and walk-aggregated features."""

    x_ego: np.ndarray
    x_agg: np.ndarray


def _mix(z: np.ndarray, key) -> np.ndarray:
    """splitmix64's output function of ``z ^ key``, wrapping mod 2**64."""
    z = (z ^ np.asarray(key, dtype=np.uint64)) + np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _walks(g: Graph, seed: int, length: int) -> np.ndarray:
    """Every node's ``length``-step walk, as an (N, length) array of visited nodes.

    Step k of node v picks a neighbor by a splitmix64 hash of (seed, v, length, k)
    (Steele et al., OOPSLA 2014; counter-based, as in Salmon et al., SC 2011).
    A walker on an isolated node stays put at its root."""
    deg = g.degrees
    out = np.repeat(np.arange(g.num_nodes)[:, None], length, axis=1)
    cur = roots = np.flatnonzero(deg > 0)
    keys = _mix(_mix(_mix(np.array([seed], np.uint64), 0), roots), length)
    for k in range(length):
        # multiply-shift maps the high 32 bits onto [0, deg), bias <= deg / 2**32
        pick = ((_mix(keys, k) >> np.uint64(32)) * deg[cur].astype(np.uint64)) >> np.uint64(32)
        cur = g.neighbors[g.offsets[cur] + pick.astype(np.int64)]
        out[roots, k] = cur
    return out


def walk_aggregate(g: Graph, features: np.ndarray, cfg: WalkConfig) -> np.ndarray:
    """Build the aggregated view, (N, F * len(lengths)) for "concat", else (N, F).

    For node v and length l the walk's visited features are averaged;
    per-length vectors then combine per ``cfg.aggr``. An isolated node
    falls back to its own features in every slot.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.num_nodes:
        raise ValidationError(
            f"features must be (num_nodes, F), got {x.shape} for {g.num_nodes} nodes"
        )
    isolated = g.degrees == 0
    log.debug("walks: %d of %d nodes are isolated and keep their own features",
              int(isolated.sum()), g.num_nodes)
    means = []
    for length in sorted(cfg.lengths):
        visited = _walks(g, cfg.seed, length)
        acc = x[visited[:, 0]]
        for k in range(1, length):
            acc += x[visited[:, k]]
        acc /= length
        acc[isolated] = x[isolated]
        means.append(acc)
    if cfg.aggr == "concat":
        return np.concatenate(means, axis=1)
    total = sum(means[1:], means[0])
    return total / len(means) if cfg.aggr == "mean" else total


def build_views(g: Graph, features: np.ndarray, cfg: WalkConfig) -> ViewPair:
    """Fix both model inputs once, ahead of training."""
    x = np.asarray(features, dtype=np.float64)
    x_agg = walk_aggregate(g, x, cfg)
    x_ego = x.copy()
    x_ego.setflags(write=False)
    x_agg.setflags(write=False)
    return ViewPair(x_ego=x_ego, x_agg=x_agg)
