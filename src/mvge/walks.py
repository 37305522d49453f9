"""Random-walk feature aggregation.

Each node gets a second feature vector built by averaging raw features
over unbiased random walks rooted at it, one walk per configured
length. Short walks keep the view local; longer walks pull in a wider
neighborhood and act as a low-pass filter over the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvge.graph import Graph, ValidationError

AGGREGATORS = ("concat", "mean", "sum")


@dataclass(frozen=True)
class WalkConfig:
    """Settings for walk sampling and per-node aggregation.

    lengths: walk lengths, one walk sampled per length per node.
    aggr: how per-length averages combine into one vector. "concat"
        stacks them in ascending length order; "mean" and "sum" reduce
        across lengths and keep the raw feature width.
    seed: root seed; node v draws from default_rng([seed, v]) so the
        walk set is independent of iteration order.
    """

    lengths: tuple[int, ...] = (3, 5, 10)
    aggr: str = "concat"
    seed: int = 0

    def __post_init__(self):
        lengths = tuple(int(x) for x in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise ValidationError("lengths must be non-empty")
        if any(x < 1 for x in lengths):
            raise ValidationError(f"walk lengths must be >= 1, got {lengths}")
        if len(set(lengths)) != len(lengths):
            raise ValidationError(f"walk lengths must be distinct, got {lengths}")
        if self.aggr not in AGGREGATORS:
            raise ValidationError(f"aggr must be one of {AGGREGATORS}, got {self.aggr!r}")


@dataclass(frozen=True)
class ViewPair:
    """The two model inputs: raw features and walk-aggregated features."""

    x_ego: np.ndarray
    x_agg: np.ndarray


def random_walk(g: Graph, start: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """Sample an unbiased walk of ``length`` steps from ``start``.

    Returns the visited node ids excluding the root itself. A walk from
    an isolated node is empty; otherwise every node on the walk has at
    least one neighbor, so the walk always completes all steps.
    """
    if not 0 <= start < g.num_nodes:
        raise ValidationError(f"walk start {start} out of range")
    if length < 1:
        raise ValidationError(f"walk length must be >= 1, got {length}")
    out = np.empty(length, dtype=np.int64)
    cur = start
    for i in range(length):
        nbrs = g.neighbors_of(cur)
        if nbrs.size == 0:
            return out[:i].copy()
        cur = int(nbrs[rng.integers(nbrs.size)])
        out[i] = cur
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
    lengths = sorted(cfg.lengths)
    n, f = x.shape
    per_length = np.empty((len(lengths), n, f), dtype=np.float64)
    for v in range(n):
        rng = np.random.default_rng([cfg.seed, v])
        # one stream per node, consumed in ascending length order
        for li, length in enumerate(lengths):
            visited = random_walk(g, v, length, rng)
            if visited.size == 0:
                per_length[li, v] = x[v]
            else:
                per_length[li, v] = x[visited].mean(axis=0)
    if cfg.aggr == "concat":
        return np.concatenate([per_length[li] for li in range(len(lengths))], axis=1)
    if cfg.aggr == "mean":
        return per_length.mean(axis=0)
    return per_length.sum(axis=0)


def build_views(g: Graph, features: np.ndarray, cfg: WalkConfig) -> ViewPair:
    """Fix both model inputs once, ahead of training."""
    x = np.asarray(features, dtype=np.float64)
    x_agg = walk_aggregate(g, x, cfg)
    x_ego = x.copy()
    x_ego.setflags(write=False)
    x_agg.setflags(write=False)
    return ViewPair(x_ego=x_ego, x_agg=x_agg)
