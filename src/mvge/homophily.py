"""Global and local edge homophily metrics.

Global homophily is the fraction of undirected edges whose endpoints
share a class label; local homophily is the per-node fraction of
incident edges with a matching endpoint label. Isolated nodes have no
defined local value and are reported as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvge.graph import Graph, ValidationError


def global_homophily(g: Graph, labels: np.ndarray) -> float:
    """Fraction of undirected edges connecting same-label endpoints."""
    if labels is None or len(labels) != g.num_nodes:
        raise ValidationError("labels must cover every node")
    edges = g.edge_array()
    if len(edges) == 0:
        raise ValidationError("global homophily undefined on an empty edge set")
    same = labels[edges[:, 0]] == labels[edges[:, 1]]
    return float(same.mean())


def local_homophily(g: Graph, labels: np.ndarray) -> np.ndarray:
    """Per-node fraction of same-label neighbors; NaN for isolated nodes."""
    if labels is None or len(labels) != g.num_nodes:
        raise ValidationError("labels must cover every node")
    same = (labels[g.sources] == labels[g.neighbors]).astype(np.float64)
    out = np.full(g.num_nodes, np.nan)
    deg = g.degrees
    nonzero = deg > 0
    sums = np.bincount(g.sources, weights=same, minlength=g.num_nodes)
    out[nonzero] = sums[nonzero] / deg[nonzero]
    return out


def homophily_histogram(local: np.ndarray, bins: int = 10) -> np.ndarray:
    """Equal-width bin counts over [0, 1], last bin right-closed.

    NaN entries (isolated nodes) are excluded. With bins=2 a value of
    0.5 falls in the second bin [0.5, 1].
    """
    if bins < 1:
        raise ValidationError("bins must be >= 1")
    defined = np.asarray(local, dtype=np.float64)
    defined = defined[~np.isnan(defined)]
    idx = np.clip(np.floor(defined * bins).astype(np.int64), 0, bins - 1)
    return np.bincount(idx, minlength=bins)


@dataclass(frozen=True)
class HomophilyReport:
    global_ratio: float
    local: np.ndarray
    histogram: np.ndarray
    bins: int

    @property
    def num_undefined_local(self) -> int:
        return int(np.isnan(self.local).sum())

    def to_dict(self) -> dict:
        return {
            "global": self.global_ratio,
            "histogram": [int(c) for c in self.histogram],
            "num_undefined_local": self.num_undefined_local,
            "bins": self.bins,
        }


def homophily_report(g: Graph, labels: np.ndarray, bins: int = 10) -> HomophilyReport:
    local = local_homophily(g, labels)
    return HomophilyReport(
        global_ratio=global_homophily(g, labels),
        local=local,
        histogram=homophily_histogram(local, bins),
        bins=bins,
    )
