"""Synthetic labeled attributed graphs with a controllable edge homophily.

Classes are balanced, each undirected edge is intra-class with the
requested probability, and node features are class-conditional Gaussians
whose means sit on scaled axis directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvge.data import Dataset
from mvge.graph import Graph, ValidationError, check_fields, kept_pairs


@dataclass(frozen=True)
class SynthSpec:
    num_nodes: int
    num_classes: int
    target_homophily: float
    avg_degree: float
    feature_dim: int = 32
    class_separation: float = 1.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ints=("num_nodes", "num_classes", "feature_dim", "seed"),
                     reals=("target_homophily", "avg_degree", "class_separation",
                            "noise_sigma"))
        if self.num_nodes < self.num_classes or self.num_classes < 1:
            raise ValidationError("need num_nodes >= num_classes >= 1")
        if not 0.0 <= self.target_homophily <= 1.0:
            raise ValidationError("target homophily must lie in [0, 1]")
        for name in ("avg_degree", "noise_sigma"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValidationError(f"{name} must be finite and non-negative, got {v}")
        if not np.isfinite(self.class_separation):
            raise ValidationError(f"class_separation must be finite, got {self.class_separation}")
        n = self.num_nodes
        if self.num_edges > n * (n - 1) // 2:
            raise ValidationError("requested degree exceeds the complete graph")
        if self.feature_dim < 1:
            raise ValidationError("feature_dim must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.num_classes == 1 and self.target_homophily < 1.0:
            raise ValidationError(
                "inter-class edges are impossible with a single class"
            )

    @property
    def num_edges(self) -> int:
        return int(self.avg_degree * self.num_nodes / 2)


def _sample_pairs(
    rng: np.random.Generator,
    budget: int,
    labels: np.ndarray,
    intra: bool,
) -> np.ndarray:
    """Draw ``budget`` distinct node pairs u < v of one edge type, shape
    (budget, 2).

    Rejection sampling: pick u uniformly, then v uniformly among valid
    partners, retrying on self-pairs and already-drawn pairs. Falls back
    to exhaustive enumeration when the pool is small relative to the
    budget, which keeps near-saturated specs from spinning. Intra and
    inter pairs never coincide, so the two calls need no shared record.
    """
    n = len(labels)
    by_class = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
    if intra:
        pool = sum(len(m) * (len(m) - 1) // 2 for m in by_class)
    else:
        pool = n * (n - 1) // 2 - sum(len(m) * (len(m) - 1) // 2 for m in by_class)
    if budget > pool:
        kind = "intra" if intra else "inter"
        raise ValidationError(
            f"cannot place {budget} {kind}-class edges; only {pool} pairs exist"
        )

    if budget * 4 > pool:
        cands = kept_pairs(n, lambda u, v: (labels[u] == labels[v]) == intra)
        return cands[rng.permutation(len(cands))[:budget]]

    taken: set[tuple[int, int]] = set()
    while len(taken) < budget:
        u = int(rng.integers(n))
        mates = by_class[labels[u]]
        if intra:
            if len(mates) < 2:
                continue
            v = int(mates[rng.integers(len(mates))])
        else:
            v = int(rng.integers(n))
            if labels[v] == labels[u]:
                continue
        if u != v:
            taken.add((min(u, v), max(u, v)))
    return np.array(sorted(taken), dtype=np.int64).reshape(-1, 2)


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Generate a dataset described by ``spec``; deterministic per seed.

    Labels cycle through classes (sizes differ by at most one). For each
    of the floor(d*N/2) edges an independent coin with probability h
    decides intra- versus inter-class, then endpoints of that type are
    drawn uniformly. Features are class_mean + N(0, noise_sigma) with
    class means at class_separation * e_{c mod F}.
    """
    rng = np.random.default_rng(spec.seed)
    n, c, f = spec.num_nodes, spec.num_classes, spec.feature_dim
    labels = np.arange(n, dtype=np.int64) % c

    m = spec.num_edges
    intra_flags = rng.random(m) < spec.target_homophily
    pairs = np.concatenate([_sample_pairs(rng, int(intra_flags.sum()), labels, True),
                            _sample_pairs(rng, int((~intra_flags).sum()), labels, False)])
    graph, _ = Graph.from_edges(n, pairs)

    means = np.zeros((c, f))
    means[np.arange(c), np.arange(c) % f] = spec.class_separation
    features = means[labels] + rng.normal(0.0, spec.noise_sigma, size=(n, f))

    return Dataset(
        graph=graph,
        features=features,
        labels=labels,
        num_classes=c,
        name=f"synth-h{spec.target_homophily:g}-n{n}",
    )
