"""Synthetic labeled attributed graphs with a controllable edge homophily.

Classes are balanced, each undirected edge is intra-class with the
requested probability, and node features are class-conditional Gaussians
whose means sit on scaled axis directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mvge.data import Dataset
from mvge.graph import (AT_LEAST_0, AT_LEAST_1, FINITE, FINITE_NON_NEGATIVE, MAX_NODES,
                        UNIT_RANGE, Graph, ValidationError, check_fields, sample_label_pairs)


@dataclass(frozen=True)
class SynthSpec:
    # Graph.from_edges refuses more nodes, after the per-node arrays
    num_nodes: int = field(metadata={"rule": (lambda v: v <= MAX_NODES, f"<= {MAX_NODES}")})
    num_classes: int
    target_homophily: float = field(metadata={"rule": UNIT_RANGE})
    avg_degree: float = field(default=4.0, metadata={"rule": FINITE_NON_NEGATIVE})
    feature_dim: int = field(default=32, metadata={"rule": AT_LEAST_1})
    class_separation: float = field(default=1.0, metadata={"rule": FINITE})
    noise_sigma: float = field(default=1.0, metadata={"rule": FINITE_NON_NEGATIVE})
    seed: int = field(default=0, metadata={"rule": AT_LEAST_0})

    def __post_init__(self):
        check_fields(self)
        if self.num_nodes < self.num_classes or self.num_classes < 1:
            raise ValidationError("need num_nodes >= num_classes >= 1")
        n = self.num_nodes
        # num_edges > the pairs, on the float before int(): a degree may overflow to inf
        if float(self.avg_degree) * n / 2 >= n * (n - 1) // 2 + 1:
            raise ValidationError("requested degree exceeds the complete graph")
        if self.num_classes == 1 and self.target_homophily < 1.0:
            raise ValidationError(
                "inter-class edges are impossible with a single class"
            )

    @property
    def num_edges(self) -> int:
        return int(self.avg_degree * self.num_nodes / 2)


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Generate a dataset described by ``spec``; deterministic per seed.

    Labels cycle through classes (sizes differ by at most one). For each
    of the floor(d*N/2) edges an independent coin with probability h
    decides intra- versus inter-class, then ``sample_label_pairs`` draws
    that many distinct pairs of each type, intra first. Features are
    class_mean + N(0, noise_sigma) with class means at
    class_separation * e_{c mod F}.
    """
    rng = np.random.default_rng(spec.seed)
    n, c, f = spec.num_nodes, spec.num_classes, spec.feature_dim
    labels = np.arange(n, dtype=np.int64) % c

    m = spec.num_edges
    intra_flags = rng.random(m) < spec.target_homophily
    pairs = np.concatenate([sample_label_pairs(labels, int(intra_flags.sum()), True, rng),
                            sample_label_pairs(labels, int((~intra_flags).sum()), False, rng)])
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
