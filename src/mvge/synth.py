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
                        UNIT_RANGE, Graph, ValidationError, check_fields, label_pairs,
                        pair_keys)


@dataclass(frozen=True)
class SynthSpec:
    # Graph.from_edges refuses more nodes, after the per-node arrays; the bound is also
    # below 2**32, past which Generator.integers leaves the words _sample_pairs replays
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


_WORDS = dict(low=0, high=2**32 - 1, dtype=np.uint32, endpoint=True)  # numpy's 32-bit words


def _lemire(words, bound):
    """Decode ``Generator.integers(bound)``, 2 <= bound <= 2**32, from its 32-bit
    words: the values, and which words it keeps (it draws again after the others)."""
    bound = np.asarray(bound, dtype=np.uint64)
    m = np.asarray(words, dtype=np.uint64) * bound
    return (m >> 32).astype(np.int64), (m & 0xFFFFFFFF) >= (2**32 - bound) % bound


def _sample_pairs(
    rng: np.random.Generator,
    budget: int,
    labels: np.ndarray,
    intra: bool,
) -> np.ndarray:
    """Draw ``budget`` distinct node pairs u < v of one edge type, shape
    (budget, 2).

    Rejection sampling: u = ``rng.integers(n)``, then v among u's classmates
    (intra) or all nodes (inter), skipping one-member classes, self-pairs,
    same-class inter pairs and repeats. The loop is replayed on blocks of
    numpy's 32-bit words, decoded as if each iteration took two, and the
    generator advances by the words it used. Falls back to a random pick from
    all the pool's pairs, ``graph.label_pairs``, when the pool is small
    relative to the budget, which keeps near-saturated specs from
    spinning. Intra and inter pairs never coincide, so the two calls need no
    shared record.
    """
    n = len(labels)
    sizes = np.bincount(labels)
    intra_pool = int((sizes * (sizes - 1) // 2).sum())
    pool = intra_pool if intra else n * (n - 1) // 2 - intra_pool
    if budget > pool:
        kind = "intra" if intra else "inter"
        raise ValidationError(
            f"cannot place {budget} {kind}-class edges; only {pool} pairs exist"
        )

    if budget * 4 > pool:
        return label_pairs(labels, intra)[rng.permutation(pool)[:budget]]
    if budget == 0:
        return np.empty((0, 2), dtype=np.int64)

    if intra:  # v = mates[first[labels[u]] + k] for a second draw k < bound[u]
        mates, first, bound = np.argsort(labels, kind="stable"), np.cumsum(sizes), sizes[labels]
        first -= sizes
    else:
        mates, first, bound = np.arange(n), np.zeros_like(sizes), np.full(n, n)
    rate = (n - np.count_nonzero(sizes)) / n if intra else 2 * pool / n**2  # pairs per iteration

    def pairs(u, k):
        """Each iteration's pair as its ``pair_keys`` key, and whether the loop keeps it."""
        v = mates[first[labels[u]] + k]
        return pair_keys(u, v, n), ((labels[u] == labels[v]) == intra) & (u != v)

    state = rng.bit_generator.state
    # the kept keys, and for each the words used up to it
    words, pos, first_seen, keys, ends = np.empty(0, dtype=np.uint32), 0, [], [], []
    while len(first_seen) < budget:
        more = rng.integers(size=int(2.5 * (budget - len(first_seen)) / rate) + 64, **_WORDS)
        words = np.concatenate([words, more])
        # an iteration at every position p, as if it kept words p and p + 1
        u, kept_u = _lemire(words[:-1], n)
        k, kept_v = _lemire(words[1:], bound[u])
        key, kept = pairs(u, k)
        irregular = np.flatnonzero(~(kept_u & kept_v & (bound[u] > 1)))
        stops = [np.append(irregular[irregular % 2 == r], len(words) - 1) for r in (0, 1)]
        while True:  # a run of two-word iterations, then the irregular one it stops at
            s = stops[pos % 2]
            stop = s[np.searchsorted(s, pos)]
            keys.append(key[pos:stop:2][kept[pos:stop:2]])
            ends.append(pos + 2 + 2 * np.flatnonzero(kept[pos:stop:2]))
            pos += (stop - pos + 1) // 2 * 2
            if stop == len(words) - 1:
                break
            if not kept_u[pos] or bound[u[pos]] < 2:  # u is drawn again, or draws no v
                pos += 1
                continue
            b, p = bound[u[pos]], pos + 2  # v's word was rejected: draw v again
            while p < len(words) - 1 and not _lemire(words[p], b)[1]:
                p += 1
            if p >= len(words) - 1:  # perhaps not kept, or not drawn: retry on a longer block
                break
            key1, kept1 = pairs(u[pos:pos + 1], _lemire(words[p:p + 1], b)[0])
            pos = p + 1
            keys.append(key1[kept1])
            ends.append(np.full(1, pos)[kept1])
        _, first_seen = np.unique(np.concatenate(keys), return_index=True)

    first_seen = np.sort(first_seen)[:budget]  # the loop stops at the budget-th distinct pair
    rng.bit_generator.state = state
    rng.integers(size=int(np.concatenate(ends)[first_seen[-1]]), **_WORDS)
    return np.stack(np.divmod(np.sort(np.concatenate(keys)[first_seen]), n), axis=1)


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
