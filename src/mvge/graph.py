"""Undirected graph in compressed sparse row form, the symmetrically
normalized propagation operator used by the GCN branch, the pools of
label pairs, the one sampler of distinct node pairs, and the input checks
the other modules share."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class ValidationError(ValueError):
    """Raised when input data violates a structural contract."""


def is_integer(v) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# shared single-field rules, declared as field(metadata={"rule": ...}): a test of
# the value and the words it asks for
AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
SEED_RANGE = (lambda v: 0 <= v < 2**64, "in [0, 2**64)")
UNIT_RANGE = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
FINITE = (np.isfinite, "finite")
FINITE_POSITIVE = (lambda v: np.isfinite(v) and v > 0.0, "finite and positive")
FINITE_NON_NEGATIVE = (lambda v: np.isfinite(v) and v >= 0.0, "finite and non-negative")


def check_fields(obj) -> None:
    """Raise ValidationError unless, in this order, each field of the dataclass
    ``obj`` annotated ``int`` is an integer (stored back as a Python int, which
    cannot wrap), each annotated ``float`` or, when not None, ``float | None`` a
    real number (a bool is neither), and, field by field, each value is one of
    its metadata's ``choices`` and each but None passes its ``rule``."""
    fields = dataclasses.fields(obj)
    for f in fields:
        if f.type in ("int", int):
            v = getattr(obj, f.name)
            if not is_integer(v):
                raise ValidationError(f"{f.name} must be an integer, got {v!r}")
            object.__setattr__(obj, f.name, int(v))
    for f in fields:
        v = getattr(obj, f.name)
        real = f.type in ("float", float) or (f.type in ("float | None", float | None)
                                               and v is not None)
        if real and not (is_integer(v) or isinstance(v, (float, np.floating))):
            raise ValidationError(f"{f.name} must be a real number, got {v!r}")
    for f in fields:
        v, options, rule = getattr(obj, f.name), f.metadata.get("choices"), f.metadata.get("rule")
        if options is not None and v not in options:
            raise ValidationError(f"{f.name} must be one of {options}, got {v!r}")
        if rule and v is not None and not rule[0](v):
            raise ValidationError(f"{f.name} must be {rule[1]}, got {v}")


@dataclass(frozen=True)
class EdgeRepairs:
    """Counts of repairs applied while canonicalizing an edge list."""

    self_loops_dropped: int = 0
    duplicates_dropped: int = 0


# the most nodes whose pair keys lo * n + hi fit in int64 (n^2 <= 2**63 - 1);
# pair_keys, and so every dedup and lookup of node pairs, is exact up to here
MAX_NODES = 3037000499


def pair_keys(u, v, n: int) -> np.ndarray:
    """The int64 key min(u, v) * n + max(u, v) of each node pair: one key for
    both directions, and for u < v in u-major order; exact for n <= ``MAX_NODES``."""
    return np.minimum(u, v, dtype=np.int64) * n + np.maximum(u, v, dtype=np.int64)


def canonicalize_edges(edges: np.ndarray, num_nodes: int) -> tuple[np.ndarray, EdgeRepairs]:
    """Symmetrize an edge list, dropping self-loops and duplicates.

    ``edges`` is an (E, 2) integer array of directed or undirected entries.
    Returns the unique undirected pairs as an (M, 2) array with u < v in
    each row, sorted lexicographically, together with repair counts.
    Duplicate count is in undirected pairs (an edge listed in both
    directions counts as one duplicate). Pairs are deduplicated on their
    ``pair_keys``, exact for num_nodes <= ``MAX_NODES``.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValidationError(
            f"edge endpoint out of range [0, {num_nodes}): "
            f"found {int(edges.min())}..{int(edges.max())}"
        )
    loops = edges[:, 0] == edges[:, 1]
    n_loops = int(loops.sum())
    edges = edges[~loops]
    keys = np.unique(pair_keys(edges[:, 0], edges[:, 1], num_nodes))
    pairs = np.stack(np.divmod(keys, num_nodes), axis=1)
    n_dup = len(edges) - len(pairs)
    return pairs, EdgeRepairs(self_loops_dropped=n_loops, duplicates_dropped=n_dup)


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted graph stored as CSR adjacency.

    ``offsets`` has length num_nodes + 1; ``neighbors[offsets[v]:offsets[v+1]]``
    lists v's neighbors in ascending order. Every undirected edge is stored
    in both directions; self-loops and duplicates are rejected.
    """

    num_nodes: int
    offsets: np.ndarray
    neighbors: np.ndarray

    def __post_init__(self):
        self.offsets.setflags(write=False)
        self.neighbors.setflags(write=False)

    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: np.ndarray
    ) -> tuple["Graph", EdgeRepairs]:
        """Build a graph from a raw (possibly dirty) edge list.

        Self-loops are dropped and duplicate/bidirectional entries collapse
        to a single undirected edge; the applied repairs are returned.
        """
        if num_nodes < 0:
            raise ValidationError("num_nodes must be non-negative")
        if num_nodes > MAX_NODES:
            raise ValidationError(f"num_nodes must be <= {MAX_NODES}, got {num_nodes}")
        pairs, repairs = canonicalize_edges(edges, num_nodes)
        # both directions of each edge, sorted by the directed key row * n + col
        directed = np.concatenate([pairs, pairs[:, ::-1]])
        rows, cols = np.divmod(np.sort(directed[:, 0] * num_nodes + directed[:, 1]), num_nodes)
        return cls(num_nodes, np.searchsorted(rows, np.arange(num_nodes + 1)), cols), repairs

    def validate(self) -> None:
        """Check the CSR invariants; raises ValidationError on violation."""
        if len(self.offsets) != self.num_nodes + 1:
            raise ValidationError("offsets length must be num_nodes + 1")
        if np.any(np.diff(self.offsets) < 0):
            raise ValidationError("offsets must be non-decreasing")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.neighbors):
            raise ValidationError("offsets must span the neighbor array")
        if len(self.neighbors) and (
            self.neighbors.min() < 0 or self.neighbors.max() >= self.num_nodes
        ):
            raise ValidationError("neighbor id out of range")
        src = self.sources
        # report the first offending node; at one node a self-loop comes first
        loop_at = src[self.neighbors == src]
        same_row = src[1:] == src[:-1]
        order_at = src[1:][same_row & (self.neighbors[1:] <= self.neighbors[:-1])]
        if loop_at.size and (not order_at.size or loop_at[0] <= order_at[0]):
            raise ValidationError(f"self-loop at node {loop_at[0]}")
        if order_at.size:
            raise ValidationError(f"neighbor list of node {order_at[0]} not strictly increasing")
        # symmetry check via sorted directed pair sets, O(E log E)
        fwd = src * self.num_nodes + self.neighbors
        rev = self.neighbors * self.num_nodes + src
        if not np.array_equal(np.sort(fwd), np.sort(rev)):
            raise ValidationError("adjacency is not symmetric")

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.neighbors) // 2

    @cached_property
    def sources(self) -> np.ndarray:
        """The row of each ``neighbors`` entry: directed edges run
        ``sources[i] -> neighbors[i]``."""
        src = np.repeat(np.arange(self.num_nodes), np.diff(self.offsets))
        src.setflags(write=False)
        return src

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """The 0/1 adjacency matrix A over the CSR arrays."""
        n = self.num_nodes
        return sp.csr_matrix((np.ones(self.neighbors.size), self.neighbors, self.offsets),
                             shape=(n, n))

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        e = self.edge_array()
        return np.sort(pair_keys(e[:, 0], e[:, 1], self.num_nodes))

    @cached_property
    def edge_ids(self) -> np.ndarray:
        """The row of ``edge_array()`` that each ``neighbors`` entry is one
        direction of, so a value per undirected edge ``x`` lies on the CSR
        pattern as ``x[edge_ids]``."""
        ids = np.searchsorted(self._edge_keys,
                              pair_keys(self.sources, self.neighbors, self.num_nodes))
        ids.setflags(write=False)
        return ids

    def edge_array(self) -> np.ndarray:
        """Undirected edges as an (E, 2) array with u < v, sorted."""
        mask = self.sources < self.neighbors
        return np.stack([self.sources[mask], self.neighbors[mask]], axis=1)

    def has_edge_mask(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized membership test for node pairs; a self-pair is never an edge."""
        keys = self._edge_keys
        q = pair_keys(u, v, self.num_nodes)
        if len(keys) == 0:
            return np.zeros(np.shape(q), dtype=bool)
        idx = np.clip(np.searchsorted(keys, q), 0, len(keys) - 1)
        return keys[idx] == q


def label_pairs(labels: np.ndarray, same: bool) -> np.ndarray:
    """Every pair u < v of nodes whose labels are equal (``same``) or differ,
    u-major, as int64 of shape (k, 2); time and memory O(n + k log k)."""
    # the node at each position of ``order`` (the nodes by label) pairs with the
    # later positions of its class (same) or with every position of the
    # higher-labelled classes; sorted by their pair_keys, the pairs come u-major
    n = len(labels)
    order = np.argsort(labels, kind="stable")
    end = np.cumsum(np.bincount(labels))[labels[order]]
    start = np.arange(1, n + 1) if same else end
    count = (end if same else n) - start
    v = order[np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())]
    u = np.repeat(order, count)
    return np.stack(np.divmod(np.sort(pair_keys(u, v, n)), n), axis=1)


def sample_pairs(n: int, count: int, pool: int, kind: str, keep, listed,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` distinct unordered pairs u < v with ``keep(u, v)`` true
    (``keep`` is symmetric), out of the ``pool`` such pairs; returns shape
    (count, 2), in the order of first draw. ``listed()``
    returns all ``pool`` pairs, u-major, as shape (pool, 2). Rejection takes
    about count * total / pool uniform draws, total = n(n-1)/2, in O(count)
    memory; it runs only when pool >= 4 * count and pool**2 >= count * total / 16,
    so within 4 * sqrt(count * total) draws. Listing holds the pool, then fewer
    than max(4 * count, sqrt(count * total) / 4) pairs."""
    if count > pool:
        raise ValidationError(f"need {count} {kind} pairs but only {pool} exist")
    if count * 4 > pool or 16 * pool * pool < count * (n * (n - 1) // 2):
        # dense enough that repeats pile up, or so sparse that rejection would
        # crawl: pick among all kept pairs
        return listed()[rng.choice(pool, size=count, replace=False)]
    taken: dict[int, None] = {}  # the distinct keys kept, in draw order
    while len(taken) < count:
        m = (count - len(taken)) * 2
        u = rng.integers(0, n, size=m)
        v = rng.integers(0, n, size=m)
        ok = (u != v) & keep(u, v)
        taken |= dict.fromkeys(pair_keys(u[ok], v[ok], n).tolist())
    return np.stack(np.divmod(np.fromiter(taken, np.int64, count), n), axis=1)


def sample_label_pairs(labels: np.ndarray, count: int, same: bool,
                       rng: np.random.Generator) -> np.ndarray:
    """Distinct unordered pairs with equal (or differing) labels."""
    n = labels.shape[0]
    counts = np.bincount(labels)
    same_pool = int((counts * (counts - 1) // 2).sum())
    pool = same_pool if same else n * (n - 1) // 2 - same_pool
    kind = "same-class" if same else "different-class"
    return sample_pairs(n, count, pool, kind, lambda u, v: (labels[u] == labels[v]) == same,
                        lambda: label_pairs(labels, same), rng)


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """The symmetrically normalized operator D^{-1/2} (A + I) D^{-1/2} with
    D = deg + 1, as a CSR matrix with sorted indices, so the (row, col,
    weight) triples have a deterministic order.

    Isolated nodes get only the diagonal entry with weight 1.
    """
    a_tilde = g.adjacency + sp.identity(g.num_nodes, dtype=np.float64, format="csr")
    dinv = 1.0 / np.sqrt(g.degrees + 1.0)
    s = sp.csr_matrix(sp.diags(dinv) @ a_tilde @ sp.diags(dinv))
    s.sort_indices()
    return s
