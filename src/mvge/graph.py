"""Undirected graph in compressed sparse row form plus the symmetrically
normalized propagation operator used by the GCN branch."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class ValidationError(ValueError):
    """Raised when input data violates a structural contract."""


@dataclass(frozen=True)
class EdgeRepairs:
    """Counts of repairs applied while canonicalizing an edge list."""

    self_loops_dropped: int = 0
    duplicates_dropped: int = 0


def canonicalize_edges(edges: np.ndarray, num_nodes: int) -> tuple[np.ndarray, EdgeRepairs]:
    """Symmetrize an edge list, dropping self-loops and duplicates.

    ``edges`` is an (E, 2) integer array of directed or undirected entries.
    Returns the unique undirected pairs as an (M, 2) array with u < v in
    each row, sorted lexicographically, together with repair counts.
    Duplicate count is in undirected pairs (an edge listed in both
    directions counts as one duplicate).
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
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0) if len(lo) else np.empty((0, 2), np.int64)
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
        pairs, repairs = canonicalize_edges(edges, num_nodes)
        directed = np.concatenate([pairs, pairs[:, ::-1]], axis=0)
        order = np.lexsort((directed[:, 1], directed[:, 0]))
        directed = directed[order]
        counts = np.bincount(directed[:, 0], minlength=num_nodes)
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(num_nodes, offsets, np.ascontiguousarray(directed[:, 1])), repairs

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
        return np.sort(e[:, 0] * self.num_nodes + e[:, 1])

    def edge_array(self) -> np.ndarray:
        """Undirected edges as an (E, 2) array with u < v, sorted."""
        mask = self.sources < self.neighbors
        return np.stack([self.sources[mask], self.neighbors[mask]], axis=1)

    def has_edge_mask(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized membership test for node pairs."""
        keys = self._edge_keys
        q = np.minimum(u, v) * self.num_nodes + np.maximum(u, v)
        if len(keys) == 0:
            return np.zeros(np.shape(q), dtype=bool)
        idx = np.clip(np.searchsorted(keys, q), 0, len(keys) - 1)
        return (keys[idx] == q) & (u != v)


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
