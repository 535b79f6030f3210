"""Pairwise discrete MRFs with table potentials.

Convention: p(x) is proportional to exp(+E(x)), so higher potential values
mean higher probability. Pairwise tables are stored per edge as K x K arrays
with the row indexing the lower-numbered endpoint.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

LOG_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class GraphTopology:
    """Undirected graph stored as an edge list with endpoints ordered s < t."""

    n_vertices: int
    edges: np.ndarray  # (E, 2) int64, each row (s, t) with s < t

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "edges", edges)
        if self.n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.n_vertices:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise ValueError("edges must satisfy s < t (no self-loops)")
            keys = edges[:, 0] * self.n_vertices + edges[:, 1]
            if len(np.unique(keys)) != len(keys):
                raise ValueError("duplicate edges")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> list:
        """Per-vertex list of (neighbor, edge_index) pairs."""
        adj = getattr(self, "_adjacency", None)
        if adj is None:
            adj = [[] for _ in range(self.n_vertices)]
            for e, (s, t) in enumerate(self.edges):
                adj[s].append((int(t), e))
                adj[t].append((int(s), e))
            object.__setattr__(self, "_adjacency", adj)
        return adj


@dataclass(frozen=True, eq=False)
class PairwiseMRF:
    """Potential tables on a fixed topology: unary (n, K), pairwise (E, K, K)."""

    topology: GraphTopology
    K: int
    unary: np.ndarray
    pairwise: np.ndarray

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("need at least two labels")
        unary = np.asarray(self.unary, dtype=np.float64)
        pairwise = np.asarray(self.pairwise, dtype=np.float64)
        if pairwise.shape != (self.topology.n_edges, self.K, self.K):  # else keep it (caches)
            pairwise = pairwise.reshape(self.topology.n_edges, self.K, self.K)
        if unary.shape != (self.topology.n_vertices, self.K):
            raise ValueError(
                f"unary shape {unary.shape} does not match "
                f"({self.topology.n_vertices}, {self.K})"
            )
        if not (np.all(np.isfinite(unary)) and np.all(np.isfinite(pairwise))):
            raise ValueError("potentials must be finite")
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "pairwise", pairwise)

    @property
    def n_vertices(self) -> int:
        return self.topology.n_vertices


@dataclass(frozen=True, eq=False)
class FactorialDistribution:
    """Fully factorized distribution: one length-K probability row per vertex."""

    probs: np.ndarray  # (n, K)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise ValueError("probs must be (n_vertices, K)")
        if not len(probs):
            raise ValueError(f"probs of shape {probs.shape} has no rows")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < -1e-12) or np.any(probs > 1 + 1e-12):
            raise ValueError("probabilities out of [0, 1]")
        # A loop over labels, as a short-axis sum is slow; below 8 labels it adds
        # in numpy's order. Rows of no labels sum to 0.0 and fail.
        total = sum((probs[:, k] for k in range(probs.shape[1])), 0.0)
        if np.max(np.abs(total - 1.0)) > 1e-9:
            raise ValueError("rows must sum to 1")
        object.__setattr__(self, "probs", probs)


def decode(probs: np.ndarray) -> np.ndarray:
    """Each row's label of largest probability, ties to the smallest label,
    for finite (n, K) input: numpy's argmax along the label axis, as a loop
    over labels with a strict `>` (a reduction along a short axis is slow)."""
    best, labels = probs[:, 0], np.zeros(len(probs), dtype=np.intp)
    for k in range(1, probs.shape[1]):
        labels[probs[:, k] > best] = k
        best = np.maximum(best, probs[:, k])
    return labels


def validate_assignment(mrf: PairwiseMRF, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (mrf.n_vertices,):
        raise ValueError(f"assignment length {x.shape} != {mrf.n_vertices}")
    if x.size and (x.min() < 0 or x.max() >= mrf.K):
        raise ValueError("label out of range")
    return x


def energy(mrf: PairwiseMRF, x: np.ndarray) -> float:
    """Sum of unary and pairwise potentials at assignment x."""
    x = validate_assignment(mrf, x)
    total = float(mrf.unary[np.arange(mrf.n_vertices), x].sum())
    if mrf.topology.n_edges:
        lo = mrf.topology.edges[:, 0]
        hi = mrf.topology.edges[:, 1]
        total += float(
            mrf.pairwise[np.arange(mrf.topology.n_edges), x[lo], x[hi]].sum()
        )
    return total


def row_softmax(a: np.ndarray) -> np.ndarray:
    """Softmax along the last (label) axis, q_k = 1 / sum_l e^{a_l - a_k},
    summed over l = 0..K-1 in order with the l = k term exactly 1.0 (a loop
    over labels, as reductions along a short axis are slow). On rows whose
    label-0 activation is 0 this is `engine.reduced_softmax`, bit for bit.
    Each sum is at least 1, so finite input gives no NaN; a term that
    overflows gives q_k = 0, its limit, and no warning."""
    a = np.asarray(a, dtype=np.float64)
    cols = [a[..., k] for k in range(a.shape[-1])]
    q = np.empty(a.shape)
    with np.errstate(over="ignore"):
        for k, a_k in enumerate(cols):
            terms = [1.0 if l == k else np.exp(a_l - a_k) for l, a_l in enumerate(cols)]
            q[..., k] = 1.0 / reduce(np.add, terms)
    return q


def softmax_init(mrf: PairwiseMRF) -> FactorialDistribution:
    """Initial distribution: per-vertex softmax of the unary potentials."""
    return FactorialDistribution(row_softmax(mrf.unary))


def unnormalized_kl_arrays(
    q: np.ndarray, unary: np.ndarray, pairwise: np.ndarray, edges: np.ndarray
) -> float:
    """KL(q || p) minus the log-partition constant, on raw arrays."""
    val = float(np.sum(q * np.log(np.maximum(q, LOG_FLOOR))))
    val -= float(np.sum(q * unary))
    q_lo, q_hi = q.T.take(edges[:, 0], axis=1), q.T.take(edges[:, 1], axis=1)
    for k, l in np.ndindex(pairwise.shape[1:]):
        val -= float(np.dot(q_lo[k] * pairwise[:, k, l], q_hi[l]))
    return val


def unnormalized_kl(q: FactorialDistribution, mrf: PairwiseMRF) -> float:
    """KL divergence from q to the MRF, up to the log-partition constant."""
    probs = q.probs
    if probs.shape != mrf.unary.shape:
        raise ValueError("distribution shape does not match MRF")
    return unnormalized_kl_arrays(probs, mrf.unary, mrf.pairwise, mrf.topology.edges)
