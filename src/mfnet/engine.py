"""Shared execution engine for mean field sweeps and their unrolled form.

A schedule is compiled against a topology into a sequence of block steps.
Every site update inside a block reads the q values from before the block,
and a whole sweep applies the blocks in order. Sequential schedules are
singleton blocks, so each update sees all earlier updates in the sweep.

The same step loop runs plain mean field and the unrolled network; the
tape recorded here is what the reverse pass consumes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .mrf import GraphTopology, row_softmax


@dataclass(frozen=True)
class Sequential:
    """Update vertices one at a time, in the given order."""

    order: Tuple[int, ...]

    def blocks(self):
        return [(v,) for v in self.order]


@dataclass(frozen=True)
class BlockParallel:
    """Update each block in parallel; blocks are applied in order."""

    block_list: Tuple[Tuple[int, ...], ...]

    def blocks(self):
        return list(self.block_list)


Schedule = Union[Sequential, BlockParallel]


def raster_schedule(n_vertices: int) -> Sequential:
    return Sequential(tuple(range(n_vertices)))


@lru_cache(maxsize=8)
def checkerboard_schedule(height: int, width: int) -> BlockParallel:
    """Two-block parity schedule for a 4-connected height x width grid.

    Cached per size: schedules are immutable, and callers that build one
    per image then share the compiled form without comparing block tuples.
    """
    idx = np.arange(height * width)
    parity = (idx // width + idx % width) % 2
    black = tuple(int(v) for v in idx[parity == 0])
    white = tuple(int(v) for v in idx[parity == 1])
    return BlockParallel((black, white))


def validate_schedule(topology: GraphTopology, schedule: Schedule) -> np.ndarray:
    """Check that the schedule updates every vertex exactly once; returns
    the vertices in update order."""
    n = topology.n_vertices
    seen = np.fromiter(chain.from_iterable(schedule.blocks()), dtype=np.int64)
    if len(seen) != n:
        raise ValueError("schedule must cover every vertex exactly once")
    if seen.min() < 0 or seen.max() >= n:
        raise ValueError("schedule vertex out of range")
    if np.bincount(seen, minlength=n).max() != 1:
        raise ValueError("schedule must cover every vertex exactly once")
    return seen


@dataclass(frozen=True, eq=False)
class BlockStep:
    """One block of a sweep and the directed messages into it.

    Every edge carries one message into each endpoint. Message d of this step
    reads site `reads[read_idx[d]]` through oriented table `msgs.start + d`
    of `CompiledSchedule.tables(pairwise)` and adds into block position
    `pos[d]`.
    """

    verts: np.ndarray     # (B,) vertices updated in this step
    # Edges whose lower / upper endpoint is updated here; the kernels use the
    # message fields below, perfbench/layers.py counts messages from these.
    e_lo: np.ndarray
    e_hi: np.ndarray
    msgs: slice           # this step's messages, in compiled message order
    pos: np.ndarray       # (M,) block position each message adds into
    reads: np.ndarray     # (R,) distinct sites the messages read
    read_idx: np.ndarray  # (M,) index of each message's read site in reads
    _flat: dict = field(default_factory=dict, repr=False)

    def flat_index(self, into: str, K: int) -> np.ndarray:
        """`bincount` bins of each (message, label) entry: block rows for
        into="block", rows of `reads` for into="reads"; built once per K."""
        idx = self._flat.get((into, K))
        if idx is None:
            rows = self.pos if into == "block" else self.read_idx
            idx = self._flat[into, K] = (rows[:, None] * K + np.arange(K)).ravel()
        return idx


@dataclass(frozen=True, eq=False)
class CompiledSchedule:
    topology: GraphTopology
    steps: Tuple[BlockStep, ...]
    # (2E,) oriented table of every message in step order: e for the message
    # into the lower endpoint of edge e, E + e for the one into its upper one.
    table_order: np.ndarray
    message_of_table: np.ndarray  # (2E,) inverse permutation of table_order

    def tables(self, pairwise: np.ndarray) -> np.ndarray:
        """(2E, K, K) message tables in step order; each step reads a slice."""
        oriented = np.concatenate([pairwise, pairwise.transpose(0, 2, 1)])
        return oriented.take(self.table_order, axis=0)

    def fold(self, dtables: np.ndarray) -> np.ndarray:
        """Gradient for `tables(pairwise)` -> gradient for pairwise (E, K, K)."""
        oriented = dtables.take(self.message_of_table, axis=0)
        E = self.topology.n_edges
        return oriented[:E] + oriented[E:].transpose(0, 2, 1)


_compile_cache: dict = {}


def compile_schedule(topology: GraphTopology, schedule: Schedule) -> CompiledSchedule:
    key = (id(topology), schedule)
    cached = _compile_cache.get(key)
    if cached is not None and cached.topology is topology:
        return cached
    verts = validate_schedule(topology, schedule)
    n, E = topology.n_vertices, topology.n_edges
    blocks = schedule.blocks()
    sizes = np.fromiter(map(len, blocks), dtype=np.int64, count=len(blocks))
    v_start = np.concatenate([[0], np.cumsum(sizes)])
    step_of = np.empty(n, dtype=np.int64)
    step_of[verts] = np.repeat(np.arange(len(blocks)), sizes)
    pos_of = np.empty(n, dtype=np.int64)
    pos_of[verts] = np.arange(n) - np.repeat(v_start[:-1], sizes)

    # All 2E messages, grouped by the step that writes their target; the
    # stable sort keeps the messages into lower endpoints first in each step.
    lo, hi = topology.edges[:, 0], topology.edges[:, 1]
    target, read = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.argsort(step_of[target], kind="stable")
    m_step = step_of[target[order]]
    m_start = np.searchsorted(m_step, np.arange(len(blocks) + 1))
    m_mid = m_start[:-1] + np.bincount(step_of[lo], minlength=len(blocks))
    edge = np.where(order < E, order, order - E)
    pos = pos_of[target[order]]
    # Distinct read sites per step, from one sort of (step, read site) keys.
    keys, inverse = np.unique(m_step * n + read[order], return_inverse=True)
    r_start = np.searchsorted(keys // n, np.arange(len(blocks) + 1))
    reads = keys % n
    read_idx = inverse.reshape(-1) - r_start[m_step]

    v_start, m_start, m_mid, r_start = (
        a.tolist() for a in (v_start, m_start, m_mid, r_start)
    )
    steps = tuple(
        BlockStep(
            verts=verts[v_start[i] : v_start[i + 1]],
            e_lo=edge[m_start[i] : m_mid[i]],
            e_hi=edge[m_mid[i] : m_start[i + 1]],
            msgs=slice(m_start[i], m_start[i + 1]),
            pos=pos[m_start[i] : m_start[i + 1]],
            reads=reads[r_start[i] : r_start[i + 1]],
            read_idx=read_idx[m_start[i] : m_start[i + 1]],
        )
        for i in range(len(blocks))
    )
    compiled = CompiledSchedule(
        topology=topology,
        steps=steps,
        table_order=order,
        message_of_table=np.argsort(order),
    )
    if len(_compile_cache) > 64:
        _compile_cache.clear()
    _compile_cache[key] = compiled
    return compiled


def layer_tables(
    compiled: CompiledSchedule, layers: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> list:
    """`compiled.tables` of each layer, built once per distinct pairwise array."""
    built: dict = {}
    out = []
    for _, pairwise in layers:
        tables = built.get(id(pairwise))
        if tables is None:
            tables = built[id(pairwise)] = compiled.tables(pairwise)
        out.append(tables)
    return out


def block_activations(
    unary: np.ndarray, tables: np.ndarray, st: BlockStep, q_read: np.ndarray
) -> np.ndarray:
    """Pre-softmax activations for the block's sites, given its layer's
    `compiled.tables(pairwise)` and the q rows of its read sites (`q[st.reads]`)."""
    K = unary.shape[1]
    # `take` along rows: numpy's fancy indexing is several times slower here.
    msg = np.einsum("dkl,dl->dk", tables[st.msgs], q_read.take(st.read_idx, axis=0))
    sums = np.bincount(st.flat_index("block", K), msg.ravel(), minlength=st.verts.size * K)
    return unary.take(st.verts, axis=0) + sums.reshape(-1, K)


@dataclass(frozen=True, eq=False)
class StepRecord:
    q_read: np.ndarray       # q rows of the step's read sites, (R, K)
    activations: np.ndarray  # (B, K)
    q_out: np.ndarray        # (B, K)


def run_unrolled(
    layers: Sequence[Tuple[np.ndarray, np.ndarray]],
    q0: np.ndarray,
    compiled: CompiledSchedule,
    tape: Optional[list] = None,
    sweep_hook=None,
) -> np.ndarray:
    """Apply one sweep per layer, starting from q0.

    `layers` is a sequence of (unary, pairwise) pairs, one per sweep; plain
    mean field passes the same pair M times. If `tape` is a list, one
    StepRecord per block step is appended, enough to replay the forward
    pass and to drive the reverse pass. `sweep_hook(sweep_index, q)` is
    called after each sweep when given.

    Raises FloatingPointError when the final q is not finite.
    """
    q = np.array(q0, dtype=np.float64, copy=True)
    for m, ((unary, _), tables) in enumerate(zip(layers, layer_tables(compiled, layers))):
        for st in compiled.steps:
            # `take` copies, so the tape can keep this read as it is.
            q_read = q.take(st.reads, axis=0)
            a = block_activations(unary, tables, st, q_read)
            q_new = row_softmax(a)
            if tape is not None:
                tape.append(StepRecord(q_read, activations=a, q_out=q_new))
            q[st.verts] = q_new
        if sweep_hook is not None:
            sweep_hook(m, q)
    if not np.all(np.isfinite(q)):
        raise FloatingPointError("mean field produced non-finite marginals")
    return q


def backward_unrolled(
    layers: Sequence[Tuple[np.ndarray, np.ndarray]],
    compiled: CompiledSchedule,
    tape: Sequence[StepRecord],
    gq_final: Optional[np.ndarray] = None,
    ga_final: Optional[np.ndarray] = None,
):
    """Reverse pass through a recorded forward run.

    `gq_final` is the loss gradient with respect to the final q values;
    `ga_final` is a loss gradient applied directly to each site's final
    activations (bypassing the closing softmax). Either or both may be given.

    Returns (dunary_layers, dpairwise_layers, gq0) where gq0 is the gradient
    with respect to the initial distribution q0.
    """
    n_layers = len(layers)
    n_steps = len(compiled.steps)
    if len(tape) != n_layers * n_steps:
        raise ValueError("tape length does not match layers and schedule")
    topo = compiled.topology
    K = layers[0][0].shape[1]
    tables = layer_tables(compiled, layers)
    # A sweep updates every site once and sends every message once, so each
    # entry of these is written exactly once per layer.
    dunary = [np.empty_like(unary, dtype=np.float64) for unary, _ in layers]
    dtables = [np.empty_like(t) for t in tables]
    gq = (
        np.array(gq_final, dtype=np.float64, copy=True)
        if gq_final is not None
        else np.zeros((topo.n_vertices, K))
    )
    for gs in range(n_layers * n_steps - 1, -1, -1):
        m, ls = divmod(gs, n_steps)
        st = compiled.steps[ls]
        rec = tape[gs]
        g_b = gq.take(st.verts, axis=0)
        qo = rec.q_out
        da = qo * (g_b - np.sum(g_b * qo, axis=1, keepdims=True))
        if ga_final is not None and m == n_layers - 1:
            da += ga_final.take(st.verts, axis=0)
        gq[st.verts] = 0.0
        dunary[m][st.verts] = da
        da_msg = da.take(st.pos, axis=0)
        q_msg = rec.q_read.take(st.read_idx, axis=0)
        dtables[m][st.msgs] = np.einsum("dk,dl->dkl", da_msg, q_msg)
        g_read = np.einsum("dkl,dk->dl", tables[m][st.msgs], da_msg)
        gq[st.reads] += np.bincount(
            st.flat_index("reads", K), g_read.ravel(), minlength=st.reads.size * K
        ).reshape(-1, K)
    return dunary, [compiled.fold(d) for d in dtables], gq
