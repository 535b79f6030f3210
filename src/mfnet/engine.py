"""Shared execution engine for mean field sweeps and their unrolled form.

A schedule is compiled against a topology into a sequence of block steps.
Every site update inside a block reads the q values from before the block,
and a whole sweep applies the blocks in order. Sequential schedules are
singleton blocks, so each update sees all earlier updates in the sweep.

The same step loop runs plain mean field and the unrolled network; the
tape recorded here is what the reverse pass consumes.
"""
from __future__ import annotations

from dataclasses import dataclass
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


def checkerboard_schedule(height: int, width: int) -> BlockParallel:
    """Two-block parity schedule for a 4-connected height x width grid."""
    idx = np.arange(height * width)
    parity = (idx // width + idx % width) % 2
    black = tuple(int(v) for v in idx[parity == 0])
    white = tuple(int(v) for v in idx[parity == 1])
    return BlockParallel((black, white))


def validate_schedule(topology: GraphTopology, schedule: Schedule) -> None:
    seen = np.concatenate([np.asarray(b, dtype=np.int64) for b in schedule.blocks()])
    if len(seen) != topology.n_vertices or len(np.unique(seen)) != len(seen):
        raise ValueError("schedule must cover every vertex exactly once")
    if seen.min() < 0 or seen.max() >= topology.n_vertices:
        raise ValueError("schedule vertex out of range")


@dataclass(frozen=True, eq=False)
class BlockStep:
    verts: np.ndarray    # (B,) vertices updated in this step
    e_lo: np.ndarray     # edges whose lower endpoint is updated here
    pos_lo: np.ndarray   # index of that endpoint within verts
    read_lo: np.ndarray  # the opposite (read) endpoints for e_lo
    e_hi: np.ndarray
    pos_hi: np.ndarray
    read_hi: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledSchedule:
    topology: GraphTopology
    steps: Tuple[BlockStep, ...]
    last_step_of_site: np.ndarray  # (n,) index of the step that last writes a site


_compile_cache: dict = {}


def compile_schedule(topology: GraphTopology, schedule: Schedule) -> CompiledSchedule:
    key = (id(topology), schedule)
    cached = _compile_cache.get(key)
    if cached is not None and cached.topology is topology:
        return cached
    validate_schedule(topology, schedule)
    edges = topology.edges
    lo = edges[:, 0] if len(edges) else np.zeros(0, dtype=np.int64)
    hi = edges[:, 1] if len(edges) else np.zeros(0, dtype=np.int64)
    steps = []
    last = np.full(topology.n_vertices, -1, dtype=np.int64)
    for i, block in enumerate(schedule.blocks()):
        verts = np.asarray(block, dtype=np.int64)
        pos_of = np.full(topology.n_vertices, -1, dtype=np.int64)
        pos_of[verts] = np.arange(len(verts))
        in_lo = np.nonzero(pos_of[lo] >= 0)[0] if len(edges) else np.zeros(0, np.int64)
        in_hi = np.nonzero(pos_of[hi] >= 0)[0] if len(edges) else np.zeros(0, np.int64)
        steps.append(
            BlockStep(
                verts=verts,
                e_lo=in_lo,
                pos_lo=pos_of[lo[in_lo]],
                read_lo=hi[in_lo],
                e_hi=in_hi,
                pos_hi=pos_of[hi[in_hi]],
                read_hi=lo[in_hi],
            )
        )
        last[verts] = i
    compiled = CompiledSchedule(topology=topology, steps=tuple(steps), last_step_of_site=last)
    if len(_compile_cache) > 64:
        _compile_cache.clear()
    _compile_cache[key] = compiled
    return compiled


def block_activations(
    unary: np.ndarray,
    pairwise: np.ndarray,
    st: BlockStep,
    q_read_lo: np.ndarray,
    q_read_hi: np.ndarray,
) -> np.ndarray:
    """Pre-softmax activations for the block's sites, given the q rows read
    across its e_lo edges (`q[st.read_lo]`) and its e_hi edges (`q[st.read_hi]`)."""
    a = unary[st.verts].astype(np.float64, copy=True)
    if st.e_lo.size:
        msg = np.einsum("ekl,el->ek", pairwise[st.e_lo], q_read_lo)
        np.add.at(a, st.pos_lo, msg)
    if st.e_hi.size:
        msg = np.einsum("ekl,ek->el", pairwise[st.e_hi], q_read_hi)
        np.add.at(a, st.pos_hi, msg)
    return a


@dataclass(frozen=True, eq=False)
class StepRecord:
    q_read_lo: np.ndarray  # values read across e_lo edges, (|e_lo|, K)
    q_read_hi: np.ndarray
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
    for m, (unary, pairwise) in enumerate(layers):
        for st in compiled.steps:
            # Fancy indexing copies, so the tape can keep these reads as they are.
            q_read_lo = q[st.read_lo]
            q_read_hi = q[st.read_hi]
            a = block_activations(unary, pairwise, st, q_read_lo, q_read_hi)
            q_new = row_softmax(a)
            if tape is not None:
                tape.append(StepRecord(q_read_lo, q_read_hi, activations=a, q_out=q_new))
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
    dunary = [np.zeros_like(layers[m][0]) for m in range(n_layers)]
    dpair = [np.zeros_like(layers[m][1]) for m in range(n_layers)]
    gq = (
        np.array(gq_final, dtype=np.float64, copy=True)
        if gq_final is not None
        else np.zeros((topo.n_vertices, K))
    )
    for gs in range(n_layers * n_steps - 1, -1, -1):
        m, ls = divmod(gs, n_steps)
        st = compiled.steps[ls]
        rec = tape[gs]
        pairwise = layers[m][1]
        g_b = gq[st.verts].copy()
        qo = rec.q_out
        da = qo * (g_b - np.sum(g_b * qo, axis=1, keepdims=True))
        if ga_final is not None and m == n_layers - 1:
            is_last = compiled.last_step_of_site[st.verts] == ls
            da = da + np.where(is_last[:, None], ga_final[st.verts], 0.0)
        gq[st.verts] = 0.0
        np.add.at(dunary[m], st.verts, da)
        if st.e_lo.size:
            da_lo = da[st.pos_lo]
            np.add.at(dpair[m], st.e_lo, np.einsum("ek,el->ekl", da_lo, rec.q_read_lo))
            np.add.at(gq, st.read_lo, np.einsum("ekl,ek->el", pairwise[st.e_lo], da_lo))
        if st.e_hi.size:
            da_hi = da[st.pos_hi]
            np.add.at(dpair[m], st.e_hi, np.einsum("ek,el->ekl", rec.q_read_hi, da_hi))
            np.add.at(gq, st.read_hi, np.einsum("ekl,el->ek", pairwise[st.e_hi], da_hi))
    return dunary, dpair, gq
