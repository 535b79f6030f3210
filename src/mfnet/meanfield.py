"""Classical mean field under explicit update schedules."""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import engine
from .engine import Schedule, checkerboard_schedule, raster_schedule, sequential_schedule
from .mrf import (
    FactorialDistribution,
    PairwiseMRF,
    row_softmax,
    unnormalized_kl_arrays,
)

__all__ = [
    "Schedule",
    "sequential_schedule",
    "checkerboard_schedule",
    "raster_schedule",
    "site_update",
    "sweep",
    "run",
    "max_site_change",
]


def site_update(mrf: PairwiseMRF, q: FactorialDistribution, s: int) -> np.ndarray:
    """Closed-form coordinate update for a single site.

    Returns softmax of f_s plus the expected pairwise potentials under the
    neighbors' current distributions.
    """
    if not 0 <= s < mrf.n_vertices:
        raise ValueError(f"vertex {s} out of range")
    probs = q.probs
    a = mrf.unary[s].copy()
    for t, e in mrf.topology.adjacency[s]:
        table = mrf.pairwise[e]
        if s < t:
            a += table @ probs[t]
        else:
            a += table.T @ probs[t]
    return row_softmax(a)


def sweep(
    mrf: PairwiseMRF, q: FactorialDistribution, schedule: Schedule
) -> FactorialDistribution:
    """One full pass over all sites under the given schedule."""
    return run(mrf, q, 1, schedule)[0]


def run(
    mrf: PairwiseMRF | Sequence[PairwiseMRF],
    q0: FactorialDistribution | Sequence[FactorialDistribution],
    n_iters: int,
    schedule: Schedule,
    track_kl: bool = False,
) -> Tuple[FactorialDistribution | List[FactorialDistribution], Optional[List[float]]]:
    """n_iters mean field sweeps; no convergence test, fixed iteration count.

    With track_kl, also returns the unnormalized KL after each sweep.

    `mrf` and `q0` may also be equal-length lists: models on one topology
    that share one pairwise array, and their initial distributions. They
    run as one engine pass over an image axis, each block step one
    product for all of them, and their marginals come back as a list in
    order, each the bits of its own run (without track_kl).
    """
    if n_iters < 0:
        raise ValueError("iteration count must be >= 0")
    if not isinstance(mrf, PairwiseMRF):
        if track_kl:
            raise ValueError("track_kl takes one model")
        return _run_images(list(mrf), list(q0), n_iters, schedule), None
    if n_iters == 0:
        return q0, ([] if track_kl else None)
    compiled = engine.compile_schedule(mrf.topology, schedule)
    layer = engine.layer_inputs(compiled, [(mrf.unary, mrf.pairwise)])
    if not track_kl:
        out, _ = engine.run_unrolled(layer * n_iters, q0.probs, compiled)
        return FactorialDistribution(out), None
    # One call per sweep, same bits: the engine reads only the rows 1..K-1 it carries.
    q, kl_trace = q0.probs, []
    for _ in range(n_iters):
        q = engine.run_unrolled(layer, q, compiled)[0]
        kl_trace.append(unnormalized_kl_arrays(q, mrf.unary, mrf.pairwise, mrf.topology.edges))
    return FactorialDistribution(q), kl_trace


def _run_images(
    mrfs: List[PairwiseMRF],
    q0s: List[FactorialDistribution],
    n_iters: int,
    schedule: Schedule,
) -> List[FactorialDistribution]:
    """`run` on a list of models, stacked on the engine's trailing image axis."""
    if len(mrfs) != len(q0s):
        raise ValueError(f"{len(mrfs)} models but {len(q0s)} initial distributions")
    if not mrfs or n_iters == 0:
        return q0s
    topology, pairwise = mrfs[0].topology, mrfs[0].pairwise
    if any(m.topology is not topology or m.pairwise is not pairwise for m in mrfs):
        raise ValueError("the models must share one topology and one pairwise array")
    compiled = engine.compile_schedule(topology, schedule)
    unary = np.stack([m.unary for m in mrfs], axis=2)
    layer = engine.layer_inputs(compiled, [(unary, pairwise)])
    out, _ = engine.run_unrolled(layer * n_iters, np.stack([q.probs for q in q0s], axis=2),
                                 compiled)
    return [FactorialDistribution(np.ascontiguousarray(out[..., i])) for i in range(len(mrfs))]


def max_site_change(
    mrf: PairwiseMRF, q: FactorialDistribution, schedule: Schedule
) -> float:
    """Largest absolute per-entry change produced by one sweep; convergence diagnostic."""
    after = sweep(mrf, q, schedule)
    return float(np.max(np.abs(after.probs - q.probs)))
