"""Classical mean field under explicit update schedules."""
from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import engine
from .engine import BlockParallel, Schedule, Sequential, checkerboard_schedule, raster_schedule
from .mrf import (
    FactorialDistribution,
    PairwiseMRF,
    row_softmax,
    unnormalized_kl_arrays,
)

__all__ = [
    "Sequential",
    "BlockParallel",
    "Schedule",
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
    mrf: PairwiseMRF,
    q0: FactorialDistribution,
    n_iters: int,
    schedule: Schedule,
    track_kl: bool = False,
) -> Tuple[FactorialDistribution, Optional[List[float]]]:
    """n_iters mean field sweeps; no convergence test, fixed iteration count.

    With track_kl, also returns the unnormalized KL after each sweep.
    """
    if n_iters < 0:
        raise ValueError("iteration count must be >= 0")
    if n_iters == 0:
        return q0, ([] if track_kl else None)
    compiled = engine.compile_schedule(mrf.topology, schedule)
    kl_trace: Optional[List[float]] = [] if track_kl else None
    hook = None
    if track_kl:
        edges = mrf.topology.edges

        def hook(_m, q):
            kl_trace.append(
                unnormalized_kl_arrays(q, mrf.unary, mrf.pairwise, edges)
            )

    inputs = engine.layer_inputs(compiled, [(mrf.unary, mrf.pairwise)]) * n_iters
    out, _ = engine.run_unrolled(inputs, q0.probs, compiled, sweep_hook=hook)
    return FactorialDistribution(out), kl_trace


def max_site_change(
    mrf: PairwiseMRF, q: FactorialDistribution, schedule: Schedule
) -> float:
    """Largest absolute per-entry change produced by one sweep; convergence diagnostic."""
    after = sweep(mrf, q, schedule)
    return float(np.max(np.abs(after.probs - q.probs)))
