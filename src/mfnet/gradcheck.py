"""Finite-difference verification of the reverse pass on small random instances."""
from __future__ import annotations

from typing import Optional

import numpy as np

from .crf import CrfParams, build_mrf
from .engine import Schedule, checkerboard_schedule, raster_schedule
from .mfn import MfnParams, backward, forward, hinge_loss_grad, kl_grad_q
from .mrf import unnormalized_kl_arrays

FD_STEP = 1e-5  # central-difference step


def check_config(
    y: np.ndarray,
    params: MfnParams,
    n_layers: int,
    schedule: Schedule,
    loss_kind: str,
    target=None,
    x_hat: Optional[np.ndarray] = None,
) -> float:
    """Max relative error between the reverse pass and central differences."""

    def run(p):
        """The forward trace, the loss and its gradients on the final q and activations."""
        trace = forward(y, p, n_layers, schedule)
        if loss_kind == "kl":
            q = trace.q_final
            loss = unnormalized_kl_arrays(q, target.unary, target.pairwise, target.topology.edges)
            return trace, loss, kl_grad_q(q, target), None
        loss, ga = hinge_loss_grad(trace.a_final, x_hat)
        return trace, loss, None, ga

    def loss_of(vec):
        return run(MfnParams.from_vector(vec, params.tied, len(params.layers)))[1]

    trace, _, gq, ga = run(params)
    analytic = np.concatenate(backward(trace, y, params, gq, ga))
    vec = params.to_vector()
    fd = np.zeros_like(vec)
    for i in range(len(vec)):
        plus = vec.copy()
        plus[i] += FD_STEP
        minus = vec.copy()
        minus[i] -= FD_STEP
        fd[i] = (loss_of(plus) - loss_of(minus)) / (2 * FD_STEP)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / denom))


def run_grad_check(size: int = 6, max_layers: int = 3, seed: int = 0) -> dict:
    """Sweep losses x layer counts x tied/untied x schedules; report worst error."""
    rng = np.random.default_rng(seed)
    y = rng.random((size, size))
    x_hat = rng.integers(0, 2, size=size * size)
    schedules = {
        "checkerboard": checkerboard_schedule(size, size),
        "raster": raster_schedule(size * size),
    }

    def random_theta():
        return CrfParams(
            w=rng.normal(0.0, 0.3, 26), p_h=rng.normal(0.0, 0.3), p_v=rng.normal(0.0, 0.3)
        )

    target = build_mrf(y, random_theta())
    rows = []
    for loss_kind in ("kl", "hinge"):
        for n_layers in range(1, max_layers + 1):
            for tied in (True, False):
                for sched_name, schedule in schedules.items():
                    if tied:
                        params = MfnParams(tied=True, layers=[random_theta()])
                    else:
                        params = MfnParams(
                            tied=False, layers=[random_theta() for _ in range(n_layers)]
                        )
                    err = check_config(
                        y, params, n_layers, schedule, loss_kind, target=target, x_hat=x_hat
                    )
                    rows.append(
                        {
                            "loss": loss_kind,
                            "layers": n_layers,
                            "tied": tied,
                            "schedule": sched_name,
                            "max_rel_err": err,
                        }
                    )
    return {"max_rel_err": max(r["max_rel_err"] for r in rows), "configs": rows}
