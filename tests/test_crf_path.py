"""The CRF's direct forward and reverse pass against the generic path, bit for bit.

`mfn.forward` and `mfn.backward` build the engine's reduced inputs from the
28 parameters and pull its reduced gradients straight back to them. The
reference here is the generic route: `build_mrf` models through
`forward_mrfs`, the reverse pass lifted to full unary and pairwise
gradients by `engine.lift_gradients`, the q0 softmax folded into the full
unary gradient, and `theta_gradient` of the label-1 unary column and the
Potts diagonal.
"""
import warnings
from functools import reduce

import numpy as np
import pytest

from mfnet import engine
from mfnet.crf import CrfParams, build_mrf, theta_gradient
from mfnet.mfn import MfnParams, backward, forward, forward_mrfs, hinge_loss_grad, kl_grad_q
from mfnet.mrf import row_softmax, softmax_init

GRIDS = [(1, 1), (1, 6), (5, 1), (3, 4), (50, 100)]


def random_theta(rng):
    return CrfParams(w=rng.normal(0, 0.5, 26), p_h=rng.normal(0, 1), p_v=rng.normal(0, 1))


def generic_forward(y, params, n_layers, schedule):
    mrfs = [build_mrf(y, p) for p in params.layers] * (n_layers if params.tied else 1)
    return forward_mrfs(mrfs, schedule)


def generic_backward(trace, y, params, gq_final, ga_final):
    dunary, dtables, gq0 = engine.backward_unrolled(
        trace.compiled, trace.tape, trace.inputs, gq_final, ga_final
    )
    lifted = [engine.lift_gradients(trace.compiled, du, dt) for du, dt in zip(dunary, dtables)]
    # q0 is the softmax of the first layer's full unary; label 0 of q0 is not read.
    q0 = row_softmax(build_mrf(y, params.layers[0]).unary)
    gq0 = np.hstack([np.zeros((len(q0), 1)), gq0.T])
    dot = reduce(np.add, [gq0[:, k] * q0[:, k] for k in range(q0.shape[1])])
    du0 = lifted[0][0]
    du0 += q0 * (gq0 - dot[:, None])
    per_layer = [
        theta_gradient(y, du[:, 1], dp[:, 0, 0] + dp[:, 1, 1]) for du, dp in lifted
    ]
    return [np.sum(per_layer, axis=0)] if params.tied else per_layer


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("schedule_name", ["checkerboard", "raster"])
@pytest.mark.parametrize("tied", [True, False])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("h, w", GRIDS)
def test_direct_path_equals_generic_path(h, w, n_layers, tied, schedule_name):
    rng = np.random.default_rng([h, w, n_layers, tied, schedule_name == "raster"])
    y = rng.random((h, w))
    x_hat = rng.integers(0, 2, h * w)
    schedule = (engine.checkerboard_schedule(h, w) if schedule_name == "checkerboard"
                else engine.raster_schedule(h * w))
    params = MfnParams(tied, [random_theta(rng) for _ in range(1 if tied else n_layers)])
    direct = forward(y, params, n_layers, schedule)
    generic = generic_forward(y, params, n_layers, schedule)

    assert same_bits(direct.q0, generic.q0)
    assert len(direct.inputs) == len(generic.inputs) == n_layers
    for (u, t, ops), (u_ref, t_ref, ops_ref) in zip(direct.inputs, generic.inputs):
        assert same_bits(u, u_ref) and same_bits(t, t_ref)
        assert [op is None for op in ops] == [op is None for op in ops_ref]
        for op, ref in zip(ops, ops_ref):
            if op is not None:
                assert all(same_bits(getattr(op, f), getattr(ref, f))
                           for f in ("data", "indices", "indptr"))
    assert len(direct.tape) == len(generic.tape)
    for rec, ref in zip(direct.tape, generic.tape):
        assert same_bits(rec.q_read_km, ref.q_read_km) and same_bits(rec.q_out_km, ref.q_out_km)
    assert same_bits(direct.q_final, generic.q_final)
    assert same_bits(direct.a_final, generic.a_final)

    # The outputs agree bit for bit, so both passes take the same output gradients.
    target = build_mrf(y, random_theta(rng))
    losses = {"hinge": (None, hinge_loss_grad(direct.a_final, x_hat, 1.0)[1]),
              "kl": (kl_grad_q(direct.q_final, target), None)}
    for loss, (gq, ga) in losses.items():
        got = backward(direct, y, params, gq, ga)
        want = generic_backward(generic, y, params, gq, ga)
        assert len(got) == len(want) == len(params.layers)
        for g, g_ref in zip(got, want):
            assert same_bits(g, g_ref), loss


def test_non_finite_potentials_are_rejected():
    y = np.zeros((3, 4))
    for theta in (CrfParams(np.full(26, np.inf), 0.0, 0.0), CrfParams(np.zeros(26), np.nan, 0.0),
                  CrfParams(np.zeros(26), 0.0, -np.inf)):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
            forward(y, MfnParams.tied_from(theta), 2, engine.checkerboard_schedule(3, 4))


@pytest.mark.parametrize("scale", [0.5, 50.0, 1e306])
def test_q0_is_the_softmax_init_of_the_first_layer(scale):
    """`mfn.forward` takes q0 from the engine's softmax and `run-mf` from
    `softmax_init`; they agree bit for bit, on unaries whose exponentials
    overflow too, and warn of nothing."""
    rng = np.random.default_rng(19)
    y = rng.random((50, 100))
    theta = CrfParams(w=rng.normal(0, scale, 26), p_h=0.0, p_v=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = forward(y, MfnParams.tied_from(theta), 1, engine.checkerboard_schedule(50, 100))
        init = softmax_init(build_mrf(y, theta)).probs
    assert same_bits(trace.q0, init.T[1:])
