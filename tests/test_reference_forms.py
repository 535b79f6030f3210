"""The grid-slice and label-loop forms of `crf`, `mfn` and `mrf`, and the
engine's reverse pass, against the edge-index, short-axis and
message-ordered forms they replaced, which are kept here as the references:
equal labels, the same accepted and rejected distributions, 28-vectors
equal byte for byte, and reverse-pass gradients equal byte for byte at
K = 2."""
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import operators_on_every_step, problems
from mfnet import engine
from mfnet.crf import CrfParams, cl_gradient, grid_graph, theta_gradient
from mfnet.mfn import MfnParams, backward, forward
from mfnet.mrf import FactorialDistribution, decode, row_softmax

EXAMPLES = settings(derandomize=True, database=None, max_examples=200, deadline=None)
TIES = [0.0, -0.0, 0.25, 0.5, 1.0, -3.0, 1e300]


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def label_rows(draw):
    """Finite (n, K) arrays for K 1-4, most entries from a few values, so rows tie."""
    n, K = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    value = st.sampled_from(TIES) | st.floats(allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(value, min_size=n * K, max_size=n * K))).reshape(n, K)


@EXAMPLES
@given(probs=label_rows())
def test_decode_is_argmax_along_the_labels(probs):
    assert same_bits(decode(probs), np.argmax(probs, axis=1))


def accepted_by_row_sum(probs):
    """The parent's check: range, then the largest |sum(axis=1) - 1|."""
    if np.any(probs < -1e-12) or np.any(probs > 1 + 1e-12):
        return False
    return not np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9


@st.composite
def near_normalized(draw):
    """(n, K) rows in [0, 1] whose sums miss 1 by about 1e-9, either side."""
    n, K = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        head = [draw(st.floats(0.0, 1.0 / K)) for _ in range(K - 1)]
        miss = draw(st.sampled_from([0.0, 1e-9, -1e-9]) | st.floats(-2e-9, 2e-9))
        steps = draw(st.integers(-3, 3))  # a few ulps either side of the miss
        last = np.float64(1.0 - sum(head) + miss)
        for _ in range(abs(steps)):
            last = np.nextafter(last, np.sign(steps) * np.inf)
        rows.append(head + [last])
    return np.array(rows)


@EXAMPLES
@given(probs=near_normalized())
def test_row_sum_check_accepts_what_the_axis_sum_accepts(probs):
    try:
        FactorialDistribution(probs)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == accepted_by_row_sum(probs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_probabilities_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        FactorialDistribution(np.full((2, 2), bad))
    with pytest.raises(ValueError, match="finite"):
        FactorialDistribution(np.array([[0.5, 0.5], [bad, 0.5]]))


def test_empty_axes_are_rejected():
    with pytest.raises(ValueError, match="rows must sum to 1"):
        FactorialDistribution(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        FactorialDistribution(np.zeros((0, 2)))


def grids():
    """(h, w) up to 7x7, with 1x1, 1xW and Hx1 grids drawn often."""
    side = st.sampled_from([1, 1, 2]) | st.integers(1, 7)
    return st.tuples(side, side)


def cl_gradient_by_edges(y, x_hat, q):
    lo, hi = grid_graph(*y.shape).edges.T
    agree = (x_hat[lo] == x_hat[hi]).astype(np.float64)
    expected_agree = np.sum(q.probs.take(lo, axis=0) * q.probs.take(hi, axis=0), axis=1)
    return theta_gradient(y, x_hat - q.probs[:, 1], agree - expected_agree)


@EXAMPLES
@given(shape=grids(), seed=st.integers(0, 2**32 - 1))
def test_cl_gradient_equals_the_edge_gather(shape, seed):
    rng = np.random.default_rng(seed)
    y = rng.random(shape)
    x_hat = rng.integers(0, 2, y.size)
    raw = rng.random((y.size, 2))
    q = FactorialDistribution(raw / raw.sum(axis=1, keepdims=True))
    assert same_bits(cl_gradient(y, x_hat, q), cl_gradient_by_edges(y, x_hat, q))


def backward_by_edges(trace, y, params, gq_final, ga_final):
    dunary, dtables, gq0 = engine.backward_unrolled(
        trace.compiled, trace.tape, trace.inputs, gq_final, ga_final
    )
    lo, hi = trace.compiled.topology.edges.T
    d_penalty = [(dt[0, 0] - du[0].take(lo) - du[0].take(hi)) + dt[0, 0]
                 for du, dt in zip(dunary, dtables)]
    dunary[0] += trace.q0 * (gq0 - gq0 * trace.q0)
    per_layer = [theta_gradient(y, du[0], dp) for du, dp in zip(dunary, d_penalty)]
    return [np.sum(per_layer, axis=0)] if params.tied else per_layer


@EXAMPLES
@given(shape=grids(), n_layers=st.integers(1, 3), tied=st.booleans(),
       raster=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_backward_equals_the_edge_gather(shape, n_layers, tied, raster, seed):
    rng = np.random.default_rng(seed)
    y = rng.random(shape)
    thetas = [CrfParams(w=rng.normal(0, 0.5, 26), p_h=rng.normal(), p_v=rng.normal())
              for _ in range(1 if tied else n_layers)]
    params = MfnParams(tied, thetas)
    schedule = (engine.raster_schedule(y.size) if raster
                else engine.checkerboard_schedule(*shape))
    trace = forward(y, params, n_layers, schedule)
    gq, ga = rng.normal(size=(2, y.size, 2))
    got = backward(trace, y, params, gq, ga)
    want = backward_by_edges(trace, y, params, gq, ga)
    assert len(got) == len(want) and all(same_bits(g, r) for g, r in zip(got, want))


def backward_by_messages(compiled, tape, inputs, gq_final=None, ga_final=None):
    """`engine.backward_unrolled` as it was before it used the forward's
    operators: each step gathers `da` per message, writes each message's
    table gradient into one (K-1, K-1, 2E) array in message order and
    scatters the read sites' gradient with `bincount`; each layer then
    folds that array into edge order."""
    n_layers, n_steps = len(inputs), len(compiled.steps)
    n, (lower, upper) = compiled.topology.n_vertices, compiled.message_of
    order, K1 = compiled.order, inputs[0][0].shape[0]
    dunary, dtables = [np.empty((K1, n)) for _ in range(n_layers)], [None] * n_layers
    dmsg = np.empty((K1, K1, 2 * compiled.topology.n_edges))
    g = None if gq_final is None else np.transpose(np.asarray(gq_final, dtype=np.float64))
    gq = np.zeros((K1, n)) if g is None else (g[1:] - g[:1]).take(order, axis=1)
    ga = np.transpose(ga_final)[1:].take(order, axis=1) if ga_final is not None else None
    for m in range(n_layers - 1, -1, -1):
        for ls in range(n_steps - 1, -1, -1):
            st_, rec = compiled.steps[ls], tape[m * n_steps + ls]
            g_b, qo = gq[:, st_.sites], rec.q_out_km
            dot = g_b[0] * qo[0]
            for k in range(1, K1):
                dot += g_b[k] * qo[k]
            da = qo * (g_b - dot)
            if ga is not None and m == n_layers - 1:
                da += ga[:, st_.sites]
            da_msg = da.take(st_.pos, axis=1)
            q_msg = rec.q_read_km.take(st_.read_idx, axis=1)
            np.multiply(da_msg[:, None], q_msg, out=dmsg[:, :, st_.msgs])
            tab = inputs[m][1][:, :, st_.msgs]
            g_read = tab[0] * da_msg[0]
            for k in range(1, K1):
                g_read += tab[k] * da_msg[k]
            gq[:, st_.sites] = 0.0
            dunary[m][:, st_.sites] = da
            for k in range(K1):
                gq[k][st_.reads] += np.bincount(st_.read_idx, g_read[k], minlength=st_.reads.size)
        dtables[m] = dmsg.take(lower, axis=2) + dmsg.swapaxes(0, 1).take(upper, axis=2)
    rank = compiled.rank
    return [du.take(rank, axis=1) for du in dunary], dtables, gq.take(rank, axis=1)


def reverse_arrays(compiled, tape, inputs, gq, ga, reverse=engine.backward_unrolled):
    dunary, dtables, gq0 = reverse(compiled, tape, inputs, gq, ga)
    return [*dunary, *dtables, gq0]


@EXAMPLES
@given(problem=problems(), every_step=st.booleans(), seeds=st.sampled_from(["q", "a", "both"]),
       seed=st.integers(0, 2**32 - 1))
def test_backward_equals_the_message_ordered_form(problem, every_step, seeds, seed):
    """Byte for byte at K = 2; at K = 3 and 4 a read-site gradient through an
    operator sums over target labels per read site, not per message, so
    each array is within 1e-13 of its largest entry."""
    mrfs, schedule = problem
    rng = np.random.default_rng(seed)
    compiled = engine.compile_schedule(mrfs[0].topology, schedule)
    # Writable copies: rebuilt on every call, never served from the store.
    with operators_on_every_step() if every_step else nullcontext():
        inputs = engine.layer_inputs(compiled, [(m.unary, m.pairwise.copy()) for m in mrfs])
    q0, tape = row_softmax(mrfs[-1].unary), []
    engine.run_unrolled(inputs, q0, compiled, tape=tape)
    gq = rng.normal(size=q0.shape) if seeds != "a" else None
    ga = rng.normal(size=q0.shape) if seeds != "q" else None
    got = reverse_arrays(compiled, tape, inputs, gq, ga)
    want = reverse_arrays(compiled, tape, inputs, gq, ga, reverse=backward_by_messages)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if mrfs[0].K == 2 or not every_step:
            assert same_bits(g, w)
        else:
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-13 * np.max(np.abs(w), initial=0.0))


@pytest.mark.parametrize("schedule_name", ["checkerboard", "raster"])
def test_backward_on_the_full_grid_equals_the_message_ordered_form(schedule_name):
    """A 3-layer untied network on a 50x100 image, its tables served from
    the store; the second reverse pass reuses the stored transposes."""
    rng = np.random.default_rng(24)
    y = rng.random((50, 100))
    thetas = [CrfParams(w=rng.normal(0, 0.5, 26), p_h=rng.normal(), p_v=rng.normal())
              for _ in range(3)]
    schedule = (engine.raster_schedule(y.size) if schedule_name == "raster"
                else engine.checkerboard_schedule(*y.shape))
    trace = forward(y, MfnParams(False, thetas), 3, schedule)
    gq, ga = rng.normal(size=(2, y.size, 2))
    args = trace.compiled, trace.tape, trace.inputs, gq, ga
    want = reverse_arrays(*args, reverse=backward_by_messages)
    for _ in range(2):
        got = reverse_arrays(*args)
        assert len(got) == len(want) and all(same_bits(g, w) for g, w in zip(got, want))
