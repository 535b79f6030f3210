"""The grid-slice and label-loop forms of `crf`, `mfn` and `mrf` against the
edge-index and short-axis forms they replaced, which are kept here as the
references: equal labels, the same accepted and rejected distributions, and
28-vectors equal byte for byte."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfnet import engine
from mfnet.crf import CrfParams, cl_gradient, grid_graph, theta_gradient
from mfnet.mfn import MfnParams, backward, forward
from mfnet.mrf import FactorialDistribution, decode

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
