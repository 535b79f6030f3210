"""Property tests of the shared engine over random graphs, label counts and schedules."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfnet import meanfield
from mfnet.engine import BlockParallel, Sequential
from mfnet.mfn import forward_mrfs
from mfnet.mrf import GraphTopology, PairwiseMRF, softmax_init

POTENTIAL = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def problems(draw):
    """(per-layer MRFs on one random graph, a random schedule over its vertices)."""
    n = draw(st.integers(1, 7))
    K = draw(st.integers(2, 4))
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    topo = GraphTopology(n_vertices=n, edges=np.array(sorted(chosen), dtype=np.int64))
    n_layers = draw(st.integers(1, 4))
    mrfs = [
        PairwiseMRF(
            topology=topo,
            K=K,
            unary=draw(arrays(np.float64, (n, K), elements=POTENTIAL)),
            pairwise=draw(arrays(np.float64, (topo.n_edges, K, K), elements=POTENTIAL)),
        )
        for _ in range(n_layers)
    ]
    order = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        return mrfs, Sequential(tuple(order))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    blocks, block = [], [order[0]]
    for v, cut in zip(order[1:], cuts):
        if cut:
            blocks.append(tuple(block))
            block = []
        block.append(v)
    blocks.append(tuple(block))
    return mrfs, BlockParallel(tuple(blocks))


@settings(max_examples=80, deadline=None)
@given(problems())
def test_rows_are_finite_distributions(problem):
    mrfs, schedule = problem
    q = forward_mrfs(mrfs, schedule).q_final
    assert np.all(np.isfinite(q))
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(problems())
def test_tied_forward_equals_mean_field(problem):
    mrfs, schedule = problem
    m = mrfs[0]
    trace = forward_mrfs([m] * len(mrfs), schedule)
    q, _ = meanfield.run(m, softmax_init(m), len(mrfs), schedule)
    np.testing.assert_array_equal(trace.q_final, q.probs)


@settings(max_examples=80, deadline=None)
@given(problems())
def test_replay_equals_forward(problem):
    mrfs, schedule = problem
    trace = forward_mrfs(mrfs, schedule)
    np.testing.assert_array_equal(trace.replay(), trace.q_final)
