"""Property tests of the shared engine over random graphs, label counts and schedules."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfnet import engine, meanfield
from mfnet.engine import BlockParallel, Sequential
from mfnet.mfn import forward_mrfs
from mfnet.mrf import (
    FactorialDistribution,
    GraphTopology,
    PairwiseMRF,
    row_softmax,
    softmax_init,
)

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


def _final_activations(compiled, tape, n_layers):
    """Each site's activations from its last update in the last layer."""
    a = np.zeros((compiled.topology.n_vertices, tape[0].activations.shape[1]))
    n_steps = len(compiled.steps)
    for ls, step in enumerate(compiled.steps):
        a[step.verts] = tape[(n_layers - 1) * n_steps + ls].activations
    return a


@settings(max_examples=30, deadline=None)
@given(problems(), st.sampled_from(["q", "a", "both"]), st.integers(0, 2**32 - 1))
def test_backward_matches_finite_differences(problem, seeds, seed):
    mrfs, schedule = problem
    mrfs = mrfs[:3]
    rng = np.random.default_rng(seed)
    topo = mrfs[0].topology
    compiled = engine.compile_schedule(topo, schedule)
    n, K = mrfs[0].unary.shape
    gq = rng.normal(size=(n, K)) if seeds in ("q", "both") else None
    ga = rng.normal(size=(n, K)) if seeds in ("a", "both") else None
    layers = [(m.unary.copy(), m.pairwise.copy()) for m in mrfs]
    q0 = rng.dirichlet(np.ones(K), size=n)

    def loss():
        tape = []
        q = engine.run_unrolled(layers, q0, compiled, tape=tape)
        total = float(np.sum(gq * q)) if gq is not None else 0.0
        if ga is not None:
            total += float(np.sum(ga * _final_activations(compiled, tape, len(layers))))
        return total

    tape = []
    engine.run_unrolled(layers, q0, compiled, tape=tape)
    dunary, dpair, gq0 = engine.backward_unrolled(layers, compiled, tape, gq, ga)

    h = 1e-6

    def numeric(arr):
        out = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            saved = arr[idx]
            arr[idx] = saved + h
            up = loss()
            arr[idx] = saved - h
            down = loss()
            arr[idx] = saved
            out[idx] = (up - down) / (2 * h)
        return out

    for m, (unary, pairwise) in enumerate(layers):
        np.testing.assert_allclose(dunary[m], numeric(unary), rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dpair[m], numeric(pairwise), rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(gq0, numeric(q0), rtol=1e-5, atol=1e-6)


@settings(max_examples=80, deadline=None)
@given(problems())
def test_run_unrolled_matches_site_updates(problem):
    mrfs, schedule = problem
    q = row_softmax(mrfs[0].unary)
    q0 = q.copy()
    for m in mrfs:
        for block in schedule.blocks():
            before = FactorialDistribution(q.copy())
            for v in block:
                q[v] = meanfield.site_update(m, before, v)
    compiled = engine.compile_schedule(mrfs[0].topology, schedule)
    out = engine.run_unrolled([(m.unary, m.pairwise) for m in mrfs], q0, compiled)
    np.testing.assert_allclose(out, q, rtol=0, atol=1e-12)


def _independent_blocks(topology, order):
    """Split `order` greedily into consecutive blocks with no edge inside a block."""
    neighbours = [{t for t, _ in adj} for adj in topology.adjacency]
    blocks, block = [], []
    for v in order:
        if neighbours[v].intersection(block):
            blocks.append(tuple(block))
            block = []
        block.append(v)
    blocks.append(tuple(block))
    return blocks


@settings(max_examples=80, deadline=None)
@given(problems())
def test_independent_blocks_equal_sequential(problem):
    mrfs, schedule = problem
    mrfs = mrfs[:3]
    topo = mrfs[0].topology
    order = [v for block in schedule.blocks() for v in block]
    blocks = _independent_blocks(topo, order)
    layers = [(m.unary, m.pairwise) for m in mrfs]
    q0 = row_softmax(mrfs[0].unary)
    parallel = engine.run_unrolled(
        layers, q0, engine.compile_schedule(topo, BlockParallel(tuple(blocks)))
    )
    sequential = engine.run_unrolled(
        layers, q0, engine.compile_schedule(topo, Sequential(tuple(order)))
    )
    np.testing.assert_allclose(parallel, sequential, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 4)),
        elements=st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-700.0, 700.0])),
    )
)
def test_label_major_softmax_is_bit_identical(a):
    np.testing.assert_array_equal(row_softmax(a.T, axis=0).T, row_softmax(a))
