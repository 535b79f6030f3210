from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfnet import engine
from mfnet.engine import Schedule, sequential_schedule
from mfnet.mrf import GraphTopology, PairwiseMRF

POTENTIAL = st.floats(-5.0, 5.0, allow_nan=False)


def random_grid_mrf(rng, height, width, K=2, scale=2.0):
    """Random 4-connected grid MRF with potentials uniform in [-scale, scale]."""
    from mfnet.crf import grid_graph

    topo = grid_graph(height, width)
    return PairwiseMRF(
        topology=topo,
        K=K,
        unary=rng.uniform(-scale, scale, (topo.n_vertices, K)),
        pairwise=rng.uniform(-scale, scale, (topo.n_edges, K, K)),
    )


def random_mrf(rng, n_vertices, K, edge_p=0.5, scale=1.5):
    """Random MRF on an Erdos-Renyi style graph (possibly edgeless)."""
    pairs = [(s, t) for s in range(n_vertices) for t in range(s + 1, n_vertices)]
    chosen = [p for p in pairs if rng.random() < edge_p]
    edges = np.array(chosen, dtype=np.int64).reshape(-1, 2)
    topo = GraphTopology(n_vertices=n_vertices, edges=edges)
    return PairwiseMRF(
        topology=topo,
        K=K,
        unary=rng.uniform(-scale, scale, (n_vertices, K)),
        pairwise=rng.uniform(-scale, scale, (len(edges), K, K)),
    )


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
        return mrfs, sequential_schedule(tuple(order))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    blocks, block = [], [order[0]]
    for v, cut in zip(order[1:], cuts):
        if cut:
            blocks.append(tuple(block))
            block = []
        block.append(v)
    blocks.append(tuple(block))
    return mrfs, Schedule(tuple(blocks))


@contextmanager
def operators_on_every_step():
    """While open, `layer_inputs` builds an operator for every step. (Not the
    monkeypatch fixture: Hypothesis runs a test's examples in one fixture scope.)"""
    saved = engine.SPARSE_MIN_MESSAGES
    engine.SPARSE_MIN_MESSAGES = 0
    try:
        yield
    finally:
        engine.SPARSE_MIN_MESSAGES = saved


def replay(trace):
    """Recompute a forward trace's output from its recorded reads alone."""
    q = trace.q0.copy()
    steps = trace.compiled.steps
    for gs, rec in enumerate(trace.tape):
        m, ls = divmod(gs, len(steps))
        unary, tables, ops = trace.inputs[m]
        st = steps[ls]
        a = engine.block_activations(unary[:, st.sites], tables, st, rec.q_read_km, ops[ls])
        q[:, st.verts] = engine.reduced_softmax(a)
    return np.hstack([1.0 - q.sum(axis=0)[:, None], q.T])


def random_q(rng, n_vertices, K):
    from mfnet.mrf import FactorialDistribution

    p = rng.random((n_vertices, K)) + 1e-3
    return FactorialDistribution(p / p.sum(axis=1, keepdims=True))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
