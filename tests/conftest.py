import numpy as np
import pytest

from mfnet.mrf import GraphTopology, PairwiseMRF


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


def replay(trace):
    """Recompute a forward trace's output from its recorded reads alone."""
    from mfnet import engine

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
