import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_mrf, random_q
from mfnet.mrf import (
    FactorialDistribution,
    GraphTopology,
    PairwiseMRF,
    energy,
    row_softmax,
    softmax_init,
    unnormalized_kl,
    unnormalized_kl_arrays,
)


def single_vertex(f):
    topo = GraphTopology(1, np.zeros((0, 2), dtype=np.int64))
    return PairwiseMRF(topo, len(f), np.array([f], dtype=float), np.zeros((0, len(f), len(f))))


def two_chain_potts(f1, f2, p):
    topo = GraphTopology(2, np.array([[0, 1]]))
    return PairwiseMRF(
        topo, 2, np.array([f1, f2], dtype=float), (p * np.eye(2))[None, :, :]
    )


class TestTopology:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GraphTopology(2, np.array([[1, 1]]))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            GraphTopology(3, np.array([[0, 1], [0, 1]]))

    def test_adjacency_consistent(self):
        topo = GraphTopology(3, np.array([[0, 1], [1, 2]]))
        assert topo.adjacency[1] == [(0, 0), (2, 1)]
        assert topo.adjacency[0] == [(1, 0)]


class TestEnergy:
    def test_zero_potentials(self, rng):
        m = random_mrf(rng, 4, 2, scale=0.0)
        x = rng.integers(0, 2, 4)
        assert energy(m, x) == 0.0

    def test_single_vertex_lookup(self):
        assert energy(single_vertex([0.0, 1.0]), [1]) == 1.0

    def test_two_vertex_chain_hand_sum(self):
        m = two_chain_potts([0, 1], [0, 0], 1.0)
        assert energy(m, [1, 1]) == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self):
        m = single_vertex([0.0, 1.0])
        with pytest.raises(ValueError):
            energy(m, [1, 0])

    def test_edge_order_invariance(self, rng):
        n = 5
        edges = np.array([(s, t) for s in range(n) for t in range(s + 1, n)])
        tables = rng.normal(size=(len(edges), 3, 3))
        unary = rng.normal(size=(n, 3))
        perm = rng.permutation(len(edges))
        m1 = PairwiseMRF(GraphTopology(n, edges), 3, unary, tables)
        m2 = PairwiseMRF(GraphTopology(n, edges[perm]), 3, unary, tables[perm])
        x = rng.integers(0, 3, n)
        assert energy(m1, x) == pytest.approx(energy(m2, x), abs=1e-12)


class TestSoftmaxInit:
    def test_zero_unaries_uniform(self):
        q = softmax_init(single_vertex([0.0, 0.0]))
        np.testing.assert_allclose(q.probs, [[0.5, 0.5]])

    def test_scalar_softmax(self):
        q = softmax_init(single_vertex([0.0, 1.0]))
        np.testing.assert_allclose(q.probs, [[0.26894142, 0.73105858]], atol=1e-8)

    @given(st.floats(-1e6, 1e6))
    @settings(max_examples=30, deadline=None)
    def test_constant_rows_uniform(self, c):
        q = softmax_init(single_vertex([c, c]))
        np.testing.assert_allclose(q.probs, [[0.5, 0.5]], atol=1e-12)

    def test_shift_invariance_and_normalization(self, rng):
        m = random_mrf(rng, 6, 3, scale=3.0)
        shifted = PairwiseMRF(
            m.topology, m.K, m.unary + rng.normal(size=(6, 1)), m.pairwise
        )
        q1, q2 = softmax_init(m), softmax_init(shifted)
        np.testing.assert_allclose(q1.probs, q2.probs, atol=1e-12)
        np.testing.assert_allclose(q1.probs.sum(axis=1), 1.0, atol=1e-12)


def max_shift_softmax(a):
    """The reference formula: reductions along the last axis."""
    z = np.exp(a - a.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


class TestRowSoftmax:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_max_shift_formula(self, data):
        K = data.draw(st.integers(2, 6))
        shape = data.draw(st.sampled_from([(K,), (data.draw(st.integers(1, 9)), K)]))
        elements = st.one_of(
            st.floats(-50.0, 50.0), st.sampled_from([-700.0, 700.0, -1e308, 1e308])
        )
        a = data.draw(arrays(np.float64, shape, elements=elements))
        q = row_softmax(a)
        with np.errstate(over="ignore"):
            ref = max_shift_softmax(a)
        np.testing.assert_allclose(q, ref, rtol=0, atol=1e-15)
        assert np.all(np.isfinite(q))

    def test_extreme_rows(self):
        # 1e308 - (-1e308) overflows to inf, whose exponential gives q = 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = row_softmax(np.array([[1e308, -1e308], [-1e308, -1e308], [1e308, 1e308]]))
        np.testing.assert_array_equal(q, [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])


class TestPairwiseMRF:
    def test_keeps_the_callers_table_array(self):
        topo = GraphTopology(3, np.array([[0, 1], [1, 2]]))
        pairwise = np.zeros((2, 2, 2))
        m = PairwiseMRF(topo, 2, np.zeros((3, 2)), pairwise)
        assert m.pairwise is pairwise
        flat = PairwiseMRF(topo, 2, np.zeros((3, 2)), np.zeros((2, 4)))
        assert flat.pairwise.shape == (2, 2, 2)

    def test_non_finite_tables_rejected(self):
        topo = GraphTopology(2, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="finite"):
            PairwiseMRF(topo, 2, np.zeros((2, 2)), np.full((1, 2, 2), np.inf))


class TestUnnormalizedKl:
    def test_uniform_single_vertex(self):
        m = single_vertex([0.0, 0.0])
        q = FactorialDistribution(np.array([[0.5, 0.5]]))
        assert unnormalized_kl(q, m) == pytest.approx(-math.log(2), abs=1e-12)

    def test_edgeless_softmax_init_analytic(self, rng):
        m = random_mrf(rng, 5, 3, edge_p=0.0, scale=2.0)
        q = softmax_init(m)
        expected = -sum(
            math.log(np.exp(row).sum()) for row in m.unary
        )
        assert unnormalized_kl(q, m) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("n, edge_p", [(1, 0.0), (6, 0.0), (6, 0.5), (7, 1.0)])
    def test_equals_an_explicit_per_edge_sum(self, rng, K, n, edge_p):
        m = random_mrf(rng, n, K, edge_p=edge_p)
        q = random_q(rng, n, K).probs
        expected = sum(
            q[s, k] * (math.log(q[s, k]) - m.unary[s, k]) for s in range(n) for k in range(K)
        )
        for (s, t), table in zip(m.topology.edges, m.pairwise):
            expected -= sum(q[s, k] * table[k, l] * q[t, l] for k in range(K) for l in range(K))
        got = unnormalized_kl_arrays(q, m.unary, m.pairwise, m.topology.edges)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_distribution_invariants_enforced(self):
        with pytest.raises(ValueError):
            FactorialDistribution(np.array([[0.7, 0.7]]))
        with pytest.raises(ValueError):
            FactorialDistribution(np.array([[1.2, -0.2]]))


@pytest.mark.parametrize("shape", [(0, 2), (0, 0)])
def test_a_distribution_without_rows_is_rejected_by_its_shape(shape):
    with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\) has no rows"):
        FactorialDistribution(np.zeros(shape))
