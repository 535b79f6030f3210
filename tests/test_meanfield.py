import numpy as np
import pytest

from conftest import random_grid_mrf, random_mrf, random_q
from mfnet import meanfield
from mfnet.engine import (
    Schedule,
    checkerboard_schedule,
    compile_schedule,
    raster_schedule,
    sequential_schedule,
    validate_schedule,
)
from mfnet.mrf import (
    FactorialDistribution,
    GraphTopology,
    PairwiseMRF,
    softmax_init,
    unnormalized_kl,
)


def chain_mrf(n, unary, potts):
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    topo = GraphTopology(n, edges)
    return PairwiseMRF(
        topo, 2, np.asarray(unary, dtype=float), potts * np.eye(2)[None].repeat(n - 1, 0)
    )


class TestSchedules:
    def test_checkerboard_blocks_split_all_grid_edges(self):
        sched = checkerboard_schedule(3, 4)
        from mfnet.crf import grid_graph

        topo = grid_graph(3, 4)
        validate_schedule(topo, sched)
        black = set(sched.blocks[0])
        for s, t in topo.edges:
            assert (s in black) != (t in black)

    def test_schedule_must_cover_all_vertices(self):
        topo = GraphTopology(3, np.array([[0, 1]]))
        with pytest.raises(ValueError):
            compile_schedule(topo, sequential_schedule((0, 1)))
        with pytest.raises(ValueError):
            compile_schedule(topo, Schedule(((0, 1), (1, 2))))


class TestSiteUpdate:
    def test_isolated_vertex_softmax(self, rng):
        topo = GraphTopology(1, np.zeros((0, 2), dtype=np.int64))
        m = PairwiseMRF(topo, 2, np.array([[0.0, 1.0]]), np.zeros((0, 2, 2)))
        q = meanfield.site_update(m, random_q(rng, 1, 2), 0)
        np.testing.assert_allclose(q, [0.26894142, 0.73105858], atol=1e-8)

    def test_two_vertex_chain_hand_eval(self):
        m = chain_mrf(2, [[0, 1], [0, 0]], 1.0)
        q = FactorialDistribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = meanfield.site_update(m, q, 0)
        # activations (0.5, 1.5): same softmax as (0, 1)
        np.testing.assert_allclose(out, [0.26894142, 0.73105858], atol=1e-8)

    def test_zero_potentials_uniform(self, rng):
        m = random_mrf(rng, 4, 3, edge_p=1.0, scale=0.0)
        out = meanfield.site_update(m, random_q(rng, 4, 3), 2)
        np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-12)


class TestSweep:
    def test_edgeless_any_schedule_gives_softmax_init(self, rng):
        m = random_mrf(rng, 5, 2, edge_p=0.0, scale=2.0)
        expected = softmax_init(m).probs
        for sched in (sequential_schedule((3, 1, 4, 0, 2)), Schedule(((0, 2, 4), (1, 3)))):
            out = meanfield.sweep(m, random_q(rng, 5, 2), sched)
            np.testing.assert_allclose(out.probs, expected, atol=1e-12)

    def test_sequential_sees_fresh_neighbor_values(self):
        # 4-chain: vertex 1's update must read vertex 0's new value
        m = chain_mrf(4, [[0, 3], [0, 0], [0, 0], [0, 0]], 1.0)
        q = FactorialDistribution(np.full((4, 2), 0.5))
        seq = meanfield.sweep(m, q, sequential_schedule((0, 1, 2, 3)))
        # reference: vertex 1 with the *new* q0
        q0_new = meanfield.site_update(m, q, 0)
        ref = FactorialDistribution(np.vstack([q0_new, q.probs[1:]]))
        np.testing.assert_allclose(
            seq.probs[1], meanfield.site_update(m, ref, 1), atol=1e-12
        )
        # and it must differ from the value computed with the old q0
        stale = meanfield.site_update(m, q, 1)
        assert np.max(np.abs(seq.probs[1] - stale)) > 1e-3

    def test_block_parallel_reads_pre_sweep_values(self):
        m = chain_mrf(4, [[0, 3], [0, 0], [0, 0], [0, 0]], 1.0)
        q = FactorialDistribution(np.full((4, 2), 0.5))
        blocked = meanfield.sweep(m, q, Schedule(((0, 2), (1, 3))))
        # vertices 0 and 2 both read the original q
        np.testing.assert_allclose(blocked.probs[0], meanfield.site_update(m, q, 0), atol=1e-12)
        np.testing.assert_allclose(blocked.probs[2], meanfield.site_update(m, q, 2), atol=1e-12)

    def test_normalized_after_sweep(self, rng):
        m = random_grid_mrf(rng, 4, 4)
        out = meanfield.sweep(m, random_q(rng, 16, 2), checkerboard_schedule(4, 4))
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)


class TestRun:
    def test_zero_iterations_identity(self, rng):
        m = random_grid_mrf(rng, 3, 3)
        q0 = random_q(rng, 9, 2)
        q, trace = meanfield.run(m, q0, 0, raster_schedule(9), track_kl=True)
        assert q is q0
        assert trace == []

    def test_edgeless_fixed_point_after_one_sweep(self, rng):
        m = random_mrf(rng, 5, 2, edge_p=0.0, scale=2.0)
        q0 = random_q(rng, 5, 2)
        sched = raster_schedule(5)
        q1, _ = meanfield.run(m, q0, 1, sched)
        q5, _ = meanfield.run(m, q0, 5, sched)
        np.testing.assert_array_equal(q1.probs, q5.probs)

    def test_kl_trace_non_increasing_sequential(self, rng):
        m = random_grid_mrf(rng, 4, 4)
        _, trace = meanfield.run(
            m, softmax_init(m), 50, raster_schedule(16), track_kl=True
        )
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-10)

    def test_fixed_point_stable_and_schedule_independent(self, rng):
        m = random_grid_mrf(rng, 3, 3, scale=1.0)
        q, _ = meanfield.run(m, softmax_init(m), 400, raster_schedule(9))
        assert meanfield.max_site_change(m, q, raster_schedule(9)) < 1e-9
        # a sequential fixed point is also a fixed point of any block schedule
        cb = checkerboard_schedule(3, 3)
        after = meanfield.sweep(m, q, cb)
        np.testing.assert_allclose(after.probs, q.probs, atol=1e-9)
