import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_mrf, random_q, replay
from mfnet import meanfield, mfn
from mfnet.crf import CrfParams, build_mrf, theta0
from mfnet.engine import checkerboard_schedule, raster_schedule, sequential_schedule
from mfnet.gradcheck import check_config
from mfnet.mfn import (
    MfnParams,
    backward,
    forward,
    forward_mrfs,
    hinge_loss_grad,
    kl_grad_q,
    predict,
    sgd_momentum,
)
from mfnet.mrf import GraphTopology, PairwiseMRF, softmax_init, unnormalized_kl_arrays


def random_theta(rng, s=0.3):
    return CrfParams(w=rng.normal(0, s, 26), p_h=rng.normal(0, s), p_v=rng.normal(0, s))


def hinge_loss(a, x_hat, c=1.0):
    return hinge_loss_grad(a, x_hat, c)[0]


def hinge_grad_a(a, x_hat, c=1.0):
    return hinge_loss_grad(a, x_hat, c)[1]


class TestForward:
    def test_tied_equals_mean_field_exactly(self, rng):
        y = rng.random((5, 7))
        th = random_theta(rng)
        sched = checkerboard_schedule(5, 7)
        m = build_mrf(y, th)
        for n_layers in (1, 3, 5):
            trace = forward(y, MfnParams.tied_from(th), n_layers, sched)
            q_ref, _ = meanfield.run(m, softmax_init(m), n_layers, sched)
            np.testing.assert_array_equal(trace.q_final, q_ref.probs)

    def test_single_layer_edgeless_is_unary_softmax(self, rng):
        y = rng.random((4, 4))
        th = CrfParams(w=rng.normal(0, 1, 26), p_h=0.0, p_v=0.0)
        trace = forward(y, MfnParams.tied_from(th), 1, checkerboard_schedule(4, 4))
        m = build_mrf(y, th)
        np.testing.assert_allclose(trace.q_final, softmax_init(m).probs, atol=1e-12)

    def test_untied_layers_change_the_output(self, rng):
        y = rng.random((1, 1))
        w_pos = np.zeros(26)
        w_pos[25] = 4.0
        w_neg = np.zeros(26)
        w_neg[25] = -4.0
        up = CrfParams(w=w_pos, p_h=0.0, p_v=0.0)
        down = CrfParams(w=w_neg, p_h=0.0, p_v=0.0)
        sched = checkerboard_schedule(1, 1)
        untied = forward(y, MfnParams(tied=False, layers=[up, down]), 2, sched)
        tied = forward(y, MfnParams.tied_from(up), 2, sched)
        assert np.max(np.abs(untied.q_final - tied.q_final)) > 0.5

    def test_deep_untied_network_reuses_every_layers_tables(self, rng):
        layers = [CrfParams(w=rng.normal(0, 0.3, 26), p_h=0.1 * m, p_v=-0.1 * m)
                  for m in range(6)]
        params, sched = MfnParams(tied=False, layers=layers), checkerboard_schedule(4, 5)
        first, second = (forward(rng.random((4, 5)), params, 6, sched) for _ in range(2))
        assert all(b[1] is a[1] for a, b in zip(first.inputs, second.inputs))

    def test_trace_deterministic_and_replayable(self, rng):
        y = rng.random((4, 6))
        params = MfnParams(tied=False, layers=[random_theta(rng) for _ in range(3)])
        sched = raster_schedule(24)
        t1 = forward(y, params, 3, sched)
        t2 = forward(y, params, 3, sched)
        np.testing.assert_array_equal(t1.q_final, t2.q_final)
        assert all(
            np.array_equal(a.q_out_km, b.q_out_km) for a, b in zip(t1.tape, t2.tape)
        )
        np.testing.assert_array_equal(replay(t1), t1.q_final)

    def test_generic_graph_tied_equivalence(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            K = int(rng.integers(2, 5))
            m = random_mrf(rng, n, K, edge_p=0.6)
            order = tuple(rng.permutation(n).tolist())
            n_layers = int(rng.integers(1, 5))
            trace = forward_mrfs([m] * n_layers, sequential_schedule(order))
            q_ref, _ = meanfield.run(m, softmax_init(m), n_layers, sequential_schedule(order))
            np.testing.assert_array_equal(trace.q_final, q_ref.probs)


class TestKlGrad:
    def test_uniform_single_vertex_value(self):
        topo = GraphTopology(1, np.zeros((0, 2), dtype=np.int64))
        m = PairwiseMRF(topo, 2, np.zeros((1, 2)), np.zeros((0, 2, 2)))
        g = kl_grad_q(np.array([[0.5, 0.5]]), m)
        np.testing.assert_allclose(g, np.log(0.5) + 1.0, atol=1e-12)

    def test_matches_finite_differences_of_unnormalized_kl(self, rng):
        m = random_mrf(rng, 6, 3, edge_p=0.7)
        q = random_q(rng, 6, 3).probs
        g = kl_grad_q(q, m)
        h = 1e-6
        edges = m.topology.edges
        for s in range(6):
            for k in range(3):
                qp, qm = q.copy(), q.copy()
                qp[s, k] += h
                qm[s, k] -= h
                fd = (
                    unnormalized_kl_arrays(qp, m.unary, m.pairwise, edges)
                    - unnormalized_kl_arrays(qm, m.unary, m.pairwise, edges)
                ) / (2 * h)
                assert abs(g[s, k] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestHinge:
    def test_zero_when_margin_met(self):
        assert hinge_loss(np.array([[0.0, 3.0]]), [1], c=1.0) == 0.0

    def test_partial_margin(self):
        assert hinge_loss(np.array([[0.0, 0.2]]), [1], c=1.0) == pytest.approx(0.8)

    def test_exact_margin_boundary(self):
        assert hinge_loss(np.array([[0.0, 1.0]]), [1], c=1.0) == pytest.approx(0.0)

    def test_grad_zero_when_margin_met(self):
        np.testing.assert_array_equal(
            hinge_grad_a(np.array([[0.0, 3.0]]), [1], c=1.0), [[0.0, 0.0]]
        )

    def test_grad_plus_minus_one(self):
        np.testing.assert_array_equal(
            hinge_grad_a(np.array([[0.0, 0.2]]), [1], c=1.0), [[1.0, -1.0]]
        )

    def test_grad_matches_finite_differences_away_from_ties(self, rng):
        a = rng.normal(0, 2, (12, 3))
        x_hat = rng.integers(0, 3, 12)
        g = hinge_grad_a(a, x_hat, c=1.0)
        h = 1e-6
        for s in range(12):
            for k in range(3):
                ap, am = a.copy(), a.copy()
                ap[s, k] += h
                am[s, k] -= h
                fd = (hinge_loss(ap, x_hat) - hinge_loss(am, x_hat)) / (2 * h)
                assert abs(g[s, k] - fd) <= 1e-6 * max(1.0, abs(fd))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_invariant_to_a_per_site_shift(self, data):
        # Multiples of 1/8 keep every sum exact, so the invariance holds bit
        # for bit, ties included.
        eighths = st.integers(-400, 400).map(lambda i: i / 8)
        n, K = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 4))
        a = data.draw(arrays(np.float64, (n, K), elements=eighths))
        shift = data.draw(arrays(np.float64, (n, 1), elements=eighths))
        x_hat = data.draw(arrays(np.int64, n, elements=st.integers(0, K - 1)))
        assert hinge_loss(a + shift, x_hat) == hinge_loss(a, x_hat)
        np.testing.assert_array_equal(hinge_grad_a(a + shift, x_hat), hinge_grad_a(a, x_hat))

    @staticmethod
    def reference(a, x_hat, c):
        """The (n, K) formula: loss-augmented scores, then reductions along the label axis."""
        rows = np.arange(len(a))
        delta = np.full(a.shape, c)
        delta[rows, x_hat] = 0.0
        scores = a + delta
        loss = float(np.sum(scores.max(axis=1) - a[rows, x_hat]))
        g = np.zeros_like(a)
        g[rows, np.argmax(scores, axis=1)] = 1.0
        g[rows, x_hat] -= 1.0
        return loss, g

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_reference_formula(self, data):
        # Quarters and c in {0.25, 0.5, 1, 2} make ties between scores common.
        quarters = st.integers(-40, 40).map(lambda i: i / 4)
        n, K = data.draw(st.integers(1, 8)), data.draw(st.integers(2, 5))
        a = data.draw(arrays(np.float64, (n, K), elements=quarters | st.floats(-1e3, 1e3)))
        x_hat = data.draw(arrays(np.int64, n, elements=st.integers(0, K - 1)))
        c = data.draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 0.3]))
        loss, g = self.reference(a, x_hat, c)
        assert hinge_loss(a, x_hat, c) == loss
        np.testing.assert_array_equal(hinge_grad_a(a, x_hat, c), g)

    @pytest.mark.parametrize("fn", [hinge_loss, hinge_grad_a])
    @pytest.mark.parametrize("label", [-1, 2, 7])
    def test_label_out_of_range_rejected(self, fn, label):
        a = np.array([[0.0, 1.0], [0.5, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=f"label {label} out of range"):
            fn(a, [0, label, 1])

    @pytest.mark.parametrize("fn", [hinge_loss, hinge_grad_a])
    def test_wrong_label_count_rejected(self, fn):
        a = np.zeros((3, 2))
        for labels in ([0, 1], [0, 1, 1, 0]):
            with pytest.raises(ValueError, match=f"{len(labels)} labels given for 3 sites"):
                fn(a, labels)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_non_positive_cost_rejected(self, c):
        with pytest.raises(ValueError, match="mislabeling cost must be positive"):
            hinge_loss_grad(np.zeros((3, 2)), [0, 1, 1], c)

    def test_structure_random(self, rng):
        a = rng.normal(0, 3, (200, 4))
        x_hat = rng.integers(0, 4, 200)
        assert hinge_loss(a, x_hat) >= 0.0
        g = hinge_grad_a(a, x_hat)
        assert np.all(np.isin(g, [-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(g.sum(axis=1), 0.0)
        assert np.all((np.abs(g) > 0).sum(axis=1) <= 2)


class TestBackward:
    def test_fixed_point_self_kl_zero_gradient(self, rng):
        y = rng.random((3, 3))
        th = CrfParams(w=rng.normal(0, 0.5, 26), p_h=0.0, p_v=0.0)
        params = MfnParams.tied_from(th)
        sched = checkerboard_schedule(3, 3)
        trace = forward(y, params, 1, sched)
        target = build_mrf(y, th)
        (g,) = backward(trace, y, params, kl_grad_q(trace.q_final, target))
        np.testing.assert_allclose(g, 0.0, atol=1e-8)

    def test_quick_finite_difference_spot_checks(self, rng):
        y = rng.random((4, 4))
        x_hat = rng.integers(0, 2, 16)
        target = build_mrf(y, random_theta(rng))
        sched = checkerboard_schedule(4, 4)
        params = MfnParams(tied=False, layers=[random_theta(rng) for _ in range(2)])
        for loss_kind in ("kl", "hinge"):
            err = check_config(
                y, params, 2, sched, loss_kind, target=target, x_hat=x_hat
            )
            assert err < 1e-4

    def test_tied_gradient_equals_sum_of_untied(self, rng):
        y = rng.random((4, 5))
        th = random_theta(rng)
        sched = raster_schedule(20)
        target = build_mrf(y, random_theta(rng))
        tied = MfnParams.tied_from(th)
        untied = tied.untied_copy(3)
        t1 = forward(y, tied, 3, sched)
        t2 = forward(y, untied, 3, sched)
        (g_tied,) = backward(t1, y, tied, kl_grad_q(t1.q_final, target))
        g_untied = backward(t2, y, untied, kl_grad_q(t2.q_final, target))
        np.testing.assert_allclose(g_tied, np.sum(g_untied, axis=0), atol=1e-10)

    def test_trace_params_mismatch_rejected(self, rng):
        y = rng.random((3, 3))
        params = MfnParams(tied=False, layers=[random_theta(rng) for _ in range(2)])
        trace = forward(y, params, 2, checkerboard_schedule(3, 3))
        wrong = MfnParams(tied=False, layers=[random_theta(rng) for _ in range(3)])
        with pytest.raises(ValueError):
            backward(trace, y, wrong, ga_final=np.zeros((9, 2)))


class TestPredict:
    def test_argmax_and_ties(self, rng):
        y = rng.random((2, 2))
        th = CrfParams(w=np.zeros(26), p_h=0.0, p_v=0.0)
        trace = forward(y, MfnParams.tied_from(th), 1, checkerboard_schedule(2, 2))
        np.testing.assert_array_equal(predict(trace), 0)  # uniform q: ties go to 0


class TestSgdMomentum:
    def test_plain_gradient_step(self):
        p, v = sgd_momentum(np.array([1.0, 2.0]), np.array([0.5, -1.0]), 1.0, 0.0)
        np.testing.assert_allclose(p, [0.5, 3.0])

    def test_velocity_decays_at_zero_gradient(self):
        p = np.zeros(2)
        v = np.array([1.0, -1.0])
        for _ in range(200):
            p, v = sgd_momentum(p, np.zeros(2), 0.1, 0.5, v)
        np.testing.assert_allclose(v, 0.0, atol=1e-12)

    def test_two_step_displacement_with_momentum(self):
        g = np.array([2.0])
        p0 = np.array([0.0])
        p1, v = sgd_momentum(p0, g, 1.0, 0.5)
        p2, v = sgd_momentum(p1, g, 1.0, 0.5, v)
        np.testing.assert_allclose(p2 - p0, -2.5 * g)

    def test_small_step_does_not_increase_loss(self, rng):
        from mfnet.mrf import unnormalized_kl_arrays

        for _ in range(10):
            y = rng.random((6, 6))
            th = random_theta(rng)
            target = build_mrf(y, random_theta(rng))
            params = MfnParams.tied_from(th)
            sched = checkerboard_schedule(6, 6)

            def loss_of(p):
                t = forward(y, p, 2, sched)
                return unnormalized_kl_arrays(
                    t.q_final, target.unary, target.pairwise, target.topology.edges
                )

            trace = forward(y, params, 2, sched)
            (g,) = backward(trace, y, params, kl_grad_q(trace.q_final, target))
            vec, _ = sgd_momentum(params.to_vector(), g, 1e-6, 0.0)
            new = MfnParams.from_vector(vec, tied=True, n_layers=1)
            assert loss_of(new) <= loss_of(params) + 1e-12


class TestDescend:
    @staticmethod
    def fake(losses):
        """Objective reporting the given losses in turn, with a unit gradient."""
        it = iter(losses)

        def objective(vec):
            loss = next(it)
            return loss, np.ones_like(vec), {"loss": loss}

        return objective

    def test_zero_initial_loss_is_no_divergence(self):
        log = []
        mfn.descend(self.fake([0.0, 0.5]), np.zeros(2), 2, 0.1, 0.0, log)
        assert [r["loss"] for r in log] == [0.0, 0.5]

    def test_tenfold_growth_from_nonzero_start_raises(self):
        with pytest.raises(FloatingPointError):
            mfn.descend(self.fake([1.0, 10.5]), np.zeros(2), 2, 0.1, 0.0)

    def test_non_finite_loss_raises(self):
        with pytest.raises(FloatingPointError):
            mfn.descend(self.fake([np.nan]), np.zeros(2), 1, 0.1, 0.0)

    def test_non_finite_update_raises(self):
        with pytest.raises(FloatingPointError, match="non-finite at step 0"):
            mfn.descend(self.fake([1.0]), np.zeros(2), 1, np.inf, 0.0)

    def test_nan_momentum_in_training_raises(self, rng):
        images = [(rng.random((4, 5)), rng.integers(0, 2, (4, 5)))]
        with pytest.raises(FloatingPointError):
            mfn.train_inference(images, theta0(), 2, momentum=np.nan, steps=1)

    def test_infinite_rate_in_hinge_training_raises(self, rng):
        images = [(rng.random((4, 5)), rng.integers(0, 2, (4, 5)))]
        protocol = mfn.DiscProtocol(phase1_steps=1, phase1_lr=np.inf, phase2_steps=0)
        with pytest.raises(FloatingPointError, match="tied: "):
            mfn.train_discriminative(images, theta0(), 2, protocol=protocol)

    def test_log_rows_and_final_evaluation(self):
        log = []
        vec = mfn.descend(self.fake([3.0, 2.0, 1.0]), np.zeros(2), 2, 0.5, 0.0, log,
                          phase="tied", final_eval=True)
        assert log == [{"phase": "tied", "step": s, "loss": 3.0 - s} for s in range(3)]
        np.testing.assert_array_equal(vec, [-1.0, -1.0])


class TestParamsSerialization:
    def test_json_round_trip(self, rng):
        params = MfnParams(tied=False, layers=[random_theta(rng) for _ in range(3)])
        again = MfnParams.from_json_dict(params.to_json_dict())
        np.testing.assert_array_equal(params.to_vector(), again.to_vector())
        assert again.tied is False

    def test_tied_holds_single_layer(self):
        with pytest.raises(ValueError):
            MfnParams(tied=True, layers=[theta0(), theta0()])


class TestTrainers:
    def _tiny_set(self, rng, n=3, shape=(8, 10)):
        out = []
        for _ in range(n):
            label = (rng.random(shape) < 0.25).astype(int)
            noisy = np.clip(label + rng.normal(0, 0.35, shape), 0, 1)
            out.append((noisy, label))
        return out

    def test_train_inference_zero_steps_is_tied_equivalent(self, rng):
        pairs = self._tiny_set(rng)
        th = theta0()
        params = mfn.train_inference(pairs, th, 2, steps=0)
        assert not params.tied and len(params.layers) == 2
        kl_mfn = mfn.mean_kl_to_targets(pairs, params, 2, th)
        kl_mf = mfn.mean_kl_to_targets(pairs, MfnParams.tied_from(th), 2, th)
        assert kl_mfn == pytest.approx(kl_mf, abs=1e-12)

    def test_train_inference_reduces_loss(self, rng):
        pairs = self._tiny_set(rng)
        th = theta0()
        log = []
        mfn.train_inference(
            pairs, th, 1, learning_rate=1e-4, momentum=0.5, steps=10, log=log
        )
        assert log[-1]["loss"] < log[0]["loss"]

    def test_train_discriminative_phases(self, rng):
        pairs = self._tiny_set(rng)
        protocol = mfn.DiscProtocol(phase1_steps=2, phase2_steps=3)
        result = mfn.train_discriminative(pairs, theta0(), 2, protocol=protocol)
        assert result.phase1_params.tied
        assert not result.params.tied and len(result.params.layers) == 2
        phases = [r["phase"] for r in result.log]
        assert phases == ["tied"] * 2 + ["untied"] * 3
        assert all(len(r["grad_norms"]) in (1, 2) for r in result.log)
