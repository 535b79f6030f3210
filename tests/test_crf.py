import gc

import numpy as np
import pytest

from mfnet import crf, meanfield
from mfnet.crf import (
    N_FEATURES,
    WINDOW,
    CrfParams,
    build_mrf,
    cl_gradient,
    feature_matrix,
    grid_graph,
    theta0,
    theta_gradient,
    train_baseline,
)
from mfnet.mrf import FactorialDistribution, energy, softmax_init
from mfnet.oracle import brute_force_log_partition, brute_force_marginals


def extract_features(y, s):
    """Feature vector for one pixel (linear index, raster order), one window cell at a time."""
    y = np.asarray(y, dtype=np.float64)
    h, w = y.shape
    i, j = divmod(int(s), w)
    r = WINDOW // 2
    out = np.zeros(N_FEATURES)
    out[-1] = 1.0
    for di in range(-r, r + 1):
        for dj in range(-r, r + 1):
            ii, jj = i + di, j + dj
            if 0 <= ii < h and 0 <= jj < w:
                out[(di + r) * WINDOW + (dj + r)] = y[ii, jj]
    return out


GRID_SHAPES = [(1, 1), (1, 5), (5, 1), (3, 4), (50, 100)]


def edge_directions(h, w):
    """Whether each edge of the h x w grid is horizontal, from its endpoints
    (s, t): t - s == 1 within one row, or else t - s == w (vertical)."""
    s, t = grid_graph(h, w).edges.T
    horizontal = (t - s == 1) & (s // w == t // w)
    assert np.all(horizontal | (t - s == w))
    assert len(set(zip(s.tolist(), t.tolist()))) == s.size  # no edge twice
    return horizontal


class TestFeatures:
    def test_interior_pixel_all_zero_image(self):
        y = np.zeros((9, 9))
        f = extract_features(y, 4 * 9 + 4)
        assert f.shape == (26,)
        np.testing.assert_array_equal(f[:25], 0.0)
        assert f[25] == 1.0

    def test_corner_pixel_all_ones_image(self):
        y = np.ones((8, 8))
        f = extract_features(y, 0)
        assert f[:25].sum() == 9  # the 3x3 in-bounds part of the window
        assert f[25] == 1.0

    def test_matches_vectorized_form(self):
        rng = np.random.default_rng(3)
        y = rng.random((6, 7))
        phi = feature_matrix(y)
        for s in (0, 5, 17, 41):
            np.testing.assert_allclose(phi[s], extract_features(y, s), atol=1e-15)

    def test_cache_holds_live_images_only(self):
        y = np.random.default_rng(5).random((6, 7))
        phi = feature_matrix(y)
        assert feature_matrix(y) is phi
        key = id(y)
        assert key in crf._feature_cache
        del y
        gc.collect()
        assert key not in crf._feature_cache

    def test_translation_consistency(self):
        rng = np.random.default_rng(4)
        y = rng.random((10, 10))
        shifted = np.roll(y, (1, 1), axis=(0, 1))
        # interior pixel (5,5) in y corresponds to (6,6) in the shifted image
        np.testing.assert_allclose(
            extract_features(y, 5 * 10 + 5),
            extract_features(shifted, 6 * 10 + 6),
            atol=1e-15,
        )


class TestBuildMrf:
    def test_zero_params_give_uniform_init(self):
        y = np.random.default_rng(0).random((5, 5))
        m = build_mrf(y, CrfParams(w=np.zeros(26), p_h=0.0, p_v=0.0))
        assert np.all(m.unary == 0) and np.all(m.pairwise == 0)
        np.testing.assert_allclose(softmax_init(m).probs, 0.5, atol=1e-15)

    def test_theta0_on_black_image(self):
        m = build_mrf(np.zeros((6, 6)), theta0())
        np.testing.assert_allclose(m.unary[:, 0], 0.0)
        np.testing.assert_allclose(m.unary[:, 1], -12.5)

    def test_grid_edge_counts(self):
        for h, w in GRID_SHAPES:
            horizontal = edge_directions(h, w)
            n_h = h * (w - 1)
            assert horizontal.size == n_h + (h - 1) * w
            assert horizontal[:n_h].all() and not horizontal[n_h:].any()
        assert grid_graph(50, 100).n_edges == 9850

    def test_potts_tables(self):
        th = CrfParams(w=np.zeros(26), p_h=2.0, p_v=-3.0)
        for h, w in GRID_SHAPES:
            pairwise = build_mrf(np.zeros((h, w)), th).pairwise
            penalty = np.where(edge_directions(h, w), 2.0, -3.0)
            np.testing.assert_array_equal(pairwise, penalty[:, None, None] * np.eye(2))

    def test_penalty_gradient_sums_each_direction(self):
        rng = np.random.default_rng(2)
        for h, w in GRID_SHAPES:
            horizontal = edge_directions(h, w)
            d_penalty = rng.normal(size=horizontal.size)
            g = theta_gradient(np.zeros((h, w)), np.zeros(h * w), d_penalty)
            assert g.shape == (28,)
            np.testing.assert_allclose(g[26], d_penalty[horizontal].sum(), rtol=1e-12, atol=0)
            np.testing.assert_allclose(g[27], d_penalty[~horizontal].sum(), rtol=1e-12, atol=0)

    def test_tables_are_read_only_and_shared_per_penalty_pair(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((4, 5)), rng.random((4, 5))
        th = CrfParams(w=rng.normal(size=26), p_h=0.5, p_v=-1.5)
        pa, pb = build_mrf(a, th).pairwise, build_mrf(b, CrfParams.from_vector(th.to_vector())).pairwise
        assert pa is pb and not pa.flags.writeable
        with pytest.raises(ValueError):
            pa[0, 0, 0] = 1.0
        for other in (CrfParams(w=th.w, p_h=0.5, p_v=1.5), CrfParams(w=th.w, p_h=-1.5, p_v=0.5)):
            p = build_mrf(a, other).pairwise
            assert p is not pa and not np.array_equal(p, pa)
        assert build_mrf(rng.random((5, 4)), th).pairwise.shape == (31, 2, 2)


class TestTheta0:
    def test_values(self):
        th = theta0()
        np.testing.assert_array_equal(th.w[:25], 1.0)
        assert th.w[25] == -12.5
        assert th.p_h == 1.0 and th.p_v == 1.0
        assert len(th.to_vector()) == 28


class TestClGradient:
    def test_moment_matching_zero_gradient(self):
        rng = np.random.default_rng(5)
        y = rng.random((4, 4))
        x_hat = rng.integers(0, 2, 16)
        q = FactorialDistribution(np.stack([1.0 - x_hat, x_hat * 1.0], axis=1))
        g = cl_gradient(y, x_hat, q)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_no_edges_no_potts_gradient(self):
        y = np.array([[0.3]])
        q = FactorialDistribution(np.array([[0.4, 0.6]]))
        g = cl_gradient(y, np.array([1]), q)
        assert g[26] == 0.0 and g[27] == 0.0
        np.testing.assert_allclose(g[:26], extract_features(y, 0) * (1 - 0.6), atol=1e-12)

    def test_unary_gradient_matches_finite_differences(self):
        # 1x2 image, exact marginals: the w-gradient of E(x_hat) - log Z
        rng = np.random.default_rng(6)
        y = rng.random((1, 2))
        x_hat = np.array([1, 0])
        theta = CrfParams(w=rng.normal(0, 0.5, 26), p_h=0.7, p_v=-0.2)

        def ll(vec):
            th = CrfParams.from_vector(vec)
            m = build_mrf(y, th)
            return energy(m, x_hat) - brute_force_log_partition(m)

        m = build_mrf(y, theta)
        unary_m, _ = brute_force_marginals(m)
        g = cl_gradient(y, x_hat, FactorialDistribution(unary_m))
        vec = theta.to_vector()
        h = 1e-5
        for i in range(26):
            plus, minus = vec.copy(), vec.copy()
            plus[i] += h
            minus[i] -= h
            fd = (ll(plus) - ll(minus)) / (2 * h)
            assert abs(g[i] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_row_swap_symmetry(self):
        rng = np.random.default_rng(7)
        y = rng.random((4, 5))
        x_hat = rng.integers(0, 2, (4, 5))
        q_raw = rng.random((20, 2)) + 0.1
        q = FactorialDistribution(q_raw / q_raw.sum(1, keepdims=True))
        g = cl_gradient(y, x_hat.ravel(), q)
        # reverse the row order of everything consistently
        y2 = y[::-1].copy()
        x2 = x_hat[::-1].copy()
        q2 = FactorialDistribution(q.probs.reshape(4, 5, 2)[::-1].reshape(20, 2).copy())
        g2 = cl_gradient(y2, x2.ravel(), q2)
        np.testing.assert_allclose(g[26:], g2[26:], atol=1e-10)


def test_mean_field_on_images_of_two_sizes_gives_each_its_own_bits(rng):
    """A chunk may span a size change: each size's images run together,
    each on its own size's default schedule."""
    images = [rng.random((4, 5)) for _ in range(5)] + [rng.random((3, 6))]
    pairs = [(y, np.zeros(y.size, dtype=np.int64)) for y in images]
    out = list(crf.mf_marginals_each(iter(pairs), theta0(), 3))
    assert len(out) == len(images) and all(o[0] is y for o, y in zip(out, images))
    for y, _, model, q in out:
        assert model.n_vertices == y.size
        assert q.probs.tobytes() == crf.mf_marginals(y, theta0(), 3).probs.tobytes()


class TestTrainBaseline:
    def _tiny_set(self, n=2):
        from mfnet import data as D

        rng = np.random.default_rng(8)
        out = []
        for _ in range(n):
            label = (rng.random((8, 10)) < 0.2).astype(int)
            noisy = np.clip(label + rng.normal(0, 0.3, label.shape), 0, 1)
            out.append((noisy, label))
        return out

    def test_zero_steps_returns_init(self):
        th = train_baseline(self._tiny_set(), theta0(), steps=0)
        np.testing.assert_array_equal(th.to_vector(), theta0().to_vector())

    def test_first_step_is_summed_gradient(self):
        pairs = self._tiny_set()
        sched = meanfield.checkerboard_schedule(8, 10)
        total = np.zeros(28)
        for y, x in pairs:
            q = crf.mf_marginals(y, theta0(), 30, sched)
            total += cl_gradient(y, x.ravel(), q)
        lr = 1e-5
        th = train_baseline(pairs, theta0(), steps=1, learning_rate=lr, schedule=sched)
        np.testing.assert_allclose(
            th.to_vector(), theta0().to_vector() + lr * total, atol=1e-12
        )

    def test_log_has_steps_plus_one_rows(self):
        log = []
        train_baseline(self._tiny_set(), theta0(), steps=3, log=log)
        assert [r["step"] for r in log] == [0, 1, 2, 3]
