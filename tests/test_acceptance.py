"""End-to-end acceptance suite: one test per criterion, one PASS line each.

The trend criteria (5-7) retrain on a freshly generated dataset and take
several minutes each; everything else is fast.
"""

import time

import numpy as np
import pytest

from conftest import random_grid_mrf, random_mrf, random_q
from mfnet import crf, data, meanfield, mfn
from mfnet.crf import theta0, train_baseline
from mfnet.engine import checkerboard_schedule, raster_schedule, sequential_schedule
from mfnet.gradcheck import run_grad_check
from mfnet.mfn import MfnParams, forward_mrfs, hinge_loss_grad
from mfnet.mrf import softmax_init, unnormalized_kl_arrays
from mfnet.oracle import brute_force_marginals, exact_kl


def report(name, ok, detail=""):
    # shown via the -rP summary (pyproject addopts) even when the test passes
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


SCHED = checkerboard_schedule(50, 100)


@pytest.fixture(scope="module")
def dataset():
    train, test = data.generate_dataset(n=50, seed=0)
    return [im.pair for im in train], [im.pair for im in test]


@pytest.fixture(scope="module")
def theta_mf(dataset):
    train, _ = dataset
    return train_baseline(
        train, theta0(), steps=40, learning_rate=1e-5, mf_iters=30, schedule=SCHED
    )


def mf_test_accuracy(theta, test, n_iters):
    return float(
        np.mean(
            [
                np.mean(crf.predict_mf(y, theta, n_iters, SCHED).ravel() == x.ravel())
                for y, x in test
            ]
        )
    )


def test_criterion_1_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    for i in range(50):
        if i % 2 == 0:
            n = int(rng.integers(2, 10))
            m = random_mrf(rng, n, int(rng.integers(2, 5)), edge_p=0.5)
        else:
            h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            m = random_grid_mrf(rng, h, w, K=int(rng.integers(2, 4)))
            n = h * w
        if rng.random() < 0.5:
            sched = sequential_schedule(tuple(rng.permutation(n).tolist()))
        else:
            half = n // 2 or 1
            perm = rng.permutation(n).tolist()
            sched = meanfield.Schedule((tuple(perm[:half]), tuple(perm[half:])))
            if not sched.blocks[1]:
                sched = sequential_schedule(tuple(perm))
        n_iters = int(rng.integers(1, 6))
        trace = forward_mrfs([m] * n_iters, sched)
        q_ref, _ = meanfield.run(m, softmax_init(m), n_iters, sched)
        assert np.array_equal(trace.q_final, q_ref.probs)
        checked += 1
    elapsed = time.time() - t0
    report(
        "criterion 1 (tied forward == mean field, exact)",
        checked == 50 and elapsed < 10,
        f"{checked} configs, {elapsed:.1f}s",
    )


def test_criterion_2_gradients():
    t0 = time.time()
    rep = run_grad_check(size=6, max_layers=3, seed=0)
    elapsed = time.time() - t0
    report(
        "criterion 2 (backward vs finite differences)",
        rep["max_rel_err"] < 1e-4 and elapsed < 120,
        f"max rel err {rep['max_rel_err']:.2e} over {len(rep['configs'])} configs, {elapsed:.0f}s",
    )


def test_criterion_3_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst = -np.inf
    for _ in range(100):
        m = random_grid_mrf(rng, 4, 4, K=2, scale=2.0)
        q = softmax_init(m)
        edges = m.topology.edges
        kl = unnormalized_kl_arrays(q.probs, m.unary, m.pairwise, edges)
        for _sweep in range(3):
            for s in range(16):
                q.probs[s] = meanfield.site_update(m, q, s)
                kl_new = unnormalized_kl_arrays(q.probs, m.unary, m.pairwise, edges)
                worst = max(worst, kl_new - kl)
                kl = kl_new
    elapsed = time.time() - t0
    report(
        "criterion 3 (sequential updates never increase KL)",
        worst <= 1e-10 and elapsed < 10,
        f"worst increase {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_oracle():
    t0 = time.time()
    rng = np.random.default_rng(104)
    # exact KL nonnegative for random q
    for _ in range(10):
        m = random_grid_mrf(rng, 2, 3, K=2)
        for _ in range(10):
            assert exact_kl(random_q(rng, 6, 2), m) >= -1e-9
    # marginal consistency
    m = random_grid_mrf(rng, 3, 3, K=2)
    unary_m, pair_m = brute_force_marginals(m)
    assert np.max(np.abs(unary_m.sum(axis=1) - 1.0)) < 1e-10
    for e, (lo, hi) in enumerate(m.topology.edges):
        assert np.max(np.abs(pair_m[e].sum(axis=1) - unary_m[lo])) < 1e-10
        assert np.max(np.abs(pair_m[e].sum(axis=0) - unary_m[hi])) < 1e-10
    # edgeless: softmax init equals the exact marginals
    m = random_mrf(rng, 6, 3, edge_p=0.0, scale=2.0)
    unary_m, _ = brute_force_marginals(m)
    assert np.max(np.abs(unary_m - softmax_init(m).probs)) < 1e-12
    elapsed = time.time() - t0
    report("criterion 4 (brute-force oracle suite)", elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_5_inference_trend(dataset, theta_mf):
    t0 = time.time()
    train, test = dataset
    mf_kl = {
        M: mfn.mean_kl_to_targets(test, MfnParams.tied_from(theta_mf), M, theta_mf, SCHED)
        for M in (1, 3, 10, 30)
    }
    monotone = all(mf_kl[a] >= mf_kl[b] - 1e-9 for a, b in ((1, 3), (3, 10), (10, 30)))
    mfn_kl = {}
    for M in (1, 3):
        params = mfn.train_inference(
            train, theta_mf, M, SCHED, learning_rate=1e-3, momentum=0.9, steps=50
        )
        mfn_kl[M] = mfn.mean_kl_to_targets(test, params, M, theta_mf, SCHED)
    elapsed = time.time() - t0
    ok = (
        monotone
        and mfn_kl[1] < mf_kl[1]
        and mfn_kl[3] < mf_kl[3]
        and elapsed < 1800
    )
    report(
        "criterion 5 (KL-trained networks beat truncated mean field)",
        ok,
        f"MF {dict((k, round(v, 2)) for k, v in mf_kl.items())}, "
        f"MFN-1 {mfn_kl[1]:.2f}, MFN-3 {mfn_kl[3]:.2f}, {elapsed:.0f}s",
    )


def test_criterion_6_discriminative_trend(dataset, theta_mf):
    t0 = time.time()
    train, test = dataset
    acc_mf3 = mf_test_accuracy(theta_mf, test, 3)
    result = mfn.train_discriminative(train, theta_mf, 3, SCHED)
    acc_tied = mfn.mean_accuracy(test, result.phase1_params, 3, SCHED)
    acc_untied = mfn.mean_accuracy(test, result.params, 3, SCHED)
    elapsed = time.time() - t0
    ok = (
        acc_tied >= acc_mf3 + 0.001
        and acc_untied >= acc_tied + 0.001
        and elapsed < 2700
    )
    report(
        "criterion 6 (hinge training improves accuracy)",
        ok,
        f"MF-3 {acc_mf3:.4f} -> tied {acc_tied:.4f} -> untied {acc_untied:.4f}, {elapsed:.0f}s",
    )


def test_criterion_7_baseline_trend(dataset, theta_mf):
    t0 = time.time()
    _, test = dataset
    acc0 = mf_test_accuracy(theta0(), test, 30)
    acc_mf = mf_test_accuracy(theta_mf, test, 30)
    elapsed = time.time() - t0
    report(
        "criterion 7 (likelihood training improves the baseline)",
        acc_mf >= acc0 + 0.005 and elapsed < 1800,
        f"{acc0:.4f} -> {acc_mf:.4f}, {elapsed:.0f}s",
    )


def test_criterion_8_hinge_structure():
    t0 = time.time()
    rng = np.random.default_rng(108)
    a = rng.normal(0, 3, (10**4, 3))
    x_hat = rng.integers(0, 3, 10**4)
    loss, g = hinge_loss_grad(a, x_hat)
    elapsed = time.time() - t0
    ok = (
        loss >= 0.0
        and np.all(np.isin(g, [-1.0, 0.0, 1.0]))
        and np.all(g.sum(axis=1) == 0.0)
        and elapsed < 1
    )
    report("criterion 8 (hinge loss structure)", ok, f"{elapsed:.2f}s")
