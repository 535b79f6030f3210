"""Binary grid CRF: linear unary model over 5x5 windows, Potts pairwise terms."""
from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import meanfield
from .engine import Schedule, checkerboard_schedule
from .mrf import FactorialDistribution, GraphTopology, PairwiseMRF, softmax_init

WINDOW = 5
N_FEATURES = WINDOW * WINDOW + 1  # 5x5 window plus constant 1


@dataclass
class CrfParams:
    """28 scalars: 26 unary window weights, one Potts penalty per edge direction."""

    w: np.ndarray  # (26,)
    p_h: float
    p_v: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64).reshape(-1)
        if w.shape != (N_FEATURES,):
            raise ValueError(f"w must have {N_FEATURES} entries")
        self.w = w
        self.p_h = float(self.p_h)
        self.p_v = float(self.p_v)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.w, [self.p_h, self.p_v]])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "CrfParams":
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        if v.shape != (N_FEATURES + 2,):
            raise ValueError("parameter vector must have 28 entries")
        return cls(w=v[:N_FEATURES].copy(), p_h=v[N_FEATURES], p_v=v[N_FEATURES + 1])

    def to_json_dict(self) -> dict:
        return {"w": self.w.tolist(), "p_h": self.p_h, "p_v": self.p_v}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CrfParams":
        w, p_h, p_v = d["w"], d["p_h"], d["p_v"]
        for key, values in (("w", w), ("p_h", [p_h]), ("p_v", [p_v])):
            # JSON numbers only: no booleans or strings, and none a float cannot hold.
            finite = (type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values)
            if not isinstance(values, list) or not all(finite):
                raise ValueError(f"{key} must hold finite numbers")
        return cls(w=np.array(w, dtype=np.float64), p_h=p_h, p_v=p_v)


def theta0() -> CrfParams:
    """Initial parameters: all ones, constant-feature weight -12.5."""
    w = np.ones(N_FEATURES)
    w[-1] = -WINDOW * WINDOW / 2.0
    return CrfParams(w=w, p_h=1.0, p_v=1.0)


@lru_cache(maxsize=8)
def grid_graph(height: int, width: int) -> GraphTopology:
    """4-connected grid: the height*(width-1) horizontal edges come first,
    then the vertical ones; `potts_tables` and `theta_gradient` rely on it."""
    idx = np.arange(height * width).reshape(height, width)
    h_edges = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    v_edges = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    return GraphTopology(n_vertices=height * width, edges=np.concatenate([h_edges, v_edges]))


# id(image) -> (weak reference to the image, its features). Training loops
# pass the same arrays every step; an entry goes when its image is freed.
_feature_cache: dict = {}


def feature_matrix(y: np.ndarray) -> np.ndarray:
    """Per-pixel 26-vectors: the 5x5 window in raster order, then a constant 1.

    Window cells outside the image read as 0. Results are cached per array
    object, so images must not be mutated in place between calls.
    """
    y = np.asarray(y, dtype=np.float64)
    hit = _feature_cache.get(id(y))
    if hit is not None and hit[0]() is y:
        return hit[1]
    h, w = y.shape
    padded = np.pad(y, WINDOW // 2)
    # Feature-major slice copies, returned transposed: a row-major fill is slower.
    phi = np.empty((N_FEATURES, h, w))
    for i in range(WINDOW):
        for j in range(WINDOW):
            phi[i * WINDOW + j] = padded[i : i + h, j : j + w]
    phi[-1] = 1.0
    phi = phi.reshape(N_FEATURES, h * w).T
    _feature_cache[id(y)] = (weakref.ref(y), phi)
    weakref.finalize(y, _feature_cache.pop, id(y), None)
    return phi


@lru_cache(maxsize=8)
def potts_tables(height: int, width: int, p_h: float, p_v: float) -> np.ndarray:
    """Read-only (E, 2, 2) Potts tables, penalty p_h on horizontal and p_v on
    vertical edges, shared by every image (and by `engine.reduced_layer`)."""
    n_h = height * (width - 1)  # horizontal edges come first
    pairwise = np.zeros((grid_graph(height, width).n_edges, 2, 2))
    pairwise[:n_h, 0, 0] = pairwise[:n_h, 1, 1] = p_h
    pairwise[n_h:, 0, 0] = pairwise[n_h:, 1, 1] = p_v
    pairwise.flags.writeable = False
    return pairwise


def build_mrf(y: np.ndarray, theta: CrfParams) -> PairwiseMRF:
    """Binary grid MRF: unary rows (0, w.phi(y,s)), shared Potts tables."""
    y = np.asarray(y, dtype=np.float64)
    h, w = y.shape
    unary = np.zeros((h * w, 2))
    unary[:, 1] = feature_matrix(y) @ theta.w
    pairwise = potts_tables(h, w, theta.p_h, theta.p_v)
    return PairwiseMRF(topology=grid_graph(h, w), K=2, unary=unary, pairwise=pairwise)


def theta_gradient(y: np.ndarray, d_unary1: np.ndarray, d_penalty: np.ndarray) -> np.ndarray:
    """Pull a gradient on the outputs of `build_mrf(y, theta)` back to theta,
    as a 28-vector; `d_unary1` (n,) is for the label-1 unary column and
    `d_penalty` (E,) for each edge's Potts penalty."""
    y = np.asarray(y, dtype=np.float64)
    n_h = y.shape[0] * (y.shape[1] - 1)  # horizontal edges come first
    dw = feature_matrix(y).T @ d_unary1
    return np.concatenate([dw, [d_penalty[:n_h].sum(), d_penalty[n_h:].sum()]])


def cl_gradient(y: np.ndarray, x_hat: np.ndarray, q: FactorialDistribution) -> np.ndarray:
    """Approximate conditional log-likelihood gradient, as a 28-vector.

    Model expectations use the factorial q in place of true marginals;
    pairwise expectations factor as q_s q_t.
    """
    y = np.asarray(y, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.int64).reshape(y.size)
    lo, hi = grid_graph(*y.shape).edges.T
    agree = (x_hat[lo] == x_hat[hi]).astype(np.float64)
    expected_agree = np.sum(q.probs.take(lo, axis=0) * q.probs.take(hi, axis=0), axis=1)
    return theta_gradient(y, x_hat - q.probs[:, 1], agree - expected_agree)


def mf_marginals(
    y: np.ndarray, theta: CrfParams, n_iters: int, schedule: Optional[Schedule] = None
) -> FactorialDistribution:
    """Mean field marginals for the CRF built from (y, theta)."""
    mrf = build_mrf(y, theta)
    if schedule is None:
        schedule = checkerboard_schedule(*y.shape)
    q, _ = meanfield.run(mrf, softmax_init(mrf), n_iters, schedule)
    return q


def predict_mf(
    y: np.ndarray, theta: CrfParams, n_iters: int, schedule: Optional[Schedule] = None
) -> np.ndarray:
    """Per-pixel argmax labels from mean field marginals, as an H x W image."""
    q = mf_marginals(y, theta, n_iters, schedule)
    return np.argmax(q.probs, axis=1).reshape(np.asarray(y).shape)


def train_baseline(
    train_set: Sequence[Tuple[np.ndarray, np.ndarray]],
    theta_init: CrfParams,
    steps: int = 100,
    learning_rate: float = 1e-5,
    mf_iters: int = 30,
    schedule: Optional[Schedule] = None,
    log: Optional[List[dict]] = None,
) -> CrfParams:
    """Full-batch gradient ascent on the mean-field-approximated log likelihood.

    train_set holds (noisy_image, label_image) pairs. When `log` is a list,
    one row per step (plus the initial point) records the mean pixel
    accuracy of the marginals used for that step's gradient.
    """
    from .mfn import descend  # mfn imports this module

    images = [(np.asarray(y, dtype=np.float64), np.asarray(x).ravel()) for y, x in train_set]
    if schedule is None and images:
        schedule = checkerboard_schedule(*images[0][0].shape)

    def objective(theta_vec):
        theta = CrfParams.from_vector(theta_vec)
        grad = np.zeros(theta_vec.shape)
        correct = 0
        total = 0
        for y, x_hat in images:
            q = mf_marginals(y, theta, mf_iters, schedule)
            grad += cl_gradient(y, x_hat, q)
            correct += int(np.sum(np.argmax(q.probs, axis=1) == x_hat))
            total += x_hat.size
        # Ascent on the likelihood is descent on its negation, without momentum.
        return None, -grad, {"train_accuracy": correct / max(total, 1)}

    theta_vec = descend(
        objective, theta_init.to_vector(), steps, learning_rate, 0.0, log, final_eval=True
    )
    return CrfParams.from_vector(theta_vec)
