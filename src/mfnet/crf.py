"""Binary grid CRF: linear unary model over 5x5 windows, Potts pairwise terms."""
from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import meanfield
from .engine import Schedule, checkerboard_schedule
from .mrf import FactorialDistribution, GraphTopology, PairwiseMRF, decode, softmax_init

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
    then the vertical ones; `potts_tables`, `theta_gradient` and `edge_views` rely on it."""
    idx = np.arange(height * width).reshape(height, width)
    h_edges = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    v_edges = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    return GraphTopology(n_vertices=height * width, edges=np.concatenate([h_edges, v_edges]))


def edge_views(height: int, width: int, sites: Sequence[np.ndarray], edges: Sequence[np.ndarray]):
    """Per edge direction of the grid, horizontal then vertical: the (lo, hi)
    endpoint views of each (n,) site array and the part of each (E,) edge
    array, all shaped like that direction's (height, width-1) or
    (height-1, width) grid of edges, so that slices replace index arrays."""
    n_h = height * (width - 1)  # horizontal edges come first
    grids = [s.reshape(height, width) for s in sites]
    for lo, hi, part, shape in ((np.s_[:, :-1], np.s_[:, 1:], np.s_[:n_h], (height, width - 1)),
                                (np.s_[:-1], np.s_[1:], np.s_[n_h:], (height - 1, width))):
        yield [(g[lo], g[hi]) for g in grids], [e[part].reshape(shape) for e in edges]


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
    agree_gap = np.empty(grid_graph(*y.shape).n_edges)
    for [x, a, b], [out] in edge_views(*y.shape, [x_hat, *q.probs.T], [agree_gap]):
        np.subtract(x[0] == x[1], a[0] * a[1] + b[0] * b[1], out=out)
    return theta_gradient(y, x_hat - q.probs[:, 1], agree_gap)


def mf_marginals(
    y: np.ndarray, theta: CrfParams, n_iters: int, schedule: Optional[Schedule] = None
) -> FactorialDistribution:
    """Mean field marginals for the CRF built from (y, theta)."""
    mrf = build_mrf(y, theta)
    if schedule is None:
        schedule = checkerboard_schedule(*y.shape)
    q, _ = meanfield.run(mrf, softmax_init(mrf), n_iters, schedule)
    return q


# Images per `meanfield.run` in `mf_marginals_each`; each block step's
# message sum is then one CSR product with that many columns (scipy's
# csr_matvecs). On mf30-crf (2-core Xeon guest, 20-s runs) train_step_s read
# 0.127 s one image at a time, 0.123 at 2, 0.107 at 3, 0.090 at 4, 0.100-0.104
# at 5-8 and 0.089 at 16, while peak RSS rose by about 0.4 MB per image of the
# chunk (119.6 against 118.1 MB at 4, 129.6 at 16). Past 4 images the minor
# page faults per run climb (train-crf --steps 1 on 50 images: 9.8k at 1,
# 13.5k at 4, 20.6k at 8), which eats the gain of the wider product.
MF_CHUNK = 4


def mf_marginals_each(
    pairs: Iterable[Tuple[np.ndarray, np.ndarray]],
    theta: CrfParams,
    n_iters: int,
    schedule: Optional[Schedule] = None,
):
    """Yield (y, x_hat, model, q) per (y, x_hat) pair, in order: the
    `build_mrf` model of y and its mean field marginals from `softmax_init`,
    the bits of `mf_marginals`. MF_CHUNK images at a time run through one
    `meanfield.run`; the schedule defaults to checkerboard."""
    pairs = iter(pairs)
    while chunk := list(islice(pairs, MF_CHUNK)):
        models = [build_mrf(y, theta) for y, _ in chunk]
        if schedule is None:
            schedule = checkerboard_schedule(*np.shape(chunk[0][0]))
        qs, _ = meanfield.run(models, [softmax_init(m) for m in models], n_iters, schedule)
        for (y, x_hat), model, q in zip(chunk, models, qs):
            yield y, x_hat, model, q


def predict_mf(
    y: np.ndarray, theta: CrfParams, n_iters: int, schedule: Optional[Schedule] = None
) -> np.ndarray:
    """Per-pixel argmax labels from mean field marginals, as an H x W image."""
    q = mf_marginals(y, theta, n_iters, schedule)
    return decode(q.probs).reshape(np.asarray(y).shape)


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

    def objective(theta_vec):
        theta = CrfParams.from_vector(theta_vec)
        grad = np.zeros(theta_vec.shape)
        correct = 0
        total = 0
        for y, x_hat, _, q in mf_marginals_each(images, theta, mf_iters, schedule):
            grad += cl_gradient(y, x_hat, q)
            correct += int(np.sum(decode(q.probs) == x_hat))
            total += x_hat.size
        # Ascent on the likelihood is descent on its negation, without momentum.
        return None, -grad, {"train_accuracy": correct / max(total, 1)}

    theta_vec = descend(
        objective, theta_init.to_vector(), steps, learning_rate, 0.0, log, final_eval=True
    )
    return CrfParams.from_vector(theta_vec)
