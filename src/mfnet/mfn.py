"""Unrolled mean field as a trainable feed-forward network.

One layer per mean field sweep, softmax nonlinearities, parameters either
shared across layers (tied, equivalent to plain mean field) or owned per
layer. The reverse pass runs over the recorded forward tape and pulls a
loss gradient on the output back to the parameters: `kl_grad_q` gives it
for KL against a fixed target model, `hinge_loss_grad` for an
element-wise hinge loss on the final activations.

`forward` and `backward` hand the engine the CRF's reduced inputs and
take its reduced gradients with no `PairwiseMRF` in between;
`forward_images` and `backward_images` do the same for images of one
size in one pass on the engine's image axis, and `traced_chunks` runs a
dataset that way where it pays (`images_per_pass`). `forward_mrfs` is
the graph-generic forward over explicit potentials.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby, islice
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import crf, engine
from .crf import CrfParams, build_mrf, feature_matrix, grid_graph, potts_tables, theta_gradient
from .engine import CompiledSchedule, Schedule, checkerboard_schedule
from .mrf import LOG_FLOOR, PairwiseMRF, decode, row_softmax, unnormalized_kl_arrays


@dataclass
class MfnParams:
    """Per-layer CRF parameters; a single shared entry when tied."""

    tied: bool
    layers: List[CrfParams]

    def __post_init__(self):
        if self.tied and len(self.layers) != 1:
            raise ValueError("tied parameters hold exactly one layer entry")
        if not self.layers:
            raise ValueError("need at least one layer")

    def to_vector(self) -> np.ndarray:
        return np.concatenate([p.to_vector() for p in self.layers])

    @classmethod
    def from_vector(cls, v: np.ndarray, tied: bool, n_layers: int) -> "MfnParams":
        v = np.asarray(v, dtype=np.float64).reshape(n_layers, -1)
        return cls(tied=tied, layers=[CrfParams.from_vector(row) for row in v])

    def to_json_dict(self) -> dict:
        return {"tied": self.tied, "layers": [p.to_json_dict() for p in self.layers]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MfnParams":
        if not isinstance(d["tied"], bool):
            raise ValueError("tied must be true or false")
        layers = d["layers"]
        if not (isinstance(layers, list) and all(isinstance(x, dict) for x in layers)):
            raise ValueError("layers must be a list of CRF parameter objects")
        return cls(tied=d["tied"], layers=[CrfParams.from_json_dict(x) for x in layers])

    @classmethod
    def tied_from(cls, theta: CrfParams) -> "MfnParams":
        return cls(tied=True, layers=[CrfParams.from_vector(theta.to_vector())])

    def untied_copy(self, n_layers: int) -> "MfnParams":
        if not self.tied:
            raise ValueError("already untied")
        base = self.layers[0].to_vector()
        return MfnParams(
            tied=False, layers=[CrfParams.from_vector(base) for _ in range(n_layers)]
        )


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Everything recorded during a forward pass that the reverse pass needs.
    A pass on N images adds a trailing image axis to q0, the tape and the
    final q and activations."""

    compiled: CompiledSchedule
    inputs: list  # reduced engine inputs (unary, tables, step operators) of each layer
    q0: np.ndarray  # (K-1, n) labels 1..K-1 of the initial distribution
    tape: List[engine.StepRecord]
    q_final: np.ndarray
    a_final: np.ndarray

    def per_image(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Each image's contiguous (n, K) final q and activations."""
        if self.q_final.ndim == 2:
            return [(self.q_final, self.a_final)]
        return [(np.ascontiguousarray(self.q_final[..., i]),
                 np.ascontiguousarray(self.a_final[..., i]))
                for i in range(self.q_final.shape[2])]


def forward(
    y: np.ndarray, params: MfnParams, n_layers: int, schedule: Schedule
) -> ForwardTrace:
    """Forward pass on an image: layer m uses potentials built from its own parameters.

    The engine's reduced inputs are built from the parameters directly:
    the label-0 unary is 0, so a layer's input is the `engine.reduced_layer`
    of its label-1 unary `phi @ w` and its Potts tables, and q0 is the
    reduced softmax of the first layer's label-1 unary. These, and so the
    whole run, are bit for bit what `forward_mrfs` builds from the layers'
    `build_mrf` models.
    """
    return _forward([y], params, n_layers, schedule, image_axis=False)


def forward_images(
    ys: Sequence[np.ndarray], params: MfnParams, n_layers: int, schedule: Schedule
) -> ForwardTrace:
    """`forward` on images of one size: one image runs as `forward`; more
    run as one engine pass on its image axis, whose trace holds q_final
    and a_final (n, K, N) and a tape of N images. Each image's columns are
    the bits of its own `forward`."""
    if len(ys) == 1:
        return forward(ys[0], params, n_layers, schedule)
    return _forward(ys, params, n_layers, schedule, image_axis=True)


def _forward(ys, params: MfnParams, n_layers: int, schedule: Schedule, image_axis: bool):
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if not params.tied and len(params.layers) != n_layers:
        raise ValueError("untied parameters must provide one entry per layer")
    ys = [np.asarray(y, dtype=np.float64) for y in ys]
    h, w = ys[0].shape
    if any(y.shape != (h, w) for y in ys):
        raise ValueError("the images of one pass must share one size")
    compiled = engine.compile_schedule(grid_graph(h, w), schedule)
    phis = [feature_matrix(y) for y in ys]
    # One product per layer and image: one product over all layers rounds
    # differently. With an image axis the label-1 unaries are (n, N).
    u1 = [np.stack([phi @ p.w for phi in phis], axis=1) if image_axis else phis[0] @ p.w
          for p in params.layers]
    inputs = []
    for u, p in zip(u1, params.layers):
        if not (np.all(np.isfinite(u)) and np.isfinite(p.p_h) and np.isfinite(p.p_v)):
            raise ValueError("potentials must be finite")
        inputs.append(engine.reduced_layer(compiled, u[None], potts_tables(h, w, p.p_h, p.p_v)))
    if params.tied:
        inputs *= n_layers
    with np.errstate(over="ignore"):  # e^{-a} overflowing gives q = 0, its limit
        q1 = engine.reduced_softmax(u1[0][None])
    del u1  # not held through the pass
    return _taped_run(compiled, inputs, np.stack([1.0 - q1[0], q1[0]], axis=1), q1)


def forward_mrfs(mrfs: Sequence[PairwiseMRF], schedule: Schedule) -> ForwardTrace:
    """Graph-generic forward pass over explicit per-layer potential sets."""
    topo = mrfs[0].topology
    if any(m.topology is not topo for m in mrfs):
        raise ValueError("all layers must share one topology")
    compiled = engine.compile_schedule(topo, schedule)
    inputs = engine.layer_inputs(compiled, [(m.unary, m.pairwise) for m in mrfs])
    q0 = row_softmax(mrfs[0].unary)
    return _taped_run(compiled, inputs, q0, q0.T[1:])


def _taped_run(compiled, inputs, q0: np.ndarray, reduced_q0: np.ndarray) -> ForwardTrace:
    """The taped run from q0; the trace keeps `reduced_q0`, its labels
    1..K-1 label-major, not all of q0."""
    tape: List[engine.StepRecord] = []
    q_final, a_final = engine.run_unrolled(inputs, q0, compiled, tape=tape)
    return ForwardTrace(compiled, inputs, reduced_q0, tape, q_final, a_final)


def kl_grad_q(q: np.ndarray, target: PairwiseMRF) -> np.ndarray:
    """Gradient of the unnormalized KL loss with respect to the output q entries."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != target.unary.shape:
        raise ValueError("q shape does not match target model")
    ends, P, K = target.topology.edges.T, target.pairwise, q.shape[1]
    q_lo, q_hi = q.T.take(ends, axis=1).transpose(1, 0, 2)
    grad = np.log(np.maximum(q, LOG_FLOOR)) + 1.0 - target.unary
    # One message into each endpoint of every edge, summed per site and label.
    for k in range(K):
        into_lo = reduce(np.add, [P[:, k, l] * q_hi[l] for l in range(K)])
        into_hi = reduce(np.add, [P[:, l, k] * q_lo[l] for l in range(K)])
        msgs = np.concatenate([into_lo, into_hi])
        grad[:, k] -= np.bincount(ends.ravel(), msgs, minlength=len(q))
    return grad


def hinge_loss_grad(
    a: np.ndarray, x_hat: np.ndarray, c: float = 1.0
) -> Tuple[float, np.ndarray]:
    """The hinge loss and its gradient with respect to `a`, from one check of
    the labels and one row of scores a_k + c[k != label] per label k.

    The loss sums over sites the largest score minus the true label's
    activation; the gradient is +1 at each site's first loss-augmented
    argmax and -1 at its true label. The mislabeling cost c must be positive.
    """
    if c <= 0:
        raise ValueError("mislabeling cost must be positive")
    a = np.asarray(a, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.int64).reshape(-1)
    n, K = a.shape
    if x_hat.shape != (n,):
        raise ValueError(f"{x_hat.size} labels given for {n} sites")
    bad = x_hat[(x_hat < 0) | (x_hat >= K)]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range for {K} labels")
    scores = [a[:, k] + c * (x_hat != k) for k in range(K)]
    top, k_star = scores[0], np.zeros(n, dtype=np.int64)
    for k in range(1, K):
        k_star[scores[k] > top] = k
        top = np.maximum(top, scores[k])
    true = a.reshape(-1).take(x_hat + K * np.arange(n))
    g = np.empty(a.shape)
    for k in range(K):
        np.subtract(k_star == k, x_hat == k, out=g[:, k], dtype=np.float64)
    return float(np.sum(top - true)), g


def backward(
    trace: ForwardTrace,
    y: np.ndarray,
    params: MfnParams,
    gq_final: Optional[np.ndarray] = None,
    ga_final: Optional[np.ndarray] = None,
) -> List[np.ndarray]:
    """Loss gradients on the final q (`gq_final`, as from `kl_grad_q`)
    and the final activations (`ga_final`, as from `hinge_loss_grad`),
    either or both, pulled back to one 28-vector per parameter layer (a
    single vector when tied).

    The engine's reduced gradients (per layer a (1, n) unary and a (1, 1, E)
    table gradient in edge order) go straight to theta (`theta_gradient`).
    A Potts table p*I reduces to the table 2p and the constant -p into
    each endpoint, so an edge's penalty gradient is twice its table
    gradient minus its endpoints' unary gradients, summed in the order
    `engine.lift_gradients` sums them. q0 is the reduced softmax of the
    first layer's label-1 unary; its gradient folds into that unary alone.
    """
    return _backward(trace, [y], params, gq_final, ga_final)[0]


def backward_images(
    trace: ForwardTrace,
    ys: Sequence[np.ndarray],
    params: MfnParams,
    gq_final: Optional[np.ndarray] = None,
    ga_final: Optional[np.ndarray] = None,
) -> List[List[np.ndarray]]:
    """`backward` on a `forward_images` trace of the N images `ys`, with
    (n, K, N) loss gradients (N = 1 for a one-image trace): one reverse
    pass, then each image's `backward` result, in order and with its bits."""
    if trace.q_final.ndim == 2:
        one = (None if g is None else g[..., 0] for g in (gq_final, ga_final))
        return [backward(trace, ys[0], params, *one)]
    return _backward(trace, ys, params, gq_final, ga_final)


def _backward(trace: ForwardTrace, ys, params: MfnParams, gq_final, ga_final) -> list:
    if not params.tied and len(params.layers) != len(trace.inputs):
        raise ValueError("parameters do not match the trace")
    dunary, dtables, gq0 = engine.backward_unrolled(
        trace.compiled, trace.tape, trace.inputs, gq_final, ga_final
    )
    # No table reads q0, so its fold reaches only dw: it is added after the
    # penalty gradients have read the first layer's unary gradient.
    fold = trace.q0 * (gq0 - gq0 * trace.q0)
    out = []
    for i, y in enumerate(ys):
        # Each image's gradients as contiguous rows, as a one-image pass gives them.
        pick = (lambda a: a) if len(ys) == 1 else (lambda a: np.ascontiguousarray(a[..., i]))
        y = np.asarray(y, dtype=np.float64)
        du = [pick(d[0]) for d in dunary]
        d_penalty = [np.empty(dt.shape[2]) for dt in dtables]
        for du_m, dt, dp in zip(du, dtables, d_penalty):
            for [(u_lo, u_hi)], [t, o] in crf.edge_views(*y.shape, [du_m], [pick(dt[0, 0]), dp]):
                np.add(t - u_lo - u_hi, t, out=o)
        du[0] = du[0] + pick(fold[0])
        per_layer = [theta_gradient(y, du_m, dp) for du_m, dp in zip(du, d_penalty)]
        out.append([np.sum(per_layer, axis=0)] if params.tied else per_layer)
    return out


def predict(trace: ForwardTrace) -> np.ndarray:
    """Per-site argmax of the output distribution; ties go to the smallest label."""
    return decode(trace.q_final)


def sgd_momentum(
    params_vec: np.ndarray,
    grad_vec: np.ndarray,
    learning_rate: float,
    momentum: float,
    velocity: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One descent step: v' = momentum v - lr g; params' = params + v'."""
    params_vec = np.asarray(params_vec, dtype=np.float64)
    grad_vec = np.asarray(grad_vec, dtype=np.float64)
    if grad_vec.shape != params_vec.shape:
        raise ValueError("gradient shape mismatch")
    if velocity is None:
        velocity = np.zeros_like(params_vec)
    v_new = momentum * velocity - learning_rate * grad_vec
    return params_vec + v_new, v_new


def descend(
    objective: Callable[[np.ndarray], tuple],
    vec: np.ndarray,
    steps: int,
    learning_rate: float,
    momentum: float,
    log: Optional[List[dict]] = None,
    phase: Optional[str] = None,
    final_eval: bool = False,
) -> np.ndarray:
    """Full-batch descent on `objective(vec) -> (loss or None, grad, log row fields)`.

    Each step checks the objective's value, logs one row (`phase` when given,
    `step`, then the fields) and takes one `sgd_momentum` step. `final_eval`
    also evaluates and logs the parameters after the last step.

    Raises FloatingPointError on a non-finite loss, gradient or updated
    vector, or when the loss rises above 10x the magnitude of the first
    nonzero loss.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    where = f"{phase}: " if phase else ""
    velocity = None
    scale = 0.0
    for step in range(steps + 1 if final_eval else steps):
        loss, grad, fields = objective(vec)
        if (loss is not None and not np.isfinite(loss)) or not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"{where}training diverged at step {step}")
        if loss is not None:
            # Measured from the first nonzero loss: a hinge loss can be exactly 0.
            if not scale:
                scale = abs(loss)
            elif loss > 10 * scale:
                raise FloatingPointError(
                    f"{where}loss exceeded 10x its initial value at step {step}"
                )
        if log is not None:
            head = {} if phase is None else {"phase": phase}
            log.append({**head, "step": step, **fields})
        if step < steps:
            vec, velocity = sgd_momentum(vec, grad, learning_rate, momentum, velocity)
            if not np.all(np.isfinite(vec)):
                raise FloatingPointError(f"{where}parameters became non-finite at step {step}")
    return vec


# Images per taped pass on a schedule with no stored operator (every step
# below engine.SPARSE_MIN_MESSAGES messages, as on the raster schedule),
# where a step's cost is mostly per-call overhead that the image axis
# shares: crf.MF_CHUNK images, and at most MAX_IMAGE_LAYERS images x layers,
# so that a pass holds no more than a 12-layer pass of one image and
# cli.MAX_LAYERS' budget holds (4 images at 3 layers, 1 from 7 layers on).
# On raster-kl (8 images, 3 layers; 2-core Xeon guest, 20-s runs)
# train_step_s read 0.092 s at 1 image per pass, 0.078 at 2, 0.065 at 3,
# 0.054 at 4 and 0.043 at 8, and peak RSS 72.2, 73.1, 74.4, 75.8 and
# 81.5 MB: 4 is the most within 5% of one image's RSS. A schedule with an
# operator step (the 50x100 checkerboard) runs one image per pass: there
# 4-image hinge-train passes were about 8% slower and took 4 MB more.
MAX_IMAGE_LAYERS = 12


def images_per_pass(compiled: CompiledSchedule, n_layers: int) -> int:
    """Images per taped pass of `n_layers` layers on `compiled` (see MAX_IMAGE_LAYERS)."""
    if any(st.pos.size >= engine.SPARSE_MIN_MESSAGES for st in compiled.steps):
        return 1
    return max(1, min(crf.MF_CHUNK, MAX_IMAGE_LAYERS // n_layers))


def traced_chunks(
    pairs: Iterable[Tuple[np.ndarray, object]],
    params: MfnParams,
    n_layers: int,
    schedule: Optional[Schedule] = None,
):
    """Yield (chunk, trace) in order: consecutive (y, extra) pairs of one
    image size, `images_per_pass` at a time, and the `forward_images`
    trace of their images, on `schedule` or by default each size's
    checkerboard."""
    for shape, group in groupby(pairs, key=lambda pair: np.shape(pair[0])):
        sched = schedule or checkerboard_schedule(*shape)
        size = images_per_pass(engine.compile_schedule(grid_graph(*shape), sched), n_layers)
        while chunk := list(islice(group, size)):
            yield chunk, forward_images([y for y, _ in chunk], params, n_layers, sched)


def forward_each(
    dataset: Iterable[Tuple[np.ndarray, np.ndarray]],
    params: MfnParams,
    n_layers: int,
    schedule: Optional[Schedule] = None,
):
    """Yield (y, x_hat, q) per image, q its (n, K) final marginals, from
    `traced_chunks`; the schedule defaults to checkerboard."""
    for chunk, trace in traced_chunks(dataset, params, n_layers, schedule):
        qs = [q for q, _ in trace.per_image()]
        del trace  # freed before the next chunk's pass, not after it
        yield from ((y, x_hat, q) for (y, x_hat), q in zip(chunk, qs))


def mean_kl_to_targets(
    dataset: Sequence[Tuple[np.ndarray, np.ndarray]],
    params: MfnParams,
    n_layers: int,
    target_theta: CrfParams,
    schedule: Optional[Schedule] = None,
) -> float:
    """Mean unnormalized KL of the network output against per-image target models."""
    kls = []
    for y, _, q in forward_each(dataset, params, n_layers, schedule):
        target = build_mrf(y, target_theta)
        kls.append(unnormalized_kl_arrays(q, target.unary, target.pairwise, target.topology.edges))
    return float(np.mean(kls))


def mean_accuracy(
    dataset: Sequence[Tuple[np.ndarray, np.ndarray]],
    params: MfnParams,
    n_layers: int,
    schedule: Optional[Schedule] = None,
) -> float:
    """Mean per-pixel accuracy of argmax decoding over a dataset."""
    accs = [
        float(np.mean(decode(q) == np.asarray(x_hat).reshape(-1)))
        for _, x_hat, q in forward_each(dataset, params, n_layers, schedule)
    ]
    return float(np.mean(accs))


def train_inference(
    train_set: Sequence[Tuple[np.ndarray, np.ndarray]],
    theta_mf: CrfParams,
    n_layers: int,
    schedule: Optional[Schedule] = None,
    learning_rate: float = 1e-3,
    momentum: float = 0.9,
    steps: int = 50,
    log: Optional[List[dict]] = None,
) -> MfnParams:
    """Fit untied per-layer parameters to speed up inference for a fixed model.

    Targets are the per-image models built from theta_mf; the loss is the
    mean unnormalized KL of the network output against them.
    """
    ys = [np.asarray(y, dtype=np.float64) for y, _ in train_set]
    images = [(y, build_mrf(y, theta_mf)) for y in ys]  # each with its target model

    def objective(vec):
        params = MfnParams.from_vector(vec, tied=False, n_layers=n_layers)
        losses, grads = [], []
        for chunk, trace in traced_chunks(images, params, n_layers, schedule):
            gq = np.empty(trace.q_final.shape[:2] + (len(chunk),))
            for i, ((q, _), (_, t)) in enumerate(zip(trace.per_image(), chunk)):
                losses.append(unnormalized_kl_arrays(q, t.unary, t.pairwise, t.topology.edges))
                gq[..., i] = kl_grad_q(q, t)
            for g in backward_images(trace, [y for y, _ in chunk], params, gq_final=gq):
                grads.append(np.concatenate(g))
            del trace  # freed before the next chunk's pass, not after it
        loss = float(np.mean(losses))
        return loss, np.sum(grads, axis=0) / len(grads), {"loss": loss}

    vec = MfnParams.tied_from(theta_mf).untied_copy(n_layers).to_vector()
    vec = descend(objective, vec, steps, learning_rate, momentum, log)
    return MfnParams.from_vector(vec, tied=False, n_layers=n_layers)


@dataclass
class DiscProtocol:
    """Two-phase hinge training: tied warm-up, then untied fine-tuning."""

    phase1_steps: int = 50
    phase1_lr: float = 0.0005
    phase1_momentum: float = 0.5
    phase2_steps: int = 200
    phase2_lr: float = 0.002
    phase2_momentum: float = 0.9
    c: float = 1.0


@dataclass
class DiscTrainResult:
    params: MfnParams
    phase1_params: MfnParams
    log: List[dict]


def _hinge_epoch(images, params, n_layers, schedule, c):
    """One full-batch pass: mean hinge loss, mean gradient and its log row fields."""
    losses, grads, accs = [], [], []
    for chunk, trace in traced_chunks(images, params, n_layers, schedule):
        ga = np.empty(trace.a_final.shape[:2] + (len(chunk),))
        for i, ((q, a), (_, x_hat)) in enumerate(zip(trace.per_image(), chunk)):
            x_flat = np.asarray(x_hat).reshape(-1)
            loss, ga[..., i] = hinge_loss_grad(a, x_flat, c)
            losses.append(loss)
            accs.append(float(np.mean(decode(q) == x_flat)))
        grads += backward_images(trace, [y for y, _ in chunk], params, ga_final=ga)
        del trace  # freed before the next chunk's pass, not after it
    loss = float(np.mean(losses))
    layer_grads = np.sum(grads, axis=0) / len(grads)
    fields = {
        "loss": loss,
        "train_accuracy": float(np.mean(accs)),
        "grad_norms": [float(np.linalg.norm(g)) for g in layer_grads],
    }
    return loss, layer_grads.reshape(-1), fields


def train_discriminative(
    train_set: Sequence[Tuple[np.ndarray, np.ndarray]],
    theta_mf: CrfParams,
    n_layers: int = 3,
    schedule: Optional[Schedule] = None,
    protocol: Optional[DiscProtocol] = None,
) -> DiscTrainResult:
    """Hinge-loss training: tied phase, then untie and continue with larger steps."""
    protocol = protocol or DiscProtocol()
    images = [(np.asarray(y, dtype=np.float64), x) for y, x in train_set]
    log: List[dict] = []

    def run_phase(params, steps, lr, momentum, phase):
        shape = {"tied": params.tied, "n_layers": len(params.layers)}

        def objective(vec):
            p = MfnParams.from_vector(vec, **shape)
            return _hinge_epoch(images, p, n_layers, schedule, protocol.c)

        vec = descend(objective, params.to_vector(), steps, lr, momentum, log, phase)
        return MfnParams.from_vector(vec, **shape)

    tied = run_phase(
        MfnParams.tied_from(theta_mf),
        protocol.phase1_steps,
        protocol.phase1_lr,
        protocol.phase1_momentum,
        "tied",
    )
    untied = run_phase(
        tied.untied_copy(n_layers),
        protocol.phase2_steps,
        protocol.phase2_lr,
        protocol.phase2_momentum,
        "untied",
    )
    return DiscTrainResult(params=untied, phase1_params=tied, log=log)
