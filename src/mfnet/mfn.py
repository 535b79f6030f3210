"""Unrolled mean field as a trainable feed-forward network.

One layer per mean field sweep, softmax nonlinearities, parameters either
shared across layers (tied, equivalent to plain mean field) or owned per
layer. The reverse pass runs over the recorded forward tape and pulls a
loss gradient on the output back to the parameters: `kl_grad_q` gives it
for KL against a fixed target model, `hinge_loss_grad` for an
element-wise hinge loss on the final activations.

`forward` and `backward` hand the engine the CRF's reduced inputs and
take its reduced gradients with no `PairwiseMRF` in between;
`forward_mrfs` is the graph-generic forward over explicit potentials.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import engine
from .crf import CrfParams, build_mrf, feature_matrix, grid_graph, potts_tables, theta_gradient
from .engine import CompiledSchedule, Schedule, checkerboard_schedule
from .mrf import LOG_FLOOR, PairwiseMRF, row_softmax, unnormalized_kl_arrays


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
    """Everything recorded during a forward pass that the reverse pass needs."""

    compiled: CompiledSchedule
    inputs: list  # reduced engine inputs (unary, tables, step operators) of each layer
    q0: np.ndarray  # (K-1, n) labels 1..K-1 of the initial distribution
    tape: List[engine.StepRecord]
    q_final: np.ndarray
    a_final: np.ndarray


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
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if not params.tied and len(params.layers) != n_layers:
        raise ValueError("untied parameters must provide one entry per layer")
    y = np.asarray(y, dtype=np.float64)
    h, w = y.shape
    compiled = engine.compile_schedule(grid_graph(h, w), schedule)
    phi = feature_matrix(y)
    # One product per layer: one product over all layers rounds differently.
    u1 = [phi @ p.w for p in params.layers]
    inputs = []
    for u, p in zip(u1, params.layers):
        if not (np.all(np.isfinite(u)) and np.isfinite(p.p_h) and np.isfinite(p.p_v)):
            raise ValueError("potentials must be finite")
        inputs.append(engine.reduced_layer(compiled, u[None], potts_tables(h, w, p.p_h, p.p_v)))
    if params.tied:
        inputs *= n_layers
    with np.errstate(over="ignore"):  # e^{-a} overflowing gives q = 0, its limit
        q1 = engine.reduced_softmax(u1[0][None])
    return _taped_run(compiled, inputs, np.stack([1.0 - q1[0], q1[0]], axis=1))


def forward_mrfs(mrfs: Sequence[PairwiseMRF], schedule: Schedule) -> ForwardTrace:
    """Graph-generic forward pass over explicit per-layer potential sets."""
    topo = mrfs[0].topology
    if any(m.topology is not topo for m in mrfs):
        raise ValueError("all layers must share one topology")
    compiled = engine.compile_schedule(topo, schedule)
    inputs = engine.layer_inputs(compiled, [(m.unary, m.pairwise) for m in mrfs])
    return _taped_run(compiled, inputs, row_softmax(mrfs[0].unary))


def _taped_run(compiled, inputs, q0: np.ndarray) -> ForwardTrace:
    tape: List[engine.StepRecord] = []
    q_final, a_final = engine.run_unrolled(inputs, q0, compiled, tape=tape)
    return ForwardTrace(compiled, inputs, q0.T[1:], tape, q_final, a_final)


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
    if not params.tied and len(params.layers) != len(trace.inputs):
        raise ValueError("parameters do not match the trace")
    dunary, dtables, gq0 = engine.backward_unrolled(
        trace.compiled, trace.tape, trace.inputs, gq_final, ga_final
    )
    lo, hi = trace.compiled.topology.edges.T
    d_penalty = [(dt[0, 0] - du[0].take(lo) - du[0].take(hi)) + dt[0, 0]
                 for du, dt in zip(dunary, dtables)]
    # After the penalties: no table reads q0, so its fold reaches only dw.
    dunary[0] += trace.q0 * (gq0 - gq0 * trace.q0)

    y = np.asarray(y, dtype=np.float64)
    per_layer = [theta_gradient(y, du[0], dp) for du, dp in zip(dunary, d_penalty)]
    if params.tied:
        return [np.sum(per_layer, axis=0)]
    return per_layer


def predict(trace: ForwardTrace) -> np.ndarray:
    """Per-site argmax of the output distribution; ties go to the smallest label."""
    return np.argmax(trace.q_final, axis=1)


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


def forward_each(
    dataset: Sequence[Tuple[np.ndarray, np.ndarray]],
    params: MfnParams,
    n_layers: int,
    schedule: Optional[Schedule] = None,
):
    """Yield (y, x_hat, trace) per image; the schedule defaults to checkerboard."""
    for y, x_hat in dataset:
        sched = schedule or checkerboard_schedule(*np.shape(y))
        yield y, x_hat, forward(y, params, n_layers, sched)


def mean_kl_to_targets(
    dataset: Sequence[Tuple[np.ndarray, np.ndarray]],
    params: MfnParams,
    n_layers: int,
    target_theta: CrfParams,
    schedule: Optional[Schedule] = None,
) -> float:
    """Mean unnormalized KL of the network output against per-image target models."""
    kls = []
    for y, _, trace in forward_each(dataset, params, n_layers, schedule):
        target = build_mrf(y, target_theta)
        kls.append(
            unnormalized_kl_arrays(
                trace.q_final, target.unary, target.pairwise, target.topology.edges
            )
        )
    return float(np.mean(kls))


def mean_accuracy(
    dataset: Sequence[Tuple[np.ndarray, np.ndarray]],
    params: MfnParams,
    n_layers: int,
    schedule: Optional[Schedule] = None,
) -> float:
    """Mean per-pixel accuracy of argmax decoding over a dataset."""
    accs = [
        float(np.mean(predict(trace) == np.asarray(x_hat).reshape(-1)))
        for _, x_hat, trace in forward_each(dataset, params, n_layers, schedule)
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
    images = [(np.asarray(y, dtype=np.float64), x) for y, x in train_set]
    targets = [build_mrf(y, theta_mf) for y, _ in images]

    def objective(vec):
        params = MfnParams.from_vector(vec, tied=False, n_layers=n_layers)
        losses, grads = [], []
        for (y, _, trace), t in zip(forward_each(images, params, n_layers, schedule), targets):
            losses.append(
                unnormalized_kl_arrays(trace.q_final, t.unary, t.pairwise, t.topology.edges)
            )
            grads.append(np.concatenate(backward(trace, y, params, kl_grad_q(trace.q_final, t))))
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
    for y, x_hat, trace in forward_each(images, params, n_layers, schedule):
        x_flat = np.asarray(x_hat).reshape(-1)
        loss, ga = hinge_loss_grad(trace.a_final, x_flat, c)
        losses.append(loss)
        grads.append(backward(trace, y, params, ga_final=ga))
        accs.append(float(np.mean(predict(trace) == x_flat)))
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
