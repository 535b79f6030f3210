"""Output fingerprint: one line per artefact, to check that a change leaves
the numbers bit for bit as they were.

    PYTHONPATH=src python tests/fingerprint.py [--save a.npz] [--against b.npz]

Each line holds an artefact's name, its shape and the first 16 hex digits of
a sha256 over its dtype, shape and bytes. `--save` writes the arrays to an
.npz file; `--against` reads one written before and adds each artefact's
largest absolute difference from it, relative to the largest absolute entry
of the saved array. The artefacts: on a 50x100 letter image under both
schedules, 30-sweep mean field (q, the CRF likelihood gradient on theta at
that q and `predict_mf`'s labels) and a 3-layer untied network (q,
activations, and the hinge and KL gradients on theta); the 30-sweep
checkerboard marginals of 10 seeded images, which
`crf.mf_marginals_each` runs in chunks of `crf.MF_CHUNK`, and the raster
KL and hinge gradients on theta of the 3-layer network on the same
images, which `mfn.traced_chunks` runs on the image axis (each of these
three lines is the same with one image per chunk); raw forward and
reverse engine outputs on seeded random graphs at K = 2, 3 and 4; the
compiled step fields of both 50x100 schedules and of the random graphs;
and raw reverse outputs of a 3-layer K = 3 network on a 30x30
checkerboard, whose steps are large enough for the stored operators.
pytest does not collect this file; `test_fingerprint.py` runs it.
"""
from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from mfnet import data, engine, meanfield, mfn
from mfnet.crf import (
    CrfParams,
    build_mrf,
    cl_gradient,
    grid_graph,
    mf_marginals_each,
    predict_mf,
    theta0,
)
from mfnet.mrf import GraphTopology, row_softmax, softmax_init

H, W, LAYERS, SWEEPS = 50, 100, 3, 30
GRID_SCHEDULES = {
    "checkerboard": engine.checkerboard_schedule(H, W),
    "raster": engine.raster_schedule(H * W),
}


def letter_image():
    """A seeded noisy 50x100 letter image and its clean labels."""
    rng = np.random.default_rng(0)
    clean = data.render_clean(rng, H, W)
    return data.add_noise(clean, rng), clean


def untied(theta: CrfParams, n_layers: int = LAYERS) -> mfn.MfnParams:
    """n_layers distinct layers: theta scaled by 1, 1.1, 1.2, ..."""
    base = theta.to_vector()
    vec = np.concatenate([base * (1.0 + 0.1 * m) for m in range(n_layers)])
    return mfn.MfnParams.from_vector(vec, tied=False, n_layers=n_layers)


def random_problem(rng, K: int):
    """A random graph of 1-14 sites, a random block schedule over it, 1-3
    layers of random potentials and a random q0."""
    n = int(rng.integers(1, 15))
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n) if rng.random() < 0.4]
    topo = GraphTopology(n_vertices=n, edges=np.array(pairs, dtype=np.int64).reshape(-1, 2))
    perm = [int(v) for v in rng.permutation(n)]
    cuts = sorted(set(rng.integers(1, n + 1, size=int(rng.integers(1, n + 1))).tolist()) | {n})
    schedule = engine.Schedule(tuple(tuple(perm[a:b]) for a, b in zip([0] + cuts, cuts)))
    layers = [(rng.uniform(-2, 2, (n, K)), rng.uniform(-2, 2, (topo.n_edges, K, K)))
              for _ in range(int(rng.integers(1, 4)))]
    return topo, schedule, layers, rng.dirichlet(np.ones(K), size=n)


def step_fields(compiled) -> np.ndarray:
    """Every field of every compiled step, and the schedule's message and
    site orders, as one int64 vector."""
    parts = [compiled.message_of.ravel(), compiled.order, compiled.rank]
    for st in compiled.steps:
        slices = [st.sites.start, st.sites.stop, st.msgs.start, st.msgs.stop]
        parts += [st.verts, np.array(slices), st.e_lo, st.e_hi, st.pos, st.reads, st.read_idx]
    return np.concatenate([np.asarray(p, dtype=np.int64).ravel() for p in parts])


def flat(arrays) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def chunked(theta: CrfParams) -> dict:
    """The artefacts of 10 seeded images, more than one chunk: 30-sweep
    checkerboard marginals, and the raster KL and hinge gradients on theta
    of the `untied` network, one row per image."""
    train, test = data.generate_dataset(n=5, seed=4)
    pairs = [img.pair for img in train + test]
    out = {f"meanfield{SWEEPS}.chunked.q": np.stack(
        [q.probs for *_, q in mf_marginals_each(pairs, theta, SWEEPS)])}
    params, kl, hinge = untied(theta), [], []
    for chunk, trace in mfn.traced_chunks(pairs, params, LAYERS, GRID_SCHEDULES["raster"]):
        ys, outputs = [y for y, _ in chunk], trace.per_image()
        gq = [mfn.kl_grad_q(q, build_mrf(y, theta)) for (q, _), y in zip(outputs, ys)]
        ga = [mfn.hinge_loss_grad(a, x)[1] for (_, a), (_, x) in zip(outputs, chunk)]
        kl += mfn.backward_images(trace, ys, params, gq_final=np.stack(gq, axis=2))
        hinge += mfn.backward_images(trace, ys, params, ga_final=np.stack(ga, axis=2))
    out["kl.raster.chunked"], out["hinge.raster.chunked"] = np.array(kl), np.array(hinge)
    return out


def artefacts(theta: CrfParams | None = None) -> dict:
    """Every fingerprinted array by name; `theta` defaults to `theta0()`."""
    theta = theta or theta0()
    y, clean = letter_image()
    target, params = build_mrf(y, theta), untied(theta)
    out = {}
    for name, schedule in GRID_SCHEDULES.items():
        out[f"compile.{name}"] = step_fields(engine.compile_schedule(grid_graph(H, W), schedule))
        q, _ = meanfield.run(target, softmax_init(target), SWEEPS, schedule)
        out[f"meanfield{SWEEPS}.{name}.q"] = q.probs
        out[f"cl.{name}"] = cl_gradient(y, clean, q)
        out[f"predict_mf{SWEEPS}.{name}"] = predict_mf(y, theta, SWEEPS, schedule)
        trace = mfn.forward(y, params, LAYERS, schedule)
        out[f"forward.{name}.q"], out[f"forward.{name}.a"] = trace.q_final, trace.a_final
        _, ga = mfn.hinge_loss_grad(trace.a_final, clean)
        out[f"hinge.{name}"] = np.array(mfn.backward(trace, y, params, ga_final=ga))
        gq = mfn.kl_grad_q(trace.q_final, target)
        out[f"kl.{name}"] = np.array(mfn.backward(trace, y, params, gq_final=gq))
    out.update(chunked(theta))

    rng = np.random.default_rng(1)
    compiled_fields = []
    for K in (2, 3, 4):
        forward, reverse = [], []
        for _ in range(8):
            topo, schedule, layers, q0 = random_problem(rng, K)
            compiled = engine.compile_schedule(topo, schedule)
            compiled_fields.append(step_fields(compiled))
            inputs, tape = engine.layer_inputs(compiled, layers), []
            q, a = engine.run_unrolled(inputs, q0, compiled, tape=tape)
            gq, ga = rng.normal(size=q.shape), rng.normal(size=q.shape)
            dunary, dtables, gq0 = engine.backward_unrolled(compiled, tape, inputs, gq, ga)
            forward += [q, a, row_softmax(layers[0][0])]
            reverse += [*dunary, *dtables, gq0]
            reverse += [g for du, dt in zip(dunary, dtables)
                        for g in engine.lift_gradients(compiled, du, dt)]
        out[f"random.K{K}.forward"], out[f"random.K{K}.reverse"] = flat(forward), flat(reverse)
    out["compile.random"] = np.concatenate(compiled_fields)

    # The operator path at K > 2: 1,740 messages per checkerboard step.
    rng, K, side = np.random.default_rng(2), 3, 30
    topo = grid_graph(side, side)
    compiled = engine.compile_schedule(topo, engine.checkerboard_schedule(side, side))
    layers = [(rng.uniform(-2, 2, (topo.n_vertices, K)), rng.uniform(-2, 2, (topo.n_edges, K, K)))
              for _ in range(LAYERS)]
    inputs, tape = engine.layer_inputs(compiled, layers), []
    q0 = rng.dirichlet(np.ones(K), size=topo.n_vertices)
    q, _ = engine.run_unrolled(inputs, q0, compiled, tape=tape)
    gq, ga = rng.normal(size=(2, *q.shape))
    dunary, dtables, gq0 = engine.backward_unrolled(compiled, tape, inputs, gq, ga)
    out[f"grid{side}.K{K}.reverse"] = flat([*dunary, *dtables, gq0])
    return out


def digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def lines(arts: dict, against: dict | None = None) -> list:
    out = []
    for name, a in arts.items():
        line = f"{name:<26} {'x'.join(map(str, a.shape)):<10} {digest(a)}"
        if against is not None:
            b = against.get(name)
            if b is None or b.shape != a.shape:
                line += "  not comparable"
            else:
                diff = np.max(np.abs(a - b), initial=0.0)
                scale = np.max(np.abs(b), initial=0.0)
                line += f"  {diff / scale if scale else diff:.3g}"
        out.append(line)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", help="write the artefacts to this .npz file")
    parser.add_argument("--against", help="compare with artefacts saved by --save")
    args = parser.parse_args(argv)
    arts = artefacts()
    against = None
    if args.against:
        with np.load(args.against) as saved:
            against = {k: saved[k] for k in saved.files}
    print("\n".join(lines(arts, against)))
    if args.save:
        np.savez(args.save, **arts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
