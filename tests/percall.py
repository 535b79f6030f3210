"""Per-call timings of the library's parts, in microseconds, on one image.

    PYTHONPATH=src python tests/percall.py [--repeats 9] [--only TEXT]

Each row is the minimum over the repeats of one `timeit` loop, whose
length `Timer.autorange` picks (at least 0.2 s), divided by its call
count, or by that times its image or layer count for a row "per image"
or "per layer". The inputs are those of `fingerprint.py`: its seeded
50x100 letter image, `theta0()`, and a 3-layer untied network on the
checkerboard schedule unless a row says raster; a chunk row runs
`crf.MF_CHUNK` copies of the letter image through one `meanfield.run`, or
through one `mfn.forward_images` and `mfn.backward_images` pass on the
image axis, and the deep row a forward and hinge reverse pass of a DEEP_LAYERS-layer
untied network, whose layers all keep their tables across calls while
the Potts cache holds their arrays. BLAS is pinned to one thread, as in
`perfbench`. On a shared host one row can move by a third between runs,
so compare two versions in alternating runs; `--only backward_unrolled`
times just the reverse-pass rows. pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import os
import sys
import timeit

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads a BLAS

import numpy as np

from fingerprint import GRID_SCHEDULES, LAYERS, SWEEPS, letter_image, untied
from mfnet import engine, meanfield, mfn
from mfnet.crf import MF_CHUNK, build_mrf, cl_gradient, potts_tables, theta0
from mfnet.mrf import FactorialDistribution, decode, softmax_init

DEEP_LAYERS = 6  # untied layers of the deep row


def rows() -> dict:
    """Row label -> a call to time, or (call, count) for a per-image or
    per-layer row."""
    y, clean = letter_image()
    theta, x_hat = theta0(), clean.ravel()
    params = untied(theta)
    target = build_mrf(y, theta)
    q0 = softmax_init(target)
    q_mf, _ = meanfield.run(target, q0, SWEEPS, GRID_SCHEDULES["checkerboard"])
    traces = {name: mfn.forward(y, params, LAYERS, s) for name, s in GRID_SCHEDULES.items()}
    ga = {name: mfn.hinge_loss_grad(t.a_final, x_hat)[1] for name, t in traces.items()}
    gq = {name: mfn.kl_grad_q(t.q_final, target) for name, t in traces.items()}
    trace, schedule = traces["checkerboard"], GRID_SCHEDULES["checkerboard"]

    # A writable copy is never stored, so each call builds a fresh table set.
    pairwise = potts_tables(*y.shape, theta.p_h, theta.p_v).copy()
    u1 = target.unary[:, 1:].T - target.unary[:, 0]
    chunk = [build_mrf(y.copy(), theta) for _ in range(MF_CHUNK)]
    chunk_q0 = [softmax_init(m) for m in chunk]
    raster, chunk_ys = GRID_SCHEDULES["raster"], [y.copy() for _ in range(MF_CHUNK)]
    deep = untied(theta, DEEP_LAYERS)
    deep_ga = mfn.hinge_loss_grad(mfn.forward(y, deep, DEEP_LAYERS, schedule).a_final, x_hat)[1]

    def deep_pass():
        t = mfn.forward(y, deep, DEEP_LAYERS, schedule)
        return mfn.backward(t, y, deep, ga_final=deep_ga)

    def kl_pass(ys):
        t = mfn.forward_images(ys, params, LAYERS, raster)
        gq = [mfn.kl_grad_q(q, target) for q, _ in t.per_image()]
        return mfn.backward_images(t, ys, params, gq_final=np.stack(gq, axis=2))

    def reverse(name, kl=False):
        t, g = traces[name], (gq[name], None) if kl else (None, ga[name])
        return lambda: engine.backward_unrolled(t.compiled, t.tape, t.inputs, *g)

    return {
        "engine.run_unrolled, taped": lambda: engine.run_unrolled(
            trace.inputs, q0.probs, trace.compiled, tape=[]),
        "engine.backward_unrolled, hinge gradient": reverse("checkerboard"),
        "engine.backward_unrolled, hinge, raster": reverse("raster"),
        "engine.backward_unrolled, KL, raster": reverse("raster", kl=True),
        "engine.reduced_layer, fresh, transposed": lambda: engine.reduced_layer(
            trace.compiled, u1, pairwise)[2].transposed,
        "mfn.forward": lambda: mfn.forward(y, params, LAYERS, schedule),
        "mfn.backward, hinge gradient": lambda: mfn.backward(
            trace, y, params, ga_final=ga["checkerboard"]),
        "mfn.backward, KL gradient with kl_grad_q": lambda: mfn.backward(
            trace, y, params, gq_final=mfn.kl_grad_q(trace.q_final, target)),
        "mfn.kl_grad_q": lambda: mfn.kl_grad_q(trace.q_final, target),
        f"mfn.forward+backward, {DEEP_LAYERS} untied, per layer": (
            deep_pass, DEEP_LAYERS),
        f"meanfield.run, {SWEEPS} sweeps": lambda: meanfield.run(target, q0, SWEEPS, schedule),
        f"meanfield.run, {SWEEPS} sweeps, chunk, per image": (
            lambda: meanfield.run(chunk, chunk_q0, SWEEPS, schedule), MF_CHUNK),
        f"meanfield.run, {SWEEPS} sweeps, raster": lambda: meanfield.run(
            target, q0, SWEEPS, raster),
        f"meanfield.run, {SWEEPS} sweeps, raster, chunk, per image": (
            lambda: meanfield.run(chunk, chunk_q0, SWEEPS, raster), MF_CHUNK),
        "forward + KL backward, raster": lambda: kl_pass([y]),
        "forward + KL backward, raster, chunk, per image": (
            lambda: kl_pass(chunk_ys), MF_CHUNK),
        "crf.build_mrf": lambda: build_mrf(y, theta),
        "mrf.softmax_init": lambda: softmax_init(target),
        "crf.cl_gradient": lambda: cl_gradient(y, x_hat, q_mf),
        "mrf.FactorialDistribution": lambda: FactorialDistribution(q_mf.probs),
        "mrf.decode": lambda: decode(q_mf.probs),
    }


def per_call_us(call, repeats: int, count: int = 1) -> float:
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeats, number)) / (number * count) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9, help="timeit repeats per row")
    parser.add_argument("--only", default="", metavar="TEXT",
                        help="time only the rows whose label contains TEXT")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    chosen = {label: call for label, call in rows().items() if args.only in label}
    if not chosen:
        parser.error(f"no row label contains {args.only!r}")
    print(f"# Python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs; minimum of {args.repeats} repeats")
    width = max(map(len, chosen))
    for label, row in chosen.items():
        call, count = row if isinstance(row, tuple) else (row, 1)
        print(f"{label:<{width}} {per_call_us(call, args.repeats, count):10.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
