"""Per-call timings of the library's parts, in microseconds, on one image.

    PYTHONPATH=src python tests/percall.py [--repeats 9] [--only TEXT]

Each row is the minimum over the repeats of one `timeit` loop, whose
length `Timer.autorange` picks (at least 0.2 s), divided by its call
count, or by that times its image count for a row "per image". The
inputs are those of `fingerprint.py`: its seeded 50x100 letter image,
`theta0()`, and a 3-layer untied network on the checkerboard schedule
unless a row says raster; the chunk row runs `crf.MF_CHUNK` copies of
the letter image through one `meanfield.run`. BLAS is pinned to one thread, as in
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


def rows() -> dict:
    """Row label -> a call to time, or (call, images) for a per-image row."""
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
        f"meanfield.run, {SWEEPS} sweeps": lambda: meanfield.run(target, q0, SWEEPS, schedule),
        f"meanfield.run, {SWEEPS} sweeps, chunk, per image": (
            lambda: meanfield.run(chunk, chunk_q0, SWEEPS, schedule), MF_CHUNK),
        "crf.build_mrf": lambda: build_mrf(y, theta),
        "mrf.softmax_init": lambda: softmax_init(target),
        "crf.cl_gradient": lambda: cl_gradient(y, x_hat, q_mf),
        "mrf.FactorialDistribution": lambda: FactorialDistribution(q_mf.probs),
        "mrf.decode": lambda: decode(q_mf.probs),
    }


def per_call_us(call, repeats: int, images: int = 1) -> float:
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeats, number)) / (number * images) * 1e6


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
    for label, row in chosen.items():
        call, images = row if isinstance(row, tuple) else (row, 1)
        print(f"{label:<42} {per_call_us(call, args.repeats, images):10.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
