"""The `mfnet` functions the traced run wraps, and the per-layer metrics.

Layers are the modules of `mfnet`: data, mrf, engine, meanfield, crf, mfn
and cli. `oracle` and `gradcheck` only verify and are not traced. A
function imported by name into another module (`row_softmax` into engine,
`build_mrf` and `feature_matrix` into mfn, `unnormalized_kl_arrays` into
cli, meanfield and mfn) is wrapped in the namespace where it is called,
under the name of the module that defines it.

Per-layer metrics are the cost of one cold set-up plus one pass of the
workload's commands: set-up spans count once, pass spans are averaged over
the traced passes. Counts marked "computed" are derived from array shapes
and are exact; they are not measured hardware events.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from mfnet import cli, crf, data, engine, meanfield, mfn, mrf

from tracer import Tracer, bound_arguments, summarize

F64 = 8  # bytes per float64 / int64


def _split_bytes_counter(counts):
    def counter(args, kwargs):
        def finish(manifest_path):
            folder = Path(manifest_path).parent
            counts["data.save_split.bytes"] += sum(
                p.stat().st_size for p in folder.iterdir() if p.is_file()
            )

        return finish

    return counter


def _unrolled_counter(counts):
    """Counts block steps, site updates, edge messages and tape size of a run."""
    bind = bound_arguments(engine.run_unrolled)
    per_schedule: dict = {}

    def shape_of(compiled):
        hit = per_schedule.get(id(compiled))
        if hit is None or hit[0] is not compiled:
            steps = compiled.steps
            hit = (
                compiled,
                len(steps),
                sum(st.verts.size for st in steps),
                sum(st.e_lo.size + st.e_hi.size for st in steps),
            )
            per_schedule[id(compiled)] = hit
        return hit[1:]

    def counter(args, kwargs):
        a = bind(args, kwargs)
        tape = a["tape"]
        n0 = len(tape) if tape is not None else 0

        def finish(_q):
            n_layers = len(a["layers"])
            k = np.shape(a["q0"])[1]
            n_steps, sites, messages = shape_of(a["compiled"])
            msgs = n_layers * messages
            counts["engine.block_steps"] += n_layers * n_steps
            counts["engine.site_updates"] += n_layers * sites
            counts["engine.edge_messages"] += msgs
            # Message kernel per edge: a K x K table times a K-vector (2K^2
            # flops) scattered into K activations (K flops). Bytes: the table,
            # the read q row, a read and a write of the K activations, and
            # three int64 indices (edge, read site, position in block).
            counts["engine.flops_computed"] += msgs * (2 * k * k + k)
            counts["engine.bytes_computed"] += msgs * (F64 * (k * k + 3 * k) + 3 * F64)
            if tape is not None:
                new = tape[n0:]
                counts["engine.tape_records"] += len(new)
                counts["engine.tape_bytes"] += sum(
                    v.nbytes
                    for rec in new
                    for v in vars(rec).values()
                    if isinstance(v, np.ndarray)
                )

        return finish

    return counter


def _sweeps_counter(counts):
    bind = bound_arguments(meanfield.run)

    def counter(args, kwargs):
        counts["meanfield.sweeps"] += int(bind(args, kwargs)["n_iters"])

    return counter


def targets(tracer: Tracer) -> list:
    """(module, attribute, span name, counter) for every wrapped function."""
    c = tracer.counts
    kl = "mrf.unnormalized_kl_arrays"
    return [
        (cli, "main", "cli.main", None),
        (data, "generate_dataset", "data.generate_dataset", None),
        (data, "save_split", "data.save_split", _split_bytes_counter(c)),
        (data, "load_split", "data.load_split", None),
        (engine, "compile_schedule", "engine.compile_schedule", None),
        (engine, "run_unrolled", "engine.run_unrolled", _unrolled_counter(c)),
        (engine, "block_activations", "engine.block_activations", None),
        (engine, "row_softmax", "engine.row_softmax", None),
        (engine, "backward_unrolled", "engine.backward_unrolled", None),
        (meanfield, "run", "meanfield.run", _sweeps_counter(c)),
        (crf, "build_mrf", "crf.build_mrf", None),
        (mfn, "build_mrf", "crf.build_mrf", None),
        (crf, "feature_matrix", "crf.feature_matrix", None),
        (mfn, "feature_matrix", "crf.feature_matrix", None),
        (crf, "cl_gradient", "crf.cl_gradient", None),
        (mfn, "forward", "mfn.forward", None),
        (mfn, "backward", "mfn.backward", None),
        (mfn, "hinge_loss", "mfn.hinge_loss", None),
        (mfn, "hinge_grad_a", "mfn.hinge_grad_a", None),
        (mfn, "kl_grad_q", "mfn.kl_grad_q", None),
        (mfn, "sgd_momentum", "mfn.sgd_momentum", None),
        (mrf, "unnormalized_kl_arrays", kl, None),
        (cli, "unnormalized_kl_arrays", kl, None),
        (meanfield, "unnormalized_kl_arrays", kl, None),
        (mfn, "unnormalized_kl_arrays", kl, None),
    ]


def _stat(field):
    def get(name):
        return lambda spans, counts: spans.get(name, {}).get(field, 0)

    return get


_total, _calls, _self = _stat("total_s"), _stat("calls"), _stat("self_s")


def _count(name):
    return lambda spans, counts: counts.get(name, 0)


def _us_per_block_step(spans, counts):
    steps = counts.get("engine.block_steps", 0)
    return 1e6 * _total("engine.run_unrolled")(spans, counts) / steps if steps else 0.0


# (metric, unit, value from (span summary, counters)). The trace.* metrics
# are added by the runner, which also knows the untraced wall time.
PER_LAYER = [
    ("data.generate_dataset.s", "s", _total("data.generate_dataset")),
    ("data.save_split.s", "s", _total("data.save_split")),
    ("data.save_split.bytes", "B", _count("data.save_split.bytes")),
    ("data.load_split.s", "s", _total("data.load_split")),
    ("engine.compile_schedule.calls", "count", _calls("engine.compile_schedule")),
    ("engine.compile_schedule.self_s", "s", _self("engine.compile_schedule")),
    ("engine.run_unrolled.calls", "count", _calls("engine.run_unrolled")),
    ("engine.run_unrolled.self_s", "s", _self("engine.run_unrolled")),
    ("engine.tape_records", "count", _count("engine.tape_records")),
    ("engine.tape_bytes", "B", _count("engine.tape_bytes")),
    ("engine.block_activations.calls", "count", _calls("engine.block_activations")),
    ("engine.block_activations.self_s", "s", _self("engine.block_activations")),
    ("engine.row_softmax.self_s", "s", _self("engine.row_softmax")),
    ("engine.us_per_block_step", "us", _us_per_block_step),
    ("engine.edge_messages", "count", _count("engine.edge_messages")),
    ("engine.site_updates", "count", _count("engine.site_updates")),
    ("engine.flops_computed", "flop", _count("engine.flops_computed")),
    ("engine.bytes_computed", "B", _count("engine.bytes_computed")),
    ("engine.backward_unrolled.calls", "count", _calls("engine.backward_unrolled")),
    ("engine.backward_unrolled.self_s", "s", _self("engine.backward_unrolled")),
    ("meanfield.run.calls", "count", _calls("meanfield.run")),
    ("meanfield.run.self_s", "s", _self("meanfield.run")),
    ("meanfield.sweeps", "count", _count("meanfield.sweeps")),
    ("crf.build_mrf.calls", "count", _calls("crf.build_mrf")),
    ("crf.build_mrf.self_s", "s", _self("crf.build_mrf")),
    ("crf.feature_matrix.calls", "count", _calls("crf.feature_matrix")),
    ("crf.feature_matrix.self_s", "s", _self("crf.feature_matrix")),
    ("crf.cl_gradient.self_s", "s", _self("crf.cl_gradient")),
    ("mfn.forward.self_s", "s", _self("mfn.forward")),
    ("mfn.backward.self_s", "s", _self("mfn.backward")),
    ("mfn.hinge_loss.self_s", "s", _self("mfn.hinge_loss")),
    ("mfn.hinge_grad_a.self_s", "s", _self("mfn.hinge_grad_a")),
    ("mfn.kl_grad_q.self_s", "s", _self("mfn.kl_grad_q")),
    ("mfn.sgd_momentum.calls", "count", _calls("mfn.sgd_momentum")),
    ("mrf.unnormalized_kl_arrays.calls", "count", _calls("mrf.unnormalized_kl_arrays")),
    ("mrf.unnormalized_kl_arrays.self_s", "s", _self("mrf.unnormalized_kl_arrays")),
    ("cli.main.calls", "count", _calls("cli.main")),
    ("cli.main.self_s", "s", _self("cli.main")),
]


def combined(setup: Tracer, passes: Tracer, n_passes: int):
    """Span summary and counters for one set-up plus the mean traced pass."""
    spans = summarize(setup)
    for name, row in summarize(passes).items():
        acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            acc[key] += value / n_passes
    counts = dict(setup.counts)
    for name, value in passes.counts.items():
        counts[name] = counts.get(name, 0) + value / n_passes
    return spans, counts


def per_layer_metrics(spans: dict, counts: dict) -> dict:
    return {name: (float(get(spans, counts)), unit) for name, unit, get in PER_LAYER}
