"""Benchmark of the `mfn` commands: end-to-end metrics, or per-layer ones when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hinge-train --seed 1 --seconds 30 --trace 0

The package is imported from this checkout's `src/`; without it the run
exits 1 and prints no result. Commands run in this process through
`mfnet.cli.main`, so interpreter start-up and imports are not timed. BLAS
is pinned to one thread. `MFN_THREADS` is left as found and recorded; a
run with it set above 1 is a different configuration and not comparable.

`--trace 0` reports the end-to-end metrics: the median of the set-up
samples and of the per-pass samples. `--trace 1` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, plus
the tracing overhead (traced minus untraced pass time). Human-readable
lines come first; the last line of standard output is one JSON object.
The full report, and in traced runs every span, is written under --work.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5        # cold set-ups per untraced run: this process plus 4 children
SMOKE_SETUP_SAMPLES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, default=HERE / "_work",
                   help="directory for generated data, reports and spans")
    p.add_argument("--smoke", action="store_true",
                   help="one image per split, for the benchmark's own tests")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import mfnet from this checkout's src/, or exit 1."""
    if not (SRC / "mfnet" / "__init__.py").is_file():
        sys.exit(f"error: no mfnet package under {SRC}; run from a full checkout")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import mfnet

    if Path(mfnet.__file__).resolve().parent != (SRC / "mfnet").resolve():
        sys.exit(f"error: imported mfnet from {mfnet.__file__}, not {SRC}")
    return mfnet


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mfnet").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy

    mfn_threads = os.environ.get("MFN_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "mfn_threads": mfn_threads if mfn_threads is not None else "unset",
        "comparable": mfn_threads in (None, "", "1"),
        "git_rev": git_rev(),
        "source_sha256": source_sha256(),
    }


def stop_rule(seconds: float, min_passes: int):
    """Closed loop: start another pass while that rounds the run nearer to
    `seconds`, i.e. while half a mean pass still fits."""
    t0 = time.perf_counter()

    def more(n_done: int) -> bool:
        elapsed = time.perf_counter() - t0
        return n_done < min_passes or elapsed + 0.5 * elapsed / n_done < seconds

    return more


def setup_child(args, wl, n_images) -> int:
    import workloads
    from reference import Reference

    rc, raw, scaled = workloads.setup(
        wl, n_images, args.seed, workloads.Paths(args.work), Reference())
    print(json.dumps({"rc": rc, "raw_s": raw, "scaled_s": scaled}))
    return 0


def child_setups(args, n, checks) -> list:
    """Cold set-up in n fresh processes; each times itself after its imports."""
    samples = []
    for k in range(n):
        work = args.work / f"setup-child-{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
               "--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
        if args.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            proc = None
        shutil.rmtree(work, ignore_errors=True)
        if not checks.check(proc is not None, "set-up child finished within 120 s"):
            continue
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            res = {"rc": proc.returncode}
            sys.stderr.write(proc.stderr)
        if checks.check(proc.returncode == 0 and res.get("rc") == 0, "set-up child exited 0"):
            samples.append({"raw_s": res["raw_s"], "scaled_s": res["scaled_s"]})
    return samples


def check_repeatable(key: str, outcome: dict, store: Path, checks) -> None:
    """Outputs must equal those of every earlier run of the same code, seed and size."""
    try:
        seen = json.loads(store.read_text())
    except (OSError, ValueError):
        seen = {}
    if key in seen:
        checks.check(seen[key] == outcome, "outputs identical to an earlier run of the same code")
        return
    seen[key] = outcome
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    tmp.replace(store)


@contextmanager
def tracing(tracer, ref):
    """Wrap the traced functions; speed-probe runs inside a span are
    recorded as excluded time, so no layer is charged for them."""
    import layers
    from tracer import installed

    ref.on_sample = tracer.exclude
    try:
        with installed(tracer, layers.targets(tracer)) as missing:
            yield missing
    finally:
        ref.on_sample = None


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads
    from reference import Reference
    from tracer import Tracer

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    n_images = workloads.SMOKE_IMAGES if args.smoke else wl.n_images
    if args.setup_child:
        return setup_child(args, wl, n_images)

    args.work = args.work.resolve() / wl.name
    args.work.mkdir(parents=True, exist_ok=True)
    paths = workloads.Paths(args.work)
    checks = workloads.Checks()
    facts = machine_facts()
    traced = bool(args.trace)
    ref = Reference()

    setup_tracer = Tracer()
    if traced:
        with tracing(setup_tracer, ref) as missing:
            rc, raw, scaled = workloads.setup(wl, n_images, args.seed, paths, ref)
    else:
        missing = []
        rc, raw, scaled = workloads.setup(wl, n_images, args.seed, paths, ref)
    if not checks.check(rc == 0, f"gen-data exited {rc}"):
        sys.exit("error: set-up failed")
    setup_samples = [{"raw_s": raw, "scaled_s": scaled}]
    if not traced:
        reps = SMOKE_SETUP_SAMPLES if args.smoke else SETUP_SAMPLES
        setup_samples += child_setups(args, reps - 1, checks)

    # Timed passes. A traced run alternates untraced and traced passes,
    # starting untraced, so the pair gives the tracing overhead.
    pass_tracer = Tracer()
    passes = []
    attempts = 0
    more = stop_rule(args.seconds, 2 if traced else 1)
    while attempts == 0 or more(attempts):
        is_traced = traced and attempts % 2 == 1
        attempts += 1
        if is_traced:
            with tracing(pass_tracer, ref):
                rec = workloads.run_pass(wl, n_images, paths, checks, ref)
        else:
            rec = workloads.run_pass(wl, n_images, paths, checks, ref)
        if rec is not None:
            rec["traced"] = is_traced
            passes.append(rec)
            if len(passes) == 1:
                # Sampled after a fixed amount of work: the feature cache
                # keeps growing over later passes, so a later sample would
                # depend on how many passes fit in the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = [p for p in passes if not p["traced"]]
    if not plain or (traced and len(plain) == len(passes)):
        sys.exit("error: no pass of each kind succeeded")

    # Off the clock: repeatability within and across runs, and the identity.
    first = workloads.outcome(passes[0])
    for rec in passes[1:]:
        checks.check(workloads.outcome(rec) == first, "pass outputs identical to the first pass")
    key = f"{wl.name}|seed={args.seed}|images={n_images}|src={facts['source_sha256']}"
    check_repeatable(key, first, args.work.parent / "expected.json", checks)
    workloads.identity_check(wl, paths, checks)

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "facts": facts,
        "setup_s_samples": setup_samples,
        "reference_samples": ref.samples,
        "passes": passes,
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
        "error_rate": len(checks.failures) / checks.attempted,
    }
    if traced:
        metrics = traced_metrics(args, passes, plain, setup_tracer, pass_tracer, report)
        report["untraced_targets"] = missing
    else:
        metrics = {
            "setup_s": (median([x["scaled_s"] for x in setup_samples]), "s"),
            "train_step_s": (median([p["train_scaled_s"] / p["grad_evals"] for p in plain]), "s"),
            "infer_images_per_s": (
                median([p["images"] / i["scaled_s"] for p in plain for i in p["infer"]]), "images/s"),
            "test_accuracy": (first["test_accuracy"], "fraction"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        extra = {
            "error_rate": (report["error_rate"], "fraction"),
            "raw.setup_s": (median([x["raw_s"] for x in setup_samples]), "s"),
            "raw.train_step_s": (median([p["train_s"] / p["grad_evals"] for p in plain]), "s"),
            "raw.infer_images_per_s": (
                median([p["images"] / i["raw_s"] for p in plain for i in p["infer"]]), "images/s"),
            "reference_s": (median([took for _, took in ref.samples]), "s"),
        }
        if first["mean_kl"] is not None:
            extra["mean_kl"] = (first["mean_kl"], "nats")
        report["extra_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out = args.work.parent / f"{wl.name}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"# machine {json.dumps(facts)}")
    print(f"# {wl.name} seed={args.seed} passes={len(passes)} "
          f"(traced {sum(p['traced'] for p in passes)}) setup samples={len(setup_samples)}")
    for name, (value, unit) in {**metrics, **(extra if not traced else {})}.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"# report {out}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": report["metrics"],
    }))
    return 0


def traced_metrics(args, passes, plain, setup_tracer, pass_tracer, report) -> dict:
    import layers
    from tracer import summarize, wrapper_cost

    traced = [p for p in passes if p["traced"]]
    k = len(traced)
    spans, counts = layers.combined(setup_tracer, pass_tracer, k)
    metrics = layers.per_layer_metrics(spans, counts)

    def wall(p):
        return p["train_s"] + sum(i["raw_s"] for i in p["infer"])

    def scaled(p):
        return p["train_scaled_s"] + sum(i["scaled_s"] for i in p["infer"])

    base = median([scaled(p) for p in plain])
    overhead = median([scaled(p) for p in traced]) - base
    spans_per_pass = len(setup_tracer) + len(pass_tracer) / k
    metrics["trace.spans"] = (spans_per_pass, "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / base, "fraction")
    # The measured overhead above is a difference of two noisy pass times;
    # this is the part of it the wrappers themselves account for.
    metrics["trace.wrapper_cost_s"] = (spans_per_pass * wrapper_cost(), "s")
    # Self times of the traced passes add up to their command time (probe
    # runs taken out), less the root wrappers' own entry and exit.
    self_sum = sum(row["self_s"] for row in summarize(pass_tracer).values())
    report["closure"] = {
        "self_time_sum_s": self_sum,
        "traced_command_wall_s": sum(wall(p) for p in traced),
        "traced_passes": k,
        "overhead_s_per_pass": overhead,
    }
    setup_tracer.save(args.work / "spans-setup.npz")
    pass_tracer.save(args.work / "spans-passes.npz")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
