"""The three workloads: cold set-up, one timed pass, and the output checks.

Each workload is one training command followed by an inference command,
driven in-process through `mfnet.cli.main`. A pass runs both; the runner
repeats passes in a closed loop (one caller, one command at a time).

Where first-call work is counted:

- `setup_s` is `gen-data`, writing the theta0 parameter JSON, loading the
  train split, building its feature matrices and compiling the schedule,
  all in a process that has not called `mfnet` before.
- The compiled schedule is cached per topology object, and the grid
  topology is cached per image size, so later commands in the same process
  reuse it: the schedule compile is counted in `setup_s` only.
- Feature matrices are cached per image array. Every command reloads its
  images, so every command builds them again; that cost is part of the
  command's own wall time (`train_step_s`, `infer_images_per_s`) as well as
  of `setup_s`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mfnet import cli, crf, data, engine, meanfield, mfn
from mfnet.mrf import softmax_init

from reference import Reference


@dataclass(frozen=True)
class Workload:
    name: str
    n_images: int   # gen-data --n: images in each of the train and test splits
    schedule: str   # checkerboard or raster
    sweeps: int     # sweeps of the inference command and of the identity check
    train: tuple    # training command; {theta} {train} {model} {log} are filled in
    infer: tuple    # inference command; {model} {test} are filled in
    infer_repeats: int = 1  # inference commands per pass


WORKLOADS = {
    w.name: w
    for w in (
        # Paper size, 2 block steps per sweep: the tape, the reverse pass and
        # the 28-vector fold of the hinge gradient dominate.
        Workload(
            "hinge-train", 50, "checkerboard", 3,
            train=("train-mfn-disc", "--params", "{theta}", "--data", "{train}",
                   "--out", "{model}", "--log", "{log}", "--layers", "3",
                   "--phase1-steps", "2", "--phase2-steps", "2"),
            infer=("eval", "--model", "{model}", "--data", "{test}", "--iters", "3"),
            # One eval takes well under a second; repeats give the inference
            # metric more samples per run.
            infer_repeats=4,
        ),
        # Forward only, 30 sweeps per image: no tape and no reverse pass.
        # train-crf --steps 1 runs two mean-field passes (the initial point
        # and one update), which its log shows as two rows.
        Workload(
            "mf30-crf", 50, "checkerboard", 30,
            train=("train-crf", "--data", "{train}", "--out", "{model}",
                   "--log", "{log}", "--steps", "1", "--mf-iters", "30"),
            infer=("run-mf", "--params", "{model}", "--data", "{test}", "--iters", "30"),
        ),
        # 5,000 single-site block steps per sweep with tiny arithmetic each,
        # and the KL branch of the reverse pass.
        Workload(
            "raster-kl", 8, "raster", 3,
            train=("train-mfn-inference", "--params", "{theta}", "--data", "{train}",
                   "--out", "{model}", "--log", "{log}", "--schedule", "raster",
                   "--iters", "3", "--steps", "1"),
            infer=("eval", "--model", "{model}", "--data", "{test}",
                   "--schedule", "raster", "--iters", "3"),
            infer_repeats=2,
        ),
    )
}

SMOKE_IMAGES = 1  # images per split in the benchmark's own smoke test


class Checks:
    """Counts output checks; failures keep a one-line reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)


def all_finite(obj) -> bool:
    """True when every number inside a parsed JSON value is finite."""
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def run_command(argv) -> tuple:
    """(exit code, stdout) of one in-process `mfn` command.

    An exception escaping `cli.main` is reported and counts as exit code None.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(list(argv))
        except Exception:  # a crash is a failed command, not a crashed benchmark
            traceback.print_exc()
            rc = None
    return rc, out.getvalue()


class Paths:
    def __init__(self, work: Path):
        self.work = work
        self.data = work / "data"
        self.theta = work / "theta0.json"
        self.model = work / "model.json"
        self.log = work / "train_log.jsonl"

    def fill(self, template) -> list:
        fields = {
            "theta": self.theta,
            "train": self.data / "train" / "manifest.json",
            "test": self.data / "test" / "manifest.json",
            "model": self.model,
            "log": self.log,
        }
        return [arg.format(**fields) for arg in template]


def schedule_for(name: str, shape):
    h, w = shape
    return engine.checkerboard_schedule(h, w) if name == "checkerboard" else engine.raster_schedule(h * w)


def setup(wl: Workload, n_images: int, seed: int, paths: Paths, ref: Reference) -> tuple:
    """Cold set-up; returns (exit code of gen-data, raw seconds, scaled seconds)."""
    shutil.rmtree(paths.data, ignore_errors=True)
    paths.work.mkdir(parents=True, exist_ok=True)
    gen = ("gen-data", "--out", str(paths.data), "--n", str(n_images), "--seed", str(seed))

    def cold():
        rc, _ = run_command(gen)
        if rc == 0:
            theta = crf.theta0()
            paths.theta.write_text(json.dumps(theta.to_json_dict()) + "\n")
            images = data.load_split(paths.data / "train" / "manifest.json")
            mrfs = [crf.build_mrf(img.input, theta) for img in images]
            schedule = schedule_for(wl.schedule, images[0].input.shape)
            engine.compile_schedule(mrfs[0].topology, schedule)
        return rc

    return ref.timed(cold)


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _infer_once(wl: Workload, n_images: int, paths: Paths, checks: Checks, ref: Reference):
    """(raw seconds, scaled seconds, parsed output) of one inference command,
    or None."""
    (rc, out), raw, scaled = ref.timed(lambda: run_command(paths.fill(wl.infer)))
    if not checks.check(rc == 0, f"{wl.infer[0]} exited {rc}"):
        return None
    try:
        result = json.loads(out)
        accs = result["per_image_accuracy"]
        acc = result["mean_accuracy"]
    except (ValueError, KeyError, TypeError) as exc:
        checks.check(False, f"{wl.infer[0]} output unreadable: {exc}")
        return None
    checks.check(
        all_finite(result) and len(accs) == n_images and 0.0 <= acc <= 1.0,
        f"{wl.infer[0]} output finite with one accuracy per test image",
    )
    return raw, scaled, result


def run_pass(wl: Workload, n_images: int, paths: Paths, checks: Checks, ref: Reference):
    """One training command, then the inference command `infer_repeats` times.

    Each command's time is given raw and scaled by the reference kernel.
    Output checks run off the clock. Returns the pass record, or None when
    a command failed.
    """
    (rc, _), train_s, train_scaled = ref.timed(lambda: run_command(paths.fill(wl.train)))
    if not checks.check(rc == 0, f"{wl.train[0]} exited {rc}"):
        return None
    try:
        rows = _read_jsonl(paths.log)
        model_text = paths.model.read_text()
        model_ok = all_finite(json.loads(model_text))
    except (OSError, ValueError) as exc:
        checks.check(False, f"{wl.train[0]} output unreadable: {exc}")
        return None
    # Gradient evaluations are counted from the log, one row each.
    checks.check(len(rows) >= 1 and all_finite(rows), f"{wl.train[0]} log rows finite")
    checks.check(model_ok, f"{wl.train[0]} parameters finite")

    infer = []
    results = []
    for _ in range(wl.infer_repeats):
        got = _infer_once(wl, n_images, paths, checks, ref)
        if got is None:
            return None
        raw, scaled, result = got
        infer.append({"raw_s": raw, "scaled_s": scaled})
        results.append(result)
    for result in results[1:]:
        checks.check(result == results[0], f"repeated {wl.infer[0]} output identical")
    return {
        "train_s": train_s,
        "train_scaled_s": train_scaled,
        "grad_evals": len(rows),
        "infer": infer,
        "images": len(results[0]["per_image_accuracy"]),
        "test_accuracy": results[0]["mean_accuracy"],
        "mean_kl": results[0].get("mean_unnormalized_kl"),
        "model_sha256": hashlib.sha256(model_text.encode()).hexdigest(),
    }


OUTCOME_KEYS = ("grad_evals", "test_accuracy", "mean_kl", "model_sha256")


def outcome(rec: dict) -> dict:
    """The deterministic part of a pass record."""
    return {k: rec[k] for k in OUTCOME_KEYS}


def identity_check(wl: Workload, paths: Paths, checks: Checks) -> None:
    """Tied mfn.forward equals meanfield.run bit for bit on one full-size test
    image, and its q rows are finite and sum to 1."""
    image = data.load_split(paths.data / "test" / "manifest.json")[0]
    theta = crf.CrfParams.from_json_dict(json.loads(paths.theta.read_text()))
    schedule = schedule_for(wl.schedule, image.input.shape)
    tied = mfn.forward(image.input, mfn.MfnParams.tied_from(theta), wl.sweeps, schedule).q_final
    model = crf.build_mrf(image.input, theta)
    q, _ = meanfield.run(model, softmax_init(model), wl.sweeps, schedule)
    checks.check(np.array_equal(tied, q.probs), "tied forward equals mean field bit for bit")
    checks.check(
        bool(np.all(np.isfinite(tied))) and float(np.max(np.abs(tied.sum(axis=1) - 1.0))) <= 1e-9,
        "q rows finite and summing to 1",
    )
