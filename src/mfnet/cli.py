"""Command line harness for the denoising experiments.

Exit codes: 0 success, 1 validation failure, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import crf, data, mfn
from .crf import CrfParams
from .engine import checkerboard_schedule, raster_schedule
from .mfn import DiscProtocol, MfnParams
from .mrf import decode, unnormalized_kl_arrays

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
# Numeric flags checked before any command runs, by their argparse names.
FINITE_FLAGS = ("lr", "momentum", "phase1_lr", "phase1_momentum", "phase2_lr",
                "phase2_momentum", "c", "tol")
POSITIVE_FLAGS = ("c", "tol")
# Upper bounds on counts. Each keeps an accepted run on 50x100 images within
# about 100 MB of peak RSS above the 55 MB of `import mfnet.cli`.
# gen-data holds both splits until it writes them: 160 KB per n, 80 MB (78 measured).
MAX_IMAGES = 500
MAX_SWEEPS = 10**6  # mean field sweeps: one 8-byte list entry each, 8 MB
# Network layers: per layer of an image, at most 820 KB (untied, checkerboard,
# every layer its own tables: inputs, step operators and the transposes the
# reverse pass stores, 256 KB of them; tape and reverse-pass gradients; 570 KB
# on raster), 82 MB; one 100-layer forward and reverse pass measured 90 MB.
MAX_LAYERS = 100
MAX_CHECK_SIZE = 100  # grad-check --size; the 100 x 100 check peaks near 80 MB of RSS
# grad-check --max-layers; the untied checks grow with its cube (15 s at 10 and --size 6).
MAX_CHECK_LAYERS = 10
# (least, most) of each count flag, per command. A network needs a layer and
# a split an image; `run-mf --iters 0` runs no sweep and stays valid.
COUNT_BOUNDS = {
    "gen-data": {"seed": (0, None), "n": (1, MAX_IMAGES)},
    "train-crf": {"mf_iters": (0, MAX_SWEEPS), "steps": (0, None)},
    "run-mf": {"iters": (0, MAX_SWEEPS)},
    "train-mfn-inference": {"iters": (1, MAX_LAYERS), "steps": (0, None)},
    "train-mfn-disc": {"layers": (1, MAX_LAYERS), "phase1_steps": (0, None),
                       "phase2_steps": (0, None)},
    "eval": {"iters": (1, MAX_LAYERS)},
    "grad-check": {"seed": (0, None), "size": (1, MAX_CHECK_SIZE),
                   "max_layers": (1, MAX_CHECK_LAYERS)},
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_args(args) -> None:
    """Reject, before the command reads anything, a value that fails its
    flag table check, naming the flag and the value, and a trainer's --out
    or --log that is a directory, lies in a missing one or is the --data
    manifest, or a --log that is the --out or --params file, naming the
    path."""
    given = vars(args)

    def reject(name, rule):
        raise ValueError(f"{_flag(name)} must be {rule}, got {given[name]}")

    for name in FINITE_FLAGS:
        if name in given and not math.isfinite(given[name]):
            reject(name, "finite")
    for name in POSITIVE_FLAGS:
        if name in given and not given[name] > 0:
            reject(name, "positive")
    for name, (least, most) in COUNT_BOUNDS.get(args.command, {}).items():
        if given[name] < least:
            reject(name, f">= {least}")
        if most is not None and given[name] > most:
            reject(name, f"<= {most}")
    # The trainers are the commands with --log; gen-data's --out is the
    # directory it writes into. A trainer writes over none of its inputs:
    # not the split's manifest, nor with --log the --params file (--out may
    # replace parameters with parameters).
    if "log" in given:
        manifest = _manifest(args.data).resolve()
        for name in ("out", "log") if args.log else ("out",):
            path = Path(given[name])
            if path.is_dir():
                raise ValueError(f"{_flag(name)} {given[name]}: is a directory")
            if not path.parent.is_dir():
                raise ValueError(f"{_flag(name)} {given[name]}: no directory {path.parent}")
            if path.resolve() == manifest:
                raise ValueError(f"{_flag(name)} {given[name]}: is the --data manifest")
        log = Path(args.log).resolve() if args.log else None
        if log == Path(args.out).resolve():
            raise ValueError(f"--log {args.log}: is the --out file")
        if log is not None and "params" in given and log == Path(args.params).resolve():
            raise ValueError(f"--log {args.log}: is the --params file")


class _Parser(argparse.ArgumentParser):
    """Raises a parse error as a ValueError, which `main` prints as one
    line; the subcommand parsers are made of this class too."""

    def error(self, message):
        raise ValueError(message)


def _join_negative_values(argv: list) -> list:
    """`--flag -1e-3` as `--flag=-1e-3`: argparse takes a value that starts
    with `-` but is not a plain decimal, such as -1e-3 or -inf, for a flag."""
    out: list = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={arg}"
                continue
        out.append(arg)
    return out


def _drain(pairs: list):
    """Yield the pairs in order, dropping each from the list as it goes, so
    an image, and with it its cached feature matrix, is freed once the
    loop moves past it."""
    pairs.reverse()
    while pairs:
        yield pairs.pop()


def _manifest(data_arg) -> Path:
    """The split manifest a --data value names: the path itself, or the
    manifest.json of a directory."""
    path = Path(data_arg)
    return path / "manifest.json" if path.is_dir() else path


def _load_data(args):
    """Image pairs of the --data split, given its manifest or the directory
    holding it, and the --schedule for their size."""
    path = _manifest(args.data)
    pairs = [img.pair for img in data.load_split(path)]
    if not pairs:
        raise ValueError(f"{path}: the split holds no images")
    shape = pairs[0][0].shape
    other = next((x.shape for x, _ in pairs if x.shape != shape), None)
    if other is not None:
        raise ValueError(f"{path}: the images differ in size, {shape} and {other}")
    h, w = shape
    if args.schedule == "raster":
        return pairs, raster_schedule(h * w)
    return pairs, checkerboard_schedule(h, w)


def _save(args, params, log) -> int:
    """A trainer's last step: the parameters to --out, the log rows as JSON
    lines to --log when given, and the --out path to stdout."""
    Path(args.out).write_text(json.dumps(params.to_json_dict(), indent=2) + "\n")
    if args.log:
        Path(args.log).write_text("".join(json.dumps(row) + "\n" for row in log))
    print(args.out)
    return EXIT_OK


CRF_FORMAT = "a CRF parameter object with keys w, p_h, p_v"
MODEL_FORMAT = f"an MFN model with keys tied, layers, or {CRF_FORMAT}"


def _read_params(path, parse, expected):
    """parse(d) of the JSON object in `path`; a missing key or a value of the
    wrong type is reported with the file and the `expected` format."""
    d = data.read_json(path)
    if not isinstance(d, dict):
        raise ValueError(f"{path}: parameters must be a JSON object")
    try:
        return parse(d)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}; expected {expected}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}; expected {expected}") from None


def _load_crf_params(path) -> CrfParams:
    return _read_params(path, CrfParams.from_json_dict, CRF_FORMAT)


def _load_model(path) -> MfnParams:
    def parse(d):
        if "tied" in d:
            return MfnParams.from_json_dict(d)
        return MfnParams.tied_from(CrfParams.from_json_dict(d))

    return _read_params(path, parse, MODEL_FORMAT)


def cmd_gen_data(args) -> int:
    train, test = data.generate_dataset(
        n=args.n, seed=args.seed, flip_p=args.flip_p, sigma=args.sigma
    )
    meta = {
        "seed": args.seed,
        "height": data.DEFAULT_H,
        "width": data.DEFAULT_W,
        "flip_probability": args.flip_p,
        "gaussian_sigma": args.sigma,
    }
    out = Path(args.out)
    for name, split in (("train", train), ("test", test)):
        path = data.save_split(split, out / name, dict(meta, split=name))
        print(path)
    return EXIT_OK


def cmd_train_crf(args) -> int:
    pairs, schedule = _load_data(args)
    log: list = []
    theta = crf.train_baseline(
        pairs,
        crf.theta0(),
        steps=args.steps,
        learning_rate=args.lr,
        mf_iters=args.mf_iters,
        schedule=schedule,
        log=log,
    )
    return _save(args, theta, log)


def cmd_run_mf(args) -> int:
    theta = _load_crf_params(args.params)
    pairs, schedule = _load_data(args)
    kls = []
    accs = []
    marginals = crf.mf_marginals_each(_drain(pairs), theta, args.iters, schedule)
    for i, (_, x_hat, model, q) in enumerate(marginals):
        kls.append(
            unnormalized_kl_arrays(
                q.probs, model.unary, model.pairwise, model.topology.edges
            )
        )
        if not math.isfinite(kls[-1]):  # JSON has no infinity
            raise FloatingPointError(f"{args.data}: files[{i}]: unnormalized KL is {kls[-1]}")
        accs.append(float(np.mean(decode(q.probs) == x_hat.ravel())))
    result = {
        "iters": args.iters,
        "schedule": args.schedule,
        "mean_unnormalized_kl": float(np.mean(kls)),
        "mean_accuracy": float(np.mean(accs)),
        "per_image_kl": kls,
        "per_image_accuracy": accs,
    }
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_train_mfn_inference(args) -> int:
    theta = _load_crf_params(args.params)
    pairs, schedule = _load_data(args)
    log: list = []
    params = mfn.train_inference(
        pairs,
        theta,
        n_layers=args.iters,
        schedule=schedule,
        learning_rate=args.lr,
        momentum=args.momentum,
        steps=args.steps,
        log=log,
    )
    return _save(args, params, log)


def cmd_train_mfn_disc(args) -> int:
    theta = _load_crf_params(args.params)
    pairs, schedule = _load_data(args)
    protocol = DiscProtocol(**{f.name: getattr(args, f.name) for f in fields(DiscProtocol)})
    result = mfn.train_discriminative(
        pairs, theta, n_layers=args.layers, schedule=schedule, protocol=protocol
    )
    params = result.phase1_params if args.phase2_steps == 0 else result.params
    return _save(args, params, result.log)


def cmd_eval(args) -> int:
    params = _load_model(args.model)
    n = len(params.layers)
    if not params.tied and n != args.iters:
        raise ValueError(f"{args.model}: an untied model of {n} layer{'s' * (n != 1)} "
                         f"needs --iters {n}, got {args.iters}")
    pairs, schedule = _load_data(args)
    accs = []
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    traces = mfn.forward_each(_drain(pairs), params, args.iters, schedule)
    for i, (y, x_hat, trace) in enumerate(traces):
        pred = mfn.predict(trace).reshape(y.shape)
        accs.append(data.pixel_accuracy(pred, x_hat))
        if out_dir:
            data.write_pgm(out_dir / f"pred_{i:03d}.pgm", pred * 255, 255)
    result = {"mean_accuracy": float(np.mean(accs)), "per_image_accuracy": accs}
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_grad_check(args) -> int:
    from .gradcheck import run_grad_check

    report = run_grad_check(size=args.size, max_layers=args.max_layers, seed=args.seed)
    print(json.dumps(report, indent=2))
    return EXIT_NUMERICAL if report["max_rel_err"] >= args.tol else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by several commands, each declared once as a parent parser.
    out, log, params, split = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    out.add_argument("--out", required=True,
                     help="output parameter JSON (gen-data: output directory)")
    log.add_argument("--log", default=None, help="JSON-lines metrics log")
    params.add_argument("--params", required=True, help="CRF parameter JSON")
    split.add_argument("--data", required=True, help="split manifest or its directory")
    split.add_argument("--schedule", choices=["checkerboard", "raster"], default="checkerboard")

    p = sub.add_parser("gen-data", parents=[out],
                       help="generate the synthetic letter dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--flip-p", type=float, default=data.DEFAULT_FLIP_P)
    p.add_argument("--sigma", type=float, default=data.DEFAULT_SIGMA)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-crf", parents=[split, out, log],
                       help="likelihood-train the baseline CRF")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-5)
    p.add_argument("--mf-iters", type=int, default=30)
    p.set_defaults(func=cmd_train_crf)

    p = sub.add_parser("run-mf", parents=[params, split],
                       help="evaluate mean field for fixed parameters")
    p.add_argument("--iters", type=int, default=30)
    p.set_defaults(func=cmd_run_mf)

    p = sub.add_parser("train-mfn-inference", parents=[params, split, out, log],
                       help="train untied layers to a KL target")
    p.add_argument("--iters", type=int, default=3, help="number of layers")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--steps", type=int, default=50)
    p.set_defaults(func=cmd_train_mfn_inference)

    p = sub.add_parser("train-mfn-disc", parents=[params, split, out, log],
                       help="two-phase hinge training")
    p.add_argument("--layers", type=int, default=3)
    for f in fields(DiscProtocol):
        p.add_argument(_flag(f.name), type=type(f.default), default=f.default)
    p.set_defaults(func=cmd_train_mfn_disc)

    p = sub.add_parser("eval", parents=[split], help="accuracy of a saved model on a split")
    p.add_argument("--model", required=True, help="CRF or MFN parameter JSON")
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--out-dir", default=None, help="write per-image predictions as PGM")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference check of the reverse pass")
    p.add_argument("--size", type=int, default=6)
    p.add_argument("--max-layers", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser().parse_args(argv)
        # Non-finite results are detected where they arise (the engine and
        # the descent loop) and reported below as one line, without numpy's
        # floating-point warnings ahead of it.
        _check_args(args)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except SystemExit:  # -h: argparse printed the help
        return EXIT_OK
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_VALIDATION
    except (FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
