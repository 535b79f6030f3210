"""Golden outputs: every command on a 4-image dataset, compared with the
files committed under tests/golden/.

Structure, strings, integers and accuracies must match exactly; other
floats to rtol=1e-9, atol=1e-12. After an intended change of output,
regenerate the files (and say why in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from mfnet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (case, argv, files the command writes), run in order in one directory.
CASES = [
    ("gen-data", "gen-data --out data --n 4 --seed 0",
     ["data/train/manifest.json", "data/test/manifest.json"]),
    ("train-crf", "train-crf --data data/train --out theta.json --log crf.jsonl"
     " --steps 2 --mf-iters 5", ["theta.json", "crf.jsonl"]),
    ("run-mf", "run-mf --params theta.json --data data/test --iters 5", []),
    ("run-mf-raster", "run-mf --params theta.json --data data/test --iters 5"
     " --schedule raster", []),
    ("train-mfn-inference", "train-mfn-inference --params theta.json --data data/train"
     " --out kl.json --log kl.jsonl --iters 2 --steps 2", ["kl.json", "kl.jsonl"]),
    ("train-mfn-inference-raster", "train-mfn-inference --params theta.json"
     " --data data/train --out kl-raster.json --log kl-raster.jsonl --iters 2 --steps 2"
     " --schedule raster", ["kl-raster.json", "kl-raster.jsonl"]),
    ("train-mfn-disc", "train-mfn-disc --params theta.json --data data/train"
     " --out disc.json --log disc.jsonl --layers 2 --phase1-steps 1 --phase2-steps 2",
     ["disc.json", "disc.jsonl"]),
    ("train-mfn-disc-tied-raster", "train-mfn-disc --params theta.json --data data/train"
     " --out disc-tied.json --log disc-tied.jsonl --layers 2 --phase1-steps 2"
     " --phase2-steps 0 --schedule raster", ["disc-tied.json", "disc-tied.jsonl"]),
    ("eval-mfn", "eval --model disc.json --data data/test --iters 2", []),
    ("eval-mfn-raster", "eval --model kl-raster.json --data data/test --iters 2"
     " --schedule raster", []),
    ("eval-crf", "eval --model theta.json --data data/test --iters 3", []),
]


def run_cases(workdir: Path) -> dict:
    """{case: {file name: text}} for every case, stdout as `stdout.txt`."""
    outputs = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for case, argv, files in CASES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv.split())
            assert code == 0, case
            outputs[case] = {"stdout.txt": out.getvalue()}
            outputs[case].update((f, Path(f).read_text()) for f in files)
    finally:
        os.chdir(cwd)
    return outputs


def parse(name: str, text: str):
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def assert_matches(got, want, where: str, exact: bool = False) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}", exact or "accuracy" in key)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]", exact)
    elif isinstance(want, float) and not exact:
        assert isinstance(got, float), where
        assert abs(got - want) <= 1e-12 + 1e-9 * abs(want), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", [c[0] for c in CASES])
def test_outputs_match_golden(outputs, case):
    folder = GOLDEN / case
    committed = sorted(str(p.relative_to(folder)) for p in folder.rglob("*") if p.is_file())
    assert committed == sorted(outputs[case])
    for name, text in outputs[case].items():
        want = parse(name, (folder / name).read_text())
        assert_matches(parse(name, text), want, f"{case}/{name}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = run_cases(Path(tmp))
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case, files in fresh.items():
        for name, text in files.items():
            path = GOLDEN / case / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    print(f"wrote {sum(map(len, fresh.values()))} files under {GOLDEN}", file=sys.stderr)
