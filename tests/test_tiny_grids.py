"""Every command on the smallest grids: a 1x1 checkerboard has an empty white
block, and a 1xW raster sweep is W single-site steps."""
import json

import numpy as np
import pytest

from mfnet import data, meanfield
from mfnet.cli import main
from mfnet.crf import build_mrf, theta0
from mfnet.engine import checkerboard_schedule, raster_schedule
from mfnet.mfn import MfnParams, forward
from mfnet.mrf import softmax_init

SIZES = [(1, 1), (1, 5), (2, 1), (3, 3)]


def _finite_numbers(value):
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or np.isfinite(value)


@pytest.fixture(scope="module", params=SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def split(request, tmp_path_factory):
    h, w = request.param
    rng = np.random.default_rng(h * 10 + w)
    images = [data.LabeledImage(input=rng.random((h, w)), label=rng.integers(0, 2, (h, w)))
              for _ in range(2)]
    root = tmp_path_factory.mktemp(f"grid{h}x{w}")
    manifest = data.save_split(images, root / "split", {"height": h, "width": w})
    theta = root / "theta.json"
    theta.write_text(json.dumps(theta0().to_json_dict()))
    return manifest, theta


@pytest.mark.parametrize("argv", [
    ["run-mf", "--params", "{theta}", "--data", "{data}", "--iters", "3"],
    ["run-mf", "--params", "{theta}", "--data", "{data}", "--iters", "2", "--schedule", "raster"],
    ["eval", "--model", "{theta}", "--data", "{data}", "--iters", "3"],
    ["eval", "--model", "{theta}", "--data", "{data}", "--iters", "2", "--schedule", "raster"],
], ids=["run-mf", "run-mf-raster", "eval", "eval-raster"])
def test_inference_commands_print_finite_results(split, argv, capsys):
    manifest, theta = split
    code = main([a.format(theta=theta, data=manifest) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out)
    assert len(result["per_image_accuracy"]) == 2 and _finite_numbers(result)


@pytest.mark.parametrize("argv", [
    ["train-crf", "--steps", "1", "--mf-iters", "2"],
    ["train-mfn-inference", "--params", "{theta}", "--steps", "1", "--iters", "2"],
    ["train-mfn-disc", "--params", "{theta}", "--layers", "2",
     "--phase1-steps", "1", "--phase2-steps", "1"],
], ids=lambda argv: argv[0])
def test_trainers_write_finite_parameters(split, argv, tmp_path, capsys):
    manifest, theta = split
    out = tmp_path / "out.json"
    code = main([a.format(theta=theta) for a in argv] + ["--data", str(manifest), "--out", str(out)])
    assert code == 0 and capsys.readouterr().out == f"{out}\n"
    assert _finite_numbers(json.loads(out.read_text()))


@pytest.mark.parametrize("h, w", SIZES)
def test_tied_forward_equals_mean_field(h, w):
    y = np.random.default_rng(h * 10 + w).random((h, w))
    model = build_mrf(y, theta0())
    for schedule in (checkerboard_schedule(h, w), raster_schedule(h * w)):
        for n_layers in (1, 3):
            q, _ = meanfield.run(model, softmax_init(model), n_layers, schedule)
            trace = forward(y, MfnParams.tied_from(theta0()), n_layers, schedule)
            assert trace.q_final.tobytes() == q.probs.tobytes()
