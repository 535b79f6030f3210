import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfnet import cli, crf, data, gradcheck
from mfnet.cli import build_parser, main
from mfnet.crf import theta0
from mfnet.mfn import MfnParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    code = main(["gen-data", "--out", str(root), "--seed", "5", "--n", "2"])
    assert code == 0
    return root


class TestGenData:
    def test_deterministic_bytes(self, tmp_path, capsys):
        for d in ("a", "b"):
            code, _, _ = run_cli(capsys, "gen-data", "--out", str(tmp_path / d),
                                 "--seed", "7", "--n", "2")
            assert code == 0
        a = (tmp_path / "a/train/img_000_input.pgm").read_bytes()
        b = (tmp_path / "b/train/img_000_input.pgm").read_bytes()
        assert a == b

    def test_noise_free_inputs_equal_labels(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "gen-data", "--out", str(tmp_path), "--seed", "1",
                             "--n", "1", "--flip-p", "0", "--sigma", "0")
        assert code == 0
        split = data.load_split(tmp_path / "train/manifest.json")
        np.testing.assert_array_equal(split[0].input, split[0].label)

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_is_rejected(self, tmp_path, capsys, sigma):
        code, out, err = run_cli(capsys, "gen-data", "--out", str(tmp_path), "--n", "1",
                                 "--sigma", sigma)
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: sigma ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flip_p", ["-1", "1.5", "nan"])
    def test_flip_probability_out_of_range_names_it(self, tmp_path, capsys, flip_p):
        code, out, err = run_cli(capsys, "gen-data", "--out", str(tmp_path), "--n", "1",
                                 "--flip-p", flip_p)
        assert code == 1 and out == ""
        assert err == f"error: flip_p must be in [0, 1], got {float(flip_p)}\n"
        assert not any(tmp_path.iterdir())

    def test_manifest_fields(self, tiny_dataset):
        meta = json.loads((tiny_dataset / "train/manifest.json").read_text())
        assert meta["n_images"] == 2
        assert meta["seed"] == 5
        assert {"height", "width", "flip_probability", "gaussian_sigma"} <= set(meta)


class TestTrainCrf:
    def test_zero_steps_emits_theta0(self, tiny_dataset, tmp_path, capsys):
        out = tmp_path / "params.json"
        log = tmp_path / "log.jsonl"
        code, _, _ = run_cli(capsys, "train-crf", "--data",
                             str(tiny_dataset / "train/manifest.json"),
                             "--out", str(out), "--log", str(log),
                             "--steps", "0", "--mf-iters", "2")
        assert code == 0
        params = json.loads(out.read_text())
        assert len(params["w"]) == 26
        np.testing.assert_allclose(
            np.array(params["w"] + [params["p_h"], params["p_v"]]),
            theta0().to_vector(),
        )
        assert len(log.read_text().splitlines()) == 1  # steps + 1 rows


class TestRunMf:
    def test_json_output_and_determinism(self, tiny_dataset, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(theta0().to_json_dict()))
        args = ("run-mf", "--params", str(params), "--data",
                str(tiny_dataset / "test/manifest.json"), "--iters", "2")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        result = json.loads(out1)
        assert 0.0 <= result["mean_accuracy"] <= 1.0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestChunks:
    @pytest.mark.parametrize("schedule", ["checkerboard", "raster"])
    def test_outputs_do_not_depend_on_the_chunk_size(self, tmp_path, capsys, monkeypatch,
                                                     schedule):
        """train-crf's parameters and log and run-mf's output are the same
        bytes for one image per `meanfield.run`, chunks of 2 on a 5-image
        split (2, 2, then 1) and the default chunk."""
        assert main(["gen-data", "--out", str(tmp_path), "--seed", "7", "--n", "5"]) == 0
        capsys.readouterr()
        outputs = []
        for chunk in (1, 2, crf.MF_CHUNK):
            monkeypatch.setattr(crf, "MF_CHUNK", chunk)
            theta, log = tmp_path / f"theta{chunk}.json", tmp_path / f"log{chunk}.jsonl"
            code, _, _ = run_cli(capsys, "train-crf", "--data", str(tmp_path / "train"),
                                 "--out", str(theta), "--log", str(log), "--steps", "2",
                                 "--mf-iters", "3", "--schedule", schedule)
            assert code == 0
            code, stdout, _ = run_cli(capsys, "run-mf", "--params", str(theta), "--data",
                                      str(tmp_path / "test"), "--iters", "3",
                                      "--schedule", schedule)
            assert code == 0
            outputs.append((theta.read_bytes(), log.read_bytes(), stdout))
        assert len(json.loads(outputs[0][2])["per_image_kl"]) == 5
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestEval:
    def test_writes_pgm_predictions(self, tiny_dataset, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(theta0().to_json_dict()))
        out_dir = tmp_path / "preds"
        code, out, _ = run_cli(capsys, "eval", "--model", str(params), "--data",
                               str(tiny_dataset / "test/manifest.json"),
                               "--iters", "2", "--out-dir", str(out_dir))
        assert code == 0
        result = json.loads(out)
        assert len(result["per_image_accuracy"]) == 2
        assert sorted(p.name for p in out_dir.iterdir()) == ["pred_000.pgm", "pred_001.pgm"]

    def test_accepts_mfn_model_json(self, tiny_dataset, tmp_path, capsys):
        from mfnet.mfn import MfnParams

        model = tmp_path / "m.json"
        params = MfnParams.tied_from(theta0()).untied_copy(2)
        model.write_text(json.dumps(params.to_json_dict()))
        code, out, _ = run_cli(capsys, "eval", "--model", str(model), "--data",
                               str(tiny_dataset / "test/manifest.json"), "--iters", "2")
        assert code == 0
        assert "mean_accuracy" in json.loads(out)


class TestTrainMfn:
    def test_inference_zero_steps(self, tiny_dataset, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(theta0().to_json_dict()))
        out = tmp_path / "mfn.json"
        code, _, _ = run_cli(capsys, "train-mfn-inference", "--params", str(params),
                             "--data", str(tiny_dataset / "train/manifest.json"),
                             "--out", str(out), "--iters", "2", "--steps", "0")
        assert code == 0
        model = json.loads(out.read_text())
        assert model["tied"] is False and len(model["layers"]) == 2

    def test_disc_phase2_zero_yields_tied(self, tiny_dataset, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(theta0().to_json_dict()))
        out = tmp_path / "mfn.json"
        code, _, _ = run_cli(capsys, "train-mfn-disc", "--params", str(params),
                             "--data", str(tiny_dataset / "train/manifest.json"),
                             "--out", str(out), "--layers", "2",
                             "--phase1-steps", "1", "--phase2-steps", "0")
        assert code == 0
        model = json.loads(out.read_text())
        assert model["tied"] is True


LAYERS_ERROR = "layers must be a list of CRF parameter objects; expected an MFN model"


class TestErrors:
    def test_unknown_flag_is_validation_failure(self, capsys):
        code, _, _ = run_cli(capsys, "run-mf", "--bogus", "x")
        assert code == 1

    def test_missing_file_is_validation_failure(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run-mf", "--params", str(tmp_path / "no.json"),
                             "--data", str(tmp_path / "no_manifest.json"))
        assert code == 1

    def test_split_directory_as_data(self, tiny_dataset, tmp_path, capsys):
        out = tmp_path / "params.json"
        code, _, _ = run_cli(capsys, "train-crf", "--data", str(tiny_dataset / "train"),
                             "--out", str(out), "--steps", "0", "--mf-iters", "1")
        assert code == 0
        assert len(json.loads(out.read_text())["w"]) == 26

    def test_directory_without_manifest_is_validation_failure(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train-crf", "--data", str(tmp_path),
                               "--out", str(tmp_path / "params.json"))
        assert code == 1
        assert len(err.strip().splitlines()) == 1

    @staticmethod
    def assert_one_line_naming(code, err, path):
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("command", ["eval", "run-mf"])
    def test_directory_as_parameter_file(self, tiny_dataset, tmp_path, capsys, command):
        flag = "--model" if command == "eval" else "--params"
        code, _, err = run_cli(capsys, command, flag, str(tmp_path),
                               "--data", str(tiny_dataset / "test"))
        self.assert_one_line_naming(code, err, tmp_path)

    def test_manifest_without_images(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"files": []}))
        code, _, err = run_cli(capsys, "train-crf", "--data", str(manifest),
                               "--out", str(tmp_path / "params.json"))
        self.assert_one_line_naming(code, err, manifest)

    def test_parameters_not_a_json_object(self, tiny_dataset, tmp_path, capsys):
        params = tmp_path / "list.json"
        params.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "run-mf", "--params", str(params),
                               "--data", str(tiny_dataset / "test"))
        self.assert_one_line_naming(code, err, params)

    def test_data_not_a_manifest(self, tmp_path, capsys):
        other = tmp_path / "theta.json"
        other.write_text(json.dumps(theta0().to_json_dict()))
        code, _, err = run_cli(capsys, "train-crf", "--data", str(other),
                               "--out", str(tmp_path / "params.json"))
        self.assert_one_line_naming(code, err, other)

    def test_model_as_crf_parameters_names_the_missing_key(self, tiny_dataset, tmp_path,
                                                           capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(MfnParams.tied_from(theta0()).untied_copy(2).to_json_dict()))
        code, _, err = run_cli(capsys, "run-mf", "--params", str(model),
                               "--data", str(tiny_dataset / "test"), "--iters", "1")
        self.assert_one_line_naming(code, err, model)
        assert "'w'" in err and "CRF parameter object" in err

    def test_model_without_layers_names_the_missing_key(self, tiny_dataset, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"tied": True}))
        code, _, err = run_cli(capsys, "eval", "--model", str(model),
                               "--data", str(tiny_dataset / "test"), "--iters", "1")
        self.assert_one_line_naming(code, err, model)
        assert "'layers'" in err and "MFN model" in err

    def test_crf_parameters_without_p_v_name_the_missing_key(self, tiny_dataset, tmp_path,
                                                              capsys):
        params = tmp_path / "theta.json"
        d = theta0().to_json_dict()
        del d["p_v"]
        params.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "train-mfn-inference", "--params", str(params),
                               "--data", str(tiny_dataset / "train"),
                               "--out", str(tmp_path / "kl.json"), "--steps", "0")
        self.assert_one_line_naming(code, err, params)
        assert "'p_v'" in err and "CRF parameter object" in err

    @pytest.mark.parametrize("command, payload, expected", [
        ("run-mf", dict(theta0().to_json_dict(), p_h=None), "CRF parameter object"),
        ("run-mf", dict(theta0().to_json_dict(), w=[1.0, 2.0]), "CRF parameter object"),
        ("eval", {"tied": True, "layers": "x"}, LAYERS_ERROR),
        ("eval", {"tied": True, "layers": [[1, 2]]}, LAYERS_ERROR),
        ("run-mf", dict(theta0().to_json_dict(), p_h=True), "p_h must hold finite numbers; "
         "expected a CRF parameter object"),
        ("run-mf", dict(theta0().to_json_dict(), w=[True] * 26), "w must hold finite numbers"),
        ("run-mf", dict(theta0().to_json_dict(), w=["1.0"] * 26), "w must hold finite numbers"),
        ("run-mf", dict(theta0().to_json_dict(), p_h="1e400"), "p_h must hold finite numbers"),
        # json.dumps writes NaN as the bare token NaN, which Python's json reads back.
        ("run-mf", dict(theta0().to_json_dict(), p_v=float("nan")), "p_v must hold finite numbers"),
        ("run-mf", dict(theta0().to_json_dict(), p_v=10 ** 400), "p_v must hold finite numbers"),
        ("eval", {"tied": "yes", "layers": [theta0().to_json_dict()]}, "tied must be true or "
         "false; expected an MFN model"),
        ("eval", {"tied": "false", "layers": [theta0().to_json_dict()]}, "tied must be true"),
        *[("eval", {"tied": True, "layers": layers}, LAYERS_ERROR)
          for layers in [{"w": 1}, [1, 2], [None], 3, [[1]]]],
    ])
    def test_parameters_of_the_wrong_type_name_the_format(self, tiny_dataset, tmp_path, capsys,
                                                          command, payload, expected):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(payload))
        flag = "--model" if command == "eval" else "--params"
        code, _, err = run_cli(capsys, command, flag, str(params),
                               "--data", str(tiny_dataset / "test"), "--iters", "1")
        self.assert_one_line_naming(code, err, params)
        assert expected in err

    @pytest.mark.parametrize("command, flag", [("run-mf", "--params"), ("eval", "--model"),
                                               ("run-mf", "--data")])
    def test_truncated_json_names_the_file(self, tiny_dataset, tmp_path, capsys, command, flag):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(theta0().to_json_dict(), indent=2))
        files = {"--params": theta, "--model": theta, "--data": tiny_dataset / "test/manifest.json"}
        text = files[flag].read_text()
        files[flag] = tmp_path / "truncated.json"
        files[flag].write_text(text[: len(text) // 2])
        other = "--params" if flag == "--data" else "--data"
        code, _, err = run_cli(capsys, command, flag, str(files[flag]), other, str(files[other]),
                               "--iters", "1")
        self.assert_one_line_naming(code, err, files[flag])
        assert "malformed JSON" in err

    @pytest.mark.parametrize("command, flag", [("run-mf", "--params"), ("eval", "--model"),
                                               ("run-mf", "--data")])
    def test_deeply_nested_json_names_the_file(self, tiny_dataset, tmp_path, capsys, command,
                                               flag):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)  # deeper than the decoder's recursion limit
        files = {"--params": tmp_path / "theta.json", "--data": tiny_dataset / "test"}
        files["--params"].write_text(json.dumps(theta0().to_json_dict()))
        files[flag] = nested
        other = "--params" if flag == "--data" else "--data"
        code, _, err = run_cli(capsys, command, flag, str(nested), other, str(files[other]),
                               "--iters", "1")
        self.assert_one_line_naming(code, err, nested)
        assert "malformed JSON" in err

    @staticmethod
    def split_files(split):
        """The manifest entries of a split directory, with absolute paths."""
        files = json.loads((split / "manifest.json").read_text())["files"]
        return [{k: str(split / v) for k, v in entry.items()} for entry in files]

    @pytest.mark.parametrize("entry", ["img_000_input.pgm", {"input": "img_000_input.pgm"}])
    def test_bad_manifest_entry_names_manifest_and_index(self, tiny_dataset, tmp_path, capsys,
                                                         entry):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"files": self.split_files(tiny_dataset / "test")[:1]
                                        + [entry]}))
        code, _, err = run_cli(capsys, "train-crf", "--data", str(manifest),
                               "--out", str(tmp_path / "params.json"))
        self.assert_one_line_naming(code, err, manifest)
        assert "files[1]" in err

    def test_images_of_different_sizes_name_both_shapes(self, tmp_path, capsys):
        files = []
        for height in (21, 22):
            train, _ = data.generate_dataset(n=1, seed=0, height=height, width=30)
            data.save_split(train, tmp_path / str(height), {})
            files += self.split_files(tmp_path / str(height))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"files": files}))
        code, _, err = run_cli(capsys, "train-crf", "--data", str(manifest),
                               "--out", str(tmp_path / "params.json"))
        self.assert_one_line_naming(code, err, manifest)
        assert "(21, 30)" in err and "(22, 30)" in err

    @pytest.mark.parametrize("case", ["label shape", "pixel above maxval", "zero width",
                                      "manifest not UTF-8", "parameters not UTF-8"])
    def test_malformed_split_names_its_file(self, tiny_dataset, tmp_path, capsys, case):
        entry = self.split_files(tiny_dataset / "test")[0]
        theta, manifest = tmp_path / "theta.json", tmp_path / "manifest.json"
        theta.write_text(json.dumps(theta0().to_json_dict()))
        named = manifest
        if case == "label shape":
            entry["label"] = str(tmp_path / "label.pgm")
            data.write_pgm(entry["label"], np.zeros((3, 4)), 255)
        elif case == "pixel above maxval":
            entry["input"] = str(tmp_path / "input.pgm")
            data.write_pgm(entry["input"], np.full((50, 100), 200), 100)
        elif case == "zero width":
            entry = {k: str(tmp_path / f"{k}.pgm") for k in ("input", "label")}
            for path in entry.values():
                data.write_pgm(path, np.zeros((50, 0)), 255)
            named = entry["input"]
        manifest.write_text(json.dumps({"files": [entry]}))
        if case == "manifest not UTF-8":
            manifest.write_bytes(b"\xff" + manifest.read_bytes())
        elif case == "parameters not UTF-8":
            theta.write_bytes(b"\xff" + theta.read_bytes())
            named = theta
        code, _, err = run_cli(capsys, "run-mf", "--params", str(theta),
                               "--data", str(manifest), "--iters", "1")
        self.assert_one_line_naming(code, err, named)
        if case in ("label shape", "pixel above maxval"):
            assert "files[0]" in err

    def test_untied_model_with_another_layer_count_names_model_and_flag(
            self, tiny_dataset, tmp_path, capsys):
        # The 1-layer output of the README's train-mfn-inference example.
        model = tmp_path / "mfn1.json"
        model.write_text(json.dumps(MfnParams.tied_from(theta0()).untied_copy(1).to_json_dict()))
        code, out, err = run_cli(capsys, "eval", "--model", str(model),
                                 "--data", str(tiny_dataset / "test"), "--iters", "3")
        self.assert_one_line_naming(code, err, model)
        assert out == "" and "1 layer needs --iters 1, got 3" in err

    @pytest.mark.parametrize("exc, shown", [
        (MemoryError("Unable to allocate 7.45 GiB"),
         "error: out of memory: Unable to allocate 7.45 GiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ])
    def test_out_of_memory_is_one_line(self, capsys, monkeypatch, exc, shown):
        def run_grad_check(**_):
            raise exc

        monkeypatch.setattr(gradcheck, "run_grad_check", run_grad_check)
        code, out, err = run_cli(capsys, "grad-check")
        assert (code, out, err) == (1, "", shown)

    @pytest.mark.parametrize("flag, value", [
        ("--max-layers", "0"), ("--size", "0"), ("--size", "-2"), ("--tol", "-1"),
        ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"), ("--size", "1000000"),
        ("--max-layers", "11"),
    ])
    def test_grad_check_flag_out_of_range_names_the_flag(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "grad-check", flag, value)
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {flag} ")

    @pytest.mark.parametrize("argv, flag, value", [
        (["gen-data", "--n", "1", "--out", "{out}"], "--seed", "-1"),
        (["train-crf", "--data", "{train}", "--out", "{out}", "--steps", "1"], "--lr", "nan"),
        (["train-crf", "--data", "{train}", "--out", "{out}", "--steps", "1"],
         "--mf-iters", "-1"),
        (["run-mf", "--params", "{theta}", "--data", "{test}"], "--iters", "-1"),
        (["train-mfn-inference", "--params", "{theta}", "--data", "{train}", "--out", "{out}",
          "--steps", "1"], "--momentum", "nan"),
        (["train-mfn-inference", "--params", "{theta}", "--data", "{train}", "--out", "{out}",
          "--steps", "1"], "--lr", "inf"),
        (["train-mfn-inference", "--params", "{theta}", "--data", "{train}", "--out", "{out}",
          "--steps", "1"], "--iters", "-2"),
        (["train-mfn-disc", "--params", "{theta}", "--data", "{train}", "--out", "{out}",
          "--phase1-steps", "1", "--phase2-steps", "0"], "--phase1-lr", "inf"),
        (["train-mfn-disc", "--params", "{theta}", "--data", "{train}", "--out", "{out}"],
         "--phase1-momentum", "nan"),
        (["train-mfn-disc", "--params", "{theta}", "--data", "{train}", "--out", "{out}"],
         "--phase2-lr", "nan"),
        (["train-mfn-disc", "--params", "{theta}", "--data", "{train}", "--out", "{out}"],
         "--phase2-momentum", "inf"),
        (["train-mfn-disc", "--params", "{theta}", "--data", "{train}", "--out", "{out}"],
         "--c", "nan"),
        (["eval", "--model", "{theta}", "--data", "{test}", "--out-dir", "{out}"],
         "--iters", "-1"),
        (["train-crf", "--data", "{train}", "--out", "{out}"], "--steps", "-1"),
        (["train-mfn-inference", "--params", "{theta}", "--data", "{train}", "--out", "{out}"],
         "--steps", "-1"),
        (["train-mfn-disc", "--params", "{theta}", "--data", "{train}", "--out", "{out}"],
         "--phase1-steps", "-2"),
        (["train-mfn-disc", "--params", "{theta}", "--data", "{train}", "--out", "{out}"],
         "--phase2-steps", "-1"),
    ])
    def test_numeric_flag_out_of_range_names_the_flag(self, tiny_dataset, tmp_path, capsys,
                                                      argv, flag, value):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(theta0().to_json_dict()))
        paths = {"theta": theta, "train": tiny_dataset / "train",
                 "test": tiny_dataset / "test", "out": tmp_path / "out"}
        argv = [a.format(**paths) for a in argv] + [f"{flag}={value}"]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1 and stdout == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {flag} ") and err.strip().endswith(f"got {value}")
        assert not paths["out"].exists()

    @pytest.mark.parametrize("value, shown", [("-inf", "-inf"), ("-nan", "nan")])
    def test_negative_non_finite_value_reaches_the_flag_check(self, tiny_dataset, tmp_path,
                                                              capsys, value, shown):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(theta0().to_json_dict()))
        out = tmp_path / "model.json"
        code, stdout, err = run_cli(capsys, "train-mfn-disc", "--params", str(theta),
                                    "--data", str(tiny_dataset / "train"), "--out", str(out),
                                    "--phase2-lr", value)
        assert code == 1 and stdout == ""
        assert err == f"error: --phase2-lr must be finite, got {shown}\n"
        assert not out.exists()

    def test_negative_finite_value_is_read_as_the_flag_value(self, tiny_dataset, tmp_path,
                                                             capsys):
        outputs = []
        for name, lr in (("spaced", ["--lr", "-1e-3"]), ("joined", ["--lr=-1e-3"])):
            out = tmp_path / f"{name}.json"
            code, _, err = run_cli(capsys, "train-crf", "--data", str(tiny_dataset / "train"),
                                   "--out", str(out), "--steps", "1", "--mf-iters", "1", *lr)
            assert code == 0 and err == ""
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        assert outputs[0] != json.dumps(theta0().to_json_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("argv, flag", [
        (["gen-data", "--out", "{out}"], "--n"),
        (["train-mfn-inference", "--params", "{theta}", "--data", "{train}", "--out", "{out}"],
         "--iters"),
        (["train-mfn-disc", "--params", "{theta}", "--data", "{train}", "--out", "{out}"],
         "--layers"),
        (["eval", "--model", "{theta}", "--data", "{test}", "--out-dir", "{out}"], "--iters"),
    ])
    def test_zero_count_names_the_flag(self, tiny_dataset, tmp_path, capsys, argv, flag):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(theta0().to_json_dict()))
        paths = {"theta": theta, "train": tiny_dataset / "train",
                 "test": tiny_dataset / "test", "out": tmp_path / "out"}
        argv = [a.format(**paths) for a in argv] + [flag, "0"]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1 and stdout == ""
        assert err == f"error: {flag} must be >= 1, got 0\n"
        assert not paths["out"].exists()

    @pytest.mark.parametrize("argv, flag, most", [
        (["gen-data", "--out", "o"], "--n", cli.MAX_IMAGES),
        (["train-crf", "--data", "d", "--out", "o"], "--mf-iters", cli.MAX_SWEEPS),
        (["run-mf", "--params", "p", "--data", "d"], "--iters", cli.MAX_SWEEPS),
        (["train-mfn-inference", "--params", "p", "--data", "d", "--out", "o"], "--iters",
         cli.MAX_LAYERS),
        (["train-mfn-disc", "--params", "p", "--data", "d", "--out", "o"], "--layers",
         cli.MAX_LAYERS),
        (["eval", "--model", "m", "--data", "d"], "--iters", cli.MAX_LAYERS),
        (["grad-check"], "--size", cli.MAX_CHECK_SIZE),
        (["grad-check"], "--max-layers", cli.MAX_CHECK_LAYERS),
    ])
    def test_count_over_its_bound_names_the_flag(self, tmp_path, capsys, monkeypatch, argv,
                                                 flag, most):
        # Rejected before the command reads or allocates anything: the
        # paths named here do not exist.
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(capsys, *argv, flag, str(most + 1))
        assert code == 1 and stdout == ""
        assert err == f"error: {flag} must be <= {most}, got {most + 1}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("c", ["0", "-1"])
    def test_non_positive_cost_is_one_line(self, tiny_dataset, tmp_path, capsys, c):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(theta0().to_json_dict()))
        out = tmp_path / "model.json"
        code, stdout, err = run_cli(capsys, "train-mfn-disc", "--params", str(theta),
                                    "--data", str(tiny_dataset / "train"), "--out", str(out),
                                    "--layers", "1", "--phase1-steps", "1",
                                    "--phase2-steps", "0", "--c", c)
        assert code == 1 and stdout == ""
        assert err == f"error: --c must be positive, got {float(c)}\n"
        assert not out.exists()

    def test_non_positive_cost_without_steps_is_rejected(self, tmp_path, capsys, monkeypatch):
        # No step calls the hinge loss, so only the flag check sees the
        # cost; the split and parameter paths do not exist.
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(capsys, "train-mfn-disc", "--params", "p", "--data", "d",
                                    "--out", "model.json", "--phase1-steps", "0",
                                    "--phase2-steps", "0", "--c", "0")
        assert code == 1 and stdout == ""
        assert err == "error: --c must be positive, got 0.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--log"])
    @pytest.mark.parametrize("where", ["directory", "missing directory", "other file",
                                       "data manifest"])
    @pytest.mark.parametrize("argv", [
        ["train-crf", "--steps", "0"],
        ["train-mfn-inference", "--params", "{missing}", "--steps", "0"],
        ["train-mfn-disc", "--params", "{missing}", "--phase1-steps", "0", "--phase2-steps", "0"],
    ])
    def test_unwritable_output_is_rejected_before_training(self, tiny_dataset, tmp_path, capsys,
                                                           argv, flag, where):
        """"other file": the flag names the other one's file, with a `.` in
        its path; the error names --log either way round. "data manifest":
        the flag names the split's manifest, with a `.` in its path, for a
        --data that is the split's directory or a missing file."""
        manifest = tiny_dataset / "train" / "manifest.json"
        saved = manifest.read_bytes()
        for data in (tiny_dataset / "train", tmp_path / "no_split"):
            paths = {"--out": tmp_path / "model.json", "--log": tmp_path / "log.jsonl"}
            other = paths["--log" if flag == "--out" else "--out"]
            named_file = manifest if data.is_dir() else data
            paths[flag] = {"directory": tmp_path,
                           "missing directory": tmp_path / "missing" / "x.json",
                           "other file": os.path.join(tmp_path, ".", other.name),
                           "data manifest": os.path.join(named_file.parent, ".", named_file.name),
                           }[where]
            named = "--log" if where == "other file" else flag
            code, stdout, err = run_cli(
                capsys, *[a.format(missing=tmp_path / "no.json") for a in argv],
                "--data", str(data), "--out", str(paths["--out"]),
                "--log", str(paths["--log"]))
            assert code == 1 and stdout == ""
            assert err.startswith(f"error: {named} {paths[named]}: ")
            assert len(err.splitlines()) == 1
            assert sorted(tmp_path.iterdir()) == []
            assert manifest.read_bytes() == saved

    @pytest.mark.parametrize("argv", [
        ["train-mfn-inference", "--steps", "0"],
        ["train-mfn-disc", "--phase1-steps", "0", "--phase2-steps", "0"],
    ])
    def test_log_over_the_params_file_is_rejected(self, tiny_dataset, tmp_path, capsys, argv):
        """--log may not name the --params file the run reads; --out may, as
        it replaces parameters with parameters."""
        theta = tmp_path / "theta.json"
        text = json.dumps(theta0().to_json_dict())
        theta.write_text(text)
        dotted = os.path.join(tmp_path, ".", theta.name)
        split = ("--params", str(theta), "--data", str(tiny_dataset / "train"))
        code, stdout, err = run_cli(capsys, *argv, *split, "--out", str(tmp_path / "model.json"),
                                    "--log", dotted)
        assert code == 1 and stdout == ""
        assert err == f"error: --log {dotted}: is the --params file\n"
        assert sorted(tmp_path.iterdir()) == [theta] and theta.read_text() == text
        code, stdout, _ = run_cli(capsys, *argv, *split, "--out", dotted)
        assert code == 0 and stdout == f"{dotted}\n"
        assert sorted(tmp_path.iterdir()) == [theta]
        assert "layers" in json.loads(theta.read_text())

    @pytest.mark.parametrize("argv, shown", [
        (["eval", "--model", "m", "--data", "d", "--iters", "x"], "invalid int value: 'x'"),
        (["train-mfn-disc", "--params", "p", "--data", "d", "--out", "o", "--c", "-1e-3x"],
         "expected one argument"),
        (["run-mf", "--params", "p", "--data", "d", "--bogus", "x"],
         "unrecognized arguments: --bogus x"),
        (["eval", "--data", "d"], "the following arguments are required: --model"),
        (["eval", "--model", "m", "--data", "d", "--schedule", "spiral"], "invalid choice"),
        ([], "the following arguments are required: command"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ])
    def test_parse_error_is_one_line(self, capsys, argv, shown):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and shown in err

    @pytest.mark.parametrize("argv", [["-h"], ["eval", "--help"]])
    def test_help_is_printed_and_exits_zero(self, capsys, argv):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert stdout.startswith("usage: mfn")

    def test_run_mf_with_zero_sweeps_is_valid(self, tiny_dataset, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(theta0().to_json_dict()))
        code, stdout, _ = run_cli(capsys, "run-mf", "--params", str(theta),
                                  "--data", str(tiny_dataset / "test"), "--iters", "0")
        assert code == 0 and json.loads(stdout)["iters"] == 0

    @pytest.mark.parametrize("argv", [
        ["train-mfn-inference", "--steps", "1", "--lr", "1e308"],
        ["train-mfn-disc", "--phase1-steps", "1", "--phase2-steps", "0", "--phase1-lr", "1e308"],
    ])
    def test_overflowing_update_is_numerical_failure(self, tiny_dataset, tmp_path, capsys,
                                                     argv):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(theta0().to_json_dict()))
        out = tmp_path / "model.json"
        code, stdout, err = run_cli(capsys, *argv, "--params", str(theta), "--data",
                                    str(tiny_dataset / "train"), "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("numerical failure: ") and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "run-mf"])
    def test_non_finite_inference_is_numerical_failure(self, tiny_dataset, tmp_path,
                                                       capsys, command):
        params = tmp_path / "big.json"
        params.write_text(json.dumps({"w": [1e306] * 26, "p_h": 1e308, "p_v": 1e308}))
        flag = "--model" if command == "eval" else "--params"
        with np.errstate(all="ignore"):
            code, out, _ = run_cli(capsys, command, flag, str(params), "--data",
                                   str(tiny_dataset / "test"), "--iters", "3")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["eval", "run-mf"])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_non_finite_final_activations_are_numerical_failure(self, tiny_dataset, tmp_path,
                                                                capsys, command, sign):
        # The bias weight alone is finite; each neighbour's Potts constant -p
        # pushes the activations past the float range, to sign * inf, where
        # the softmax still gives a finite q.
        params = tmp_path / "params.json"
        params.write_text(json.dumps(
            {"w": [0.0] * 25 + [sign * 1.7e308], "p_h": -sign * 1e307, "p_v": -sign * 1e307}))
        flag = "--model" if command == "eval" else "--params"
        code, out, err = run_cli(capsys, command, flag, str(params), "--data",
                                 str(tiny_dataset / "test"), "--iters", "3")
        assert code == 2 and out == ""
        assert err == "numerical failure: mean field produced non-finite activations\n"

    def test_run_mf_non_finite_kl_names_the_image(self, tiny_dataset, tmp_path, capsys):
        # Finite activations and q, but the KL's unary sum overflows.
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"w": [0.0] * 25 + [1e305], "p_h": 0.0, "p_v": 0.0}))
        split = tiny_dataset / "test"
        code, out, err = run_cli(capsys, "run-mf", "--params", str(params), "--data",
                                 str(split), "--iters", "3")
        assert code == 2 and out == ""
        assert err == f"numerical failure: {split}: files[0]: unnormalized KL is -inf\n"

    def test_run_mf_non_finite_kl_names_an_image_past_the_first_chunk(self, tmp_path, capsys,
                                                                      monkeypatch):
        # The centre-pixel weight reads 0 on the all-zero inputs, whose KL
        # stays finite; on the all-one input the KL's unary sum overflows.
        monkeypatch.setattr(crf, "MF_CHUNK", 2)
        zero, one = np.zeros((5, 6)), np.ones((5, 6))
        images = [data.LabeledImage(x, np.zeros(x.shape, dtype=np.int64))
                  for x in (zero, zero, one)]
        split = data.save_split(images, tmp_path / "split", {})
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"w": [0.0] * 12 + [1e307] + [0.0] * 13,
                                      "p_h": 0.0, "p_v": 0.0}))
        code, out, err = run_cli(capsys, "run-mf", "--params", str(params), "--data",
                                 str(split), "--iters", "3")
        assert code == 2 and out == ""
        assert err == f"numerical failure: {split}: files[2]: unnormalized KL is -inf\n"

    def test_numerical_failure_prints_one_line(self, tiny_dataset, tmp_path):
        params = tmp_path / "big.json"
        params.write_text(json.dumps({"w": [1e306] * 26, "p_h": 1e308, "p_v": 1e308}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "mfnet.cli", "eval", "--model", str(params),
             "--data", str(tiny_dataset / "test"), "--iters", "3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("numerical failure: ")
        assert len(proc.stderr.splitlines()) == 1


def test_import_leaves_scipy_sparse_unloaded():
    """Only a step large enough for a stored operator loads scipy.sparse."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mfnet.cli; print('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == "False\n"


class TestGradCheckCommand:
    def test_small_config_passes(self, capsys):
        code, out, _ = run_cli(capsys, "grad-check", "--size", "4",
                               "--max-layers", "2", "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["max_rel_err"] < 1e-4
        assert {r["loss"] for r in report["configs"]} == {"kl", "hinge"}


# Flags appended to README commands so the walkthrough runs in seconds.
FAST_FLAGS = {
    "gen-data": ["--n", "2"],
    "train-crf": ["--steps", "1"],
    "train-mfn-inference": ["--steps", "1"],
    "train-mfn-disc": ["--phase1-steps", "1", "--phase2-steps", "1"],
    "grad-check": ["--max-layers", "1", "--size", "3"],
}


def readme_walkthrough():
    """The `mfn ...` lines of the README's CLI walkthrough, split into argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI walkthrough\n+```\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line) for line in block.splitlines() if line.startswith("mfn ")]


class TestReadme:
    def test_walkthrough_runs_in_order(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        commands = readme_walkthrough()
        assert [argv[1] for argv in commands] == [
            "gen-data", "train-crf", "run-mf", "train-mfn-inference",
            "train-mfn-disc", "eval", "grad-check",
        ]
        for argv in commands:
            code = main(argv[1:] + FAST_FLAGS.get(argv[1], []))
            capsys.readouterr()
            assert code == 0, argv
            for flag in ("--out", "--out-dir"):
                if flag in argv:
                    made = tmp_path / argv[argv.index(flag) + 1]
                    assert made.is_file() or any(made.iterdir()), argv

    def test_walkthrough_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## CLI walkthrough\n+```\n(.*?)```", readme, re.S).group(1)
        commands = [shlex.split(line) for line in block.splitlines()
                    if line.startswith("mfn ")]
        assert len(commands) == 7
        for argv in commands:
            build_parser().parse_args(argv[1:])
