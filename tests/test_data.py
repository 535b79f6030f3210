import json

import numpy as np
import pytest

from mfnet import data
from mfnet.data import (
    LabeledImage,
    add_noise,
    generate_dataset,
    load_split,
    pixel_accuracy,
    read_pgm,
    render_clean,
    save_split,
    write_pgm,
)


class TestRenderClean:
    def test_values_are_binary(self, rng):
        img = render_clean(rng)
        assert set(np.unique(img)) <= {0, 1}
        assert img.shape == (50, 100)

    def test_same_seed_same_image(self):
        a = render_clean(np.random.default_rng(42))
        b = render_clean(np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_foreground_fraction_bounds(self):
        fracs = [
            render_clean(np.random.default_rng(seed)).mean() for seed in range(1000)
        ]
        assert 0.02 < min(fracs) and max(fracs) < 0.5

    def test_too_small_image_refused(self, rng):
        with pytest.raises(ValueError):
            render_clean(rng, height=10, width=10)


class TestAddNoise:
    def test_no_noise_is_identity(self, rng):
        clean = render_clean(rng)
        np.testing.assert_array_equal(add_noise(clean, rng, 0.0, 0.0), clean)

    def test_full_flip(self, rng):
        clean = render_clean(rng)
        np.testing.assert_array_equal(add_noise(clean, rng, 1.0, 0.0), 1 - clean)

    def test_empirical_flip_rate(self):
        rng = np.random.default_rng(9)
        clean = np.zeros(10**6)
        noisy = add_noise(clean, rng, 0.1, 0.0)
        assert abs(noisy.mean() - 0.1) < 0.003

    def test_output_clamped(self, rng):
        clean = render_clean(rng)
        noisy = add_noise(clean, rng, 0.1, 2.0)
        assert noisy.min() >= 0.0 and noisy.max() <= 1.0


class TestGenerateDataset:
    def test_default_split_sizes(self):
        train, test = generate_dataset(n=5, seed=1)
        assert len(train) == len(test) == 5

    def test_determinism_and_seed_sensitivity(self):
        t1, _ = generate_dataset(n=2, seed=7)
        t2, _ = generate_dataset(n=2, seed=7)
        t3, _ = generate_dataset(n=2, seed=8)
        np.testing.assert_array_equal(t1[0].input, t2[0].input)
        assert not np.array_equal(t1[0].input, t3[0].input)

    def test_train_test_streams_disjoint(self):
        train, test = generate_dataset(n=2, seed=3)
        assert not np.array_equal(train[0].label, test[0].label)

    def test_invariants(self):
        train, _ = generate_dataset(n=3, seed=0)
        for img in train:
            assert img.input.min() >= 0 and img.input.max() <= 1
            assert set(np.unique(img.label)) <= {0, 1}


class TestPgmIo:
    def test_round_trip_8_bit(self, tmp_path, rng):
        arr = rng.integers(0, 256, (7, 9))
        write_pgm(tmp_path / "a.pgm", arr, 255)
        back, maxval = read_pgm(tmp_path / "a.pgm")
        assert maxval == 255
        np.testing.assert_array_equal(back, arr)

    def test_round_trip_16_bit(self, tmp_path, rng):
        arr = rng.integers(0, 65536, (4, 5))
        write_pgm(tmp_path / "b.pgm", arr, 65535)
        back, maxval = read_pgm(tmp_path / "b.pgm")
        assert maxval == 65535
        np.testing.assert_array_equal(back, arr)

    def test_truncated_file_names_path_and_sizes(self, tmp_path):
        train, _ = generate_dataset(n=1, seed=0)
        save_split(train, tmp_path, {})
        path = tmp_path / "img_000_input.pgm"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        expected = 2 * data.DEFAULT_H * data.DEFAULT_W  # 16-bit pixels
        found = len(raw) // 2 - (len(raw) - expected)
        with pytest.raises(ValueError) as err:
            read_pgm(path)
        assert str(err.value) == (
            f"{path}: expected {expected} bytes of pixel data for 100x50, found {found}"
        )

    @pytest.mark.parametrize("raw", [b"P5\n100", b"P5\nab 50\n255\n", b"P5\n-4 2\n255\n"])
    def test_bad_header_names_the_file(self, tmp_path, raw):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="PGM header needs") as err:
            read_pgm(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("maxval", [0, 65536])
    def test_maxval_out_of_range_names_the_file(self, tmp_path, maxval):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 1\n%d\n" % maxval + bytes(2 if maxval < 256 else 4))
        with pytest.raises(ValueError) as err:
            read_pgm(path)
        assert str(err.value) == f"{path}: PGM maxval {maxval} is outside 1..65535"

    def test_save_load_split(self, tmp_path):
        train, _ = generate_dataset(n=2, seed=5)
        manifest = save_split(
            train, tmp_path, {"seed": 5, "height": 50, "width": 100,
                              "flip_probability": 0.1, "gaussian_sigma": 0.3}
        )
        meta = json.loads(manifest.read_text())
        assert meta["n_images"] == 2 and len(meta["files"]) == 2
        loaded = load_split(manifest)
        np.testing.assert_array_equal(loaded[0].label, train[0].label)
        # inputs survive 16-bit quantization
        assert np.max(np.abs(loaded[0].input - train[0].input)) < 1e-4

    def test_regeneration_is_byte_identical(self, tmp_path):
        for d in ("one", "two"):
            train, _ = generate_dataset(n=2, seed=11)
            save_split(train, tmp_path / d, {"seed": 11})
        a = (tmp_path / "one" / "img_000_input.pgm").read_bytes()
        b = (tmp_path / "two" / "img_000_input.pgm").read_bytes()
        assert a == b


class TestPixelAccuracy:
    def test_perfect(self, rng):
        x = rng.integers(0, 2, (5, 5))
        assert pixel_accuracy(x, x) == 1.0

    def test_inverted(self, rng):
        x = rng.integers(0, 2, (5, 5))
        assert pixel_accuracy(1 - x, x) == 0.0

    def test_half(self):
        truth = np.zeros((2, 4), dtype=int)
        pred = np.zeros((2, 4), dtype=int)
        pred[0] = 1
        assert pixel_accuracy(pred, truth) == 0.5

    def test_symmetry(self, rng):
        a = rng.integers(0, 2, (6, 6))
        b = rng.integers(0, 2, (6, 6))
        assert pixel_accuracy(a, b) == pixel_accuracy(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pixel_accuracy(np.zeros((2, 2)), np.zeros((3, 3)))
