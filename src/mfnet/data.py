"""Synthetic letter-image denoising benchmark: generation, noise, I/O, metrics."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

# 5x7 uppercase bitmap font, '#' = foreground.
FONT_5X7 = {
    "A": [".###.", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"],
    "B": ["####.", "#...#", "#...#", "####.", "#...#", "#...#", "####."],
    "C": [".###.", "#...#", "#....", "#....", "#....", "#...#", ".###."],
    "D": ["####.", "#...#", "#...#", "#...#", "#...#", "#...#", "####."],
    "E": ["#####", "#....", "#....", "####.", "#....", "#....", "#####"],
    "F": ["#####", "#....", "#....", "####.", "#....", "#....", "#...."],
    "G": [".###.", "#...#", "#....", "#.###", "#...#", "#...#", ".###."],
    "H": ["#...#", "#...#", "#...#", "#####", "#...#", "#...#", "#...#"],
    "I": [".###.", "..#..", "..#..", "..#..", "..#..", "..#..", ".###."],
    "J": ["..###", "...#.", "...#.", "...#.", "...#.", "#..#.", ".##.."],
    "K": ["#...#", "#..#.", "#.#..", "##...", "#.#..", "#..#.", "#...#"],
    "L": ["#....", "#....", "#....", "#....", "#....", "#....", "#####"],
    "M": ["#...#", "##.##", "#.#.#", "#.#.#", "#...#", "#...#", "#...#"],
    "N": ["#...#", "##..#", "#.#.#", "#..##", "#...#", "#...#", "#...#"],
    "O": [".###.", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."],
    "P": ["####.", "#...#", "#...#", "####.", "#....", "#....", "#...."],
    "Q": [".###.", "#...#", "#...#", "#...#", "#.#.#", "#..#.", ".##.#"],
    "R": ["####.", "#...#", "#...#", "####.", "#.#..", "#..#.", "#...#"],
    "S": [".####", "#....", "#....", ".###.", "....#", "....#", "####."],
    "T": ["#####", "..#..", "..#..", "..#..", "..#..", "..#..", "..#.."],
    "U": ["#...#", "#...#", "#...#", "#...#", "#...#", "#...#", ".###."],
    "V": ["#...#", "#...#", "#...#", "#...#", "#...#", ".#.#.", "..#.."],
    "W": ["#...#", "#...#", "#...#", "#.#.#", "#.#.#", "##.##", "#...#"],
    "X": ["#...#", "#...#", ".#.#.", "..#..", ".#.#.", "#...#", "#...#"],
    "Y": ["#...#", "#...#", ".#.#.", "..#..", "..#..", "..#..", "..#.."],
    "Z": ["#####", "....#", "...#.", "..#..", ".#...", "#....", "#####"],
}
LETTERS = sorted(FONT_5X7)
GLYPH_W, GLYPH_H = 5, 7
DEFAULT_SCALE = 3
DEFAULT_H, DEFAULT_W = 50, 100
DEFAULT_FLIP_P = 0.1
DEFAULT_SIGMA = 0.3


@dataclass
class LabeledImage:
    """Noisy input in [0, 1] plus its binary ground-truth labeling."""

    input: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        self.input = np.asarray(self.input, dtype=np.float64)
        self.label = np.asarray(self.label, dtype=np.int64)
        if self.input.shape != self.label.shape:
            raise ValueError("input and label shapes differ")
        if self.input.size and (self.input.min() < 0 or self.input.max() > 1):
            raise ValueError("input intensities must lie in [0, 1]")
        if not np.all((self.label == 0) | (self.label == 1)):
            raise ValueError("labels must be binary")

    @property
    def pair(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.input, self.label


def _glyph(letter: str, scale: int) -> np.ndarray:
    rows = FONT_5X7[letter]
    bitmap = np.array([[1 if ch == "#" else 0 for ch in row] for row in rows])
    return np.kron(bitmap, np.ones((scale, scale), dtype=np.int64))


def render_clean(
    rng: np.random.Generator,
    height: int = DEFAULT_H,
    width: int = DEFAULT_W,
    min_letters: int = 3,
    max_letters: int = 8,
    scale: int = DEFAULT_SCALE,
) -> np.ndarray:
    """Black background with random white letters at non-overlapping positions."""
    img = np.zeros((height, width), dtype=np.int64)
    gw, gh = GLYPH_W * scale, GLYPH_H * scale
    if gw > width or gh > height:
        raise ValueError("image too small for one glyph")
    n_target = int(rng.integers(min_letters, max_letters + 1))
    n = min(n_target, width // gw)  # cap at what physically fits
    slack = width - n * gw
    offsets = np.sort(rng.uniform(0, slack + 1, size=n)).astype(np.int64)
    xs = offsets + gw * np.arange(n)
    for x in xs:
        letter = LETTERS[int(rng.integers(len(LETTERS)))]
        ytop = int(rng.integers(0, height - gh + 1))
        img[ytop : ytop + gh, x : x + gw] |= _glyph(letter, scale)
    return img


def add_noise(
    clean: np.ndarray,
    rng: np.random.Generator,
    flip_p: float = DEFAULT_FLIP_P,
    sigma: float = DEFAULT_SIGMA,
) -> np.ndarray:
    """Per-pixel label flips, then additive Gaussian noise, then clamp to [0, 1]."""
    if not 0 <= flip_p <= 1:
        raise ValueError(f"flip_p must be in [0, 1], got {flip_p}")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    clean = np.asarray(clean, dtype=np.float64)
    flips = rng.random(clean.shape) < flip_p
    noisy = np.abs(clean - flips)
    if sigma > 0:
        noisy = noisy + rng.normal(0.0, sigma, size=clean.shape)
    return np.clip(noisy, 0.0, 1.0)


def _generate_split(
    seed_seq: np.random.SeedSequence,
    n: int,
    height: int,
    width: int,
    flip_p: float,
    sigma: float,
) -> List[LabeledImage]:
    out = []
    for child in seed_seq.spawn(n):
        rng = np.random.default_rng(child)
        clean = render_clean(rng, height, width)
        noisy = add_noise(clean, rng, flip_p, sigma)
        out.append(LabeledImage(input=noisy, label=clean))
    return out


def generate_dataset(
    n: int = 50,
    seed: int = 0,
    flip_p: float = DEFAULT_FLIP_P,
    sigma: float = DEFAULT_SIGMA,
    height: int = DEFAULT_H,
    width: int = DEFAULT_W,
) -> Tuple[List[LabeledImage], List[LabeledImage]]:
    """Train and test splits of n images each, from disjoint seed streams."""
    if n < 1:
        raise ValueError("need at least one image")
    root = np.random.SeedSequence(seed)
    train_ss, test_ss = root.spawn(2)
    train = _generate_split(train_ss, n, height, width, flip_p, sigma)
    test = _generate_split(test_ss, n, height, width, flip_p, sigma)
    return train, test


def write_pgm(path, arr: np.ndarray, maxval: int) -> None:
    arr = np.asarray(arr)
    dtype = np.uint8 if maxval < 256 else ">u2"
    data = arr.astype(dtype)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def read_pgm(path) -> Tuple[np.ndarray, int]:
    raw = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    if not all(f.isdigit() for f in fields[1:]):
        raise ValueError(f"{path}: PGM header needs integer width, height and maxval")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if not width or not height:
        raise ValueError(f"{path}: PGM width and height must be positive, got {width}x{height}")
    if not 0 < maxval < 65536:
        raise ValueError(f"{path}: PGM maxval {maxval} is outside 1..65535")
    if pos == len(raw):
        raise ValueError(f"{path}: PGM header must end with one whitespace byte after maxval")
    pos += 1  # the single whitespace byte after maxval
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    expected = width * height * dtype.itemsize
    if len(raw) - pos != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes of pixel data for "
            f"{width}x{height}, found {len(raw) - pos}"
        )
    arr = np.frombuffer(raw[pos:], dtype=dtype).reshape(height, width)
    return arr.astype(np.int64), maxval


def save_split(images: Sequence[LabeledImage], out_dir, manifest: dict) -> Path:
    """Write one split as PGM pairs plus a JSON manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, img in enumerate(images):
        input_name = f"img_{i:03d}_input.pgm"
        label_name = f"img_{i:03d}_label.pgm"
        write_pgm(out_dir / input_name, np.round(img.input * 65535), 65535)
        write_pgm(out_dir / label_name, img.label * 255, 255)
        files.append({"input": input_name, "label": label_name})
    manifest = dict(manifest, n_images=len(images), files=files)
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_split(manifest_path) -> List[LabeledImage]:
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{manifest_path}: malformed JSON: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("files"), list):
        raise ValueError(f"{manifest_path}: not a split manifest (no 'files' list)")
    images = []
    for i, entry in enumerate(manifest["files"]):
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(k), str) for k in ("input", "label")
        ):
            raise ValueError(f"{manifest_path}: files[{i}] is not an object with keys input, label")
        noisy, maxval = read_pgm(manifest_path.parent / entry["input"])
        label, label_max = read_pgm(manifest_path.parent / entry["label"])
        try:
            images.append(LabeledImage(input=noisy / maxval, label=(label > label_max // 2)))
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: files[{i}]: {exc}") from None
    return images


def pixel_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of matching pixels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return float(np.mean(pred == truth))
