"""Synthetic datasets and minimal uncompressed image I/O.

Three deterministic pattern families (stripes, checkerboard, radial rings)
stand in for a real image corpus at desk scale; class k draws from family
k mod 3 with a small per-sample phase jitter plus Gaussian noise. External
images come in as binary PPM (P6) listed in a filepath,label,split
manifest; heatmaps go out as grayscale PPM (P5).
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .tensor import Tensor, read_exact, read_file, write_file

PATTERN_FAMILIES = ("stripes", "checker", "radial")

# per-sample jitter ranges; kept narrow so class centroids stay far apart
# and a nearest-centroid baseline cleanly separates the classes
PHASE_JITTER = 0.6  # radians
CENTER_JITTER = 2.0  # pixels, radial family only


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 3
    samples_per_class: int = 70
    image_size: int = 64
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.samples_per_class < 1:
            raise ConfigError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if self.image_size < 8:
            raise ConfigError(f"image_size must be >= 8, got {self.image_size}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise ConfigError(f"dataset seed must be >= 0, got {self.seed}")


@dataclass
class Dataset:
    images: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    class_names: list = field(default_factory=list)
    split: str = "train"

    def __len__(self):
        return len(self.images)


def render_pattern(family: int, size: int, phase: float, center=(0.0, 0.0)) -> np.ndarray:
    """Noise-free (3, size, size) float64 pattern in [0.05, 0.95].

    ``phase`` shifts the waveform; ``center`` offsets the radial origin in
    pixels. Same arguments, same image, always.
    """
    ax = np.arange(size, dtype=np.float64)
    xs = ax[None, :] / size
    ys = ax[:, None] / size
    fam = family % len(PATTERN_FAMILIES)
    if fam == 0:  # vertical stripes
        v = 0.5 + 0.45 * np.sin(2.0 * np.pi * 4.0 * xs + phase) + 0.0 * ys
    elif fam == 1:  # checkerboard
        v = 0.5 + 0.45 * np.sin(2.0 * np.pi * 3.0 * xs + phase) * np.sin(
            2.0 * np.pi * 3.0 * ys + phase
        )
    else:  # radial rings
        cy = 0.5 + center[0] / size
        cx = 0.5 + center[1] / size
        r = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2)
        v = 0.5 + 0.45 * np.cos(2.0 * np.pi * 4.0 * r + phase)
    # channel mix varies per family so color carries class signal too
    mix = [(1.0, 0.8, 0.6), (0.6, 1.0, 0.8), (0.8, 0.6, 1.0)][fam]
    img = np.stack([0.5 + (v - 0.5) * m for m in mix], axis=0)
    return img


def generate_synthetic(spec: SyntheticSpec) -> dict:
    """{"train": Dataset, "val": Dataset}, deterministic in spec.seed.

    Per class, samples cycle through a round-robin 80/20 assignment
    (every fifth sample to val).
    """
    rng = np.random.default_rng(spec.seed)
    names = [
        PATTERN_FAMILIES[k % 3] if spec.num_classes <= 3 else f"{PATTERN_FAMILIES[k % 3]}_{k}"
        for k in range(spec.num_classes)
    ]
    train = Dataset(class_names=names, split="train")
    val = Dataset(class_names=names, split="val")
    for k in range(spec.num_classes):
        for i in range(spec.samples_per_class):
            phase = rng.uniform(0.0, PHASE_JITTER)
            center = rng.uniform(-CENTER_JITTER, CENTER_JITTER, size=2)
            img = render_pattern(k, spec.image_size, phase, center=tuple(center))
            if spec.noise_std > 0:
                img = img + rng.normal(0.0, spec.noise_std, size=img.shape)
            img = np.clip(img, 0.0, 1.0)
            target = val if i % 5 == 4 else train
            target.images.append(Tensor(img.astype(np.float32)))
            target.labels.append(k)
    return {"train": train, "val": val}


# ---------------------------------------------------------------------------
# PPM I/O


# the header after the two magic bytes: width, height and maxval, each after
# any run of whitespace (netpbm's six bytes: space, \t, \n, \v, \f, \r) or
# of "#" comments that end with their line, and each ended by one whitespace
# byte, one comment or the end of the file. A comment ends only at a newline
# or the end, and a token only where a delimiter follows, so every header
# has one parse and a failed match costs one pass.
_PNM_SPACE = rb"(?:[ \t\n\v\f\r]|#[^\n]*(?:\n|\Z))"
_PNM_HEADER = re.compile((_PNM_SPACE + rb"*([^ \t\n\v\f\r#]+)(?:" + _PNM_SPACE + rb"|\Z)") * 3)


def _read_pnm(path, magic: bytes, planes: int) -> np.ndarray:
    """Binary PNM file with ``magic`` -> (H, W, planes) float64 in [0, 1]."""
    raw = read_file(path, DataError, "image")
    if raw[:2] != magic:
        raise DataError(f"not a binary {magic.decode()} PPM (magic {raw[:2]!r})")
    header = _PNM_HEADER.match(raw, 2)
    if header is None:
        raise DataError("unexpected end of PPM header")
    for token in header.groups():
        # ASCII digits only, no "+", "_" or spaces; a "-" is left to the
        # range checks below, which name the value
        if not token.removeprefix(b"-").isdigit():
            raise DataError(f"malformed PPM header: invalid number {token!r}")
    try:
        w, h, maxval = (int(t) for t in header.groups())
    except ValueError as exc:  # more digits than int() converts
        raise DataError(f"malformed PPM header: {exc}") from exc
    if w < 1 or h < 1:
        raise DataError(f"bad PPM dimensions {w}x{h}")
    if not 0 < maxval <= 255:
        raise DataError(f"only 8-bit PPM supported, got maxval {maxval}")
    with io.BytesIO(raw) as f:
        f.seek(header.end())
        payload = read_exact(f, w * h * planes, DataError, "PPM payload")
    samples = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, planes)
    if samples.max() > maxval:
        raise DataError(f"PPM sample {samples.max()} exceeds maxval {maxval}")
    return samples.astype(np.float64) / maxval


def _write_pnm(path, magic: str, pixels: np.ndarray) -> None:
    """(H, W) or (H, W, 3) pixels -> binary PNM with ``magic``, maxval 255,
    written through :func:`tensor.write_file`; OS errors raise ConfigError."""
    arr = np.ascontiguousarray(pixels.astype(np.uint8))
    header = f"{magic}\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    write_file(path, lambda f: f.write(header + arr.tobytes()), ConfigError)


def read_ppm(path) -> np.ndarray:
    """Binary P6 file -> (3, H, W) float64 in [0, 1]."""
    return _read_pnm(path, b"P6", 3).transpose(2, 0, 1)


def read_ppm_p5(path) -> np.ndarray:
    """Binary P5 file -> (H, W) float64 in [0, 1]."""
    return _read_pnm(path, b"P5", 1)[:, :, 0]


def write_ppm_p6(path, image: np.ndarray) -> None:
    """(3, H, W) uint8 -> binary color PPM."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise DataError(f"expected (3, H, W) image, got {image.shape}")
    _write_pnm(path, "P6", image.transpose(1, 2, 0))


def write_ppm_p5(path, image: np.ndarray) -> None:
    """(H, W) uint8 -> binary grayscale PPM."""
    if image.ndim != 2:
        raise DataError(f"expected (H, W) grayscale image, got {image.shape}")
    _write_pnm(path, "P5", image)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """(C, H, W) -> (C, out_h, out_w), half-pixel sample centers.

    Source coordinate of output pixel i is (i + 0.5) * in/out - 0.5,
    clamped to the valid range, then the four neighbors are blended.
    """
    c, h, w = image.shape
    if out_h < 1 or out_w < 1:
        raise DataError(f"bad resize target {out_h}x{out_w}")

    def axis_coords(n_in, n_out):
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = src - lo
        return lo, hi, frac

    y0, y1, fy = axis_coords(h, out_h)
    x0, x1, fx = axis_coords(w, out_w)
    fy = fy[None, :, None]
    fx = fx[None, None, :]
    tl = image[:, y0][:, :, x0]
    tr = image[:, y0][:, :, x1]
    bl = image[:, y1][:, :, x0]
    br = image[:, y1][:, :, x1]
    top = tl * (1.0 - fx) + tr * fx
    bot = bl * (1.0 - fx) + br * fx
    return top * (1.0 - fy) + bot * fy


def load_manifest(path, image_size: int, num_classes: int | None = None) -> dict:
    """Manifest CSV (filepath,label,split) -> {"train": Dataset, "val": Dataset}.

    Image paths resolve relative to the manifest. Pixels are scaled to
    [0,1] and bilinear-resized to ``image_size``. Every malformed row is
    reported with its 1-based row number.
    """
    base = os.path.dirname(os.path.abspath(path))
    train = Dataset(split="train")
    val = Dataset(split="val")
    max_label = -1
    # undecodable bytes survive as surrogates and are reported per row
    text = read_file(path, DataError, "manifest").decode("utf-8-sig", "surrogateescape")
    for rownum, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        try:
            ",".join(row).encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"manifest row {rownum}: not UTF-8 text in {path}") from None
        if not row or (rownum == 1 and row[0].strip().lower() == "filepath"):
            continue
        if len(row) != 3:
            raise DataError(f"manifest row {rownum}: expected filepath,label,split, got {row}")
        filepath, label_str, split = (cell.strip() for cell in row)
        try:
            label = int(label_str)
        except ValueError:
            raise DataError(f"manifest row {rownum}: label {label_str!r} is not an integer") from None
        if label < 0 or (num_classes is not None and label >= num_classes):
            bound = num_classes if num_classes is not None else "inf"
            raise DataError(f"manifest row {rownum}: label {label} outside [0, {bound})")
        if split not in ("train", "val"):
            raise DataError(f"manifest row {rownum}: split must be train or val, got {split!r}")
        full = filepath if os.path.isabs(filepath) else os.path.join(base, filepath)
        try:
            img = read_ppm(full)
        except DataError as exc:
            raise DataError(f"manifest row {rownum}: {exc}") from exc
        img = bilinear_resize(img, image_size, image_size)
        target = train if split == "train" else val
        target.images.append(Tensor(img.astype(np.float32)))
        target.labels.append(label)
        max_label = max(max_label, label)
    k = num_classes if num_classes is not None else max_label + 1
    names = [f"class{i}" for i in range(k)]
    train.class_names = names
    val.class_names = names
    return {"train": train, "val": val}
