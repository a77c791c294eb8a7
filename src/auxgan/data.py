"""Data sources: IDX-format digit files and synthetic 2-D Gaussian mixtures.

The 2-D mixture is the primary desk-scale benchmark: its per-class
distributions are known in closed form, so conditional fidelity and
divergence estimates have exact ground truth.  The IDX reader/writer
handles the big-endian MNIST distribution format; `synthetic_digits`
fabricates an MNIST-shaped glyph dataset for environments where the real
files are not available.  A digit corpus is held as the bytes of its IDX
files from synthesis to minibatch: `synthetic_digits` finishes each fixed
row block of noise in float64 and writes it into the uint8 images,
`load_mnist` keeps a view of the file's bytes, and float64 pixels are made
one batch at a time by `ImageSet.rows`.
"""

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 2051  # 0x00000803: unsigned byte, rank 3
LABEL_MAGIC = 2049  # 0x00000801: unsigned byte, rank 1


class IdxParseError(ValueError):
    """IDX parse failure, carrying the byte offset where it happened."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class IdxFile:
    magic: int
    dims: tuple
    payload: np.ndarray  # flat uint8

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.payload = np.asarray(self.payload, dtype=np.uint8).ravel()
        if math.prod(self.dims) != self.payload.size:
            raise ValueError(f"dims {self.dims} do not match payload length {self.payload.size}")


def write_file(path, *chunks):
    """Write the bytes-like `chunks` to `path`.tmp, then rename it over `path` whole.

    A write or rename that raises removes the `.tmp` before the error goes on.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the tmp may never have been made
            os.remove(tmp)
        raise


def read_idx(path):
    """Parse one IDX file (unsigned-byte payload, big-endian headers)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise IdxParseError("file too short for a magic number", offset=0)
    magic = struct.unpack(">I", raw[:4])[0]
    zeros, dtype, rank = magic >> 16, (magic >> 8) & 0xFF, magic & 0xFF
    if zeros != 0 or dtype != 0x08 or rank == 0:
        raise IdxParseError(f"bad magic number {magic}", offset=0)
    header_end = 4 + 4 * rank
    if len(raw) < header_end:
        raise IdxParseError(f"truncated header, expected {rank} dimension fields", offset=len(raw))
    dims = struct.unpack(f">{rank}I", raw[4:header_end])
    expected = header_end + math.prod(dims)
    if len(raw) != expected:
        raise IdxParseError(
            f"payload length mismatch: dims {dims} need {expected - header_end} bytes, "
            f"found {len(raw) - header_end}", offset=min(len(raw), expected))
    payload = np.frombuffer(raw, dtype=np.uint8, offset=header_end)
    return IdxFile(magic=magic, dims=dims, payload=payload)


def write_idx(path, idx):
    """Inverse of read_idx; used for fixtures and the synthetic digit set."""
    rank = len(idx.dims)
    if idx.magic & 0xFF != rank:
        raise ValueError(f"magic {idx.magic} encodes rank {idx.magic & 0xFF}, dims have rank {rank}")
    write_file(path, struct.pack(f">I{rank}I", idx.magic, *idx.dims), idx.payload)


@dataclass
class LabeledBatch:
    features: np.ndarray  # (batch, f) float64
    labels: np.ndarray    # (batch,) int64

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValueError(f"features must be a non-empty matrix, got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(f"{self.features.shape[0]} samples but {self.labels.shape} labels")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")

    def __len__(self):
        return self.features.shape[0]

    def rows(self, index):
        """The LabeledBatch of the rows at `index`."""
        return LabeledBatch(features=self.features[index], labels=self.labels[index])


@dataclass(frozen=True)
class ImageSet:
    """One image split held as its bytes; `rows` makes float64 pixels in [0, 1]."""

    pixels: np.ndarray  # (n, rows*cols) uint8
    labels: np.ndarray  # (n,) int64
    image_shape: tuple  # (rows, cols)

    def __len__(self):
        return self.pixels.shape[0]

    def rows(self, index):
        """The LabeledBatch of the images at `index`, each byte divided by 255."""
        return LabeledBatch(features=np.divide(self.pixels[index], 255.0),
                            labels=self.labels[index])


def load_mnist(images_path, labels_path):
    """Load one MNIST-format split as an ImageSet of flattened images."""
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.magic != IMAGE_MAGIC:
        raise IdxParseError(f"expected image magic {IMAGE_MAGIC}, got {images.magic}", offset=0)
    if labels.magic != LABEL_MAGIC:
        raise IdxParseError(f"expected label magic {LABEL_MAGIC}, got {labels.magic}", offset=0)
    n, rows, cols = images.dims
    if labels.dims[0] != n:
        raise IdxParseError(f"{n} images but {labels.dims[0]} labels", offset=4)
    if n == 0:
        raise IdxParseError("the image file holds no images", offset=4)
    return ImageSet(pixels=images.payload.reshape(n, rows * cols),
                    labels=labels.payload.astype(np.int64), image_shape=(rows, cols))


# ---------------------------------------------------------------------------
# 2-D Gaussian mixture

@dataclass
class GaussianMixtureSpec:
    """N isotropic Gaussians in the plane; default layout is a ring."""

    n_classes: int
    means: np.ndarray  # (N, 2)
    stddev: float = 0.15

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        if self.means.shape != (self.n_classes, 2):
            raise ValueError(f"means must be ({self.n_classes}, 2), got {self.means.shape}")
        if self.stddev < 0.0:
            raise ValueError("stddev must be non-negative")

    @classmethod
    def ring(cls, n_classes=4, radius=2.0, stddev=0.15):
        """Means equally spaced on a circle; separation > 6*stddev by default."""
        angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
        means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return cls(n_classes=n_classes, means=means, stddev=stddev)


def sample_mixture(spec, rng, batch):
    """Draw `batch` labelled points: uniform class, N(mean, stddev^2 I) features."""
    labels = rng.integers(0, spec.n_classes, size=batch)
    noise = rng.standard_normal((batch, 2))
    features = spec.means[labels] + spec.stddev * noise
    return LabeledBatch(features=features, labels=labels)


def minibatches(batch, batch_size, rng):
    """One shuffled pass over a LabeledBatch or ImageSet; the final partial batch is dropped."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    n = len(batch)
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
    order = rng.permutation(n)
    for start in range(0, n - batch_size + 1, batch_size):
        chunk = order[start:start + batch_size]
        yield batch.rows(chunk)


# ---------------------------------------------------------------------------
# synthetic glyph digits (MNIST-shaped fallback)

_GLYPHS = [
    ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
]


_NOISE_ROWS = 256  # rows of noise per draw; the blocks give one whole draw's stream


def _glyph_stamp(digit, scale=3):
    rows = _GLYPHS[digit]
    bitmap = np.array([[c == "1" for c in row] for row in rows], dtype=np.float64)
    return np.kron(bitmap, np.ones((scale, scale)))  # (21, 15)


def synthetic_digits(n, rng):
    """Fabricate n 28x28 glyph digits with shift, intensity, and pixel noise.

    Returns (images uint8 (n, 28, 28), labels uint8 (n,)).  Classes are
    cleanly separable, so a small MLP probe reaches well above the 0.95
    accuracy gate used for generator evaluation.
    """
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    stamps = [_glyph_stamp(d) for d in range(10)]
    h, w = stamps[0].shape
    # every placement is drawn before any noise: the corpus's rng stream fixes that order
    tops, lefts, intensities = np.empty(n, np.intp), np.empty(n, np.intp), np.empty(n)
    for i in range(n):
        tops[i] = rng.integers(0, 28 - h + 1)
        lefts[i] = rng.integers(0, 28 - w + 1)
        intensities[i] = rng.uniform(0.6, 1.0)
    images = np.empty((n, 28, 28), dtype=np.uint8)
    noise = np.empty((min(n, _NOISE_ROWS), 28, 28))
    for start in range(0, n, _NOISE_ROWS):
        block = rng.standard_normal(out=noise[:min(_NOISE_ROWS, n - start)])
        block *= 0.08
        for i in range(start, start + len(block)):
            top, left = tops[i], lefts[i]
            block[i - start, top:top + h, left:left + w] += intensities[i] * stamps[labels[i]]
        np.clip(block, 0.0, 1.0, out=block)
        block *= 255.0
        images[start:start + len(block)] = np.round(block, out=block)
    return images, labels


def _mnist_paths(directory):
    """The paths of the four IDX files of an MNIST-layout directory, by split and kind."""
    names = {"train_images": "train-images-idx3-ubyte", "train_labels": "train-labels-idx1-ubyte",
             "test_images": "t10k-images-idx3-ubyte", "test_labels": "t10k-labels-idx1-ubyte"}
    return {key: os.path.join(directory, name) for key, name in names.items()}


def write_synthetic_digit_files(directory, n_train=12000, n_test=2000, seed=20240501):
    """Write an MNIST-layout directory of synthetic glyph digits.

    Produces the four usual IDX files and returns their paths as a dict with
    keys train_images / train_labels / test_images / test_labels.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    paths = _mnist_paths(directory)
    for split, count in (("train", n_train), ("test", n_test)):
        images, labels = synthetic_digits(count, rng)
        write_idx(paths[f"{split}_images"], IdxFile(IMAGE_MAGIC, (count, 28, 28), images))
        write_idx(paths[f"{split}_labels"], IdxFile(LABEL_MAGIC, (count,), labels))
    return paths
