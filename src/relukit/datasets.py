"""Datasets: sample stores, IDX binary ingestion and synthetic generators.

Inputs are normalized to [0, 1] at ingestion so robustness properties have a
fixed global input domain.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .tensor import as_int

__all__ = ["Sample", "Split", "Dataset", "IdxFormatError", "load_idx_dataset",
           "synth_blobs"]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file."""


@dataclass
class Sample:
    """One labeled input; a split's rows are read out as Samples whose
    input is a view of the row."""
    input: np.ndarray
    label: int

    def __post_init__(self):
        self.input = np.asarray(self.input, dtype=np.float64)
        self.label = as_int(self.label, "label")


def _require_dim(x: np.ndarray, dim: int) -> None:
    if x.shape != (dim,):
        raise ValueError(f"sample input of shape {x.shape}, "
                         f"expected dimension ({dim},)")


class Split:
    """One split of a dataset: the inputs as the rows of a float64
    (n, input_dim) matrix `xs`, their labels as the int64 vector `ys`.

    It reads like a list of Samples: an index gives a Sample whose input is
    a view of that row, a slice gives a Split that views the same rows,
    iteration yields Samples, and `+` gives a list of Samples, as list
    concatenation did. No data is copied by any of these. append copies
    the sample's row in, growing the arrays by a quarter at a time, so n
    appends take amortised O(n * input_dim).
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys)
        if xs.ndim != 2 or ys.shape != (xs.shape[0],):
            raise ValueError(f"inputs of shape {xs.shape} and labels of "
                             f"shape {ys.shape} do not make a split")
        if ys.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, got dtype {ys.dtype}")
        ys = ys.astype(np.int64, copy=False)
        # rows past _n are spare capacity for append
        self._xs, self._ys, self._n = xs, ys, len(ys)

    @classmethod
    def of(cls, samples, dim: int) -> "Split":
        """samples as a Split of dim-dimensional inputs: a Split is returned
        as it is, any other iterable of Samples is copied into new arrays."""
        if isinstance(samples, Split):
            if samples.dim != dim:
                raise ValueError(f"split of dimension {samples.dim}, "
                                 f"expected {dim}")
            return samples
        samples = list(samples)
        xs, ys = np.empty((len(samples), dim)), np.empty(len(samples), np.int64)
        for i, sample in enumerate(samples):
            _require_dim(sample.input, dim)
            xs[i], ys[i] = sample.input, sample.label
        return cls(xs, ys)

    @property
    def dim(self) -> int:
        return self._xs.shape[1]

    @property
    def xs(self) -> np.ndarray:
        return self._xs[:self._n]

    @property
    def ys(self) -> np.ndarray:
        return self._ys[:self._n]

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Split(self.xs[index], self.ys[index])
        return Sample(self.xs[index], self.ys[index])

    def __iter__(self):
        for x, y in zip(self.xs, self.ys.tolist()):
            yield Sample(x, y)

    def __add__(self, other):
        return [*self, *other]

    def append(self, sample: Sample) -> None:
        n = self._n
        if n == len(self._ys):
            xs = np.empty((n + n // 4 + 16, self.dim))
            ys = np.empty(len(xs), np.int64)
            xs[:n], ys[:n] = self.xs, self.ys
            self._xs, self._ys = xs, ys
        self._xs[n], self._ys[n] = sample.input, sample.label
        self._n = n + 1


class Dataset:
    """input_dim, num_classes and two Splits, train and test. A split given
    to the constructor or assigned may be a Split, kept as it is, or any
    iterable of Samples, copied once into a new Split."""

    def __init__(self, input_dim: int, num_classes: int, train=(), test=()):
        self.input_dim, self.num_classes = input_dim, num_classes
        self.train, self.test = train, test

    @property
    def train(self) -> Split:
        return self._train

    @train.setter
    def train(self, samples) -> None:
        self._train = Split.of(samples, self.input_dim)

    @property
    def test(self) -> Split:
        return self._test

    @test.setter
    def test(self, samples) -> None:
        self._test = Split.of(samples, self.input_dim)

    def _check(self, sample: Sample) -> None:
        _require_dim(sample.input, self.input_dim)
        if not 0 <= sample.label < self.num_classes:
            raise ValueError(f"label {sample.label} out of range "
                             f"[0, {self.num_classes})")

    def add_train_sample(self, sample: Sample) -> None:
        """Append a copy of sample's row to the train split."""
        self._check(sample)
        self.train.append(sample)


def _read_idx(path: str, magic: int):
    """The unsigned-byte payload of the IDX file at `path`, flat, and the
    sizes its header gives; the last byte of `magic` is their number."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = 4 + 4 * (magic & 0xFF)
    if len(data) < header:
        raise IdxFormatError(f"{path}: truncated header")
    found, *sizes = struct.unpack(f">{header // 4}I", data[:header])
    if found != magic:
        raise IdxFormatError(f"{path}: bad magic 0x{found:08x}, "
                             f"expected 0x{magic:08x}")
    expected = header + math.prod(sizes)
    if len(data) < expected:
        raise IdxFormatError(f"{path}: truncated payload "
                             f"({len(data)} bytes, expected {expected})")
    if len(data) > expected:
        raise IdxFormatError(f"{path}: {len(data) - expected} trailing bytes")
    return np.frombuffer(data, dtype=np.uint8, offset=header), sizes


def _read_idx_pair(images_path: str, labels_path: str):
    pixels, (n, rows, cols) = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels, _ = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if n != labels.size:
        raise IdxFormatError(f"count mismatch: {n} images vs "
                             f"{labels.size} labels")
    images = pixels.reshape(n, rows * cols).astype(np.float64)
    images /= 255.0
    return images, labels.astype(np.int64)


def load_idx_dataset(train_images: str, train_labels: str, test_images: str,
                     test_labels: str) -> Dataset:
    """Dataset from two IDX image/label file pairs; pixels are scaled to
    [0, 1]. input_dim comes from the image header and num_classes is one more
    than the largest label of either split."""
    train = _read_idx_pair(train_images, train_labels)
    test = _read_idx_pair(test_images, test_labels)
    if train[0].shape[1] != test[0].shape[1]:
        raise IdxFormatError(f"image size mismatch: {train[0].shape[1]} "
                             f"train vs {test[0].shape[1]} test pixels")
    num_classes = max(int(train[1].max(initial=-1)),
                      int(test[1].max(initial=-1))) + 1
    return Dataset(train[0].shape[1], num_classes, Split(*train),
                   Split(*test))


def synth_blobs(seed: int, n_per_class: int, num_classes: int, dim: int,
                spread: float) -> Dataset:
    """Gaussian blobs around distinct class centers, clipped to [0, 1]^dim.

    Deterministic for a fixed seed; 80/20 train/test split by interleaving
    (every fifth sample of each class goes to the test split).
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if dim < 1:
        raise ValueError("dim must be positive")
    rng = np.random.default_rng(seed)
    n_test = n_per_class // 5
    n_train = n_per_class - n_test
    to_test = np.arange(n_per_class) % 5 == 4
    train = Split(np.empty((num_classes * n_train, dim)),
                  np.repeat(np.arange(num_classes), n_train))
    test = Split(np.empty((num_classes * n_test, dim)),
                 np.repeat(np.arange(num_classes), n_test))
    # Centers evenly spaced along the main diagonal of the unit cube.
    centers = [np.full(dim, (c + 1) / (num_classes + 1)) for c in range(num_classes)]
    for c in range(num_classes):
        points = rng.normal(loc=centers[c], scale=spread, size=(n_per_class, dim))
        np.clip(points, 0.0, 1.0, out=points)
        train.xs[c * n_train:(c + 1) * n_train] = points[~to_test]
        test.xs[c * n_test:(c + 1) * n_test] = points[to_test]
    return Dataset(dim, num_classes, train, test)
