"""Datasets: sample stores, IDX binary ingestion and synthetic generators.

Inputs are normalized to [0, 1] at ingestion so robustness properties have a
fixed global input domain.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Sample", "Dataset", "IdxFormatError", "load_idx_dataset", "synth_blobs"]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file."""


@dataclass
class Sample:
    input: np.ndarray
    label: int

    def __post_init__(self):
        self.input = np.asarray(self.input, dtype=np.float64)
        self.label = int(self.label)


@dataclass
class Dataset:
    input_dim: int
    num_classes: int
    train: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def _check(self, sample: Sample) -> None:
        if sample.input.shape != (self.input_dim,):
            raise ValueError(f"sample dimension {sample.input.shape[0]} != "
                             f"dataset input_dim {self.input_dim}")
        if not 0 <= sample.label < self.num_classes:
            raise ValueError(f"label {sample.label} out of range "
                             f"[0, {self.num_classes})")

    def add_train_sample(self, sample: Sample) -> None:
        self._check(sample)
        self.train.append(sample)

    def add_test_sample(self, sample: Sample) -> None:
        self._check(sample)
        self.test.append(sample)


def _read_idx_images(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise IdxFormatError(f"{path}: truncated header")
    magic, n, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x}, "
                             f"expected 0x{IDX_IMAGES_MAGIC:08x}")
    expected = 16 + n * rows * cols
    if len(data) < expected:
        raise IdxFormatError(f"{path}: truncated payload "
                             f"({len(data)} bytes, expected {expected})")
    if len(data) > expected:
        raise IdxFormatError(f"{path}: {len(data) - expected} trailing bytes")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0


def _read_idx_labels(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8:
        raise IdxFormatError(f"{path}: truncated header")
    magic, n = struct.unpack(">II", data[:8])
    if magic != IDX_LABELS_MAGIC:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x}, "
                             f"expected 0x{IDX_LABELS_MAGIC:08x}")
    if len(data) < 8 + n:
        raise IdxFormatError(f"{path}: truncated payload")
    if len(data) > 8 + n:
        raise IdxFormatError(f"{path}: {len(data) - 8 - n} trailing bytes")
    return np.frombuffer(data, dtype=np.uint8, offset=8).astype(np.int64)


def _read_idx_pair(images_path: str, labels_path: str):
    images = _read_idx_images(images_path)
    labels = _read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(f"count mismatch: {images.shape[0]} images vs "
                             f"{labels.shape[0]} labels")
    return images, labels


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
    labels = np.concatenate([train[1], test[1]])
    ds = Dataset(input_dim=train[0].shape[1],
                 num_classes=int(labels.max(initial=-1)) + 1)
    ds.train = [Sample(x, y) for x, y in zip(*train)]
    ds.test = [Sample(x, y) for x, y in zip(*test)]
    return ds


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
    ds = Dataset(input_dim=dim, num_classes=num_classes)
    # Centers evenly spaced along the main diagonal of the unit cube.
    centers = [np.full(dim, (c + 1) / (num_classes + 1)) for c in range(num_classes)]
    for c in range(num_classes):
        points = rng.normal(loc=centers[c], scale=spread, size=(n_per_class, dim))
        points = np.clip(points, 0.0, 1.0)
        for i in range(n_per_class):
            sample = Sample(points[i], c)
            if i % 5 == 4:
                ds.add_test_sample(sample)
            else:
                ds.add_train_sample(sample)
    return ds
