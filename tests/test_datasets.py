import struct

import numpy as np
import pytest

from relukit.config import ConfigError, dataset_from
from relukit.datasets import (Dataset, IdxFormatError, Sample,
                              load_idx_dataset, synth_blobs)


def write_idx_images(path, images):
    n, rows, cols = images.shape
    path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols)
                     + images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    path.write_bytes(struct.pack(">II", 0x801, len(labels))
                     + bytes(labels))


MNIST_NAMES = {"train_images": "train-images-idx3-ubyte",
               "train_labels": "train-labels-idx1-ubyte",
               "test_images": "t10k-images-idx3-ubyte",
               "test_labels": "t10k-labels-idx1-ubyte"}


def write_pairs(tmp_path, train_images=None, train_labels=(0,)):
    """Both IDX pairs under MNIST's file names; the train images default to
    one 1x1 image and the test pair is always one 1x1 image of label 1."""
    paths = {k: tmp_path / v for k, v in MNIST_NAMES.items()}
    if train_images is not None:
        write_idx_images(paths["train_images"], train_images)
    write_idx_labels(paths["train_labels"], list(train_labels))
    write_idx_images(paths["test_images"], np.zeros((1, 1, 1)))
    write_idx_labels(paths["test_labels"], [1])
    return {k: str(v) for k, v in paths.items()}


def load(paths):
    return load_idx_dataset(paths["train_images"], paths["train_labels"],
                            paths["test_images"], paths["test_labels"])


class TestIdxLoader:
    def test_small_pair(self, tmp_path):
        images = np.array([[[0, 255], [128, 64]],
                           [[255, 255], [0, 0]]], dtype=np.uint8)
        paths = write_pairs(tmp_path, images, [7, 2])
        write_idx_images(tmp_path / "t10k-images-idx3-ubyte",
                         np.full((1, 2, 2), 255))
        ds = load(paths)
        assert (ds.input_dim, ds.num_classes) == (4, 8)
        assert len(ds.train) == 2
        assert [s.label for s in ds.train] == [7, 2]
        assert ds.train[0].input == pytest.approx([0.0, 1.0, 128 / 255, 64 / 255])
        assert ds.train[1].input[0] == 1.0 and ds.train[1].input[2] == 0.0
        assert [s.label for s in ds.test] == [1]
        assert ds.test[0].input == pytest.approx([1.0] * 4)

    def test_wrong_magic(self, tmp_path):
        paths = write_pairs(tmp_path)
        (tmp_path / MNIST_NAMES["train_images"]).write_bytes(
            struct.pack(">IIII", 0x123, 1, 1, 1) + b"\x00")
        with pytest.raises(IdxFormatError, match="magic"):
            load(paths)

    def test_truncated_payload(self, tmp_path):
        paths = write_pairs(tmp_path, train_labels=[0, 1])
        (tmp_path / MNIST_NAMES["train_images"]).write_bytes(
            struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 7)
        with pytest.raises(IdxFormatError, match="truncated"):
            load(paths)

    def test_trailing_bytes(self, tmp_path):
        paths = write_pairs(tmp_path)
        (tmp_path / MNIST_NAMES["train_images"]).write_bytes(
            struct.pack(">IIII", 0x803, 1, 1, 1) + b"\x00\x00")
        with pytest.raises(IdxFormatError, match="trailing"):
            load(paths)

    def test_count_mismatch(self, tmp_path):
        paths = write_pairs(tmp_path, np.zeros((2, 1, 1)), [0, 1, 1])
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load(paths)

    def test_image_size_differs_between_splits(self, tmp_path):
        paths = write_pairs(tmp_path, np.zeros((1, 2, 2)))
        with pytest.raises(IdxFormatError, match="image size mismatch"):
            load(paths)

    def test_acceptance_criterion_4_call(self, tmp_path):
        # the exact call tests/test_acceptance.py makes on the MNIST files
        paths = write_pairs(tmp_path, np.zeros((3, 1, 1)), [0, 3, 2])
        ds = load_idx_dataset(**paths)
        assert isinstance(ds, Dataset)
        assert (ds.input_dim, ds.num_classes) == (1, 4)
        assert (len(ds.train), len(ds.test)) == (3, 1)


class TestIdxConfig:
    def spec(self, paths, **declared):
        return {"idx": {**paths, "input_dim": 1, "num_classes": 2, **declared}}

    def test_loads_both_splits(self, tmp_path):
        paths = write_pairs(tmp_path, np.zeros((1, 1, 1)))
        ds = dataset_from(self.spec(paths))
        assert (ds.input_dim, ds.num_classes) == (1, 2)
        assert len(ds.train) == len(ds.test) == 1

    def test_both_pairs_required(self, tmp_path):
        paths = write_pairs(tmp_path, np.zeros((1, 1, 1)))
        del paths["test_labels"]
        with pytest.raises(ConfigError, match="test_labels"):
            dataset_from(self.spec(paths))

    @pytest.mark.parametrize("declared", [{"input_dim": 784},
                                          {"num_classes": 10}])
    def test_declared_sizes_checked_against_files(self, tmp_path, declared):
        paths = write_pairs(tmp_path, np.zeros((1, 1, 1)))
        with pytest.raises(ConfigError, match="read from the files"):
            dataset_from(self.spec(paths, **declared))


class TestAddSamples:
    def test_add_to_empty(self):
        ds = Dataset(input_dim=2, num_classes=2)
        ds.add_train_sample(Sample(np.array([0.1, 0.2]), 1))
        assert len(ds.train) == 1 and len(ds.test) == 0

    def test_label_out_of_range(self):
        ds = Dataset(input_dim=2, num_classes=2)
        with pytest.raises(ValueError, match="label"):
            ds.add_train_sample(Sample(np.array([0.1, 0.2]), 2))

    def test_dim_mismatch(self):
        ds = Dataset(input_dim=2, num_classes=2)
        with pytest.raises(ValueError, match="dimension"):
            ds.add_test_sample(Sample(np.array([0.1]), 0))

    def test_growth_is_exact(self):
        ds = Dataset(input_dim=1, num_classes=2)
        for k in range(5):
            ds.add_train_sample(Sample(np.array([0.5]), 0))
            assert len(ds.train) == k + 1


class TestSynthBlobs:
    def test_deterministic(self):
        a = synth_blobs(3, 20, 2, 2, 0.1)
        b = synth_blobs(3, 20, 2, 2, 0.1)
        for sa, sb in zip(a.train + a.test, b.train + b.test):
            assert np.array_equal(sa.input, sb.input) and sa.label == sb.label

    def test_split_ratio(self):
        ds = synth_blobs(1, 50, 3, 2, 0.05)
        assert len(ds.train) == 3 * 40 and len(ds.test) == 3 * 10

    def test_zero_spread_hits_centers(self):
        ds = synth_blobs(1, 10, 2, 3, 0.0)
        centers = {0: np.full(3, 1 / 3), 1: np.full(3, 2 / 3)}
        for s in ds.train + ds.test:
            assert s.input == pytest.approx(centers[s.label])

    def test_features_in_unit_box(self):
        ds = synth_blobs(5, 100, 4, 3, 0.5)
        for s in ds.train + ds.test:
            assert np.all(s.input >= 0.0) and np.all(s.input <= 1.0)

    def test_linearly_separable_at_small_spread(self):
        # brute-force search over candidate separating lines w.x = c
        ds = synth_blobs(1, 50, 2, 2, 0.05)
        samples = ds.train + ds.test
        xs = np.stack([s.input for s in samples])
        ys = np.array([s.label for s in samples])
        found = False
        for theta in np.linspace(0, np.pi, 60):
            w = np.array([np.cos(theta), np.sin(theta)])
            proj = xs @ w
            for c in np.linspace(proj.min(), proj.max(), 200):
                pred = (proj > c).astype(int)
                if np.all(pred == ys) or np.all(pred == 1 - ys):
                    found = True
                    break
            if found:
                break
        assert found
