import re
import struct
from pathlib import Path

import numpy as np
import pytest

from relukit.config import ConfigError, dataset_from
from relukit.datasets import (Dataset, IdxFormatError, Sample, Split,
                              load_idx_dataset, synth_blobs)
from relukit.training import evaluate, init_network


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

    # Each malformed file's message, after "<path>: ". The label file's
    # truncated payload is matched up to the byte counts.
    @pytest.mark.parametrize("name,content,message", [
        ("train_images", b"\x00" * 15, "truncated header$"),
        ("train_images", struct.pack(">IIII", 0x123, 1, 1, 1) + b"\x00",
         "bad magic 0x00000123, expected 0x00000803$"),
        ("train_images", struct.pack(">IIII", 0x803, 1, 2, 2) + b"\x00" * 3,
         r"truncated payload \(19 bytes, expected 20\)$"),
        ("train_images", struct.pack(">IIII", 0x803, 1, 1, 1) + b"\x00" * 3,
         "2 trailing bytes$"),
        ("train_labels", b"\x00" * 7, "truncated header$"),
        ("train_labels", struct.pack(">II", 0x803, 1) + b"\x00",
         "bad magic 0x00000803, expected 0x00000801$"),
        ("train_labels", struct.pack(">II", 0x801, 3) + b"\x00",
         "truncated payload"),
        ("train_labels", struct.pack(">II", 0x801, 1) + b"\x00" * 4,
         "3 trailing bytes$")],
        ids=["images-header", "images-magic", "images-payload",
             "images-trailing", "labels-header", "labels-magic",
             "labels-payload", "labels-trailing"])
    def test_malformed_file_message(self, tmp_path, name, content, message):
        paths = write_pairs(tmp_path, np.zeros((1, 1, 1)))
        (tmp_path / MNIST_NAMES[name]).write_bytes(content)
        with pytest.raises(IdxFormatError,
                           match="^" + re.escape(f"{paths[name]}: ")
                           + message):
            load(paths)

    def test_count_mismatch(self, tmp_path):
        paths = write_pairs(tmp_path, np.zeros((2, 1, 1)), [0, 1, 1])
        with pytest.raises(IdxFormatError,
                           match="^count mismatch: 2 images vs 3 labels$"):
            load(paths)

    def test_image_size_differs_between_splits(self, tmp_path):
        paths = write_pairs(tmp_path, np.zeros((1, 2, 2)))
        with pytest.raises(IdxFormatError, match="^image size mismatch: 4 "
                                                 "train vs 1 test pixels$"):
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

    @pytest.mark.parametrize("key,value", [("input_dim", 1.9),
                                           ("num_classes", 2.5),
                                           ("num_classes", True)])
    def test_declared_sizes_must_be_integers(self, tmp_path, key, value):
        paths = write_pairs(tmp_path, np.zeros((1, 1, 1)))
        with pytest.raises(ValueError, match=f"dataset.idx.{key} must be an "
                           f"integer, got {value!r}"):
            dataset_from(self.spec(paths, **{key: value}))

    @pytest.mark.parametrize("key", list(MNIST_NAMES))
    def test_paths_must_be_paths(self, tmp_path, key):
        # an integer was opened as a file descriptor: 0 read standard input
        paths = write_pairs(tmp_path, np.zeros((1, 1, 1)))
        paths[key] = 0
        with pytest.raises(ConfigError, match=f"^dataset.idx.{key} must be "
                           "a path, got 0$"):
            dataset_from(self.spec(paths))

    def test_pathlib_paths_load(self, tmp_path):
        paths = write_pairs(tmp_path, np.zeros((1, 1, 1)))
        ds = dataset_from(self.spec({k: Path(v) for k, v in paths.items()}))
        assert len(ds.train) == len(ds.test) == 1


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
            ds.add_train_sample(Sample(np.array([0.1]), 0))

    @pytest.mark.parametrize("value,shape", [(0.5, r"\(\)"),
                                             ([[0.1, 0.2]], r"\(1, 2\)")])
    def test_input_of_another_shape(self, value, shape):
        ds = Dataset(input_dim=2, num_classes=2)
        with pytest.raises(ValueError, match=rf"shape {shape}.*dimension "
                                             r"\(2,\)"):
            ds.add_train_sample(Sample(np.array(value), 0))

    @pytest.mark.parametrize("label", [0.7, 1.0, True, "1", None])
    def test_non_integer_label_rejected(self, label):
        with pytest.raises(ValueError, match="label must be an integer"):
            Sample(np.array([0.5]), label)

    def test_numpy_integer_label_accepted(self):
        sample = Sample(np.array([0.5]), np.uint8(1))
        assert sample.label == 1 and type(sample.label) is int

    def test_growth_is_exact(self):
        ds = Dataset(input_dim=1, num_classes=2)
        for k in range(5):
            ds.add_train_sample(Sample(np.array([0.5]), 0))
            assert len(ds.train) == k + 1


def assert_rows(samples, xs, ys):
    samples = list(samples)
    assert len(samples) == len(xs) == len(ys)
    for sample, x, y in zip(samples, xs, ys):
        assert type(sample) is Sample
        assert np.array_equal(sample.input, x) and sample.label == y


class TestSplitView:
    def test_reads_as_samples_of_the_rows(self):
        ds = synth_blobs(2, 10, 3, 4, 0.1)
        split = ds.train
        xs, ys = split.xs, split.ys
        assert (xs.shape, xs.dtype) == ((24, 4), np.float64)
        assert (ys.shape, ys.dtype) == ((24,), np.int64)
        assert len(split) == 24
        for i in (0, 7, 23, -1, -24):
            assert_rows([split[i]], xs[[i]], ys[[i]])
        for index in (slice(3, 9), slice(None, 5), slice(-4, None),
                      slice(1, 20, 3), slice(30, 40)):
            assert_rows(split[index], xs[index], ys[index])
        assert_rows(split, xs, ys)
        both = np.concatenate([xs, ds.test.xs])
        labels = np.concatenate([ys, ds.test.ys])
        assert_rows(split + ds.test, both, labels)
        assert_rows(split + list(ds.test), both, labels)
        with pytest.raises(IndexError):
            split[24]

    def test_slice_assigned_back(self):
        ds = synth_blobs(2, 10, 3, 4, 0.1)
        xs, ys = ds.train.xs.copy(), ds.train.ys.copy()
        ds.train = ds.train[:5]
        assert_rows(ds.train, xs[:5], ys[:5])
        ds.add_train_sample(Sample(np.zeros(4), 2))
        assert len(ds.train) == 6 and ds.train[5].label == 2

    def test_samples_from_a_list(self):
        samples = [Sample(np.full(3, i / 10), i % 2) for i in range(6)]
        ds = Dataset(3, 2, samples, samples[:2])
        assert isinstance(ds.train, Split) and isinstance(ds.test, Split)
        assert_rows(ds.train, [s.input for s in samples],
                    [s.label for s in samples])
        with pytest.raises(ValueError, match=r"shape \(2,\).*dimension "
                                             r"\(3,\)"):
            Dataset(3, 2, [Sample(np.zeros(2), 0)])
        with pytest.raises(ValueError, match="split of dimension 3"):
            Dataset(4, 2, ds.train)
        with pytest.raises(ValueError, match="labels must be integers"):
            Split(np.zeros((1, 3)), [0.7])
        with pytest.raises(ValueError, match="do not make a split"):
            Split(np.zeros((2, 3)), [0])

    def test_evaluate_same_on_split_and_list(self):
        ds = synth_blobs(4, 30, 3, 5, 0.3)
        net = init_network([5, 6, 3], seed=1)
        for split in (ds.train, ds.test):
            assert evaluate(net, split) == evaluate(net, list(split))

    def test_thousand_appends(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(size=(1000, 3))
        ys = rng.integers(0, 4, size=1000)
        ds = Dataset(input_dim=3, num_classes=4)
        for k, (x, y) in enumerate(zip(xs, ys)):
            ds.add_train_sample(Sample(x, y))
            assert len(ds.train) == k + 1
        assert len(ds.test) == 0
        assert np.array_equal(ds.train.xs, xs)
        assert np.array_equal(ds.train.ys, ys)
        assert_rows(ds.train, xs, ys)

    def test_append_copies_the_row(self):
        # A list append used to keep the caller's array itself.
        ds = synth_blobs(2, 10, 3, 4, 0.1)
        x = np.full(4, 0.25)
        ds.add_train_sample(Sample(x, 1))
        x[:] = 0.75
        assert np.all(ds.train[-1].input == 0.25)


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
