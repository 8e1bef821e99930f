import gzip
import math
import struct

import numpy as np
import pytest

from vclab.data import (BLOB_DIM, DataFormatError, Dataset, MissingDataError,
                        STANDARD_SPLIT_PAIRS, TaskView, _bilinear_matrix, load_cifar10_gray28,
                        load_mnist, make_mixed_sequence, make_permuted_tasks, make_split_tasks,
                        make_synthetic_blobs)
from vclab.numerics import make_rng


def write_idx_images(path, images):
    n, rows, cols = images.shape
    path.write_bytes(struct.pack(">iiii", 0x803, n, rows, cols) + images.tobytes())


def write_idx_labels(path, labels):
    path.write_bytes(struct.pack(">ii", 0x801, len(labels)) + bytes(labels))


def make_mnist_dir(tmp_path, n_train=12, n_test=6, side=28):
    rng = make_rng("idx")
    train = rng.integers(0, 256, (n_train, side, side)).astype(np.uint8)
    test = rng.integers(0, 256, (n_test, side, side)).astype(np.uint8)
    write_idx_images(tmp_path / "train-images-idx3-ubyte", train)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", [i % 10 for i in range(n_train)])
    write_idx_images(tmp_path / "t10k-images-idx3-ubyte", test)
    write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", [i % 10 for i in range(n_test)])
    return train, test


def loads_or_format_error(load, data_dir) -> bool:
    """True if ``load(data_dir)`` loads, False if it raises DataFormatError;
    any other exception fails the calling test."""
    try:
        load(data_dir)
    except DataFormatError:
        return False
    return True


def gzip_in_place(path):
    path.with_name(path.name + ".gz").write_bytes(gzip.compress(path.read_bytes(), mtime=0))
    path.unlink()
    return path.with_name(path.name + ".gz")


class TestIdxLoader:
    def test_round_trip(self, tmp_path):
        raw_train, _ = make_mnist_dir(tmp_path, n_train=20, n_test=4)
        train, test = load_mnist(tmp_path)
        assert train.images.shape == (20, 784)
        assert test.images.shape == (4, 784)
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0
        np.testing.assert_allclose(train.images[3], raw_train[3].reshape(-1) / 255.0)
        assert train.labels.dtype == np.int64

    def test_bad_magic(self, tmp_path):
        make_mnist_dir(tmp_path)
        bad = tmp_path / "train-images-idx3-ubyte"
        blob = bytearray(bad.read_bytes())
        blob[3] = 0x99
        bad.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="magic"):
            load_mnist(tmp_path)

    def test_truncated_reports_offset(self, tmp_path):
        make_mnist_dir(tmp_path)
        bad = tmp_path / "train-images-idx3-ubyte"
        blob = bad.read_bytes()
        bad.write_bytes(blob[:-100])
        with pytest.raises(DataFormatError, match=f"byte {len(blob) - 100}"):
            load_mnist(tmp_path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(MissingDataError):
            load_mnist(tmp_path)

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("name", ["train-images-idx3-ubyte", "t10k-labels-idx1-ubyte"])
    def test_every_truncation_is_a_format_error(self, tmp_path, name, compress):
        make_mnist_dir(tmp_path, n_train=3, n_test=2)
        path = gzip_in_place(tmp_path / name) if compress else tmp_path / name
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            assert not loads_or_format_error(load_mnist, tmp_path), cut

    @pytest.mark.parametrize("name, header", [("train-images-idx3-ubyte", 16),
                                              ("t10k-labels-idx1-ubyte", 8)])
    def test_every_header_byte_set_to_0_or_ff_loads_or_is_a_format_error(self, tmp_path, name,
                                                                           header):
        make_mnist_dir(tmp_path, n_train=3, n_test=2)
        path = tmp_path / name
        blob = path.read_bytes()
        loaded = []
        for offset in range(header):
            for value in (0x00, 0xFF):
                path.write_bytes(blob[:offset] + bytes([value]) + blob[offset + 1:])
                if loads_or_format_error(load_mnist, tmp_path):
                    loaded.append((offset, value))
        # only bytes that already held the value leave a loadable file
        assert loaded == [(k, blob[k]) for k in range(header) if blob[k] in (0x00, 0xFF)]

    def test_label_outside_0_to_9_rejected(self, tmp_path):
        make_mnist_dir(tmp_path)
        write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", [0, 1, 2, 10, 4, 5])
        with pytest.raises(DataFormatError, match="label 10"):
            load_mnist(tmp_path)

    def test_gzip_accepted(self, tmp_path):
        make_mnist_dir(tmp_path)
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                     "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
            raw = (tmp_path / name).read_bytes()
            (tmp_path / name).unlink()
            (tmp_path / (name + ".gz")).write_bytes(gzip.compress(raw))
        train, _ = load_mnist(tmp_path)
        assert train.images.shape[1] == 784


def make_cifar_dir(tmp_path, fill=None, n_records=2):
    """Six batches of ``n_records`` records each, labelled 0, 1, 2, ... mod 10."""
    rng = make_rng("cifar")
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = bytearray()
        for k in range(n_records):
            records.append(k % 10)
            if fill is None:
                records.extend(rng.integers(0, 256, 3072).astype(np.uint8).tobytes())
            else:
                records.extend(bytes([fill]) * 3072)
        (tmp_path / name).write_bytes(bytes(records))


class TestCifarLoader:
    def test_shapes_and_range(self, tmp_path):
        make_cifar_dir(tmp_path)
        train, test = load_cifar10_gray28(tmp_path)
        assert train.images.shape == (10, 784)  # 5 batches x 2 records
        assert test.images.shape == (2, 784)
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_uniform_gray_preserved(self, tmp_path):
        # luma weights sum to 1 and bilinear preserves constants, so a
        # uniform image with all channels c maps to c/255 everywhere.
        make_cifar_dir(tmp_path, fill=200)
        train, _ = load_cifar10_gray28(tmp_path)
        np.testing.assert_allclose(train.images, 200.0 / 255.0, atol=1e-12)

    def test_wrong_record_size(self, tmp_path):
        make_cifar_dir(tmp_path)
        path = tmp_path / "data_batch_3.bin"
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(DataFormatError, match="3073"):
            load_cifar10_gray28(tmp_path)

    def test_every_truncation_of_a_batch_loads_or_is_a_format_error(self, tmp_path):
        make_cifar_dir(tmp_path)
        path = tmp_path / "data_batch_2.bin"
        blob = path.read_bytes()
        loaded = []
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            if loads_or_format_error(load_cifar10_gray28, tmp_path):
                loaded.append(cut)
        assert loaded == [3073]  # one whole record is a valid batch

    def test_label_outside_0_to_9_rejected(self, tmp_path):
        make_cifar_dir(tmp_path)
        path = tmp_path / "test_batch.bin"
        path.write_bytes(b"\xc8" + path.read_bytes()[1:])
        with pytest.raises(DataFormatError, match="label 200"):
            load_cifar10_gray28(tmp_path)

    def test_resize_matches_einsum_form(self, tmp_path):
        # The loader resizes with two matrix products; the three-operand
        # einsum it replaced is the same linear map, summed in another order.
        make_cifar_dir(tmp_path)
        train, _ = load_cifar10_gray28(tmp_path)
        records = np.frombuffer((tmp_path / "data_batch_1.bin").read_bytes(), dtype=np.uint8)
        rgb = records.reshape(-1, 3073)[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64)
        gray = np.einsum("c,nchw->nhw", np.array([0.299, 0.587, 0.114]), rgb)
        resize = _bilinear_matrix(32, 28)
        expected = np.einsum("ah,nhw,bw->nab", resize, gray, resize).reshape(-1, 784) / 255.0
        np.testing.assert_allclose(train.images[:2], expected, rtol=0, atol=1e-15)

    def test_bilinear_matrix_rows_stochastic(self):
        m = _bilinear_matrix(32, 28)
        assert m.shape == (28, 32)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(28), atol=1e-12)


def toy_dataset(n, split, seed=0):
    rng = make_rng("toy", split, seed)
    return Dataset(images=rng.random((n, 784)), labels=np.arange(n) % 10, split=split)


class TestSplitTasks:
    def test_custom_sequence(self):
        train, test = toy_dataset(100, "train"), toy_dataset(40, "test")
        pairs = [(0, 1), (8, 7), (9, 4), (6, 2), (3, 5)]
        tasks = make_split_tasks(train, test, pairs)
        assert len(tasks) == 5
        assert [t.head_index for t in tasks] == [0, 1, 2, 3, 4]
        assert all(t.chance_accuracy == 0.5 for t in tasks)
        # each task's view contains only the two chosen digit classes
        for task, (a, b) in zip(tasks, pairs):
            original = train.labels[task.train.rows]
            assert set(np.unique(original)) == {a, b}
            x, y = task.train.arrays()
            assert set(np.unique(y)) <= {0, 1}
            assert np.array_equal(y, (original == b).astype(int))

    def test_pairwise_disjoint_labels(self):
        train, test = toy_dataset(100, "train"), toy_dataset(40, "test")
        tasks = make_split_tasks(train, test, STANDARD_SPLIT_PAIRS)
        seen = [set(np.unique(train.labels[t.train.rows])) for t in tasks]
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                assert not (seen[i] & seen[j])

    def test_missing_label_rejected(self):
        small = Dataset(images=np.zeros((4, 784)), labels=np.array([0, 0, 1, 1]), split="train")
        with pytest.raises(ValueError):
            make_split_tasks(small, small, [(0, 7)])

    @pytest.mark.parametrize("lacking", ["train", "test"])
    def test_pair_missing_from_either_split_is_a_format_error(self, lacking):
        full = toy_dataset(20, "full")
        partial = Dataset(images=full.images, labels=np.where(full.labels == 7, 8, full.labels),
                          split=lacking)
        train, test = (partial, full) if lacking == "train" else (full, partial)
        with pytest.raises(DataFormatError, match=f"{lacking}: labels \\(8, 7\\)"):
            make_split_tasks(train, test, [(0, 1), (8, 7)])


class TestPermutedTasks:
    def test_permutations_are_bijections(self):
        train, test = toy_dataset(50, "train"), toy_dataset(20, "test")
        tasks = make_permuted_tasks(train, test, 10, make_rng("perm", 1))
        assert len(tasks) == 10
        for task in tasks:
            assert sorted(task.train.permutation.tolist()) == list(range(784))
            assert np.array_equal(task.test.permutation, task.train.permutation)
            assert task.head_index == 0
            assert task.chance_accuracy == 0.1

    def test_same_seed_same_permutations(self):
        train, test = toy_dataset(50, "train"), toy_dataset(20, "test")
        a = make_permuted_tasks(train, test, 3, make_rng("perm", 2))
        b = make_permuted_tasks(train, test, 3, make_rng("perm", 2))
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.train.permutation, tb.train.permutation)

    def test_permutations_pairwise_distinct(self):
        train, test = toy_dataset(50, "train"), toy_dataset(20, "test")
        tasks = make_permuted_tasks(train, test, 10, make_rng("perm", 3))
        perms = {tuple(t.train.permutation) for t in tasks}
        assert len(perms) == 10

    def test_view_applies_permutation(self):
        train, test = toy_dataset(50, "train"), toy_dataset(20, "test")
        (task,) = make_permuted_tasks(train, test, 1, make_rng("perm", 4))
        idx = np.array([5, 0, 5, 49, 3])
        x, y = task.train.take(idx)
        assert x.dtype == np.float64 and x.flags.c_contiguous
        np.testing.assert_array_equal(x, train.images[idx][:, task.train.permutation])
        np.testing.assert_array_equal(y, train.labels[idx])

    def test_shared_label_distribution(self):
        train, test = toy_dataset(50, "train"), toy_dataset(20, "test")
        tasks = make_permuted_tasks(train, test, 4, make_rng("perm", 5))
        base = tasks[0].train.arrays()[1]
        for task in tasks[1:]:
            assert np.array_equal(task.train.arrays()[1], base)


class TestMixedSequence:
    def test_alternation_and_heads(self):
        mnist = (toy_dataset(100, "train", 1), toy_dataset(40, "test", 1))
        cifar = (toy_dataset(100, "train", 2), toy_dataset(40, "test", 2))
        tasks = make_mixed_sequence(mnist, cifar)
        assert len(tasks) == 10
        assert [t.name.split("-")[0] for t in tasks] == ["mnist", "cifar"] * 5
        assert tasks[0].name == "mnist-0/1"
        assert [t.head_index for t in tasks] == list(range(10))
        assert all(t.input_dim == 784 for t in tasks)


class TestSyntheticBlobs:
    def test_pixels_in_unit_range(self):
        task = make_synthetic_blobs(8.0, 0.3, 200, make_rng("b", 1))
        x, y = task.train.arrays()
        assert x.shape == (200, BLOB_DIM)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert set(np.unique(y)) == {0, 1}

    def test_separation_zero_is_chance(self):
        task = make_synthetic_blobs(0.0, 0.0, 2000, make_rng("b", 2))
        x, y = task.train.arrays()
        # projection onto the class-mean axis is the best linear guess
        direction = x[y == 1].mean(axis=0) - x[y == 0].mean(axis=0)
        score = x @ direction
        acc = max(((score > np.median(score)) == y).mean(),
                  ((score < np.median(score)) == y).mean())
        assert acc < 0.6

    def test_separation_ten_linearly_separable(self):
        task = make_synthetic_blobs(10.0, 0.0, 2000, make_rng("b", 3))
        x, y = task.train.arrays()
        direction = x[y == 1].mean(axis=0) - x[y == 0].mean(axis=0)
        midpoint = (x[y == 1] @ direction).mean() / 2 + (x[y == 0] @ direction).mean() / 2
        acc = ((x @ direction > midpoint) == y).mean()
        assert acc > 0.99

    def test_rotation_pi_flips_labels(self):
        base = make_synthetic_blobs(9.0, 0.0, 1000, make_rng("b", 4))
        flipped = make_synthetic_blobs(9.0, math.pi, 1000, make_rng("b", 5))
        xb, yb = base.train.arrays()
        xf, yf = flipped.train.arrays()
        direction = xb[yb == 1].mean(axis=0) - xb[yb == 0].mean(axis=0)
        # the flipped task's class-1 cluster sits on the class-0 side
        assert (xf[yf == 1] @ direction).mean() < (xf[yf == 0] @ direction).mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_blobs(5.0, 0.0, 2, make_rng("b", 6))
        with pytest.raises(ValueError):
            make_synthetic_blobs(-1.0, 0.0, 100, make_rng("b", 7))


class TestTaskView:
    def test_len_and_take(self):
        view = TaskView(images=np.arange(20.0).reshape(5, 4), rows=np.array([1, 3, 4]),
                        labels=np.array([0, 1, 0]))
        assert len(view) == 3
        x, y = view.take(np.array([0, 2]))
        np.testing.assert_array_equal(x, [[4.0, 5.0, 6.0, 7.0], [16.0, 17.0, 18.0, 19.0]])
        np.testing.assert_array_equal(y, [0, 0])
