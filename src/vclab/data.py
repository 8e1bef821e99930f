"""Dataset ingestion and task-sequence construction.

MNIST arrives as IDX files (big-endian magic + dims), CIFAR-10 as the binary
batches (3073-byte records); both are parsed bit-exactly as published, with
deterministic format errors on truncation. CIFAR images are converted to
grayscale with ITU-R 601 luma weights and bilinearly resized to 28x28 so the
mixed sequence can share one 784-wide trunk with MNIST. Nothing here touches
the network -- fetching lives in scripts/fetch_data.py, outside the library.

Task views are lightweight: they reference the base pixel array and carry row
indices, remapped labels, and an optional pixel permutation, so ten permuted
tasks cost one copy of the underlying data.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .numerics import make_rng


class DataFormatError(ValueError):
    """A dataset file is malformed (bad magic, truncated, wrong size)."""


class MissingDataError(FileNotFoundError):
    """A required dataset file is absent from the data directory."""


@dataclass(frozen=True)
class Dataset:
    """One split of one corpus: pixels in [0, 1], integer class labels."""

    images: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N,) int64
    split: str

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass(frozen=True)
class TaskView:
    """A task's slice of a dataset: row subset, remapped labels, optional
    pixel permutation. Materializes pixels only on access."""

    images: np.ndarray
    rows: np.ndarray
    labels: np.ndarray
    permutation: np.ndarray | None = None

    def __len__(self) -> int:
        return self.rows.shape[0]

    def take(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pixels and labels for positions ``idx`` within this view.

        Rows and permuted columns are gathered in one indexing step, so no
        unpermuted copy of the rows is made.
        """
        rows = self.rows[idx]
        if self.permutation is None:
            x = self.images[rows]
        else:
            x = self.images[rows[:, None], self.permutation]
        return np.ascontiguousarray(x, dtype=np.float64), self.labels[idx]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.take(np.arange(len(self)))


@dataclass(frozen=True)
class TaskSpec:
    """One task: data views, head assignment, number of classes."""

    name: str
    train: TaskView
    test: TaskView
    head_index: int
    n_classes: int

    @property
    def input_dim(self) -> int:
        return self.train.images.shape[1]

    @property
    def chance_accuracy(self) -> float:
        return 1.0 / self.n_classes


# ---------------------------------------------------------------------------
# MNIST IDX

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_bytes(path: Path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        rest = fh.read()
    blob = head + rest
    if head == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    return blob


def _read_idx_images(path: Path) -> np.ndarray:
    blob = _read_bytes(path)
    if len(blob) < 16:
        raise DataFormatError(f"{path}: header truncated at byte {len(blob)} (need 16)")
    magic, count, rows, cols = struct.unpack_from(">iiii", blob, 0)
    if magic != _IDX_IMAGE_MAGIC:
        raise DataFormatError(f"{path}: bad image magic 0x{magic:08x} at byte 0")
    expected = 16 + count * rows * cols
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes for {count}x{rows}x{cols}, "
            f"got {len(blob)} (truncated at byte {len(blob)})")
    return np.frombuffer(blob, dtype=np.uint8, offset=16).reshape(count, rows * cols)


def _read_idx_labels(path: Path) -> np.ndarray:
    blob = _read_bytes(path)
    if len(blob) < 8:
        raise DataFormatError(f"{path}: header truncated at byte {len(blob)} (need 8)")
    magic, count = struct.unpack_from(">ii", blob, 0)
    if magic != _IDX_LABEL_MAGIC:
        raise DataFormatError(f"{path}: bad label magic 0x{magic:08x} at byte 0")
    if len(blob) != 8 + count:
        raise DataFormatError(
            f"{path}: expected {8 + count} bytes for {count} labels, "
            f"got {len(blob)} (truncated at byte {len(blob)})")
    return np.frombuffer(blob, dtype=np.uint8, offset=8).astype(np.int64)


def _locate(data_dir: Path, names: list[str], subdirs: list[str]) -> Path:
    tried = []
    for sub in subdirs:
        base = data_dir / sub if sub else data_dir
        for name in names:
            for candidate in (base / name, base / (name + ".gz")):
                if candidate.is_file():
                    return candidate
                tried.append(str(candidate))
    raise MissingDataError(f"none of these files exist: {tried}")


def load_mnist(data_dir) -> tuple[Dataset, Dataset]:
    """Load MNIST from IDX files (optionally gzipped) under ``data_dir``."""
    data_dir = Path(data_dir)
    subdirs = ["", "mnist", "MNIST/raw"]
    out = []
    for split, img_name, lab_name in [
        ("train", "train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("test", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    ]:
        images = _read_idx_images(_locate(data_dir, [img_name], subdirs))
        labels = _read_idx_labels(_locate(data_dir, [lab_name], subdirs))
        if images.shape[0] != labels.shape[0]:
            raise DataFormatError(
                f"{split}: {images.shape[0]} images but {labels.shape[0]} labels")
        out.append(Dataset(images=images.astype(np.float64) / 255.0, labels=labels, split=split))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# CIFAR-10 binary, grayscaled and resized to 28x28

_CIFAR_RECORD = 1 + 3 * 32 * 32
_LUMA = np.array([0.299, 0.587, 0.114])


def _bilinear_matrix(src: int, dst: int) -> np.ndarray:
    """(dst, src) row-stochastic interpolation matrix, half-pixel centers."""
    weights = np.zeros((dst, src))
    scale = src / dst
    for j in range(dst):
        pos = (j + 0.5) * scale - 0.5
        lo = int(np.floor(pos))
        frac = pos - lo
        lo_c = min(max(lo, 0), src - 1)
        hi_c = min(max(lo + 1, 0), src - 1)
        weights[j, lo_c] += 1.0 - frac
        weights[j, hi_c] += frac
    return weights


def _read_cifar_batch(path: Path) -> tuple[np.ndarray, np.ndarray]:
    blob = _read_bytes(path)
    if len(blob) == 0 or len(blob) % _CIFAR_RECORD != 0:
        raise DataFormatError(
            f"{path}: size {len(blob)} is not a multiple of the {_CIFAR_RECORD}-byte record")
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    rgb = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64)
    return rgb, labels


def load_cifar10_gray28(data_dir) -> tuple[Dataset, Dataset]:
    """Load CIFAR-10 binary batches; grayscale, resize to 28x28, flatten."""
    data_dir = Path(data_dir)
    subdirs = ["", "cifar-10-batches-bin", "cifar10"]
    resize = _bilinear_matrix(32, 28)

    def convert(rgb: np.ndarray) -> np.ndarray:
        gray = np.einsum("c,nchw->nhw", _LUMA, rgb)
        small = np.einsum("ah,nhw,bw->nab", resize, gray, resize)
        return small.reshape(-1, 28 * 28) / 255.0

    out = []
    for split, names in [
        ("train", [f"data_batch_{i}.bin" for i in range(1, 6)]),
        ("test", ["test_batch.bin"]),
    ]:
        parts = [_read_cifar_batch(_locate(data_dir, [n], subdirs)) for n in names]
        images = np.concatenate([convert(rgb) for rgb, _ in parts])
        labels = np.concatenate([lab for _, lab in parts])
        out.append(Dataset(images=images, labels=labels, split=split))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Task sequences


def _binary_view(ds: Dataset, label_a: int, label_b: int) -> TaskView:
    rows = np.flatnonzero((ds.labels == label_a) | (ds.labels == label_b))
    return TaskView(images=ds.images, rows=rows,
                    labels=(ds.labels[rows] == label_b).astype(np.int64))


def make_split_tasks(train: Dataset, test: Dataset, pairs: list[tuple[int, int]],
                     name_prefix: str = "mnist", head_start: int = 0) -> list[TaskSpec]:
    """One binary task per label pair, each with its own head; a' = 0.5."""
    present = set(np.unique(train.labels))
    tasks = []
    for k, (a, b) in enumerate(pairs):
        if a not in present or b not in present:
            raise ValueError(f"labels ({a}, {b}) not present in dataset")
        tasks.append(TaskSpec(
            name=f"{name_prefix}-{a}/{b}",
            train=_binary_view(train, a, b),
            test=_binary_view(test, a, b),
            head_index=head_start + k,
            n_classes=2,
        ))
    return tasks


def make_permuted_tasks(train: Dataset, test: Dataset, n_tasks: int,
                        rng: np.random.Generator) -> list[TaskSpec]:
    """Full 10-class dataset per task, each under its own pixel permutation;
    a single shared head (index 0). The first task is permuted too."""
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    dim = train.images.shape[1]
    tasks = []
    for k in range(n_tasks):
        perm = rng.permutation(dim)
        tasks.append(TaskSpec(
            name=f"permuted-{k}",
            train=TaskView(train.images, np.arange(len(train)), train.labels, permutation=perm),
            test=TaskView(test.images, np.arange(len(test)), test.labels, permutation=perm),
            head_index=0,
            n_classes=10,
        ))
    return tasks


STANDARD_SPLIT_PAIRS = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]


def make_mixed_sequence(mnist: tuple[Dataset, Dataset],
                        cifar: tuple[Dataset, Dataset]) -> list[TaskSpec]:
    """Standard binary splits of MNIST and CIFAR-10 interleaved MNIST-first,
    ten tasks with distinct heads."""
    mnist_tasks = make_split_tasks(*mnist, STANDARD_SPLIT_PAIRS, name_prefix="mnist")
    cifar_tasks = make_split_tasks(*cifar, STANDARD_SPLIT_PAIRS, name_prefix="cifar")
    tasks = []
    for m_task, c_task in zip(mnist_tasks, cifar_tasks):
        tasks.append(m_task)
        tasks.append(c_task)
    return [replace(t, head_index=i) for i, t in enumerate(tasks)]


# ---------------------------------------------------------------------------
# Synthetic blob tasks for dataset-free testing
#
# Two Gaussian clusters in a latent 2-d plane, embedded into 784 pixels along
# a fixed orthonormal basis shared by all blob tasks. `separation` is the
# distance between cluster centers relative to unit latent noise (0 means the
# labels carry no information; 10 is near-perfectly separable). `rotation`
# turns the center axis inside the latent plane, so tasks at equal rotation
# are re-draws of the same task and a pi rotation flips the labels.

BLOB_DIM = 784
_BLOB_SIGNAL_GAIN = 3.0
_BLOB_PIXEL_NOISE = 0.02

_blob_basis_cache: np.ndarray | None = None


def _blob_basis() -> np.ndarray:
    global _blob_basis_cache
    if _blob_basis_cache is None:
        rng = make_rng("blob-basis")
        raw = rng.standard_normal((2, BLOB_DIM))
        q, _ = np.linalg.qr(raw.T)
        _blob_basis_cache = np.ascontiguousarray(q.T)
    return _blob_basis_cache


def make_synthetic_blobs(separation: float, rotation: float, n: int,
                         rng: np.random.Generator, n_test: int | None = None,
                         head_index: int = 0, name: str | None = None) -> TaskSpec:
    """Binary blob task with difficulty set by ``separation`` and task
    identity set by ``rotation``."""
    if n < 4:
        raise ValueError("need at least 4 examples")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    n_test = n_test if n_test is not None else max(4, n // 4)
    axis = np.array([np.cos(rotation), np.sin(rotation)])
    basis = _blob_basis()

    def draw(count: int) -> TaskView:
        y = (np.arange(count) % 2).astype(np.int64)
        rng.shuffle(y)
        latent = (y[:, None] - 0.5) * separation * axis + rng.standard_normal((count, 2))
        x = 0.5 + _BLOB_SIGNAL_GAIN * latent @ basis
        x += _BLOB_PIXEL_NOISE * rng.standard_normal((count, BLOB_DIM))
        np.clip(x, 0.0, 1.0, out=x)
        return TaskView(images=x, rows=np.arange(count), labels=y)

    return TaskSpec(
        name=name or f"blobs-sep{separation:g}-rot{rotation:g}",
        train=draw(n),
        test=draw(n_test),
        head_index=head_index,
        n_classes=2,
    )
