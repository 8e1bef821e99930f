"""Dataset ingestion and task-sequence construction.

MNIST arrives as IDX files (big-endian magic + dims), CIFAR-10 as the binary
batches (3073-byte records); both are parsed bit-exactly as published, with
a DataFormatError on truncation or a label outside 0..9. CIFAR images are
grayscaled with ITU-R 601 luma weights and bilinearly resized to 28x28 so the
mixed sequence can share one 784-wide trunk with MNIST. Nothing here touches
the network -- fetching lives in scripts/fetch_data.py, outside the library.

Task views are lightweight: they reference the base pixel array and carry row
indices, remapped labels, and an optional pixel permutation, so ten permuted
tasks cost one copy of the underlying data.
"""

from __future__ import annotations

import functools
import gzip
import math
import struct
import zlib
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
    """One split of one corpus: pixels in [0, 1], integer class labels.
    Pixels are stored in float32, the dtype the network computes in."""

    images: np.ndarray  # (N, D) float32
    labels: np.ndarray  # (N,) int64
    split: str

    def __post_init__(self):
        object.__setattr__(self, "images", np.asarray(self.images, dtype=np.float32))

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
        return np.ascontiguousarray(x, dtype=np.float32), self.labels[idx]

    def subset(self, idx: np.ndarray) -> "TaskView":
        """The view of positions ``idx`` within this view; copies no pixels."""
        return replace(self, rows=self.rows[idx], labels=self.labels[idx])


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
# Reading files

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_bytes(path: Path) -> bytes:
    """The file's bytes, gunzipped when they start with the gzip magic; any
    failure to read or decompress them is a ``DataFormatError``."""
    try:
        blob = path.read_bytes()
        return gzip.decompress(blob) if blob[:2] == b"\x1f\x8b" else blob
    except (OSError, EOFError, zlib.error) as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from None


def _read_idx(path: Path, magic: int) -> np.ndarray:
    """An unsigned-byte IDX file as a (count, rest) array: its rank is the
    magic's low byte, each dimension a big-endian unsigned 32-bit count."""
    blob = _read_bytes(path)
    header = 4 + 4 * (magic & 0xFF)
    if len(blob) < header:
        raise DataFormatError(f"{path}: header truncated at byte {len(blob)} (need {header})")
    found, count, *rest = struct.unpack_from(f">{header // 4}I", blob, 0)
    if found != magic:
        raise DataFormatError(f"{path}: bad magic 0x{found:08x} at byte 0 (need 0x{magic:08x})")
    size = math.prod(rest)
    if len(blob) != header + count * size:
        raise DataFormatError(f"{path}: expected {header + count * size} bytes for shape "
                              f"{(count, *rest)}, file ends at byte {len(blob)}")
    return np.frombuffer(blob, dtype=np.uint8, offset=header).reshape(count, size)


def _locate(data_dir: Path, name: str, subdirs: list[str]) -> Path:
    tried = []
    for sub in subdirs:
        base = data_dir / sub if sub else data_dir
        for candidate in (base / name, base / (name + ".gz")):
            if candidate.is_file():
                return candidate
            tried.append(str(candidate))
    raise MissingDataError(f"none of these files exist: {tried}")


def _dataset(pixels: np.ndarray, labels: np.ndarray, split: str) -> Dataset:
    """The split from (N, D) float pixel values in 0..255, which are scaled
    to [0, 1] in place, and N uint8 labels, each of which must be a class in
    0..9; N and D must be at least 1."""
    if not 0 < pixels.shape[0] == labels.shape[0]:
        raise DataFormatError(f"{split}: {pixels.shape[0]} images and {labels.shape[0]} labels "
                              "(need equal counts, at least 1)")
    if pixels.shape[1] == 0:
        raise DataFormatError(f"{split}: images have no pixels")
    if labels.max() > 9:
        raise DataFormatError(f"{split}: label {labels.max()} is not a class in 0..9")
    np.divide(pixels, 255.0, out=pixels)
    return Dataset(images=pixels, labels=labels.astype(np.int64), split=split)


def load_mnist(data_dir) -> tuple[Dataset, Dataset]:
    """Load MNIST from IDX files (optionally gzipped) under ``data_dir``."""
    data_dir = Path(data_dir)
    subdirs = ["", "mnist", "MNIST/raw"]
    out = []
    for split, img_name, lab_name in [
        ("train", "train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("test", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    ]:
        images = _read_idx(_locate(data_dir, img_name, subdirs), _IDX_IMAGE_MAGIC)
        labels = _read_idx(_locate(data_dir, lab_name, subdirs), _IDX_LABEL_MAGIC)
        # Scaled in float32: for each byte value, the float32 cast of p / 255.0.
        out.append(_dataset(images.astype(np.float32), labels[:, 0], split))
    if out[0].images.shape[1] != out[1].images.shape[1]:
        raise DataFormatError(f"train images have {out[0].images.shape[1]} pixels, test images "
                              f"{out[1].images.shape[1]}")
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


_RESIZE = _bilinear_matrix(32, 28)


def _read_cifar_batch(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """One batch as (N, 784) grayscale 28x28 pixel values in 0..255 and its
    N labels, converted straight from the uint8 records."""
    blob = _read_bytes(path)
    if len(blob) == 0 or len(blob) % _CIFAR_RECORD != 0:
        raise DataFormatError(
            f"{path}: size {len(blob)} is not a multiple of the {_CIFAR_RECORD}-byte record")
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    gray = np.einsum("c,nchw->nhw", _LUMA, records[:, 1:].reshape(-1, 3, 32, 32))
    small = _RESIZE @ gray @ _RESIZE.T
    return small.reshape(-1, 28 * 28), records[:, 0].copy()


def load_cifar10_gray28(data_dir) -> tuple[Dataset, Dataset]:
    """Load CIFAR-10 binary batches; grayscale, resize to 28x28, flatten."""
    data_dir = Path(data_dir)
    subdirs = ["", "cifar-10-batches-bin", "cifar10"]

    def read(split: str, names: list[str]) -> Dataset:
        batches = [_read_cifar_batch(_locate(data_dir, n, subdirs)) for n in names]
        pixels = np.concatenate([x for x, _ in batches])
        labels = np.concatenate([y for _, y in batches])
        del batches  # free the per-batch pixels before _dataset scales the split
        return _dataset(pixels, labels, split)

    return (read("train", [f"data_batch_{i}.bin" for i in range(1, 6)]),
            read("test", ["test_batch.bin"]))


# ---------------------------------------------------------------------------
# Task sequences


def _binary_view(ds: Dataset, label_a: int, label_b: int) -> TaskView:
    rows = np.flatnonzero((ds.labels == label_a) | (ds.labels == label_b))
    return TaskView(images=ds.images, rows=rows,
                    labels=(ds.labels[rows] == label_b).astype(np.int64))


def make_split_tasks(train: Dataset, test: Dataset, pairs: list[tuple[int, int]],
                     name_prefix: str = "mnist") -> list[TaskSpec]:
    """One binary task per label pair, each with its own head; a' = 0.5."""
    tasks = []
    for k, (a, b) in enumerate(pairs):
        for ds in (train, test):
            if not np.isin([a, b], ds.labels).all():
                raise DataFormatError(f"{ds.split}: labels ({a}, {b}) not both present")
        tasks.append(TaskSpec(
            name=f"{name_prefix}-{a}/{b}",
            train=_binary_view(train, a, b),
            test=_binary_view(test, a, b),
            head_index=k,
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
    ten tasks with distinct heads; every split must have the same image width."""
    if len(widths := {ds.images.shape[1] for ds in (*mnist, *cifar)}) > 1:
        raise DataFormatError(f"mixed needs one image width, MNIST and CIFAR have {widths}")
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
_BLOB_BLOCK_ROWS = 256


@functools.cache
def _blob_basis() -> np.ndarray:
    rng = make_rng("blob-basis")
    raw = rng.standard_normal((2, BLOB_DIM))
    q, _ = np.linalg.qr(raw.T)
    return np.ascontiguousarray(q.T)


def make_synthetic_blobs(separation: float, rotation: float, n: int,
                         rng: np.random.Generator, n_test: int | None = None,
                         head_index: int = 0, name: str | None = None) -> TaskSpec:
    """Binary blob task with difficulty set by ``separation`` and task
    identity set by ``rotation``.

    Each split is drawn from ``rng`` in this order: its shuffled labels, its
    (count, 2) latent points, then its (count, 784) pixel noise row by row.
    The float32 pixels are filled in blocks of 256 rows, each from the same
    float64 expression as the whole split would be, so a block's float64
    temporaries, not the split's, bound the memory beyond the pixels. A
    last block of one row joins the block before it: numpy multiplies one
    row by the basis through a different BLAS routine, which can round
    differently.
    """
    n_test = n_test if n_test is not None else max(4, n // 4)
    if n < 4 or n_test < 1:
        raise ValueError(f"need n >= 4 and n_test >= 1, got {n} and {n_test}")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    axis = np.array([np.cos(rotation), np.sin(rotation)])
    basis = _blob_basis()

    def draw(count: int) -> TaskView:
        y = (np.arange(count) % 2).astype(np.int64)
        rng.shuffle(y)
        latent = (y[:, None] - 0.5) * separation * axis + rng.standard_normal((count, 2))
        signal = _BLOB_SIGNAL_GAIN * latent
        images = np.empty((count, BLOB_DIM), dtype=np.float32)
        starts = list(range(0, count, _BLOB_BLOCK_ROWS))
        if len(starts) > 1 and count - starts[-1] == 1:
            starts.pop()
        for start, stop in zip(starts, [*starts[1:], count]):
            x = signal[start:stop] @ basis          # 0.5 + signal @ basis, in place
            x += 0.5
            noise = rng.standard_normal(x.shape)
            noise *= _BLOB_PIXEL_NOISE
            x += noise
            np.clip(x, 0.0, 1.0, out=x)
            images[start:stop] = x
        return TaskView(images=images, rows=np.arange(count), labels=y)

    return TaskSpec(
        name=name or f"blobs-sep{separation:g}-rot{rotation:g}",
        train=draw(n),
        test=draw(n_test),
        head_index=head_index,
        n_classes=2,
    )
