"""Dense numerical kernel: seeded random streams, a chunk walk, a stateless Adam
update and a finite-difference gradient oracle used by the test suite.

The kernels run in the dtype of the buffers they are given: a network's,
float32 unless it is a test's float64 net (see :mod:`vclab.vbnn`). Arrays
are row-major. All randomness flows through numpy
Generators produced by :func:`make_rng`, so a whole run is reproducible from
its master seed alone; independent sub-streams are derived by hashing a tag
tuple rather than by splitting one stream, which keeps unrelated consumers
(probes, training, evaluation) from perturbing each other.

The error types the command line maps to exit codes (config 1, numeric 3),
the atomic file write that snapshots and results CSVs share and its one
writability check, the compute dtype and the one-BLAS-thread block live here
too, because every other module imports this one.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# The dtype of every network ``vbnn.init_network`` and ``vbnn.load_snapshot``
# make, and of task pixels.
DTYPE = np.dtype(np.float32)


class NumericError(ArithmeticError):
    """A computation produced NaN or Inf where finite values are required."""


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad value)."""


def require_positive(name: str, value: float) -> None:
    """Raise ConfigError unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and > 0, got {value}")


def check_writable(path, *inputs) -> None:
    """Raise ConfigError unless :func:`atomic_write` can write ``path``: it is
    not a directory, its nearest parent that exists or is a link is one this
    process may write and enter, and it is not the same file as any of
    ``inputs``, also through a link."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    parent = next(p for p in path.parents if p.exists() or p.is_symlink())
    if not parent.is_dir():
        raise ConfigError(f"cannot write {path}: {parent} is not a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write {path}: {parent} is not writable")
    for source in inputs:
        if path.exists() and Path(source).exists() and path.samefile(source):
            raise ConfigError(f"cannot write {path}: it is the input {source}")


@contextmanager
def atomic_write(path, mode: str, **open_kwargs):
    """Open a new temporary file next to ``path`` for writing (``mode`` "w"
    or "wb"), creating the missing parent directories of ``path`` first.

    The temporary name carries a random suffix and is created exclusively,
    so no existing path can block it. When the block completes, the file is
    flushed to disk and renamed onto ``path`` in one step; when it raises,
    the temporary file is removed and ``path`` keeps its old contents. A
    write killed before the rename can leave a ``*.tmp`` file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@functools.cache
def _openblas_thread_calls():
    """The loaded OpenBLAS's (get, set) thread-count functions, found through
    ``/proc/self/maps`` once per process, or None where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                                   ("openblas", "")):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    return get, set_
    except OSError:
        pass
    return None


@contextmanager
def one_blas_thread():
    """A block in which the loaded OpenBLAS runs one thread; the count it had
    is set back when the block ends, also by an error. Without an OpenBLAS
    it changes nothing.

    A run's threads each take one core (see ``vbnn.spare_core_worker``), so
    more BLAS threads oversubscribe them; and at 784-wide layers OpenBLAS's
    float32 sgemm rounds differently with 1 and 2 threads, so a run's bits
    would depend on the machine.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def seed_from(*parts: int | str) -> int:
    """Derive a stable 64-bit seed from a tuple of ints and strings.

    Distinct tuples give independent streams; the hash is platform- and
    process-independent (unlike builtin ``hash``).
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "little")


def make_rng(*parts: int | str) -> np.random.Generator:
    """Seeded PCG64 generator for the stream identified by ``parts``."""
    return np.random.Generator(np.random.PCG64(seed_from(*parts)))


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


# Elements per chunk of the loops that run through a layer's (2, n) buffers:
# Adam, the KL and its gradient. The six chunks one Adam update touches
# (parameters, gradient, both moments, two scratch rows) take 0.75 MB in
# float32 (1.5 MB in float64), which stays in a 2 MB L2 cache, and no loop
# makes a temporary the size of a layer.
CHUNK = 1 << 15


def chunks(buffer: np.ndarray, rows: int):
    """``(part, scratch)`` pairs: the slices ``part`` cover
    ``range(buffer.size)`` in order, ``CHUNK`` elements each but the last,
    and each ``scratch`` is ``rows`` rows of the part's length in
    ``buffer``'s dtype, cut from one ``(rows, min(CHUNK, buffer.size))``
    array allocated per call."""
    n = buffer.size
    scratch = np.empty((rows, min(CHUNK, n)), buffer.dtype)
    for start in range(0, n, CHUNK):
        yield slice(start, start + CHUNK), scratch[:, :n - start]


# Rows per block of the loops that build a (rows, 784) array a block at a time:
# the blob pixels and prediction's first-layer std.
ROW_BLOCK = 256


def row_blocks(n: int):
    """Slices of ``ROW_BLOCK`` rows that cover ``range(n)`` in order. A last
    block of one row joins the block before it: numpy multiplies one row
    through a different BLAS routine, which can round differently."""
    starts = list(range(0, n, ROW_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
              lr: float) -> None:
    """Adam's bias-corrected update at step ``t`` >= 1, in place on ``param``, ``m`` and ``v``.

    Walks the buffers with :func:`chunks` and two scratch rows in
    ``param``'s dtype, evaluating ``m += (1 - b1) * g``,
    ``v += ((1 - b2) * g) * g`` and
    ``param -= (lr * m_hat) / (sqrt(v_hat) + eps)`` in that order, so the
    bits equal those of the whole-array expressions.
    """
    if not param.shape == grad.shape == m.shape == v.shape:
        raise ValueError(f"shape mismatch: {[a.shape for a in (param, grad, m, v)]}")
    if not (param.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
        raise ValueError("param and the Adam moments must be C-contiguous")
    if t < 1:
        raise ValueError(f"Adam's step count starts at 1, got {t}")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m_scale, v_scale = 1.0 - b1 ** t, 1.0 - b2 ** t
    p, g, m, v = (a.reshape(-1) for a in (param, grad, m, v))
    for part, (num, den) in chunks(p, 2):
        g_c, m_c, v_c = g[part], m[part], v[part]
        np.multiply(g_c, 1.0 - b1, out=num)
        m_c *= b1
        m_c += num
        np.multiply(g_c, 1.0 - b2, out=num)
        num *= g_c
        v_c *= b2
        v_c += num
        np.divide(v_c, v_scale, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        np.divide(m_c, m_scale, out=num)
        num *= lr
        num /= den
        p[part] -= num


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    Used as the independent oracle for the hand-written backward pass; it
    never shares code with it. Raises NumericError if f returns a non-finite
    value at any probe point.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        hi = f(x + step)
        lo = f(x - step)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"non-finite objective at coordinate {i}: f+={hi}, f-={lo}")
        grad.flat[i] = (hi - lo) / (2.0 * h)
    return grad
