"""Dense numerical kernel: affine maps, seeded Gaussian streams, Adam, and a
finite-difference gradient oracle used by the test suite.

Everything is float64 and row-major. All randomness flows through numpy
Generators produced by :func:`make_rng`, so a whole run is reproducible from
its master seed alone; independent sub-streams are derived by hashing a tag
tuple rather than by splitting one stream, which keeps unrelated consumers
(probes, training, evaluation) from perturbing each other.

The error types the command line maps to exit codes (config 1, numeric 3)
live here too, because every other module imports this one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np


class NumericError(ArithmeticError):
    """A computation produced NaN or Inf where finite values are required."""


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad value)."""


def require_positive(name: str, value: float) -> None:
    """Raise ConfigError unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be finite and > 0, got {value}")


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


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched affine map ``x @ w + b``.

    x: (B, I), w: (I, O), b: (O,) -> (B, O). Raises ValueError on any shape
    mismatch instead of letting numpy broadcast silently.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError(f"affine expects 2-D x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"inner dimensions differ: x {x.shape} vs w {w.shape}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"bias shape {b.shape} does not match output width {w.shape[1]}")
    return x @ w + b


@dataclass
class AdamState:
    """Per-parameter Adam accumulator (first/second moments + step count)."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros_like(cls, param: np.ndarray, lr: float = 0.001) -> "AdamState":
        return cls(m=np.zeros_like(param, dtype=np.float64),
                   v=np.zeros_like(param, dtype=np.float64), lr=lr)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update, in place on ``param`` and ``state``."""
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, state {state.m.shape}")
    state.step_count += 1
    t = state.step_count
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** t)
    v_hat = state.v / (1.0 - state.beta2 ** t)
    param -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return param


def gaussian_sample(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) array of i.i.d. N(0, 1) draws from ``rng``'s stream."""
    return rng.standard_normal((rows, cols))


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
