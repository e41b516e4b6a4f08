"""Dense float64 linear algebra and a seeded SplitMix64 stream.

Everything numeric in the package goes through the handful of helpers in
this module: matrices are plain 2-D float64 numpy arrays in row-major
order, and all randomness comes from one SplitMix64 stream so that every
run is reproducible bit-for-bit from a single integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A Matrix is a 2-D, C-contiguous float64 ndarray. Kept as an alias rather
# than a wrapper class so the linear algebra stays plain numpy.
Matrix = np.ndarray

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea & Flood's published mixer).
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def matrix(data) -> Matrix:
    """Build a validated Matrix from a nested sequence (or array).

    Raises ValueError unless the input is 2-D with at least one row and
    one column and every element is finite.
    """
    m = np.array(data, dtype=np.float64, order="C")
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix: expected a non-empty 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix: elements must be finite (no NaN/Inf)")
    return m


def zeros(rows: int, cols: int) -> Matrix:
    if rows < 1 or cols < 1:
        raise ValueError(f"zeros: dimensions must be positive, got {rows}x{cols}")
    return np.zeros((rows, cols), dtype=np.float64)


def identity(n: int) -> Matrix:
    if n < 1:
        raise ValueError(f"identity: dimension must be positive, got {n}")
    return np.eye(n, dtype=np.float64)


def matmul(a: Matrix, b: Matrix, out: Matrix | None = None) -> Matrix:
    """Matrix product with an explicit shape check.

    Accumulation happens in float64; on a given platform the result is
    deterministic for identical inputs. `out`, when given, receives the
    product in place and is returned.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul: incompatible shapes {tuple(a.shape)} x {tuple(b.shape)}"
        )
    return np.matmul(a, b, out=out)


def softmax_rows(m: Matrix) -> Matrix:
    """Row-wise softmax with the max subtracted before exponentiation.

    The subtraction is required for numerical stability and makes the
    result invariant to adding a constant to a row.
    """
    if m.ndim != 2 or m.shape[1] < 1:
        raise ValueError(f"softmax_rows: expected a non-empty 2-D array, got shape {m.shape}")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def relu(m: Matrix) -> Matrix:
    return np.maximum(m, 0.0)


@dataclass(frozen=True)
class RngState:
    """Immutable SplitMix64 state; every draw returns a fresh state."""

    state: int

    def __post_init__(self):
        object.__setattr__(self, "state", self.state & _MASK64)


def rng_next(state: RngState) -> tuple[int, RngState]:
    """Advance SplitMix64 one step; returns (64-bit output, new state)."""
    s = (state.state + _GAMMA) & _MASK64
    z = s
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31), RngState(s)


def rng_uniform(state: RngState, lo: float, hi: float) -> tuple[float, RngState]:
    """One uniform draw in [lo, hi) from the top 53 bits of the next output."""
    if not lo < hi:
        raise ValueError(f"rng_uniform: empty interval [{lo}, {hi})")
    u, state = rng_next(state)
    return lo + (hi - lo) * ((u >> 11) * 2.0**-53), state


def rng_uniform_array(
    state: RngState, shape: tuple[int, ...], lo: float, hi: float
) -> tuple[np.ndarray, RngState]:
    """Vectorized rng_uniform: one state advance per element, identical stream.

    Produces exactly the values that `shape`-many successive rng_uniform
    calls would, which keeps parameter initialization fast without
    changing the stream.
    """
    if not lo < hi:
        raise ValueError(f"rng_uniform_array: empty interval [{lo}, {hi})")
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if n < 1:
        raise ValueError(f"rng_uniform_array: empty shape {shape}")
    # state after k steps is seed + k*GAMMA mod 2^64, so all n mixer inputs
    # are known up front; uint64 array arithmetic wraps mod 2^64.
    steps = np.arange(1, n + 1, dtype=np.uint64)
    s = np.uint64(state.state) + np.uint64(_GAMMA) * steps
    z = (s ^ (s >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    out = lo + (hi - lo) * u
    return out.reshape(shape), RngState((state.state + _GAMMA * n) & _MASK64)
