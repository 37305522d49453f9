"""Dense layer primitives with explicit backward rules, the Adam
optimizer, and readers of the BLAS threads and CPUs a process may use.

Parameters, their gradients and Adam's moments are float64. The other
operations keep their inputs' dtype: the model's encoders call ``spmm``
in float32. The backward pass is written per operation for the fixed
network rather than through a general autodiff tape.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp


@dataclass
class Param:
    """A trainable matrix paired with its gradient accumulator."""

    value: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        if self.grad.shape != self.value.shape:
            raise ValueError("grad shape must match value shape")

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def child_seed(seed: int, *key: int) -> int:
    """Derive an independent integer seed from a root seed and a key path."""
    return int(np.random.SeedSequence([int(seed), *map(int, key)]).generate_state(1)[0])


@functools.cache
def _openblas():
    """(file name, thread-count getter) of the first loaded OpenBLAS that has
    a getter, in path order, or (None, None). In a wheel install numpy's own
    copy (numpy.libs) sorts before scipy's (scipy.libs)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None, None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:  # a mapping whose file is gone, "... (deleted)"
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return Path(lib).name, fn
    return None, None


def blas_info() -> tuple[str | None, int | None]:
    """Name of the loaded OpenBLAS library and the threads it runs now, asked
    of the library itself; (None, None) when none is found."""
    name, get_threads = _openblas()
    return name, None if get_threads is None else int(get_threads())


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def spmm(s: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product Y[v] = sum_u w(v, u) X[u]."""
    return s @ x


# the operator is symmetric, so S^T dY == S dY
spmm_backward = spmm


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as (1 + tanh(x / 2)) / 2, which cannot overflow."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) computed without overflow."""
    # max(x, 0) + log1p(exp(-|x|)); cheaper than logaddexp on big arrays
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


class Adam:
    """Adam with bias correction; grads are zeroed after each step."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-8

    def __init__(self, params: dict[str, Param], lr: float = 0.01):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g, m, v = p.grad, self.m[k], self.v[k]
            # in place, in the order of m = b1 m + (1 - b1) g: the same bits
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            # lr (m / c1) / (sqrt(v / c2) + eps), through one temporary per term
            den = np.divide(v, c2)
            np.sqrt(den, out=den)
            den += self.EPSILON
            num = np.divide(m, c1)
            num *= self.lr
            num /= den
            p.value -= num
            p.zero_grad()

