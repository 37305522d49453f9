"""Dense layer primitives with explicit backward rules, the Adam
optimizer, finite-difference gradient checking, and readers of the BLAS
threads and CPUs a process may use.

All matrices are float64 numpy arrays. The backward pass is written
per operation for the fixed network rather than through a general
autodiff tape.
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


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) computed without overflow."""
    # max(x, 0) + log1p(exp(-|x|)); cheaper than logaddexp on big arrays
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


class Adam:
    """Adam with bias correction; grads are zeroed after each step."""

    def __init__(self, params: dict[str, Param], lr: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, p in self.params.items():
            g = p.grad
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * g * g
            m_hat = self.m[k] / (1.0 - b1 ** self.t)
            v_hat = self.v[k] / (1.0 - b2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
            p.zero_grad()


def grad_check(
    loss_fn,
    params: dict[str, Param],
    epsilon: float = 1e-5,
    max_entries_per_param: int = 40,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn()`` must recompute the loss from the current parameter
    values and leave the full analytic gradient in each param's ``grad``.
    A deterministic sample of entries per parameter is probed; the
    relative error is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    rng = np.random.default_rng(seed)
    base = loss_fn()
    if not np.isfinite(base):
        raise FloatingPointError(f"non-finite loss {base!r} in grad_check")
    analytic = {k: p.grad.copy() for k, p in params.items()}
    for p in params.values():
        p.zero_grad()

    worst = 0.0
    for k, p in params.items():
        flat = p.value.reshape(-1)
        n = flat.size
        idx = np.arange(n) if n <= max_entries_per_param else rng.choice(
            n, size=max_entries_per_param, replace=False
        )
        for i in idx:
            orig = flat[i]
            flat[i] = orig + epsilon
            plus = loss_fn()
            flat[i] = orig - epsilon
            minus = loss_fn()
            flat[i] = orig
            for q in params.values():
                q.zero_grad()
            if not (np.isfinite(plus) and np.isfinite(minus)):
                raise FloatingPointError("non-finite loss during grad_check probe")
            numeric = (plus - minus) / (2.0 * epsilon)
            a = analytic[k].reshape(-1)[i]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    loss_fn()  # restore gradient state for the caller
    return worst
