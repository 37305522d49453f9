"""Dense/sparse ops, activations, Adam, and the test suite's gradient checker."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvge.graph import Graph, normalized_adjacency
from mvge.numerics import (
    Adam,
    Param,
    blas_info,
    child_seed,
    glorot,
    sigmoid,
    softplus,
    spmm,
    spmm_backward,
    usable_cpus,
)

from conftest import feature_matrices
from oracles import grad_check, softmax_rows


# -- forward ops -------------------------------------------------------------

def test_spmm_identity_operator():
    g, _ = Graph.from_edges(3, [])
    s = normalized_adjacency(g)  # no edges: S == I
    x = np.random.default_rng(0).normal(size=(3, 4))
    assert np.allclose(spmm(s, x), x)


def test_spmm_single_edge_averages():
    g, _ = Graph.from_edges(2, [(0, 1)])
    s = normalized_adjacency(g)
    out = spmm(s, np.array([[1.0], [3.0]]))
    # every weight is 1/2, so both rows become (1+3)/2
    assert np.allclose(out, [[2.0], [2.0]])


def test_sigmoid_midpoint_and_symmetry():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    x = np.array([-3.0, -1.0, 1.0, 3.0])
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)


def test_sigmoid_extreme_inputs_finite():
    out = sigmoid(np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(1.0, abs=1e-12)


def masked_sigmoid(x):
    """The boolean-mask sigmoid first used, kept as a reference."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@given(st.lists(st.floats(), max_size=40))
@settings(max_examples=200, deadline=None)
def test_sigmoid_matches_masked_form(values):
    x = np.array(values + [-800.0, 800.0, -np.inf, np.inf, np.nan, 0.0])
    # NaN maps to NaN in both, at the same places
    np.testing.assert_allclose(sigmoid(x), masked_sigmoid(x), rtol=0.0, atol=1e-15)


def test_softmax_uniform_row():
    assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])


def test_softmax_known_values():
    out = softmax_rows(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(out, [[0.0900, 0.2447, 0.6652]], atol=1e-4)


def test_softmax_shift_invariant_and_stable():
    x = np.array([[1000.0, 1001.0], [-1000.0, -999.0]])
    out = softmax_rows(x)
    assert np.all(np.isfinite(out))
    assert np.allclose(out[0], out[1])


def test_softplus_matches_reference():
    x = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
    assert np.allclose(softplus(x), np.logaddexp(0.0, x))
    assert np.all(np.isfinite(softplus(x)))


@given(feature_matrices())
@settings(max_examples=40, deadline=None)
def test_softmax_rows_are_distributions(x):
    out = softmax_rows(x)
    assert np.all(out > 0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


# -- backward ops against finite differences ---------------------------------

def _fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    flat_x, flat_g = x.reshape(-1), g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        plus = f()
        flat_x[i] = orig - eps
        minus = f()
        flat_x[i] = orig
        flat_g[i] = (plus - minus) / (2 * eps)
    return g


def test_spmm_backward_matches_fd(triangle):
    s = normalized_adjacency(triangle)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 2))
    w = rng.normal(size=(3, 2))
    dx = spmm_backward(s, w)
    fd = _fd_grad(lambda: float((spmm(s, x) * w).sum()), x)
    assert np.allclose(dx, fd, atol=1e-6)


# -- rng helpers -------------------------------------------------------------

def test_child_seed_deterministic_and_distinct():
    assert child_seed(0, 1, 2) == child_seed(0, 1, 2)
    assert child_seed(0, 1, 2) != child_seed(0, 2, 1)
    assert child_seed(0, 1) != child_seed(1, 1)


def test_glorot_bounds_and_determinism():
    rng = np.random.default_rng(3)
    w = glorot(rng, 20, 30)
    limit = np.sqrt(6.0 / 50.0)
    assert w.shape == (20, 30)
    assert np.all(np.abs(w) <= limit)
    w2 = glorot(np.random.default_rng(3), 20, 30)
    assert np.array_equal(w, w2)


# -- optimizer ---------------------------------------------------------------

def test_adam_zero_grad_is_noop():
    p = Param(np.ones((2, 2)))
    opt = Adam({"w": p}, lr=0.1)
    opt.step()
    assert np.array_equal(p.value, np.ones((2, 2)))


def test_adam_first_step_size_is_lr():
    # with constant gradient, bias correction makes the first step -lr * sign(g)
    p = Param(np.zeros(3))
    opt = Adam({"w": p}, lr=0.05)
    p.grad += np.array([1.0, -2.0, 0.5])
    opt.step()
    assert np.allclose(p.value, [-0.05, 0.05, -0.05], atol=1e-9)


def test_adam_clears_grads_after_step():
    p = Param(np.zeros(2))
    opt = Adam({"w": p})
    p.grad += 1.0
    opt.step()
    assert np.array_equal(p.grad, np.zeros(2))


def test_adam_descends_quadratic():
    p = Param(np.array([5.0, -3.0]))
    opt = Adam({"w": p}, lr=0.1)
    for _ in range(500):
        p.grad += 2.0 * p.value
        opt.step()
    assert np.allclose(p.value, 0.0, atol=1e-3)


def test_adam_deterministic():
    def run():
        p = Param(np.array([1.0]))
        opt = Adam({"w": p}, lr=0.01)
        for i in range(10):
            p.grad += np.cos(i) * p.value
            opt.step()
        return p.value.copy()

    assert np.array_equal(run(), run())


def test_adam_in_place_matches_rebinding_expression():
    # Adam.step as first written, rebinding m and v each step; the in-place
    # update must give the same bits over a long run of varied gradients
    rng = np.random.default_rng(12)
    shapes = {"w": (7, 3), "b": (1, 3), "s": (5,)}
    params = {k: Param(rng.normal(size=s)) for k, s in shapes.items()}
    values = {k: p.value.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = Adam(params, lr=0.03)
    b1, b2, eps = Adam.BETA1, Adam.BETA2, Adam.EPSILON
    for t in range(1, 201):
        for k, p in params.items():
            g = rng.normal(size=shapes[k]) * 10.0 ** rng.integers(-8, 4)
            p.grad += g
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            m_hat = m[k] / (1.0 - b1 ** t)
            v_hat = v[k] / (1.0 - b2 ** t)
            values[k] -= 0.03 * m_hat / (np.sqrt(v_hat) + eps)
        opt.step()
        for k, p in params.items():
            assert p.value.tobytes() == values[k].tobytes(), (t, k)
            assert opt.m[k].tobytes() == m[k].tobytes() and opt.v[k].tobytes() == v[k].tobytes()


# -- gradient checker --------------------------------------------------------

def test_grad_check_accepts_correct_gradient():
    p = Param(np.random.default_rng(4).normal(size=(5, 3)))

    def loss():
        p.grad += p.value
        return 0.5 * float((p.value ** 2).sum())

    assert grad_check(loss, {"w": p}) < 1e-7


def test_grad_check_flags_wrong_gradient():
    p = Param(np.array([[1.0, 2.0]]))

    def loss():
        p.grad += 3.0 * p.value  # wrong scale
        return 0.5 * float((p.value ** 2).sum())

    assert grad_check(loss, {"w": p}) > 0.1


@pytest.mark.parametrize("scale, flagged", [(1.0, False), (2.0, True)])
def test_grad_check_floor_absorbs_roundoff_only(scale, flagged):
    # a loss of 100 with gradient 1e-7: the central difference's roundoff,
    # about eps * |loss| / epsilon = 2e-9, is 2% of it, while a gradient off
    # by 1e-7 is still a wrong gradient
    p = Param(np.array([0.5]))

    def loss():
        p.grad += scale * 1e-7
        return 100.0 + 1e-7 * float(p.value[0])

    assert (grad_check(loss, {"w": p}) >= 1e-4) == flagged


def test_grad_check_rejects_non_finite():
    p = Param(np.array([1.0]))

    def loss():
        p.grad += 1.0
        return float("nan")

    with pytest.raises(FloatingPointError):
        grad_check(loss, {"w": p})


def test_grad_check_restores_gradients():
    p = Param(np.array([2.0]))

    def loss():
        p.grad += p.value
        return 0.5 * float((p.value ** 2).sum())

    grad_check(loss, {"w": p})
    assert np.allclose(p.grad, p.value)


# -- environment readers -----------------------------------------------------

def test_blas_info_names_the_loaded_openblas():
    name, threads = blas_info()
    if name is None:
        pytest.skip("no OpenBLAS loaded")
    assert "openblas" in name.lower()
    assert threads >= 1


def test_blas_info_reads_the_thread_pin():
    if blas_info()[1] is None:
        pytest.skip("no OpenBLAS loaded")
    r = subprocess.run(
        [sys.executable, "-c", "from mvge.numerics import blas_info; print(blas_info()[1])"],
        capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "1"


def test_usable_cpus_within_cpu_count():
    assert 1 <= usable_cpus() <= (os.cpu_count() or 1)
