"""Finite-difference oracle checks for every primitive op of the tape engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegen.autodiff import (Tensor, as_tensor, backward, concat,
                                segment_sum, softmax)

RNG = np.random.default_rng(42)


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = f(x)
        flat[k] = orig - h
        down = f(x)
        flat[k] = orig
        gf[k] = (up - down) / (2 * h)
    return g


def check_op(make_output, x: np.ndarray, tol: float = 1e-6):
    """Compare backprop grads of sum(make_output(t)) against the FD oracle."""
    t = Tensor(x.copy(), requires_grad=True)
    out = make_output(t).sum()
    backward(out)

    def scalar(arr):
        return float(make_output(Tensor(arr)).sum().data)

    fd = fd_grad(scalar, x.copy())
    assert t.grad is not None
    np.testing.assert_allclose(t.grad, fd, rtol=tol, atol=tol)


class TestElementwiseGrads:
    def test_add_broadcast(self):
        y = Tensor(RNG.standard_normal((1, 4)))
        check_op(lambda t: t + y, RNG.standard_normal((3, 4)))

    def test_mul_broadcast(self):
        y = Tensor(RNG.standard_normal((3, 1)))
        check_op(lambda t: t * y, RNG.standard_normal((3, 4)))

    def test_div(self):
        y = Tensor(1.5 + RNG.random((3, 4)))
        check_op(lambda t: t / y, RNG.standard_normal((3, 4)))
        check_op(lambda t: y / t, 1.0 + RNG.random((3, 4)))

    def test_pow(self):
        check_op(lambda t: t ** 3, RNG.standard_normal((5,)))

    def test_neg_sub(self):
        y = Tensor(RNG.standard_normal((4,)))
        check_op(lambda t: y - t, RNG.standard_normal((4,)))

    def test_exp_log_sqrt(self):
        check_op(lambda t: t.exp(), RNG.standard_normal((6,)))
        check_op(lambda t: t.log(), 0.5 + RNG.random((6,)))
        check_op(lambda t: t.sqrt(), 0.5 + RNG.random((6,)))

    def test_sigmoid_silu(self):
        check_op(lambda t: t.sigmoid(), RNG.standard_normal((6,)))
        check_op(lambda t: t.silu(), RNG.standard_normal((6,)))

    def test_clip_interior(self):
        # gradient defined away from the clip boundaries
        x = np.array([-5.0, -0.3, 0.2, 4.0])
        t = Tensor(x, requires_grad=True)
        backward(t.clip(-1.0, 1.0).sum())
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 1.0, 0.0])


class TestMatmulGrads:
    def test_matmul_2d(self):
        y = Tensor(RNG.standard_normal((4, 2)))
        check_op(lambda t: t @ y, RNG.standard_normal((3, 4)))

    def test_matmul_batched(self):
        y = Tensor(RNG.standard_normal((5, 4, 2)))
        check_op(lambda t: t @ y, RNG.standard_normal((5, 3, 4)))

    def test_matmul_broadcast_left(self):
        # (F_out, F_in) @ (N, F_in, 3): the vector-neuron pattern
        y = Tensor(RNG.standard_normal((6, 4, 3)))
        check_op(lambda t: t @ y, RNG.standard_normal((5, 4)))


class TestShapeOpGrads:
    def test_reshape_swapaxes(self):
        check_op(lambda t: t.reshape(6, 2), RNG.standard_normal((3, 4)))
        check_op(lambda t: t.swapaxes(0, 1), RNG.standard_normal((3, 4)))

    def test_getitem_repeated_indices(self):
        idx = np.array([0, 2, 2, 1])
        w = Tensor(RNG.standard_normal((4, 3)))
        check_op(lambda t: t[idx] * w, RNG.standard_normal((3, 3)))

    def test_sum_axis_keepdims(self):
        check_op(lambda t: t.sum(axis=1, keepdims=True) * 2.0,
                 RNG.standard_normal((3, 4)))

    def test_mean(self):
        check_op(lambda t: t.mean(axis=0), RNG.standard_normal((3, 4)))


class TestFreeFunctionGrads:
    def test_concat(self):
        y = Tensor(RNG.standard_normal((2, 4)))
        check_op(lambda t: concat([t, y], axis=0) ** 2,
                 RNG.standard_normal((3, 4)))

    def test_segment_sum_forward(self):
        t = Tensor(np.arange(8.0).reshape(4, 2))
        out = segment_sum(t, np.array([0, 1, 0, 1]), 2)
        np.testing.assert_array_equal(out.data, [[4.0, 6.0], [8.0, 10.0]])

    def test_segment_sum_grad(self):
        seg = np.array([0, 1, 0])
        w = Tensor(RNG.standard_normal((2, 3)))
        check_op(lambda t: segment_sum(t, seg, 2) * w, RNG.standard_normal((3, 3)))

    def test_softmax_rows_sum_to_one(self):
        out = softmax(Tensor(RNG.standard_normal((5, 7))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_grad(self):
        w = Tensor(RNG.standard_normal((3, 4)))
        check_op(lambda t: softmax(t, axis=1) * w, RNG.standard_normal((3, 4)))

    def test_softmax_shift_invariance(self):
        x = RNG.standard_normal((2, 5))
        a = softmax(Tensor(x), axis=1).data
        b = softmax(Tensor(x + 100.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestEngineSemantics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            backward(t * 2.0)

    def test_grad_accumulates_across_calls(self):
        t = Tensor(np.ones(3), requires_grad=True)
        backward((t * 2.0).sum())
        backward((t * 3.0).sum())
        np.testing.assert_array_equal(t.grad, np.full(3, 5.0))

    def test_diamond_graph_accumulation(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        y = t * t + t * 3.0       # dy/dt = 2t + 3 = 7
        backward(y.sum())
        np.testing.assert_allclose(t.grad, [7.0])

    def test_constants_get_no_grad(self):
        c = Tensor(np.ones(3))
        t = Tensor(np.ones(3), requires_grad=True)
        backward((t * c).sum())
        assert c.grad is None

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.lists(st.floats(-10, 10), min_size=2, max_size=6))
def test_chain_rule_random_polynomials(xs, ys):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n])
    y = np.array(ys[:n])
    t = Tensor(x.copy(), requires_grad=True)
    out = ((t * t) * Tensor(y) + t * 2.0).sum()
    backward(out)
    np.testing.assert_allclose(t.grad, 2.0 * x * y + 2.0, rtol=1e-9, atol=1e-9)
