"""Finite-difference oracle checks for every primitive op of the tape engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegen.autodiff import (Tensor, _scatter_rows, _sigmoid, as_tensor, backward,
                                concat, no_grad, segment_sum, take)

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

    def test_neg_sub(self):
        y = Tensor(RNG.standard_normal((4,)))
        check_op(lambda t: y - t, RNG.standard_normal((4,)))

    def test_exp_log_sqrt(self):
        check_op(lambda t: t.exp(), RNG.standard_normal((6,)))
        check_op(lambda t: t.sqrt(), 0.5 + RNG.random((6,)))

    def test_sigmoid_silu(self):
        check_op(lambda t: t.sigmoid(), RNG.standard_normal((6,)))
        check_op(lambda t: t * t.sigmoid(), RNG.standard_normal((6,)))

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
    def test_reshape(self):
        check_op(lambda t: t.reshape(6, 2), RNG.standard_normal((3, 4)))

    def test_getitem_repeated_indices(self):
        idx = np.array([0, 2, 2, 1])
        w = Tensor(RNG.standard_normal((4, 3)))
        check_op(lambda t: t[idx] * w, RNG.standard_normal((3, 3)))

    @pytest.mark.parametrize("idx", [slice(0, 2), (0, 1), np.array([0.0, 1.0]),
                                     np.array([[0, 1]])],
                             ids=["slice", "tuple", "float-array", "2d-array"])
    def test_getitem_only_gathers_rows(self, idx):
        t = Tensor(RNG.standard_normal((3, 3)), requires_grad=True)
        with pytest.raises(TypeError):
            t[idx]

    def test_sum_axis_keepdims(self):
        check_op(lambda t: t.sum(axis=1, keepdims=True) * 2.0,
                 RNG.standard_normal((3, 4)))

    def test_mean(self):
        check_op(lambda t: t.mean(axis=0), RNG.standard_normal((3, 4)))


class TestFreeFunctionGrads:
    def test_concat(self):
        y = Tensor(RNG.standard_normal((2, 4)))

        def square_of_concat(t):
            c = concat([t, y], axis=0)
            return c * c

        check_op(square_of_concat, RNG.standard_normal((3, 4)))

    def test_segment_sum_forward(self):
        t = Tensor(np.arange(8.0).reshape(4, 2))
        out = segment_sum(t, np.array([0, 1, 0, 1]), 2)
        np.testing.assert_array_equal(out.data, [[4.0, 6.0], [8.0, 10.0]])

    def test_segment_sum_grad(self):
        seg = np.array([0, 1, 0])
        w = Tensor(RNG.standard_normal((2, 3)))
        check_op(lambda t: segment_sum(t, seg, 2) * w, RNG.standard_normal((3, 3)))


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

    def test_per_term_backwards_equal_backward_of_sum(self):
        """After the grads are reset, one backward per term adds a leaf's
        contributions in the same order as one backward of the terms' sum,
        so the two grads are equal bit for bit."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 3, 6)
        consts = [[rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 3, 6)
                   for _ in range(3)] for _ in range(3)]

        def terms(w):
            # w reaches each term five times: w*a, w*w (twice), w+c, w-c
            return [(w * a).sum() + (w * w * b).sum() + ((w + c) * (w - c)).sum()
                    for a, b, c in consts]

        per_term = Tensor(x.copy(), requires_grad=True)
        per_term.grad = None
        for t in terms(per_term):
            backward(t)
        summed = Tensor(x.copy(), requires_grad=True)
        t1, t2, t3 = terms(summed)
        backward(t1 + t2 + t3)
        assert np.array_equal(per_term.grad, summed.grad)

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


def records(t: Tensor) -> bool:
    return t.requires_grad and t._backward_fn is not None and bool(t._parents)


class TestNoGrad:
    def ops(self, x):
        """One of each kind of op: arithmetic, gathers, segment sums,
        concatenation, reductions."""
        y = (x * 2.0 + 1.0 - x[np.array([1, 0, 2])]) / 3.0
        y = segment_sum(y, np.array([0, 1, 0]), 2).exp()
        first = x[np.array([0])]
        return concat([y, first * first], axis=0).mean()

    def test_ops_record_nothing(self):
        x = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        with no_grad():
            out = self.ops(x)
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None
        assert x.requires_grad    # a leaf keeps its flag
        np.testing.assert_array_equal(out.data, self.ops(x).data)

    def test_leaf_created_inside_keeps_requires_grad(self):
        with no_grad():
            w = Tensor(np.ones(3), requires_grad=True)
        assert w.requires_grad
        backward((w * 2.0).sum())
        np.testing.assert_array_equal(w.grad, np.full(3, 2.0))

    def test_restored_after_exception(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert records(x * 2.0)

    def test_nested(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                assert not records(x * 2.0)
            assert not records(x * 2.0)
        assert records(x * 2.0)


def add_at(values, ids, n):
    acc = np.zeros((n,) + values.shape[1:])
    np.add.at(acc, ids, values)
    return acc


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestScatterRows:
    @pytest.mark.parametrize("trail", [(), (3,), (4, 3)])
    @pytest.mark.parametrize("ids", [[], [2], [0, 0, 0], [3, 1, 3, 0, 1, 3]])
    def test_equals_add_at(self, trail, ids):
        rng = np.random.default_rng(len(ids) + 7 * len(trail))
        ids = np.array(ids, dtype=np.intp)
        values = rng.standard_normal((len(ids),) + trail) * 10.0 ** rng.integers(
            -8, 8, size=(len(ids),) + trail)
        assert_bit_identical(_scatter_rows(values, ids, 5), add_at(values, ids, 5))

    @pytest.mark.parametrize("trail", [(), (3,), (2, 3)])
    def test_signed_zeros(self, trail):
        ids = np.array([0, 1, 1, 2, 2], dtype=np.intp)
        values = np.full((5,) + trail, -0.0)
        values[3] = 1.5
        values[4] = -1.5          # row 2 sums to +0.0 through 1.5 + (-1.5)
        assert_bit_identical(_scatter_rows(values, ids, 4), add_at(values, ids, 4))

    def test_segment_sum_and_getitem_backward(self):
        x = RNG.standard_normal((6, 3))
        ids = np.array([4, 0, 4, 5, 0, 0, -1])
        t = Tensor(x, requires_grad=True)
        g = RNG.standard_normal((7, 3))
        backward((t[ids] * Tensor(g)).sum())
        assert_bit_identical(t.grad, add_at(g, ids, 6))
        out = segment_sum(Tensor(g[:6]), ids[:6], 6).data
        assert_bit_identical(out, add_at(g[:6], ids[:6], 6))


def sigmoid_where(x: np.ndarray) -> np.ndarray:
    """The ``np.where`` form of ``_sigmoid``, kept as its reference."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


class TestSigmoid:
    def test_equals_where_form_bit_for_bit(self):
        """Signed zeros, infinities, NaN, subnormals, the overflow range and
        random values of every sign and scale give the same bits."""
        rng = np.random.default_rng(5)
        edges = [0.0, -0.0, 800.0, -800.0, np.nan, -np.nan, np.inf, -np.inf,
                 5e-324, -5e-324, 1e-300, -1e-300, 36.8, -36.8, 745.2, -745.2]
        x = np.concatenate([edges, rng.standard_normal(20000)
                            * 10.0 ** rng.integers(-4, 4, size=20000)])
        x = x.reshape(4, -1, 4)
        got, want = _sigmoid(x), sigmoid_where(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_leaves_input_unchanged(self):
        x = RNG.standard_normal((3, 5))
        before = x.copy()
        _sigmoid(x)
        assert np.array_equal(x, before)


class TestPathAxis:
    """Ops over a leading path axis give each path what its own call gives,
    bit for bit, signed zeros included."""

    def test_take_and_segment_sum_along_rows(self):
        x = RNG.standard_normal((3, 6, 2))
        ids = np.array([4, 0, 4, 5, 0, -1])
        g = RNG.standard_normal((3, 6, 2))
        g[1, 2] = -0.0
        t = Tensor(x, requires_grad=True)
        out = take(t, ids, 1)
        backward((out * Tensor(g)).sum())
        seg = segment_sum(Tensor(g), ids % 6, 6, axis=1).data
        for k in range(3):
            t_k = Tensor(x[k], requires_grad=True)
            out_k = t_k[ids]
            assert_bit_identical(out.data[k], out_k.data)
            backward((out_k * Tensor(g[k])).sum())
            assert_bit_identical(t.grad[k], t_k.grad)
            assert_bit_identical(seg[k], segment_sum(Tensor(g[k]), ids % 6, 6).data)

    def test_concat_joins_one_path_to_each_row(self):
        """A single path broadcasts over the rows of a path stack; its
        gradient is the rows' partials added in row order."""
        x = Tensor(RNG.standard_normal((3, 4, 2, 3)), requires_grad=True)
        y = Tensor(RNG.standard_normal((4, 1, 3)), requires_grad=True)
        out = concat([x, y], axis=-2)
        for k in range(3):
            assert_bit_identical(out.data[k], np.concatenate([x.data[k], y.data], axis=-2))
        g = RNG.standard_normal(out.shape)
        backward((out * Tensor(g)).sum())
        assert_bit_identical(x.grad, g[:, :, :2])
        assert_bit_identical(y.grad, g[0, :, 2:] + g[1, :, 2:] + g[2, :, 2:])
        with pytest.raises(ValueError):     # repeated, it still does not fit
            concat([x, Tensor(np.zeros((5, 1, 3)))], axis=-2)

    def test_concat_broadcast_grad(self):
        y = Tensor(RNG.standard_normal((3, 4, 2)))

        def square_of_concat(t):
            c = concat([y, t], axis=-1)
            return c * c

        check_op(square_of_concat, RNG.standard_normal((4, 3)))


class TestUnreadGradients:
    @pytest.mark.parametrize("op", [lambda a, c: a + c, lambda a, c: a - c,
                                    lambda a, c: a * c, lambda a, c: a / c,
                                    lambda a, c: a @ c])
    def test_no_gradient_for_a_constant_operand(self, op):
        a = Tensor(RNG.standard_normal((2, 2)), requires_grad=True)
        out = op(a, Tensor(RNG.standard_normal((2, 2)) + 3.0))
        ga, gc = out._backward_fn(np.ones((2, 2)))
        assert ga is not None and gc is None

    def test_leaf_grad_of_sum_is_its_own_writable_array(self):
        t = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        backward(t.sum(axis=1).sum())
        assert t.grad.flags.writeable and t.grad.base is None


class TestOneNodeSub:
    @pytest.mark.parametrize("b_shape", [(3, 4), (1, 4), (4,), ()])
    def test_matches_add_neg_chain(self, b_shape):
        rng = np.random.default_rng(len(b_shape))
        a_data = rng.standard_normal((3, 4))
        b_data = rng.standard_normal(b_shape)
        g = rng.standard_normal((3, 4))

        def grads(combine):
            a = Tensor(a_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            out = combine(a, b)
            backward((out * Tensor(g)).sum())
            return out, a.grad, b.grad

        out, ga, gb = grads(lambda a, b: a - b)
        ref_out, ref_ga, ref_gb = grads(lambda a, b: a + (-b))
        assert_bit_identical(out.data, ref_out.data)
        assert_bit_identical(ga, ref_ga)
        assert_bit_identical(gb, ref_gb)
        assert out._parents[1].shape == b_shape     # no neg node between

        out, ga, gb = grads(lambda a, b: b - a)
        ref_out, ref_ga, ref_gb = grads(lambda a, b: b + (-a))
        assert_bit_identical(out.data, ref_out.data)
        assert_bit_identical(ga, ref_ga)
        assert_bit_identical(gb, ref_gb)

    def test_rsub_is_one_node(self):
        t = Tensor(RNG.standard_normal(3), requires_grad=True)
        out = 1.0 - t
        assert out._parents[1] is t
        np.testing.assert_array_equal(out.data, 1.0 + (-t.data))
