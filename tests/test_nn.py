"""Differentiable building blocks: dual-implementation oracles, rotation
behavior of the vector-neuron layers, RBF closed form, attention semantics."""

import numpy as np
import pytest

from coarsegen.autodiff import Tensor
from coarsegen.geometry import random_rotation
from coarsegen.nn import (RBF_CENTERS, RBF_WIDTH, ModelConfig, affine, attention, mlp, rbf_expand,
                          vn_linear, vn_mlp, vn_nonlin, vn_norms)
from coarsegen.params import ParameterStore

RNG = np.random.default_rng(3)


def silu_np(x):
    return x / (1.0 + np.exp(-x))


class TestMlp:
    def test_matches_straight_line_reimplementation(self, store):
        x = RNG.standard_normal((5, 7))
        out = mlp(store, "m", Tensor(x), 6, 3)
        w0, b0 = store["m.w0"].data, store["m.b0"].data
        w1, b1 = store["m.w1"].data, store["m.b1"].data
        want = silu_np(x @ w0 + b0) @ w1 + b1
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_zero_weights_give_bias(self, store):
        x = Tensor(RNG.standard_normal((4, 3)))
        mlp(store, "m", x, 5, 2)
        store["m.w0"].data[:] = 0.0
        store["m.b0"].data[:] = 0.0
        store["m.w1"].data[:] = 0.0
        store["m.b1"].data[:] = 1.25
        out = mlp(store, "m", x, 5, 2)
        np.testing.assert_allclose(out.data, 1.25)

    def test_identity_configured_1x1_is_silu(self, store):
        x = Tensor(RNG.standard_normal((6, 1)))
        mlp(store, "m", x, 1, 1)
        store["m.w0"].data[:] = 1.0
        store["m.b0"].data[:] = 0.0
        store["m.w1"].data[:] = 1.0
        store["m.b1"].data[:] = 0.0
        out = mlp(store, "m", x, 1, 1)
        np.testing.assert_allclose(out.data, silu_np(x.data), atol=1e-12)

    def test_affine_matches(self, store):
        x = RNG.standard_normal((4, 5))
        out = affine(store, "a", Tensor(x), 3)
        want = x @ store["a.w"].data + store["a.b"].data
        np.testing.assert_allclose(out.data, want, atol=1e-13)


class TestVectorNeurons:
    def test_vn_linear_is_left_matmul(self, store):
        v = RNG.standard_normal((6, 4, 3))
        out = vn_linear(store, "w", Tensor(v), 5)
        np.testing.assert_allclose(out.data, store["w"].data @ v, atol=1e-13)

    def test_equivariance_of_vn_mlp(self, store):
        v = RNG.standard_normal((6, 4, 3))
        base = vn_mlp(store, "vn", Tensor(v), 4, 4).data
        for _ in range(5):
            rot = random_rotation(RNG)
            out = vn_mlp(store, "vn", Tensor(v @ rot.T), 4, 4).data
            np.testing.assert_allclose(out, base @ rot.T, atol=1e-10)

    def test_zero_maps_to_zero(self, store):
        out = vn_mlp(store, "vn", Tensor(np.zeros((3, 4, 3))), 4, 4)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_nonlin_projects_negative_half_space(self, store):
        v = RNG.standard_normal((8, 5, 3))
        out = vn_nonlin(store, "u", Tensor(v)).data
        d = store["u"].data @ v
        dot = np.sum(v * d, axis=-1)
        out_dot = np.sum(out * d, axis=-1)
        # wherever the inner product was negative it is (numerically) zeroed
        assert np.abs(out_dot[dot < 0]).max() < 1e-9
        np.testing.assert_allclose(out[dot >= 0], v[dot >= 0], atol=1e-12)

    def test_norms_invariant(self):
        v = RNG.standard_normal((6, 4, 3))
        rot = random_rotation(RNG)
        np.testing.assert_allclose(vn_norms(Tensor(v)).data,
                                   vn_norms(Tensor(v @ rot.T)).data, atol=1e-12)


class TestRbf:
    def test_closed_form(self, store):
        centers = np.linspace(0, 10, 16)
        width = 10.0 / 15
        d = RNG.uniform(0, 10, size=9)
        out = rbf_expand(store, "r", Tensor(d), centers, width, 4)
        basis = np.exp(-0.5 * ((d[:, None] - centers) / width) ** 2)
        want = basis @ store["r.w"].data + store["r.b"].data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_negative_distance_rejected(self, store):
        with pytest.raises(ValueError):
            rbf_expand(store, "r", Tensor(np.array([-0.1])),
                       np.linspace(0, 10, 4), 1.0, 2)


class TestAttention:
    def test_matches_reimplementation(self, store):
        hq = RNG.standard_normal((4, 6))
        hk = RNG.standard_normal((7, 6))
        out = attention(store, "a", Tensor(hq), Tensor(hk))
        q = hq @ store["a.q.w"].data + store["a.q.b"].data
        k = hk @ store["a.k.w"].data + store["a.k.b"].data
        scores = q @ k.T / np.sqrt(6)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        coeff = e / e.sum(axis=1, keepdims=True)
        want = coeff @ (hk @ store["a.w"].data)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_single_key_collapses_to_its_value(self, store):
        hq = RNG.standard_normal((3, 4))
        hk = RNG.standard_normal((1, 4))
        out = attention(store, "a", Tensor(hq), Tensor(hk))
        want = hk @ store["a.w"].data
        np.testing.assert_allclose(out.data, np.repeat(want, 3, axis=0),
                                   atol=1e-12)


class TestModelConfig:
    @pytest.mark.parametrize("field,value", [("hidden_dim", 0), ("latent_channels", 0),
                                             ("layers", 0), ("layers", -1)])
    def test_sizes_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1, got {value}"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_cutoff_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="aux_cutoff must be finite"):
            ModelConfig(aux_cutoff=value)

    def test_smallest_valid_model(self):
        assert ModelConfig(hidden_dim=1, latent_channels=1, layers=1,
                           aux_cutoff=0.0).layers == 1

    def test_rbf_grid(self):
        """16 centers on [0, 10] angstrom, width equal to their spacing."""
        np.testing.assert_array_equal(RBF_CENTERS, np.linspace(0.0, 10.0, 16))
        assert RBF_WIDTH == RBF_CENTERS[1] - RBF_CENTERS[0] == 10.0 / 15


@pytest.fixture
def store():
    return ParameterStore(seed=0)
