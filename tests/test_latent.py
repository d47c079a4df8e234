"""Variational layer: KL against an independent per-dimension oracle,
sampling statistics, equivariance of the heads."""

import re

import numpy as np
import pytest

from coarsegen.autodiff import Tensor
from coarsegen.geometry import random_rotation
from coarsegen.latent import (LOGVAR_BOUND, GaussianLatent, kl_divergence,
                              posterior_params, prior_params, sample)
from coarsegen.nn import ModelConfig
from coarsegen.params import ParameterStore

RNG = np.random.default_rng(7)


def make_latent(mu, log_var):
    return GaussianLatent(Tensor(np.asarray(mu, dtype=np.float64)),
                          Tensor(np.asarray(log_var, dtype=np.float64)))


def kl_oracle(post, prior):
    """Sum of univariate Gaussian KLs over every (bead, channel, axis) entry,
    with the per-(bead, channel) variance broadcast over the 3 axes."""
    total = 0.0
    n, f, _ = post.mu.shape
    for b in range(n):
        for c in range(f):
            vq = np.exp(post.log_var.data[b, c])
            vp = np.exp(prior.log_var.data[b, c])
            for ax in range(3):
                d = post.mu.data[b, c, ax] - prior.mu.data[b, c, ax]
                total += 0.5 * (np.log(vp / vq) + (vq + d * d) / vp - 1.0)
    return total


class TestKl:
    def test_matches_univariate_oracle(self):
        post = make_latent(RNG.standard_normal((4, 3, 3)),
                           RNG.uniform(-2, 1, (4, 3)))
        prior = make_latent(RNG.standard_normal((4, 3, 3)),
                            RNG.uniform(-2, 1, (4, 3)))
        got = kl_divergence(post, prior).data
        np.testing.assert_allclose(got, kl_oracle(post, prior), rtol=1e-12)

    def test_zero_for_identical_distributions(self):
        mu = RNG.standard_normal((3, 2, 3))
        lv = RNG.uniform(-1, 1, (3, 2))
        a = make_latent(mu, lv)
        b = make_latent(mu.copy(), lv.copy())
        assert abs(kl_divergence(a, b).data) < 1e-12

    def test_nonnegative(self):
        for _ in range(20):
            post = make_latent(RNG.standard_normal((2, 2, 3)),
                               RNG.uniform(-3, 2, (2, 2)))
            prior = make_latent(RNG.standard_normal((2, 2, 3)),
                                RNG.uniform(-3, 2, (2, 2)))
            assert kl_divergence(post, prior).data > -1e-12

    def test_monte_carlo_agreement(self):
        """Closed form agrees with a sample estimate of E_q[log q - log p]."""
        post = make_latent(RNG.standard_normal((2, 2, 3)),
                           RNG.uniform(-1, 0.5, (2, 2)))
        prior = make_latent(RNG.standard_normal((2, 2, 3)),
                            RNG.uniform(-1, 0.5, (2, 2)))
        rng = np.random.default_rng(0)
        sq = np.exp(0.5 * post.log_var.data)[:, :, None]
        sp = np.exp(0.5 * prior.log_var.data)[:, :, None]
        total = 0.0
        n_draw = 200_000
        for _ in range(n_draw):
            x = post.mu.data + rng.standard_normal(post.mu.shape) * sq
            lq = -0.5 * ((x - post.mu.data) / sq) ** 2 - np.log(sq)
            lp = -0.5 * ((x - prior.mu.data) / sp) ** 2 - np.log(sp)
            total += (lq - lp).sum()
        assert abs(total / n_draw - kl_divergence(post, prior).data) < 0.05

    def test_shape_mismatch(self):
        a = make_latent(np.zeros((2, 2, 3)), np.zeros((2, 2)))
        b = make_latent(np.zeros((3, 2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            kl_divergence(a, b)


class TestSampling:
    def test_zero_variance_returns_mean(self):
        g = make_latent(RNG.standard_normal((3, 2, 3)),
                        np.full((3, 2), -60.0))
        out = sample(g, np.random.default_rng(0))
        np.testing.assert_allclose(out.data, g.mu.data, atol=1e-12)

    def test_noise_override_is_exact(self):
        g = make_latent(RNG.standard_normal((3, 2, 3)),
                        RNG.uniform(-1, 1, (3, 2)))
        noise = RNG.standard_normal((3, 2, 3))
        out = sample(g, np.random.default_rng(0), noise=noise)
        sigma = np.exp(0.5 * g.log_var.data)[:, :, None]
        np.testing.assert_allclose(out.data, g.mu.data + noise * sigma,
                                   atol=1e-14)

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 3), (3, 2), (3, 2, 3, 1)])
    def test_wrong_noise_shape_rejected(self, shape):
        """Noise that would broadcast against the (3, 2, 3) mean is an
        error naming both shapes, not a silently reshaped draw."""
        g = make_latent(np.zeros((3, 2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=rf"\(3, 2, 3\), got {re.escape(str(shape))}"):
            sample(g, np.random.default_rng(0), noise=np.ones(shape))

    def test_sample_statistics(self):
        g = make_latent(np.full((1, 1, 3), 2.0), np.full((1, 1), np.log(4.0)))
        rng = np.random.default_rng(1)
        draws = np.stack([sample(g, rng).data for _ in range(20_000)])
        np.testing.assert_allclose(draws.mean(axis=0), 2.0, atol=0.05)
        np.testing.assert_allclose(draws.std(axis=0), 2.0, atol=0.05)

    def test_same_seed_same_draw(self):
        g = make_latent(RNG.standard_normal((2, 2, 3)),
                        RNG.uniform(-1, 1, (2, 2)))
        a = sample(g, np.random.default_rng(5))
        b = sample(g, np.random.default_rng(5))
        np.testing.assert_array_equal(a.data, b.data)


class TestHeads:
    @pytest.fixture
    def cfg(self):
        return ModelConfig(hidden_dim=8, latent_channels=4, layers=1)

    @pytest.fixture
    def store(self):
        return ParameterStore(seed=0)

    def test_log_var_clamped(self, cfg, store):
        z = Tensor(100.0 * RNG.standard_normal((3, 4, 3)))
        g = posterior_params(store, cfg, z, z)
        assert g.log_var.data.min() >= -LOGVAR_BOUND - 1e-12
        assert g.log_var.data.max() <= LOGVAR_BOUND + 1e-12

    def test_heads_equivariant_mean_invariant_variance(self, cfg, store):
        zg = Tensor(RNG.standard_normal((3, 4, 3)))
        zr = Tensor(RNG.standard_normal((3, 4, 3)))
        post = posterior_params(store, cfg, zg, zr)
        prior = prior_params(store, cfg, zr)
        rot = random_rotation(RNG)
        post2 = posterior_params(store, cfg, Tensor(zg.data @ rot.T),
                                 Tensor(zr.data @ rot.T))
        prior2 = prior_params(store, cfg, Tensor(zr.data @ rot.T))
        np.testing.assert_allclose(post2.mu.data, post.mu.data @ rot.T,
                                   atol=1e-10)
        np.testing.assert_allclose(prior2.mu.data, prior.mu.data @ rot.T,
                                   atol=1e-10)
        np.testing.assert_allclose(post2.log_var.data, post.log_var.data,
                                   atol=1e-10)
        np.testing.assert_allclose(prior2.log_var.data, prior.log_var.data,
                                   atol=1e-10)
