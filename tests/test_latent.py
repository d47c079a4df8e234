"""Variational layer: KL against an independent per-dimension oracle,
sampling statistics, equivariance of the heads, and path stacks whose
slices equal the single-path calls."""

import re

import numpy as np
import pytest

from coarsegen.autodiff import Tensor, backward
from coarsegen.geometry import random_rotation
from coarsegen.latent import (LOGVAR_BOUND, GaussianLatent, kl_divergence,
                              posterior_params, prior_params, sample)
from coarsegen.nn import ModelConfig
from coarsegen.params import ParameterStore
from tests.test_fused_ops import check_grads, tape_nodes

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

    def test_prior_with_or_without_leading_one(self):
        """A prior of the per-path shape, with or without a leading axis
        of 1, is broadcast over the paths of a stacked posterior."""
        post = make_latent(RNG.standard_normal((3, 4, 2, 3)), RNG.uniform(-1, 1, (3, 4, 2)))
        mu, lv = RNG.standard_normal((4, 2, 3)), RNG.uniform(-1, 1, (4, 2))
        plain = kl_divergence(post, make_latent(mu, lv)).data
        lead = kl_divergence(post, make_latent(mu[None], lv[None])).data
        assert np.array_equal(plain, lead)

    @pytest.mark.parametrize("post_shape,prior_shape", [
        ((3, 4, 2, 3), (2, 4, 2, 3)),     # K paths against K' paths
        ((3, 4, 2, 3), (3, 4, 2, 3)),     # the prior holds one path
        ((3, 4, 2, 3), (4, 3, 3)),        # another per-path shape
        ((4, 2, 3), (1, 5, 2, 3)),        # one path against another shape
    ])
    def test_other_prior_shapes_name_both(self, post_shape, prior_shape):
        post = make_latent(np.zeros(post_shape), np.zeros(post_shape[:-1]))
        prior = make_latent(np.zeros(prior_shape), np.zeros(prior_shape[:-1]))
        with pytest.raises(ValueError, match=re.escape(str(prior_shape)) + ".*"
                           + re.escape(str(post_shape))):
            kl_divergence(post, prior)


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

    def test_stacked_draw_equals_successive_draws(self):
        """One (K, beads, F, 3) draw reads the generator as K successive
        single-path draws do."""
        k = 3
        g = make_latent(RNG.standard_normal((k, 4, 2, 3)), RNG.uniform(-1, 1, (k, 4, 2)))
        stacked = sample(g, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for i in range(k):
            one = sample(make_latent(g.mu.data[i], g.log_var.data[i]), rng)
            assert np.array_equal(stacked.data[i], one.data)

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


def kl_chain(post, prior):
    """The single-path KL as a chain of primitive tape ops: the reference
    the one-node KL reproduces bit for bit."""
    var_q, var_p = post.log_var.exp(), prior.log_var.exp()
    dmu = post.mu - prior.mu
    dmu2 = (dmu * dmu).sum(axis=2)
    return (1.5 * (prior.log_var - post.log_var)
            + (3.0 * var_q + dmu2) / (2.0 * var_p) - 1.5).sum()


class TestPathStack:
    """K ground-truth paths as one (K, beads, F, 3) stack: every slice is
    the single-path call bit for bit, and the KL is one node."""

    N, F = 5, 4

    @pytest.fixture
    def cfg(self):
        return ModelConfig(hidden_dim=8, latent_channels=self.F, layers=1)

    @pytest.mark.parametrize("k", [1, 3])
    def test_slices_equal_single_path_calls(self, k, cfg):
        store = ParameterStore(seed=0)
        rng = np.random.default_rng(0)
        z_gt = Tensor(rng.standard_normal((k, self.N, self.F, 3)))
        z_ref = Tensor(rng.standard_normal((self.N, self.F, 3)))
        post = posterior_params(store, cfg, z_gt, z_ref)
        priors = prior_params(store, cfg, z_gt)     # one prior per row of a stack
        prior = prior_params(store, cfg, z_ref)
        kl = kl_divergence(post, prior)
        draw = sample(post, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        want_kl = None
        for i in range(k):
            post_i = posterior_params(store, cfg, Tensor(z_gt.data[i]), z_ref)
            prior_i = prior_params(store, cfg, Tensor(z_gt.data[i]))
            for got, want in [(post.mu, post_i.mu), (post.log_var, post_i.log_var),
                              (priors.mu, prior_i.mu), (priors.log_var, prior_i.log_var),
                              (draw, sample(post_i, rng))]:
                assert np.array_equal(got.data[i], want.data)
            term = kl_divergence(post_i, prior)
            want_kl = term if want_kl is None else want_kl + term
        assert np.array_equal(kl.data, want_kl.data)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_kl_one_node_left_fold(self, k):
        """The value is the per-path terms added left to right; a numpy sum
        of 8 or more terms would fold them pairwise."""
        rng = np.random.default_rng(k)
        post = GaussianLatent(Tensor(rng.standard_normal((k, self.N, self.F, 3)),
                                     requires_grad=True),
                              Tensor(rng.uniform(-1, 1, (k, self.N, self.F)),
                                     requires_grad=True))
        prior = make_latent(rng.standard_normal((self.N, self.F, 3)),
                            rng.uniform(-1, 1, (self.N, self.F)))
        kl = kl_divergence(post, prior)
        assert tape_nodes(kl) == 1
        terms = [kl_divergence(make_latent(post.mu.data[i], post.log_var.data[i]),
                               prior).data for i in range(k)]
        want = terms[0]
        for term in terms[1:]:
            want = want + term
        assert np.array_equal(kl.data, want)

    @pytest.mark.parametrize("k", [1, 3])
    def test_kl_equals_primitive_chain(self, k):
        """Value bit for bit, and gradients to rounding, against K chains of
        primitive ops added in path order."""
        rng = np.random.default_rng(10 + k)
        arrays = [rng.standard_normal((k, self.N, self.F, 3)),
                  rng.uniform(-1, 1, (k, self.N, self.F)),
                  rng.standard_normal((self.N, self.F, 3)),
                  rng.uniform(-1, 1, (self.N, self.F))]
        stacked = [Tensor(a, requires_grad=True) for a in arrays]
        kl = kl_divergence(GaussianLatent(*stacked[:2]), GaussianLatent(*stacked[2:]))
        backward(kl)
        prior = GaussianLatent(*(Tensor(a, requires_grad=True) for a in arrays[2:]))
        rows = [GaussianLatent(Tensor(arrays[0][i], requires_grad=True),
                               Tensor(arrays[1][i], requires_grad=True)) for i in range(k)]
        chain = None
        for row in rows:
            term = kl_chain(row, prior)
            chain = term if chain is None else chain + term
        backward(chain)
        assert np.array_equal(kl.data, chain.data)
        got = [stacked[0].grad, stacked[1].grad, stacked[2].grad, stacked[3].grad]
        want = [np.stack([r.mu.grad for r in rows]), np.stack([r.log_var.grad for r in rows]),
                prior.mu.grad, prior.log_var.grad]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("paths,lead", [((3,), ()), ((3,), (1,)), ((), (1,))])
    def test_kl_gradcheck(self, paths, lead):
        """Backward against central differences, for every input: the
        posterior mean, stacked or not (checked as ``x``), and, as store
        parameters, its log variance and the broadcast prior's mean and log
        variance."""
        store = ParameterStore(seed=4)
        n, f = 2, 2
        lq = store.new("post.lv", paths + (n, f), fan_in=1)
        mu_p = store.new("prior.mu", lead + (n, f, 3), fan_in=1)
        lp = store.new("prior.lv", lead + (n, f), fan_in=1)
        check_grads(lambda t: kl_divergence(GaussianLatent(t, lq), GaussianLatent(mu_p, lp)),
                    np.random.default_rng(5).standard_normal(paths + (n, f, 3)), store,
                    np.random.default_rng(6))
