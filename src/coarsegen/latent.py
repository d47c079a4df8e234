"""Equivariant variational layer: posterior/prior heads, sampling, KL.

The mean is an equivariant map of the latent tensors; the log variance is an
invariant map of per-channel norms, with one variance per (bead, channel)
shared across the x/y/z axes so that sampling commutes with rotation.

The posterior, the draw and the KL run all K ground-truth paths of a
molecule at once, on a (K, beads, F, 3) path stack; the learned prior reads
the one-path reference stack and is broadcast over the paths (or draws).
Each path's slice equals its own one-path call bit for bit (see
:mod:`coarsegen.nn`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _unbroadcast, concat
from .nn import ModelConfig, mlp, vn_mlp, vn_norms
from .params import ParameterStore

# both heads clamp the log variance to [-LOGVAR_BOUND, LOGVAR_BOUND]
LOGVAR_BOUND = 10.0


@dataclass
class GaussianLatent:
    mu: Tensor        # K x N x F x 3, equivariant
    log_var: Tensor   # K x N x F, invariant, clamped


def posterior_params(store: ParameterStore, cfg: ModelConfig,
                     z_gt: Tensor, z_ref: Tensor) -> GaussianLatent:
    """Posterior conditioned on both paths (ground truth first, reference
    second). ``z_gt`` is a (K, N, F, 3) path stack; the one-path reference
    stack ``z_ref`` joins each of its paths."""
    F = cfg.latent_channels
    both = concat([z_gt, z_ref], axis=-2)              # K x N x 2F x 3
    mu = vn_mlp(store, "lat.post.vn", both, F, F)
    norms = concat([vn_norms(z_gt), vn_norms(z_ref)], axis=-1)
    log_var = mlp(store, "lat.post.lv", norms, cfg.hidden_dim, F)
    return GaussianLatent(mu, log_var.clip(-LOGVAR_BOUND, LOGVAR_BOUND))


def prior_params(store: ParameterStore, cfg: ModelConfig,
                 z_ref: Tensor) -> GaussianLatent:
    """Learned prior conditioned on the one-path reference stack only."""
    F = cfg.latent_channels
    mu = vn_mlp(store, "lat.prior.vn", z_ref, F, F)
    log_var = mlp(store, "lat.prior.lv", vn_norms(z_ref), cfg.hidden_dim, F)
    return GaussianLatent(mu, log_var.clip(-LOGVAR_BOUND, LOGVAR_BOUND))


def sample(g: GaussianLatent, rng: np.random.Generator,
           noise: np.ndarray | None = None) -> Tensor:
    """Reparameterized draw mu + eps * sigma, one per path of the stack.

    ``noise`` overrides the drawn eps (used by sampling and by equivariance
    checks). It must have the mean's shape, but a one-path mean takes any
    number of noise paths, one draw each; else ``ValueError`` names both.
    """
    if noise is None:
        noise = rng.standard_normal(g.mu.shape)
    elif not (np.shape(noise)[1:] == g.mu.shape[1:] and g.mu.shape[0] in (1, len(noise))):
        raise ValueError(f"noise must have shape {g.mu.shape}, got {np.shape(noise)}")
    sigma = (g.log_var * 0.5).exp()
    return g.mu + Tensor(noise) * sigma.reshape(sigma.shape + (1,))


def kl_divergence(post: GaussianLatent, prior: GaussianLatent) -> Tensor:
    """Closed-form diagonal-Gaussian KL(post || prior), summed over all entries.

    Each of the 3 axes shares the per-(bead, channel) variance; per channel
    the contribution is 3(log s_p - log s_q)/2 + (3 s_q^2 + |dmu|^2)/(2 s_p^2) - 3/2.

    ``post`` is a (K, N, F, 3) path stack. The prior is a one-path stack,
    (1, N, F, 3), broadcast over the paths; another prior shape raises
    ``ValueError`` naming both. One tape node. Each path's term is the
    single-path call's sum, and the terms are added left to right in path
    order, as a chain of per-path KL nodes adds them (a numpy sum of the K
    terms folds them pairwise from K = 8 on).
    """
    per_path = post.mu.shape[1:]
    if post.mu.ndim != 4 or prior.mu.shape != (1,) + per_path:
        raise ValueError(f"prior mean of shape {prior.mu.shape} does not match "
                         f"the posterior mean of shape {post.mu.shape}")
    lq, lp = post.log_var.data, prior.log_var.data
    var_q, var_p = np.exp(lq), np.exp(lp)
    dmu = post.mu.data - prior.mu.data
    dmu2 = (dmu * dmu).sum(axis=-1)                    # K x N x F
    per_channel = 1.5 * (lp - lq) + (3.0 * var_q + dmu2) / (2.0 * var_p) - 1.5
    terms = [term.sum() for term in per_channel]
    total = terms[0]
    for term in terms[1:]:
        total = total + term

    def bw(g):
        # each partial as the primitive chain forms it
        inv_p = g / (2.0 * var_p)
        g_mu = inv_p[..., None] * dmu
        g_mu = g_mu + g_mu
        g_lq = 3.0 * inv_p * var_q - 1.5 * g
        g_lp = 1.5 * g + -g * (3.0 * var_q + dmu2) / (2.0 * var_p) ** 2 * 2.0 * var_p
        return (_unbroadcast(g_mu, post.mu.shape), _unbroadcast(g_lq, post.log_var.shape),
                _unbroadcast(-g_mu, prior.mu.shape), _unbroadcast(g_lp, prior.log_var.shape))

    return Tensor(total, _parents=(post.mu, post.log_var, prior.mu, prior.log_var),
                  _backward_fn=bw)
