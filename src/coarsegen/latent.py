"""Equivariant variational layer: posterior/prior heads, sampling, KL.

The mean is an equivariant map of the latent tensors; the log variance is an
invariant map of per-channel norms, with one variance per (bead, channel)
shared across the x/y/z axes so that sampling commutes with rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat
from .nn import ModelConfig, mlp, vn_mlp, vn_norms
from .params import ParameterStore

# both heads clamp the log variance to [-LOGVAR_BOUND, LOGVAR_BOUND]
LOGVAR_BOUND = 10.0


@dataclass
class GaussianLatent:
    mu: Tensor        # N x F x 3, equivariant
    log_var: Tensor   # N x F, invariant, clamped


def posterior_params(store: ParameterStore, cfg: ModelConfig,
                     z_gt: Tensor, z_ref: Tensor) -> GaussianLatent:
    """Posterior conditioned on both paths (ground truth first, reference second)."""
    F = cfg.latent_channels
    both = concat([z_gt, z_ref], axis=1)               # N x 2F x 3
    mu = vn_mlp(store, "lat.post.vn", both, F, F)
    norms = concat([vn_norms(z_gt), vn_norms(z_ref)], axis=1)
    log_var = mlp(store, "lat.post.lv", norms, cfg.hidden_dim, F)
    return GaussianLatent(mu, log_var.clip(-LOGVAR_BOUND, LOGVAR_BOUND))


def prior_params(store: ParameterStore, cfg: ModelConfig,
                 z_ref: Tensor) -> GaussianLatent:
    """Learned prior conditioned on the reference path only."""
    F = cfg.latent_channels
    mu = vn_mlp(store, "lat.prior.vn", z_ref, F, F)
    log_var = mlp(store, "lat.prior.lv", vn_norms(z_ref), cfg.hidden_dim, F)
    return GaussianLatent(mu, log_var.clip(-LOGVAR_BOUND, LOGVAR_BOUND))


def sample(g: GaussianLatent, rng: np.random.Generator,
           noise: np.ndarray | None = None) -> Tensor:
    """Reparameterized draw mu + eps * sigma.

    ``noise`` overrides the drawn eps (used by equivariance checks, which
    must co-rotate the noise with the inputs); it must have the shape of
    the mean, or ``ValueError`` names both shapes.
    """
    if noise is None:
        noise = rng.standard_normal(g.mu.shape)
    elif np.shape(noise) != g.mu.shape:
        raise ValueError(f"noise must have shape {g.mu.shape}, got {np.shape(noise)}")
    sigma = (g.log_var * 0.5).exp()
    n, f = sigma.shape
    return g.mu + Tensor(noise) * sigma.reshape(n, f, 1)


def kl_divergence(post: GaussianLatent, prior: GaussianLatent) -> Tensor:
    """Closed-form diagonal-Gaussian KL(post || prior), summed over all entries.

    Each of the 3 axes shares the per-(bead, channel) variance; per channel
    the contribution is 3(log s_p - log s_q)/2 + (3 s_q^2 + |dmu|^2)/(2 s_p^2) - 3/2.
    """
    if post.mu.shape != prior.mu.shape:
        raise ValueError("posterior/prior shape mismatch")
    var_q = post.log_var.exp()
    var_p = prior.log_var.exp()
    dmu = post.mu - prior.mu
    dmu2 = (dmu * dmu).sum(axis=2)                     # N x F
    per_channel = (1.5 * (prior.log_var - post.log_var)
                   + (3.0 * var_q + dmu2) / (2.0 * var_p)
                   - 1.5)
    return per_channel.sum()
