"""Differentiable building blocks: shallow MLPs, vector-neuron layers,
learned RBF expansions and scaled dot-product attention.

All blocks read their weights from a :class:`~coarsegen.params.ParameterStore`
under a caller-supplied name prefix; creating and applying a block are the
same call, so parameters materialize lazily on first use.

``mlp``, ``affine``, ``vn_nonlin``, ``vn_norms`` and the Gaussian basis of
``rbf_expand`` are fused: each records one tape node with a hand-written
backward, and computes its forward with the numpy operations, in the order,
of the primitive-op chain it replaces, so its values are unchanged.
``vn_linear`` is one matmul node; ``vn_mlp`` and ``attention`` are composed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _sigmoid, _unbroadcast, softmax
from .molio import AUX_CUTOFF
from .params import ParameterStore

_VN_EPS = 1e-12

# weight of every residual mix in the encoder and decoder: features update as
# (1 - ETA) * h + ETA * mlp(...), coordinates re-anchor as ETA * x0 + (1 - ETA) * x
ETA = 0.5

# Gaussian radial basis of bead distances: 16 centers on [0, 10] angstrom,
# width equal to the center spacing
RBF_CENTERS = np.linspace(0.0, 10.0, 16)
RBF_CENTERS.setflags(write=False)
RBF_WIDTH = 10.0 / 15


@dataclass
class ModelConfig:
    hidden_dim: int = 16          # D, invariant feature width
    latent_channels: int = 8      # F, equivariant latent channels
    layers: int = 2               # encoder and decoder message-passing depth
    aux_cutoff: float = AUX_CUTOFF   # bead-graph centroid cutoff, angstrom

    def __post_init__(self):
        for name in ("hidden_dim", "latent_channels", "layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (np.isfinite(self.aux_cutoff) and self.aux_cutoff >= 0.0):
            raise ValueError(f"aux_cutoff must be finite and at least 0, got {self.aux_cutoff}")


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of ``x @ w`` with respect to ``w``, summed over leading axes."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _bias_grad(g: np.ndarray) -> np.ndarray:
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def mlp(store: ParameterStore, prefix: str, x: Tensor,
        d_hidden: int, d_out: int) -> Tensor:
    """Two affine layers with a SiLU between them, as one tape node."""
    d_in = x.shape[-1]
    w0 = store.new(f"{prefix}.w0", (d_in, d_hidden), fan_in=d_in)
    b0 = store.new(f"{prefix}.b0", (d_hidden,), fan_in=d_in)
    w1 = store.new(f"{prefix}.w1", (d_hidden, d_out), fan_in=d_hidden)
    b1 = store.new(f"{prefix}.b1", (d_out,), fan_in=d_hidden)
    pre = np.matmul(x.data, w0.data)
    pre += b0.data
    sig = _sigmoid(pre)
    act = pre * sig
    out_data = np.matmul(act, w1.data)
    out_data += b1.data

    def bw(g):
        # d silu(p)/dp = s(p) (1 + p (1 - s(p)))
        g_pre = np.matmul(g, w1.data.T) * (sig * (1.0 + pre * (1.0 - sig)))
        g_x = np.matmul(g_pre, w0.data.T) if x.requires_grad else None
        return (g_x, _weight_grad(x.data, g_pre), _bias_grad(g_pre),
                _weight_grad(act, g), _bias_grad(g))

    return Tensor(out_data, _parents=(x, w0, b0, w1, b1), _backward_fn=bw)


def affine(store: ParameterStore, prefix: str, x: Tensor, d_out: int) -> Tensor:
    """``x @ w + b`` as one tape node."""
    d_in = x.shape[-1]
    w = store.new(f"{prefix}.w", (d_in, d_out), fan_in=d_in)
    b = store.new(f"{prefix}.b", (d_out,), fan_in=d_in)
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def bw(g):
        g_x = np.matmul(g, w.data.T) if x.requires_grad else None
        return g_x, _weight_grad(x.data, g), _bias_grad(g)

    return Tensor(out_data, _parents=(x, w, b), _backward_fn=bw)


def vn_linear(store: ParameterStore, name: str, v: Tensor, f_out: int) -> Tensor:
    """Channel-mixing linear map acting on the left of (..., F, 3) features."""
    f_in = v.shape[-2]
    w = store.new(name, (f_out, f_in), fan_in=f_in)
    return w @ v

def vn_nonlin(store: ParameterStore, name: str, v: Tensor) -> Tensor:
    """Vector-neuron direction-projection nonlinearity.

    Channels whose inner product with a learned direction is negative are
    projected onto the plane orthogonal to that direction; the map commutes
    with right-rotation of the 3-vectors.
    """
    f = v.shape[-2]
    u = store.new(name, (f, f), fan_in=f)
    vd, ud = v.data, u.data
    d = np.matmul(ud, vd)
    dot = (vd * d).sum(axis=-1, keepdims=True)
    dnorm2 = (d * d).sum(axis=-1, keepdims=True) + _VN_EPS
    mask = (dot < 0.0).astype(np.float64)
    scale = dot / dnorm2
    out_data = vd - mask * scale * d

    def bw(g):
        # out = v - mask * (dot / dnorm2) * d, with d = u v, dot = <v, d>,
        # dnorm2 = <d, d> + eps; the mask is piecewise constant
        g_scale = -mask * (g * d).sum(axis=-1, keepdims=True)
        g_dot = g_scale / dnorm2
        g_d = -(mask * scale) * g + g_dot * vd - (2.0 * g_scale * scale / dnorm2) * d
        g_v = g + g_dot * d + np.matmul(ud.T, g_d)
        g_u = _unbroadcast(np.matmul(g_d, np.swapaxes(vd, -1, -2)), ud.shape)
        return g_v, g_u

    return Tensor(out_data, _parents=(v, u), _backward_fn=bw)


def vn_mlp(store: ParameterStore, prefix: str, v: Tensor,
           f_hidden: int, f_out: int) -> Tensor:
    """Two vector-neuron linear maps with the projection nonlinearity between."""
    h = vn_linear(store, f"{prefix}.w0", v, f_hidden)
    h = vn_nonlin(store, f"{prefix}.u", h)
    return vn_linear(store, f"{prefix}.w1", h, f_out)


def vn_norms(v: Tensor) -> Tensor:
    """Per-channel Euclidean norms of (..., F, 3) features (rotation invariant)."""
    out_data = np.sqrt((v.data * v.data).sum(axis=-1) + _VN_EPS)
    return Tensor(out_data, _parents=(v,),
                  _backward_fn=lambda g: ((g / out_data)[..., None] * v.data,))


def rbf_expand(store: ParameterStore, prefix: str, d: Tensor,
               centers: np.ndarray, width: float, d_out: int) -> Tensor:
    """Gaussian radial basis of a distance, through a learned linear map."""
    if np.any(d.data < 0.0):
        raise ValueError("distances must be nonnegative")
    z = (d.data.reshape(-1, 1) - centers) / width
    basis_data = np.exp(-0.5 * z * z)

    def bw(g):
        return ((-(g * basis_data * z).sum(axis=1) / width).reshape(d.shape),)

    basis = Tensor(basis_data, _parents=(d,), _backward_fn=bw)
    return affine(store, prefix, basis, d_out)


def attention(store: ParameterStore, prefix: str, h_query: Tensor,
              h_key: Tensor) -> Tensor:
    """Scaled dot-product cross attention; softmax runs over the senders."""
    d = h_query.shape[-1]
    q = affine(store, f"{prefix}.q", h_query, d)
    k = affine(store, f"{prefix}.k", h_key, d)
    w = store.new(f"{prefix}.w", (h_key.shape[-1], d), fan_in=h_key.shape[-1])
    scores = (q @ k.T) / np.sqrt(d)
    coeff = softmax(scores, axis=1)
    return coeff @ (h_key @ w)
