"""Differentiable building blocks: shallow MLPs, vector-neuron layers,
learned RBF expansions and scaled dot-product attention.

All blocks read their weights from a :class:`~coarsegen.params.ParameterStore`
under a caller-supplied name prefix; creating and applying a block are the
same call, so parameters materialize lazily on first use. ``mlp_params``,
``affine_params``, ``vn_mlp_params`` and ``attention_params`` create a
block's weights alone, in its order: the blocks call them, and so does a
caller that skips a block nothing reads.

``mlp``, ``affine``, ``vn_linear``, ``vn_nonlin``, ``vn_norms`` and the
Gaussian basis of ``rbf_expand`` are fused: each records one tape node with
a hand-written backward, and computes its forward with the numpy
operations, in the order and on operands of the memory layout, of the
primitive-op chain it replaces, so its values are unchanged. ``vn_mlp`` is
composed; ``attention`` is a query ``affine`` and two fused nodes.

One shape convention: every layer input is a stack of K >= 1 conformer
paths, one leading axis more than the layer's own rank (2 for ``mlp``,
``affine`` and attention, 3 for the vector-neuron layers); another rank
raises ``ValueError`` naming the shape. Each slice of the output equals the
one-path call bit for bit. The backward returns one gradient per path for
each parameter, summed over that path's rows only, and the node lists the
parameter once per path among its parents, so
:func:`~coarsegen.autodiff.backward` adds them to ``.grad`` in path order,
the fold that K one-path calls give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _sigmoid
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


def _path_count(x: np.ndarray, rank: int) -> int:
    """K of an input stacked over K paths, ``rank`` + 1 axes."""
    if x.ndim != rank + 1:
        raise ValueError(f"expected a path stack of {rank + 1} axes, got shape {x.shape}")
    return x.shape[0]


def _in_path_order(*grads) -> tuple:
    """Gradients of several parameters, each stacked over the paths, in the
    order of the parents ``params * paths``: each parameter's path-0
    gradient, then each one's path-1 gradient, and so on."""
    return tuple(g for path in zip(*grads) for g in path)


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of ``x @ w`` with respect to ``w``, one per path."""
    return np.matmul(np.swapaxes(x, -1, -2), g)


def _bias_grad(g: np.ndarray) -> np.ndarray:
    """Gradient of ``+ b``, one per path: ``g`` summed over its rows."""
    return g.sum(axis=-2)


def mlp_params(store: ParameterStore, prefix: str, d_in: int, d_hidden: int,
               d_out: int) -> tuple[Tensor, ...]:
    """The weights of :func:`mlp`, created (or fetched) in its order. A
    caller that skips an unread block still calls this, so that a fresh
    store draws every later parameter's values as before."""
    return (store.new(f"{prefix}.w0", (d_in, d_hidden), fan_in=d_in),
            store.new(f"{prefix}.b0", (d_hidden,), fan_in=d_in),
            store.new(f"{prefix}.w1", (d_hidden, d_out), fan_in=d_hidden),
            store.new(f"{prefix}.b1", (d_out,), fan_in=d_hidden))


def mlp(store: ParameterStore, prefix: str, x: Tensor,
        d_hidden: int, d_out: int) -> Tensor:
    """Two affine layers with a SiLU between them, as one tape node."""
    paths = _path_count(x.data, 2)
    w0, b0, w1, b1 = mlp_params(store, prefix, x.shape[-1], d_hidden, d_out)
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
        return (g_x,) + _in_path_order(
            _weight_grad(x.data, g_pre), _bias_grad(g_pre),
            _weight_grad(act, g), _bias_grad(g))

    return Tensor(out_data, _parents=(x,) + (w0, b0, w1, b1) * paths,
                  _backward_fn=bw)


def affine_params(store: ParameterStore, prefix: str, d_in: int,
                  d_out: int) -> tuple[Tensor, Tensor]:
    """The weights of :func:`affine`, as :func:`mlp_params`."""
    return (store.new(f"{prefix}.w", (d_in, d_out), fan_in=d_in),
            store.new(f"{prefix}.b", (d_out,), fan_in=d_in))


def affine(store: ParameterStore, prefix: str, x: Tensor, d_out: int) -> Tensor:
    """``x @ w + b`` as one tape node."""
    return _affine(x, *affine_params(store, prefix, x.shape[-1], d_out))


def _affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    paths = _path_count(x.data, 2)
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def bw(g):
        g_x = np.matmul(g, w.data.T) if x.requires_grad else None
        return (g_x,) + _in_path_order(_weight_grad(x.data, g), _bias_grad(g))

    return Tensor(out_data, _parents=(x,) + (w, b) * paths, _backward_fn=bw)


def _vn_weight(store: ParameterStore, name: str, f_in: int, f_out: int) -> Tensor:
    """The (f_out, f_in) channel map of :func:`vn_linear`; :func:`vn_nonlin`'s
    directions are one with f_in = f_out."""
    return store.new(name, (f_out, f_in), fan_in=f_in)


def vn_linear(store: ParameterStore, name: str, v: Tensor, f_out: int) -> Tensor:
    """Channel-mixing linear map acting on the left of (K, rows, F, 3)
    features, as one tape node."""
    return _vn_linear(v, _vn_weight(store, name, v.shape[-2], f_out))


def _vn_linear(v: Tensor, w: Tensor) -> Tensor:
    paths = _path_count(v.data, 3)

    def bw(g):
        g_v = np.matmul(w.data.T, g) if v.requires_grad else None
        # summed over the rows (beads) of each path
        return (g_v,) + _in_path_order(
            np.matmul(g, np.swapaxes(v.data, -1, -2)).sum(axis=-3))

    return Tensor(np.matmul(w.data, v.data), _parents=(v,) + (w,) * paths,
                  _backward_fn=bw)


def vn_nonlin(store: ParameterStore, name: str, v: Tensor) -> Tensor:
    """Vector-neuron direction-projection nonlinearity.

    Channels whose inner product with a learned direction is negative are
    projected onto the plane orthogonal to that direction; the map commutes
    with right-rotation of the 3-vectors.
    """
    return _vn_nonlin(v, _vn_weight(store, name, v.shape[-2], v.shape[-2]))


def _vn_nonlin(v: Tensor, u: Tensor) -> Tensor:
    paths = _path_count(v.data, 3)
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
        return (g_v,) + _in_path_order(np.matmul(g_d, np.swapaxes(vd, -1, -2)).sum(axis=-3))

    return Tensor(out_data, _parents=(v,) + (u,) * paths, _backward_fn=bw)


def vn_mlp_params(store: ParameterStore, prefix: str, f_in: int, f_hidden: int,
                  f_out: int) -> tuple[Tensor, Tensor, Tensor]:
    """The weights of :func:`vn_mlp`, as :func:`mlp_params`."""
    return (_vn_weight(store, f"{prefix}.w0", f_in, f_hidden),
            _vn_weight(store, f"{prefix}.u", f_hidden, f_hidden),
            _vn_weight(store, f"{prefix}.w1", f_hidden, f_out))


def vn_mlp(store: ParameterStore, prefix: str, v: Tensor,
           f_hidden: int, f_out: int) -> Tensor:
    """Two vector-neuron linear maps with the projection nonlinearity between."""
    w0, u, w1 = vn_mlp_params(store, prefix, v.shape[-2], f_hidden, f_out)
    return _vn_linear(_vn_nonlin(_vn_linear(v, w0), u), w1)


def vn_norms(v: Tensor) -> Tensor:
    """Per-channel Euclidean norms of (..., F, 3) features (rotation invariant)."""
    out_data = np.sqrt((v.data * v.data).sum(axis=-1) + _VN_EPS)
    return Tensor(out_data, _parents=(v,),
                  _backward_fn=lambda g: ((g / out_data)[..., None] * v.data,))


def rbf_expand(store: ParameterStore, prefix: str, d: Tensor,
               centers: np.ndarray, width: float, d_out: int) -> Tensor:
    """Gaussian radial basis of distances (any shape), through a learned
    linear map; the basis adds a trailing axis."""
    if np.any(d.data < 0.0):
        raise ValueError("distances must be nonnegative")
    z = (d.data[..., None] - centers) / width
    basis_data = np.exp(-0.5 * z * z)

    def bw(g):
        return (-(g * basis_data * z).sum(axis=-1) / width,)

    basis = Tensor(basis_data, _parents=(d,), _backward_fn=bw)
    return affine(store, prefix, basis, d_out)


def attention_params(store: ParameterStore, prefix: str, d: int,
                     d_key: int) -> tuple[Tensor, ...]:
    """The weights of :func:`attention` for width-``d`` queries and
    width-``d_key`` keys, as :func:`mlp_params`."""
    return affine_params(store, f"{prefix}.q", d, d) + (
        store.new(f"{prefix}.k.w", (d_key, d), fan_in=d_key),
        store.new(f"{prefix}.k.b", (d,), fan_in=d_key),
        store.new(f"{prefix}.w", (d_key, d), fan_in=d_key))


def attention(store: ParameterStore, prefix: str, h_query: Tensor,
              h_key: Tensor) -> Tensor:
    """Scaled dot-product cross attention; softmax runs over the senders.

    ``h_key`` holds one path, which every query path reads; without a tape
    it may hold one path per query path. Another key raises ``ValueError``.
    The key and value projections of ``h_key`` are one node, whose backward
    hands ``h_key`` its key then its value gradient, of its own shape, for
    each path in turn, and the scores, softmax and weighted sum are another.
    """
    d = h_query.shape[-1]
    paths = _path_count(h_query.data, 2)
    qw, qb, kw, kb, w = attention_params(store, prefix, d, h_key.shape[-1])
    q = _affine(h_query, qw, qb)
    record = q.requires_grad or h_key.requires_grad
    if h_key.ndim != 3 or h_key.shape[0] not in ((1,) if record else (1, paths)):
        alt = "" if record else " or one per query path"
        raise ValueError(f"attention key of shape {h_key.shape} must hold one path{alt} "
                         f"for queries of shape {h_query.shape}")
    x = h_key.data
    k = np.matmul(x, kw.data)
    k += kb.data
    hw = np.matmul(x, w.data)
    kt = np.swapaxes(k, -1, -2)
    m = x.shape[-2]

    def kv_bw(g):
        g_k = np.swapaxes(g[:, :m * d].reshape(paths, d, m), -1, -2)
        g_hw = g[:, m * d:].reshape(paths, m, d)
        if h_key.requires_grad:
            # one partial per path, each of the key's own (1, m, d_key) shape
            g_key = np.matmul(g_k, kw.data.T)[:, None]
            g_value = np.matmul(g_hw, w.data.T)[:, None]
        else:
            g_key = g_value = [None] * paths
        return _in_path_order(g_key, _weight_grad(x[0], g_k), _bias_grad(g_k),
                              g_value, _weight_grad(x[0], g_hw))

    if record:
        # one row per path holding k^T and h_key w, so each path's gradient
        # reaches the projections in the layouts the unfused chain had
        kv_data = np.concatenate([kt.ravel(), hw.ravel()])
        kv = Tensor(np.broadcast_to(kv_data, (paths,) + kv_data.shape),
                    _parents=(h_key, kw, kb, h_key, w) * paths, _backward_fn=kv_bw)

    scale = np.sqrt(d)
    scores = np.matmul(q.data, kt) / scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    coeff = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        g_coeff = np.matmul(g, np.swapaxes(hw, -1, -2))
        g_hw = np.matmul(np.swapaxes(coeff, -1, -2), g)
        g_s = coeff * (g_coeff - (g_coeff * coeff).sum(axis=-1, keepdims=True)) / scale
        g_q = np.matmul(g_s, k) if q.requires_grad else None
        g_kt = np.matmul(np.swapaxes(q.data, -1, -2), g_s)
        return g_q, np.concatenate([g_kt.reshape(paths, -1), g_hw.reshape(paths, -1)], axis=-1)

    # q first, so that the walk in backward reaches the projections first,
    # as it reached them before the query in the unfused chain; nothing
    # records in sampling, where the node would be dropped
    return Tensor(np.matmul(coeff, hw), _parents=(q, kv) if record else (),
                  _backward_fn=bw)
