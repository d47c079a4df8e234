"""Hierarchical graph-matching encoder.

Each layer stacks a fine-grained message-passing module, an atom-to-bead
pooling module and a coarse-grained point-convolution module. The K
ground-truth conformers (K = 1 for one conformer, K = 0 for the reference
alone) and the reference conformer run as one path-stacked state, the
reference last: every array has a leading path axis of K + 1 rows, and each
layer function runs all of them in one call with the same weights (see
:mod:`coarsegen.nn`). Cross attention flows only from the reference row into
each ground-truth row, so the reference latent never depends on
ground-truth coordinates and the ground-truth paths never see each other.
The output per path is an equivariant latent tensor of shape
(beads, channels, 3); the reference row is read alone (as the attention
key and the returned latent) as a one-path stack. The last layer skips the
bead-feature update that nothing reads; it still creates that update's
parameters, in the same order, so a fresh store draws the same values.
Below, P = K + 1 is the number of paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import topology
from .autodiff import Tensor, concat, segment_sum, take
from .coarsen import CGMapping
from .molio import MolecularGraph
from .nn import (ETA, RBF_CENTERS, RBF_WIDTH, ModelConfig, affine, affine_params,
                 attention, attention_params, mlp, mlp_params, rbf_expand, vn_mlp,
                 vn_mlp_params, vn_norms)
from .params import ParameterStore
from .topology import EdgeSet, directed_edges

_DIST_EPS = 1e-12


def center(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the centroid; returns (centered coordinates, centroid)."""
    coords = np.asarray(coords, dtype=np.float64)
    centroid = coords.mean(axis=0)
    return coords - centroid, centroid


@dataclass
class FgState:
    h: Tensor        # P x n x D invariant features
    x: Tensor        # P x n x 3 coordinates
    x0: Tensor       # P x n x 3 layer-0 anchor
    f: Tensor        # P x n x D original embedded features (re-fed each layer)


@dataclass
class CgState:
    H: Tensor | None  # P x N x D invariant bead features; None after the last cg layer
    X: Tensor        # P x N x 3 bead coordinates
    X0: Tensor       # P x N x 3 anchor
    H0: Tensor       # P x N x D original pooled features
    v: Tensor        # P x N x F x 3 equivariant features (zero-initialized)


def _pair_dist2(x: Tensor, src, dst) -> Tensor:
    diff = take(x, dst, -2) - take(x, src, -2)
    return (diff * diff).sum(axis=-1, keepdims=True)


def _reference_attention(store: ParameterStore, prefix: str, h: Tensor) -> Tensor:
    """Cross attention of the ground-truth rows of a (K + 1, rows, D) stack to
    its last row, the reference, at the layer's input; the reference row
    gets zeros. K = 0 attends to nothing and creates no parameter."""
    k = h.shape[0] - 1
    zeros = Tensor(np.zeros((1,) + h.shape[1:]))
    if not k:
        return zeros
    u = attention(store, prefix, take(h, np.arange(k), 0), take(h, np.array([k]), 0))
    return concat([u, zeros], axis=0)


def init_fg_state(store: ParameterStore, cfg: ModelConfig, graph: MolecularGraph,
                  coords: np.ndarray) -> FgState:
    """State of a stack of paths, (paths, atoms, 3) ``coords``."""
    feats = topology.atom_features(graph)
    feats = Tensor(np.broadcast_to(feats, (len(coords),) + feats.shape))
    h0 = affine(store, "enc.main.emb", feats, cfg.hidden_dim)
    x = Tensor(coords)
    return FgState(h=h0, x=x, x0=x, f=h0)


def init_cg_state(cfg: ModelConfig, fg: FgState, mapping: CGMapping) -> CgState:
    assignment, inv_size = topology.pooling_index(mapping)
    n_beads = mapping.n_beads
    inv_sizes = Tensor(inv_size)
    H0 = segment_sum(fg.h, assignment, n_beads, axis=-2) * inv_sizes
    X0 = segment_sum(fg.x, assignment, n_beads, axis=-2) * inv_sizes
    v0 = Tensor(np.zeros(fg.h.shape[:-2] + (n_beads, cfg.latent_channels, 3)))
    return CgState(H=H0, X=X0, X0=X0, H0=H0, v=v0)


def fg_layer(store: ParameterStore, cfg: ModelConfig, layer: int, st: FgState,
             edges: EdgeSet) -> FgState:
    """One fine-grained update of a (K + 1)-path stack, the reference last.
    Each ground-truth row attends to the reference row's features at this
    layer's input; the reference row attends to nothing."""
    D = cfg.hidden_dim
    n = st.h.shape[1]
    pfx = f"enc.main.fg.l{layer}"
    d2 = _pair_dist2(st.x, edges.src, edges.dst)
    m_in = concat([take(st.h, edges.dst, -2), take(st.h, edges.src, -2), d2,
                   Tensor(edges.feats)], axis=-1)
    m_e = mlp(store, f"{pfx}.phi_e", m_in, D, D)
    m_node = segment_sum(m_e, edges.dst, n, axis=-2) * Tensor(edges.inv_degree[:, None])

    gate = mlp(store, f"{pfx}.phi_x", m_e, D, 1)
    diff = take(st.x, edges.dst, -2) - take(st.x, edges.src, -2)
    dist = (_pair_dist2(st.x, edges.src, edges.dst) + _DIST_EPS).sqrt()
    # distance-normalized, degree-averaged update keeps deep stacks stable
    coord_sum = segment_sum(diff * (gate / (dist + 1.0)), edges.dst,
                            n, axis=-2) * Tensor(edges.inv_degree[:, None])
    x_new = ETA * st.x0 + (1.0 - ETA) * st.x + coord_sum
    u = _reference_attention(store, f"enc.fg.l{layer}.att", st.h)
    h_in = concat([st.h, m_node, u, st.f], axis=-1)
    h_new = (1.0 - ETA) * st.h + ETA * mlp(
        store, f"{pfx}.phi_h", h_in, D, D)
    return FgState(h=h_new, x=x_new, x0=st.x0, f=st.f)


def pool_layer(store: ParameterStore, cfg: ModelConfig, layer: int,
               fg: FgState, cg: CgState, mapping: CGMapping) -> CgState:
    """Pool fine-grained state into beads; the fine state is left unchanged."""
    D = cfg.hidden_dim
    pfx = f"enc.main.pool.l{layer}"
    bead_idx, inv_size = topology.pooling_index(mapping)
    atom_idx = np.arange(len(bead_idx), dtype=np.intp)
    n_beads = mapping.n_beads
    inv_sizes = Tensor(inv_size)

    diff = take(cg.X, bead_idx, -2) - take(fg.x, atom_idx, -2)
    d2 = (diff * diff).sum(axis=-1, keepdims=True)
    m_in = concat([take(cg.H, bead_idx, -2), take(fg.h, atom_idx, -2), d2,
                   Tensor(np.ones((len(atom_idx), 1)))], axis=-1)
    m_e = mlp(store, f"{pfx}.phi_e", m_in, D, D)
    m_bead = segment_sum(m_e, bead_idx, n_beads, axis=-2) * inv_sizes

    gate = mlp(store, f"{pfx}.phi_x", m_e, D, 1)
    dist = (d2 + _DIST_EPS).sqrt()
    coord_sum = segment_sum(diff * (gate / (dist + 1.0)), bead_idx,
                            n_beads, axis=-2) * inv_sizes
    X_new = ETA * cg.X0 + (1.0 - ETA) * cg.X + coord_sum

    h_in = concat([cg.H, m_bead, cg.H0], axis=-1)
    H_new = (1.0 - ETA) * cg.H + ETA * mlp(
        store, f"{pfx}.phi_h", h_in, D, D)
    return CgState(H=H_new, X=X_new, X0=cg.X0, H0=cg.H0, v=cg.v)


def cg_layer(store: ParameterStore, cfg: ModelConfig, layer: int, st: CgState,
             edges: EdgeSet) -> CgState:
    """Point-convolution update of the bead features and equivariant channels
    of a (K + 1)-path stack; the ground-truth rows attend to the reference
    row, the last, as in :func:`fg_layer`.

    :func:`encode` returns only the channels, so the last layer skips the
    bead-feature update and the branch only it reads (``vn1``/``phi1``,
    ``ker1``, their message sum and the attention) and returns ``H`` None.
    It still creates their parameters, in the same order.
    """
    D, F = cfg.hidden_dim, cfg.latent_channels
    n_beads = st.H.shape[-2]
    pfx = f"enc.main.cg.l{layer}"
    last = layer == cfg.layers - 1
    # equivariant/invariant feature mixing
    if last:
        vn_mlp_params(store, f"{pfx}.vn1", F, F, F)
        mlp_params(store, f"{pfx}.phi1", D + F, D, D)
    else:
        h1 = mlp(store, f"{pfx}.phi1",
                 concat([st.H, vn_norms(vn_mlp(store, f"{pfx}.vn1", st.v, F, F))],
                        axis=-1), D, D)
    h2 = mlp(store, f"{pfx}.phi2",
             concat([st.H, vn_norms(vn_mlp(store, f"{pfx}.vn2", st.v, F, F))], axis=-1),
             D, F)
    gate = mlp(store, f"{pfx}.phi3", st.H, D, F)
    v1 = gate.reshape(gate.shape + (1,)) * vn_mlp(store, f"{pfx}.vn3", st.v, F, F)

    if len(edges.src):
        r = take(st.X, edges.dst, -2) - take(st.X, edges.src, -2)
        dist = ((r * r).sum(axis=-1) + _DIST_EPS).sqrt()
        if last:
            affine_params(store, f"{pfx}.ker1", len(RBF_CENTERS), D)
        else:
            k1 = rbf_expand(store, f"{pfx}.ker1", dist, RBF_CENTERS, RBF_WIDTH, D)
            mh = segment_sum(k1 * take(h1, edges.src, -2), edges.dst, n_beads, axis=-2)
        k2 = rbf_expand(store, f"{pfx}.ker2", dist, RBF_CENTERS, RBF_WIDTH, F)
        k3 = rbf_expand(store, f"{pfx}.ker3", dist, RBF_CENTERS, RBF_WIDTH, F)
        mv_e = (k2.reshape(k2.shape + (1,)) * take(v1, edges.src, -3)
                + (k3 * take(h2, edges.src, -2)).reshape(k3.shape + (1,))
                * r.reshape(r.shape[:-1] + (1, 3)))
        mv = segment_sum(mv_e, edges.dst, n_beads, axis=-3)
    else:
        mh = Tensor(np.zeros((n_beads, D)))        # concat repeats it over the paths
        mv = Tensor(np.zeros((n_beads, F, 3)))

    if last:
        if len(st.H.data) > 1:     # as in _reference_attention
            attention_params(store, f"enc.cg.l{layer}.att", D, D)
        mlp_params(store, f"{pfx}.upd_h", 3 * D, D, D)
        H_new = None
    else:
        u = _reference_attention(store, f"enc.cg.l{layer}.att", st.H)
        H_new = (1.0 - ETA) * st.H + ETA * mlp(
            store, f"{pfx}.upd_h", concat([st.H, mh, u], axis=-1), D, D)
    v_new = (1.0 - ETA) * st.v + ETA * vn_mlp(
        store, f"{pfx}.vn4", concat([st.v, mv], axis=-2), F, F)
    return CgState(H=H_new, X=st.X, X0=st.X0, H0=st.H0, v=v_new)


def encode(store: ParameterStore, cfg: ModelConfig, graph: MolecularGraph,
           mapping: CGMapping, gt_list: list[np.ndarray],
           ref_coords: np.ndarray) -> tuple[Tensor, Tensor]:
    """Encode K >= 0 ground-truth conformers beside one reference conformer.

    Returns the K ground-truth latents (Z) as one (K, beads, F, 3) path
    stack and the reference latent (Z~) as a (1, beads, F, 3) stack. The
    inputs are centered here and run as one (K + 1)-path stack, the
    reference last; each layer runs one fg, one pool and one cg update.
    """
    coords = np.stack([center(c)[0] for c in [*gt_list, ref_coords]])
    edges = directed_edges(graph)
    fg = init_fg_state(store, cfg, graph, coords)
    cg = init_cg_state(cfg, fg, mapping)
    bead_edges = topology.bead_edges(graph, mapping, cfg.aux_cutoff)

    for layer in range(cfg.layers):
        fg = fg_layer(store, cfg, layer, fg, edges)
        cg = pool_layer(store, cfg, layer, fg, cg, mapping)
        cg = cg_layer(store, cfg, layer, cg, bead_edges)
    k = len(gt_list)
    return take(cg.v, np.arange(k), 0), take(cg.v, np.array([k]), 0)


def encode_reference(store: ParameterStore, cfg: ModelConfig, graph: MolecularGraph,
                     mapping: CGMapping, ref_coords: np.ndarray) -> Tensor:
    """Encode only the reference path (used by the learned prior at inference)."""
    return encode(store, cfg, graph, mapping, [], ref_coords)[1]
