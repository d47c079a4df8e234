"""Hierarchical graph-matching encoder.

Each layer stacks a fine-grained message-passing module, an atom-to-bead
pooling module and a coarse-grained point-convolution module. One reference
path runs beside K ground-truth paths (K = 1 for one conformer, K = 0 for
the reference alone); cross attention flows only from the reference path
into each ground-truth path, so the reference latent never depends on
ground-truth coordinates and the ground-truth paths never see each other.
The output per path is an equivariant latent tensor of shape
(beads, channels, 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import topology
from .autodiff import Tensor, concat, segment_sum
from .coarsen import CGMapping
from .molio import MolecularGraph
from .nn import (ETA, RBF_CENTERS, RBF_WIDTH, ModelConfig, affine, attention, mlp,
                 rbf_expand, vn_mlp, vn_norms)
from .params import ParameterStore
from .topology import EdgeSet, directed_edges

_DIST_EPS = 1e-12

# Path keys: the reference path is REF, ground-truth paths their index 0..K-1.
REF = "ref"
PathKey = int | str


def center(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the centroid; returns (centered coordinates, centroid)."""
    coords = np.asarray(coords, dtype=np.float64)
    centroid = coords.mean(axis=0)
    return coords - centroid, centroid


@dataclass
class FgState:
    h: Tensor        # n x D invariant features
    x: Tensor        # n x 3 coordinates
    x0: Tensor       # n x 3 layer-0 anchor
    f: Tensor        # n x D original embedded features (re-fed each layer)


@dataclass
class CgState:
    H: Tensor        # N x D invariant bead features
    X: Tensor        # N x 3 bead coordinates
    X0: Tensor       # N x 3 anchor
    H0: Tensor       # N x D original pooled features
    v: Tensor        # N x F x 3 equivariant features (zero-initialized)


def _pair_dist2(x: Tensor, src, dst) -> Tensor:
    diff = x[dst] - x[src]
    return (diff * diff).sum(axis=1, keepdims=True)


def init_fg_state(store: ParameterStore, cfg: ModelConfig, graph: MolecularGraph,
                  coords: np.ndarray, ref_path: bool) -> FgState:
    ptag = cfg.path_tag(ref_path)
    feats = Tensor(topology.atom_features(graph))
    h0 = affine(store, f"enc.{ptag}.emb", feats, cfg.hidden_dim)
    x = Tensor(coords)
    return FgState(h=h0, x=x, x0=x, f=h0)


def init_cg_state(cfg: ModelConfig, fg: FgState, mapping: CGMapping) -> CgState:
    assignment, inv_size = topology.pooling_index(mapping)
    n_beads = mapping.n_beads
    inv_sizes = Tensor(inv_size)
    H0 = segment_sum(fg.h, assignment, n_beads) * inv_sizes
    X0 = segment_sum(fg.x, assignment, n_beads) * inv_sizes
    v0 = Tensor(np.zeros((n_beads, cfg.latent_channels, 3)))
    return CgState(H=H0, X=X0, X0=X0, H0=H0, v=v0)


def fg_layer(store: ParameterStore, cfg: ModelConfig, layer: int,
             states: dict[PathKey, FgState], edges: EdgeSet) -> dict[PathKey, FgState]:
    """One fine-grained update of every path; attention flows ref -> gt only."""
    lt = cfg.layer_tag(layer)
    D = cfg.hidden_dim
    out: dict[PathKey, FgState] = {}
    messages: dict[PathKey, tuple[Tensor, Tensor]] = {}
    n = states[next(iter(states))].h.shape[0]

    for path, st in states.items():
        pfx = f"enc.{cfg.path_tag(path == REF)}.fg.{lt}"
        d2 = _pair_dist2(st.x, edges.src, edges.dst)
        m_in = concat([st.h[edges.dst], st.h[edges.src], d2, Tensor(edges.feats)], axis=1)
        m_e = mlp(store, f"{pfx}.phi_e", m_in, D, D)
        m_node = segment_sum(m_e, edges.dst, n) * Tensor(edges.inv_degree[:, None])
        messages[path] = (m_e, m_node)

    for path, st in states.items():
        pfx = f"enc.{cfg.path_tag(path == REF)}.fg.{lt}"
        m_e, m_node = messages[path]
        gate = mlp(store, f"{pfx}.phi_x", m_e, D, 1)
        diff = st.x[edges.dst] - st.x[edges.src]
        dist = (_pair_dist2(st.x, edges.src, edges.dst) + _DIST_EPS).sqrt()
        # distance-normalized, degree-averaged update keeps deep stacks stable
        coord_sum = segment_sum(diff * (gate / (dist + 1.0)), edges.dst,
                                n) * Tensor(edges.inv_degree[:, None])
        x_new = ETA * st.x0 + (1.0 - ETA) * st.x + coord_sum
        if path != REF and REF in states:
            u = attention(store, f"enc.fg.{lt}.att", st.h, states[REF].h)
        else:
            u = Tensor(np.zeros((n, D)))
        h_in = concat([st.h, m_node, u, st.f], axis=1)
        h_new = (1.0 - ETA) * st.h + ETA * mlp(
            store, f"{pfx}.phi_h", h_in, D, D)
        out[path] = FgState(h=h_new, x=x_new, x0=st.x0, f=st.f)
    return out


def pool_layer(store: ParameterStore, cfg: ModelConfig, layer: int,
               fg: FgState, cg: CgState, mapping: CGMapping,
               ref_path: bool) -> CgState:
    """Pool fine-grained state into beads; the fine state is left unchanged."""
    lt = cfg.layer_tag(layer)
    D = cfg.hidden_dim
    pfx = f"enc.{cfg.path_tag(ref_path)}.pool.{lt}"
    bead_idx, inv_size = topology.pooling_index(mapping)
    atom_idx = np.arange(len(bead_idx), dtype=np.intp)
    n_beads = mapping.n_beads
    inv_sizes = Tensor(inv_size)

    diff = cg.X[bead_idx] - fg.x[atom_idx]
    d2 = (diff * diff).sum(axis=1, keepdims=True)
    ones = Tensor(np.ones((len(atom_idx), 1)))
    m_in = concat([cg.H[bead_idx], fg.h[atom_idx], d2, ones], axis=1)
    m_e = mlp(store, f"{pfx}.phi_e", m_in, D, D)
    m_bead = segment_sum(m_e, bead_idx, n_beads) * inv_sizes

    gate = mlp(store, f"{pfx}.phi_x", m_e, D, 1)
    dist = (d2 + _DIST_EPS).sqrt()
    coord_sum = segment_sum(diff * (gate / (dist + 1.0)), bead_idx,
                            n_beads) * inv_sizes
    X_new = ETA * cg.X0 + (1.0 - ETA) * cg.X + coord_sum

    h_in = concat([cg.H, m_bead, cg.H0], axis=1)
    H_new = (1.0 - ETA) * cg.H + ETA * mlp(
        store, f"{pfx}.phi_h", h_in, D, D)
    return CgState(H=H_new, X=X_new, X0=cg.X0, H0=cg.H0, v=cg.v)


def cg_layer(store: ParameterStore, cfg: ModelConfig, layer: int,
             states: dict[PathKey, CgState], edges: EdgeSet) -> dict[PathKey, CgState]:
    """Point-convolution update of bead features and equivariant channels."""
    lt = cfg.layer_tag(layer)
    D, F = cfg.hidden_dim, cfg.latent_channels
    out: dict[PathKey, CgState] = {}
    aggregates: dict[PathKey, tuple[Tensor, Tensor]] = {}
    n_beads = states[next(iter(states))].H.shape[0]

    for path, st in states.items():
        pfx = f"enc.{cfg.path_tag(path == REF)}.cg.{lt}"
        # equivariant/invariant feature mixing
        h1 = mlp(store, f"{pfx}.phi1",
                 concat([st.H, vn_norms(vn_mlp(store, f"{pfx}.vn1", st.v, F, F))], axis=1),
                 D, D)
        h2 = mlp(store, f"{pfx}.phi2",
                 concat([st.H, vn_norms(vn_mlp(store, f"{pfx}.vn2", st.v, F, F))], axis=1),
                 D, F)
        gate = mlp(store, f"{pfx}.phi3", st.H, D, F)
        v1 = gate.reshape(n_beads, F, 1) * vn_mlp(store, f"{pfx}.vn3", st.v, F, F)

        if len(edges.src):
            r = st.X[edges.dst] - st.X[edges.src]
            dist = ((r * r).sum(axis=1) + _DIST_EPS).sqrt()
            k1 = rbf_expand(store, f"{pfx}.ker1", dist, RBF_CENTERS, RBF_WIDTH, D)
            k2 = rbf_expand(store, f"{pfx}.ker2", dist, RBF_CENTERS, RBF_WIDTH, F)
            k3 = rbf_expand(store, f"{pfx}.ker3", dist, RBF_CENTERS, RBF_WIDTH, F)
            e = len(edges.src)
            mh_e = k1 * h1[edges.src]
            mv_e = (k2.reshape(e, F, 1) * v1[edges.src]
                    + (k3 * h2[edges.src]).reshape(e, F, 1) * r.reshape(e, 1, 3))
            mh = segment_sum(mh_e, edges.dst, n_beads)
            mv = segment_sum(mv_e, edges.dst, n_beads)
        else:
            mh = Tensor(np.zeros((n_beads, D)))
            mv = Tensor(np.zeros((n_beads, F, 3)))
        aggregates[path] = (mh, mv)

    for path, st in states.items():
        pfx = f"enc.{cfg.path_tag(path == REF)}.cg.{lt}"
        mh, mv = aggregates[path]
        if path != REF and REF in states:
            u = attention(store, f"enc.cg.{lt}.att", st.H, states[REF].H)
        else:
            u = Tensor(np.zeros((n_beads, D)))
        H_new = (1.0 - ETA) * st.H + ETA * mlp(
            store, f"{pfx}.upd_h", concat([st.H, mh, u], axis=1), D, D)
        v_new = (1.0 - ETA) * st.v + ETA * vn_mlp(
            store, f"{pfx}.vn4", concat([st.v, mv], axis=1), F, F)
        out[path] = CgState(H=H_new, X=st.X, X0=st.X0, H0=st.H0, v=v_new)
    return out


def _encode_paths(store: ParameterStore, cfg: ModelConfig, graph: MolecularGraph,
                  mapping: CGMapping, gt_list: list[np.ndarray],
                  ref_coords: np.ndarray) -> tuple[list[Tensor], Tensor]:
    """Run the stacked fg/pool/cg layers over K ground-truth paths and one
    reference path; inputs are centered here."""
    coords: dict[PathKey, np.ndarray] = {k: center(gt)[0] for k, gt in enumerate(gt_list)}
    coords[REF] = center(ref_coords)[0]
    edges = directed_edges(graph)
    fg_states = {p: init_fg_state(store, cfg, graph, c, ref_path=(p == REF))
                 for p, c in coords.items()}
    cg_states = {p: init_cg_state(cfg, st, mapping) for p, st in fg_states.items()}
    bead_edges = topology.bead_edges(graph, mapping, cfg.aux_cutoff)

    for layer in range(cfg.layers):
        fg_states = fg_layer(store, cfg, layer, fg_states, edges)
        cg_states = {p: pool_layer(store, cfg, layer, fg_states[p], cg_states[p],
                                   mapping, ref_path=(p == REF))
                     for p in fg_states}
        cg_states = cg_layer(store, cfg, layer, cg_states, bead_edges)
    return [cg_states[k].v for k in range(len(gt_list))], cg_states[REF].v


def encode_ensemble(store: ParameterStore, cfg: ModelConfig, graph: MolecularGraph,
                    mapping: CGMapping, gt_list: list[np.ndarray],
                    ref_coords: np.ndarray) -> tuple[list[Tensor], Tensor]:
    """Encode K ground-truth conformers beside one reference encode.

    Returns the K ground-truth latents and the reference latent; each
    ground-truth latent equals ``encode(gt, ref)[0]`` bit for bit. Inputs are
    centered internally.
    """
    return _encode_paths(store, cfg, graph, mapping, list(gt_list), ref_coords)


def encode(store: ParameterStore, cfg: ModelConfig, graph: MolecularGraph,
           mapping: CGMapping, gt_coords: np.ndarray,
           ref_coords: np.ndarray) -> tuple[Tensor, Tensor]:
    """Encode both conformers into latent tensors (Z for ground truth, Z~ for
    the reference). Inputs are centered internally."""
    z_gts, z_ref = _encode_paths(store, cfg, graph, mapping, [gt_coords], ref_coords)
    return z_gts[0], z_ref


def encode_reference(store: ParameterStore, cfg: ModelConfig, graph: MolecularGraph,
                     mapping: CGMapping, ref_coords: np.ndarray) -> Tensor:
    """Encode only the reference path (used by the learned prior at inference)."""
    return _encode_paths(store, cfg, graph, mapping, [], ref_coords)[1]
