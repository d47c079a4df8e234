"""Static per-molecule index structure, built once and kept on the molecule.

A :class:`~coarsegen.molio.MolecularGraph` and a
:class:`~coarsegen.coarsen.CGMapping` never change after construction, so
the index arrays the model reads on every pass are computed on first use
and stored in the object's private ``_topology`` cache:

- per graph: the atom feature matrix, the directed edge set, the 1/2-hop
  pairs, the edge set of every atom subset the decoder refines and the
  moving side of every bond a torsion turns;
- per mapping: the atom-to-bead index and inverse bead sizes, and, for each
  cutoff, the bead graph's edge set and the bead decode order.

Only this module reads or writes those caches. Every cached array is
read-only, so an in-place write raises instead of corrupting later passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarsen import BeadGraph, CGMapping, build_bead_graph, order_beads
from .molio import MolecularGraph

_BOND_ORDER_INDEX = {"single": 0, "double": 1, "triple": 2, "aromatic": 3}


@dataclass(frozen=True)
class EdgeSet:
    src: np.ndarray
    dst: np.ndarray
    feats: np.ndarray    # per directed edge
    inv_degree: np.ndarray  # 1/deg per receiver (0 for isolated nodes)


def _readonly(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _inv_degree(dst: np.ndarray, n: int) -> np.ndarray:
    deg = np.bincount(dst, minlength=n).astype(np.float64)
    return np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)


def _cached(cache: dict, key, build, *args):
    try:
        return cache[key]
    except KeyError:
        value = cache[key] = build(*args)
        return value


# -- per graph -------------------------------------------------------------------

def _build_atom_features(graph: MolecularGraph) -> np.ndarray:
    feats = graph.feature_matrix()
    _readonly(feats)
    return feats


def atom_features(graph: MolecularGraph) -> np.ndarray:
    """The (atoms, FEATURE_DIM) feature matrix of ``graph``."""
    return _cached(graph._topology, "atom_features", _build_atom_features, graph)


def _build_directed_edges(graph: MolecularGraph) -> EdgeSet:
    src, dst, feats = [], [], []
    for b in graph.bonds:
        f = np.zeros(4)
        f[_BOND_ORDER_INDEX[b.order]] = 1.0
        for s, d in ((b.i, b.j), (b.j, b.i)):
            src.append(s)
            dst.append(d)
            feats.append(f)
    for i, j in graph.aux_edges:
        for s, d in ((i, j), (j, i)):
            src.append(s)
            dst.append(d)
            feats.append(np.zeros(4))
    src_a = np.asarray(src, dtype=np.intp)
    dst_a = np.asarray(dst, dtype=np.intp)
    f_a = np.stack(feats) if feats else np.zeros((0, 4))
    edges = EdgeSet(src_a, dst_a, f_a, _inv_degree(dst_a, graph.n_atoms))
    _readonly(edges.src, edges.dst, edges.feats, edges.inv_degree)
    return edges


def directed_edges(graph: MolecularGraph) -> EdgeSet:
    """Covalent + auxiliary edges, both directions, with bond-type one-hots."""
    return _cached(graph._topology, "directed_edges", _build_directed_edges, graph)


def hop12_pairs(graph: MolecularGraph) -> list[tuple[int, int]]:
    """All 1-hop (bonded) and 2-hop atom pairs of the covalent graph."""
    adj = graph.adjacency()
    pairs = {b.pair for b in graph.bonds}
    for mid in range(graph.n_atoms):
        nbrs = adj[mid]
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                i, j = sorted((nbrs[a], nbrs[b]))
                pairs.add((i, j))
    return sorted(pairs)


def _build_hop12_index(graph: MolecularGraph) -> tuple[np.ndarray, np.ndarray]:
    pairs = hop12_pairs(graph)
    i = np.asarray([p[0] for p in pairs], dtype=np.intp)
    j = np.asarray([p[1] for p in pairs], dtype=np.intp)
    _readonly(i, j)
    return i, j


def hop12_index(graph: MolecularGraph) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hop12_pairs` as two index arrays (first atoms, second atoms)."""
    return _cached(graph._topology, "hop12", _build_hop12_index, graph)


def _build_local_edges(graph: MolecularGraph, atoms: tuple[int, ...]):
    pos = {a: k for k, a in enumerate(atoms)}
    src, dst = [], []
    pairs = [(b.i, b.j) for b in graph.bonds] + list(graph.aux_edges)
    for i, j in pairs:
        if i in pos and j in pos:
            src += [pos[i], pos[j]]
            dst += [pos[j], pos[i]]
    s = np.asarray(src, dtype=np.intp)
    d = np.asarray(dst, dtype=np.intp)
    inv = _inv_degree(d, len(atoms))
    _readonly(s, d, inv)
    return s, d, inv


def local_edges(graph: MolecularGraph, atoms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covalent + auxiliary directed edges restricted to an atom subset.

    Returns (src, dst, inverse receiver degree), indexed by position in
    ``atoms``.
    """
    atoms = tuple(atoms)
    return _cached(graph._topology, ("local_edges", atoms), _build_local_edges, graph, atoms)


def _build_torsion_side(graph: MolecularGraph, bond: int) -> np.ndarray:
    b = graph.bonds[bond]
    severed = ((b.i, b.j), (b.j, b.i))
    adj = graph.adjacency()
    seen = {b.j}
    stack = [b.j]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen and (v, w) not in severed:
                seen.add(w)
                stack.append(w)
    side = np.asarray(sorted(seen), dtype=np.intp)
    _readonly(side)
    return side


def torsion_side(graph: MolecularGraph, bond: int) -> np.ndarray:
    """The atoms a torsion about ``graph.bonds[bond]`` turns: those reachable
    from the bond's second atom without crossing the bond, in index order."""
    return _cached(graph._topology, ("torsion_side", bond), _build_torsion_side, graph, bond)


# -- per mapping -----------------------------------------------------------------

def _build_pooling_index(mapping: CGMapping) -> tuple[np.ndarray, np.ndarray]:
    bead_idx = np.asarray(mapping.assignment, dtype=np.intp)
    sizes = np.bincount(bead_idx, minlength=mapping.n_beads).astype(np.float64)
    inv_sizes = (1.0 / sizes)[:, None]
    _readonly(bead_idx, inv_sizes)
    return bead_idx, inv_sizes


def pooling_index(mapping: CGMapping) -> tuple[np.ndarray, np.ndarray]:
    """Bead index of every atom, and 1/size of every bead as a column."""
    return _cached(mapping._topology, "pooling_index", _build_pooling_index, mapping)


def _build_bead_edges(bead_graph: BeadGraph) -> EdgeSet:
    src, dst = [], []
    for i, j in bead_graph.edges:
        src += [i, j]
        dst += [j, i]
    src_a = np.asarray(src, dtype=np.intp)
    dst_a = np.asarray(dst, dtype=np.intp)
    edges = EdgeSet(src_a, dst_a, np.zeros((len(src), 0)),
                    _inv_degree(dst_a, bead_graph.n_beads))
    _readonly(edges.src, edges.dst, edges.feats, edges.inv_degree)
    return edges


def _build_bead_order(mapping: CGMapping, bead_graph: BeadGraph) -> tuple[int, ...]:
    return tuple(order_beads(mapping, bead_graph))


def _bead_cache(graph: MolecularGraph, mapping: CGMapping, cutoff: float) -> dict:
    """The mapping's cache for one cutoff, holding the bead graph built from
    ``graph``; another graph starts a fresh one."""
    key = ("bead_graph", cutoff)
    cache = mapping._topology.get(key)
    if cache is None or cache["graph"] is not graph:
        cache = mapping._topology[key] = {
            "graph": graph, "bead_graph": build_bead_graph(graph, mapping, cutoff)}
    return cache


def bead_edges(graph: MolecularGraph, mapping: CGMapping, cutoff: float) -> EdgeSet:
    """Directed edges of the bead graph (:func:`~coarsegen.coarsen.build_bead_graph`).

    Cached on the mapping per cutoff, together with the graph it was built
    from; another graph rebuilds it.
    """
    cache = _bead_cache(graph, mapping, cutoff)
    return _cached(cache, "edges", _build_bead_edges, cache["bead_graph"])


def bead_order(graph: MolecularGraph, mapping: CGMapping, cutoff: float) -> tuple[int, ...]:
    """Autoregressive decode order of the beads
    (:func:`~coarsegen.coarsen.order_beads` of the bead graph).

    Built from the same bead graph as :func:`bead_edges` and cached beside
    it. A disconnected bead graph raises ``ValueError`` on every call.
    """
    cache = _bead_cache(graph, mapping, cutoff)
    return _cached(cache, "order", _build_bead_order, mapping, cache["bead_graph"])
