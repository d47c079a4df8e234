"""Synthetic desk-scale molecule corpus.

Generates alkane/ether-like chains (6-20 heavy atoms, 1-5 rotatable bonds)
with a ground-truth conformer, a noisy torsion-perturbed "approximate"
reference conformer standing in for a cheminformatics embedding, and a
small ensemble of independently torsion-sampled ground-truth conformers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarsen import CGMapping, coarse_grain, find_rotatable_bonds
from .molio import Bond, Conformer, MolecularGraph, _finish_atoms, build_graph
from .topology import torsion_side


@dataclass
class ToyMolecule:
    graph: MolecularGraph          # aux edges built from the reference conformer
    gt: Conformer
    ref: Conformer
    truth_ensemble: list[Conformer]
    mapping: CGMapping             # built from the reference conformer


_EYE = np.eye(3)


def _place_atom(placed: np.ndarray, anchor: np.ndarray, length: float,
                rng: np.random.Generator, min_sep: float = 0.9) -> np.ndarray:
    """A point ``length`` from ``anchor`` in a random direction, more than
    ``min_sep`` from every row of ``placed``; after 200 tries, the last one."""
    for _ in range(200):
        direction = rng.standard_normal(3)
        direction /= np.sqrt(direction.dot(direction))   # np.linalg.norm's own ops
        pos = anchor + length * direction
        d = pos - placed
        # a stacked (1, 3) @ (3, 1) product is np.linalg.norm's dot, row by row
        if (np.sqrt(d[:, None, :] @ d[:, :, None]) > min_sep).all():
            return pos
    return pos  # crowded fallback; still finite


def _torsion_stack(coords: np.ndarray, graph: MolecularGraph, bonds: list[int],
                   angles: np.ndarray) -> np.ndarray:
    """One copy of ``coords`` per row of ``angles`` (V, len(bonds)), each with
    bond ``bonds[c]`` turned by its column ``c``, bond after bond.

    Each bond turns its :func:`~coarsegen.topology.torsion_side` about the
    axis from its first atom to its second, in every row at once. Every row
    equals a lone conformer's turn bit for bit: the axis norm is the stacked
    (1, 3) @ (3, 1) product (``np.linalg.norm``'s dot), the Rodrigues
    matrices are stacked 3 x 3 products, and each moved atom is one stacked
    (3, 3) @ (3, 1) product."""
    out = np.repeat(coords[None], len(angles), axis=0)
    sin, one_minus_cos = np.sin(angles), 1 - np.cos(angles)
    k = np.zeros((len(angles), 3, 3))
    for c, bond_idx in enumerate(bonds):
        b = graph.bonds[bond_idx]
        side = torsion_side(graph, bond_idx)
        pivot = out[:, b.i, None]
        axis = out[:, b.j] - out[:, b.i]
        axis = axis / np.sqrt(axis[:, None, :] @ axis[:, :, None])[:, 0]
        k[:, 0, 1], k[:, 0, 2] = -axis[:, 2], axis[:, 1]
        k[:, 1, 0], k[:, 1, 2] = axis[:, 2], -axis[:, 0]
        k[:, 2, 0], k[:, 2, 1] = -axis[:, 1], axis[:, 0]
        rot = _EYE + sin[:, c, None, None] * k + one_minus_cos[:, c, None, None] * (k @ k)
        moved = (out[:, side] - pivot)[..., None]
        out[:, side] = (rot[:, None] @ moved)[..., 0] + pivot
    return out


def apply_torsions(coords: np.ndarray, graph: MolecularGraph,
                   angles: dict[int, float]) -> np.ndarray:
    """Rotate subtrees about rotatable bonds by the given angles (radians).

    Each bond turns its :func:`~coarsegen.topology.torsion_side` about the
    axis from its first atom to its second; this is the one-row call of the
    stack :func:`make_molecule` turns."""
    row = np.array([list(angles.values())], dtype=np.float64)
    return _torsion_stack(coords, graph, list(angles), row)[0]


def _build_topology(rng: np.random.Generator):
    """Random chain topology: backbone C/O with methyl branches and hydrogens."""
    backbone = int(rng.integers(4, 9))            # 1..5 rotatable bonds
    elements = ["C"] * backbone
    for pos in range(1, backbone - 1):
        if elements[pos - 1] != "O" and rng.random() < 0.25:
            elements[pos] = "O"
    bonds = [(i, i + 1) for i in range(backbone - 1)]

    hosts = [p for p in range(1, backbone - 1) if elements[p] == "C"]
    capacity = {p: 2 for p in hosts}
    n_branch = int(rng.integers(max(0, 6 - backbone), 5))
    for _ in range(n_branch):
        open_hosts = [p for p in hosts if capacity[p] > 0]
        if not open_hosts or len(elements) >= 20:
            break
        host = int(rng.choice(open_hosts))
        capacity[host] -= 1
        elements.append("C")
        bonds.append((host, len(elements) - 1))

    # hydrogens to fill valence (C: 4, O: 2)
    valence = {"C": 4, "O": 2}
    degree = [0] * len(elements)
    for i, j in bonds:
        degree[i] += 1
        degree[j] += 1
    n_heavy = len(elements)
    for a in range(n_heavy):
        for _ in range(valence[elements[a]] - degree[a]):
            elements.append("H")
            bonds.append((a, len(elements) - 1))
    return elements, bonds, n_heavy


def _embed(elements, bonds, rng: np.random.Generator) -> np.ndarray:
    adj: dict[int, list[int]] = {k: [] for k in range(len(elements))}
    for i, j in bonds:
        adj[i].append(j)
        adj[j].append(i)
    placed = np.zeros((len(elements), 3))   # positions in placement order
    row = {0: 0}                            # atom -> its row of ``placed``
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in row:
                continue
            length = 1.0 if "H" in (elements[v], elements[w]) else 1.5
            k = len(row)
            placed[k] = _place_atom(placed[:k], placed[row[v]], length, rng)
            row[w] = k
            stack.append(w)
    return placed[[row[k] for k in range(len(elements))]]


def _check_settings(sigma: float, n_truth: int, torsion_scale: float) -> None:
    if n_truth < 0:
        raise ValueError(f"n_truth must be at least 0, got {n_truth}")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and at least 0, got {sigma}")
    if not np.isfinite(torsion_scale):
        raise ValueError(f"torsion_scale must be finite, got {torsion_scale}")


def make_molecule(rng: np.random.Generator, sigma: float = 0.3,
                  n_truth: int = 5, torsion_scale: float = 1.0) -> ToyMolecule:
    """One molecule: its exact conformer, a reference turned at every
    rotatable bond and displaced by Gaussian noise of scale ``sigma``, and
    ``n_truth`` noise-free conformers turned the same way, each with angles
    ``torsion_scale`` times uniform on [-pi, pi). The reference and the
    truths are turned as one stack."""
    _check_settings(sigma, n_truth, torsion_scale)
    elements, bond_pairs, _ = _build_topology(rng)
    bonds = [Bond(i, j, "single") for i, j in bond_pairs]
    atoms = _finish_atoms(elements, [0] * len(elements), bonds, ())

    gt_coords = _embed(elements, bond_pairs, rng)
    bare = MolecularGraph(atoms, bonds)
    rot = find_rotatable_bonds(bare)

    # the draws of one variant after another: reference angles and noise,
    # then the truths' angles, row by row
    ref_angles = rng.uniform(-np.pi, np.pi, size=(1, len(rot)))
    noise = rng.normal(0.0, sigma, size=gt_coords.shape) if sigma > 0 else None
    truth_angles = rng.uniform(-np.pi, np.pi, size=(n_truth, len(rot)))
    angles = torsion_scale * np.concatenate([ref_angles, truth_angles])
    stack = _torsion_stack(gt_coords, bare, rot, angles)

    ref = Conformer(stack[0] + noise if noise is not None else stack[0].copy())
    truth = [Conformer(row.copy()) for row in stack[1:]]
    graph = build_graph(atoms, bonds, ref)
    mapping = coarse_grain(graph, ref)
    return ToyMolecule(graph=graph, gt=Conformer(gt_coords), ref=ref,
                       truth_ensemble=truth, mapping=mapping)


def make_corpus(count: int, seed: int, sigma: float = 0.3,
                n_truth: int = 5, torsion_scale: float = 1.0) -> list[ToyMolecule]:
    """Deterministic corpus: same seed, bit-identical molecules."""
    _check_settings(sigma, n_truth, torsion_scale)
    rng = np.random.default_rng(seed)
    return [make_molecule(rng, sigma=sigma, n_truth=n_truth,
                          torsion_scale=torsion_scale)
            for _ in range(count)]
