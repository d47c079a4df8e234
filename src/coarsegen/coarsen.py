"""Torsion-based coarse-graining.

Rotatable bonds are severed and each resulting connected component of the
covalent graph becomes one bead; k rotatable bonds on a connected molecule
give k + 1 beads. Also builds the bead-level graph (severed-bond edges plus
auxiliary centroid edges) and a size/degree-prioritized BFS generation
order over beads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .kernels import pairs_within_cutoff
from .molio import AUX_CUTOFF, Conformer, MolecularGraph


@dataclass(frozen=True)
class CGMapping:
    """Atom-to-bead assignment of one molecule; immutable once built.

    Index structure derived from it is cached in ``_topology`` by
    :mod:`coarsegen.topology`.
    """
    assignment: tuple[int, ...]           # atom index -> bead index
    members: tuple[frozenset[int], ...]   # bead index -> atom index set
    bead_centroids: np.ndarray            # N x 3, read-only
    severed_bonds: tuple[int, ...]        # indices into graph.bonds
    _topology: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        centroids = np.array(self.bead_centroids, dtype=np.float64)
        centroids.flags.writeable = False
        object.__setattr__(self, "assignment", tuple(self.assignment))
        object.__setattr__(self, "members", tuple(map(frozenset, self.members)))
        object.__setattr__(self, "bead_centroids", centroids)
        object.__setattr__(self, "severed_bonds", tuple(self.severed_bonds))

    @property
    def n_beads(self) -> int:
        return len(self.members)


@dataclass
class BeadGraph:
    n_beads: int
    edges: list[tuple[int, int]] = field(default_factory=list)  # unordered, deduped

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_beads)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


def _is_terminal(graph: MolecularGraph, atom: int) -> bool:
    # terminal = heavy-atom degree <= 1
    return graph.atoms[atom].degree_heavy <= 1


def _has_multiple_bond(orders_at: list[set[str]], atom: int) -> bool:
    return bool(orders_at[atom] & {"double", "triple", "aromatic"})


def find_rotatable_bonds(graph: MolecularGraph) -> list[int]:
    """Indices of rotatable bonds: single bonds between non-terminal atoms,
    excluding amide C-N bonds and conjugation-pattern single bonds."""
    orders_at: list[set[str]] = [set() for _ in graph.atoms]
    neighbors_by_order: list[list[tuple[int, str]]] = [[] for _ in graph.atoms]
    for b in graph.bonds:
        orders_at[b.i].add(b.order)
        orders_at[b.j].add(b.order)
        neighbors_by_order[b.i].append((b.j, b.order))
        neighbors_by_order[b.j].append((b.i, b.order))

    def is_amide(i: int, j: int) -> bool:
        # C-N single bond where the carbon is double-bonded to an oxygen
        for c, n in ((i, j), (j, i)):
            if graph.atoms[c].element == "C" and graph.atoms[n].element == "N":
                for other, order in neighbors_by_order[c]:
                    if order == "double" and graph.atoms[other].element == "O":
                        return True
        return False

    rotatable = []
    for idx, b in enumerate(graph.bonds):
        if b.order != "single":
            continue
        if _is_terminal(graph, b.i) or _is_terminal(graph, b.j):
            continue
        if is_amide(b.i, b.j):
            continue
        # conjugated pattern X=Y-Z=W: both endpoints carry a multiple bond
        if _has_multiple_bond(orders_at, b.i) and _has_multiple_bond(orders_at, b.j):
            continue
        rotatable.append(idx)
    return rotatable


def _connected_components(n: int, edges: list[tuple[int, int]]) -> list[int]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    label = [-1] * n
    comp = 0
    for start in range(n):
        if label[start] != -1:
            continue
        queue = deque([start])
        label[start] = comp
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if label[w] == -1:
                    label[w] = comp
                    queue.append(w)
        comp += 1
    return label


def coarse_grain(graph: MolecularGraph, conformer: Conformer) -> CGMapping:
    """Sever rotatable bonds and map each covalent component to a bead."""
    n = graph.n_atoms
    if conformer.n_atoms != n:
        raise ValueError("conformer atom count does not match graph")
    all_edges = [(b.i, b.j) for b in graph.bonds]
    if n > 0 and max(_connected_components(n, all_edges)) != 0:
        raise ValueError("covalent graph is disconnected")
    severed = find_rotatable_bonds(graph)
    severed_set = set(severed)
    kept = [(b.i, b.j) for idx, b in enumerate(graph.bonds) if idx not in severed_set]
    assignment = _connected_components(n, kept)
    n_beads = max(assignment) + 1 if n else 0
    members: list[set[int]] = [set() for _ in range(n_beads)]
    for atom, bead in enumerate(assignment):
        members[bead].add(atom)
    centroids = np.zeros((n_beads, 3))
    for bead, atom_set in enumerate(members):
        centroids[bead] = conformer.coords[sorted(atom_set)].mean(axis=0)
    return CGMapping(assignment, members, centroids, severed)


def build_bead_graph(graph: MolecularGraph, mapping: CGMapping,
                     cutoff: float = AUX_CUTOFF) -> BeadGraph:
    """Bead edges from severed bonds, plus auxiliary centroid-distance edges."""
    edges: set[tuple[int, int]] = set()
    for idx in mapping.severed_bonds:
        b = graph.bonds[idx]
        bi, bj = mapping.assignment[b.i], mapping.assignment[b.j]
        if bi != bj:
            edges.add((min(bi, bj), max(bi, bj)))
    for i, j in pairs_within_cutoff(mapping.bead_centroids, cutoff):
        edges.add((int(i), int(j)))
    return BeadGraph(mapping.n_beads, sorted(edges))


def order_beads(mapping: CGMapping, bead_graph: BeadGraph) -> list[int]:
    """BFS order over beads, prioritizing larger beads with larger degree.

    The start bead has maximal member count (ties: maximal degree, then
    lowest index); every BFS frontier is expanded with the same tie-break.
    """
    n = bead_graph.n_beads
    if n == 0:
        return []
    adj = bead_graph.adjacency()
    degree = [len(a) for a in adj]
    size = [len(m) for m in mapping.members]

    def priority(bead: int):
        return (-size[bead], -degree[bead], bead)

    start = min(range(n), key=priority)
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v], key=priority):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    if len(order) != n:
        raise ValueError("bead graph is disconnected")
    return order
