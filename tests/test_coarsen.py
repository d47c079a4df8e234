"""Torsion-based coarse-graining: rotatable-bond rules on hand-derived
molecules, partition invariants, bead graph and generation order."""

import numpy as np
import pytest

from coarsegen.coarsen import (build_bead_graph, coarse_grain,
                               find_rotatable_bonds, order_beads)
from coarsegen.corpus import make_corpus
from coarsegen.molio import Atom, Bond, Conformer, MolecularGraph


def chain_coords(n, spacing=1.5):
    out = np.zeros((n, 3))
    out[:, 0] = spacing * np.arange(n)
    return out


def heavy_chain(elements, orders=None):
    n = len(elements)
    orders = orders or ["single"] * (n - 1)
    bonds = [Bond(i, i + 1, orders[i]) for i in range(n - 1)]
    deg = [0] * n
    for b in bonds:
        deg[b.i] += 1
        deg[b.j] += 1
    atoms = [Atom(el, 0, deg[k]) for k, el in enumerate(elements)]
    return MolecularGraph(atoms, bonds)


class TestRotatableBonds:
    def test_ethane_has_none(self):
        # both carbons are terminal heavy atoms
        graph = heavy_chain(["C", "C"])
        assert find_rotatable_bonds(graph) == []

    def test_butane_central_bond_only(self):
        graph = heavy_chain(["C", "C", "C", "C"])
        assert find_rotatable_bonds(graph) == [1]

    def test_acetamide_excluded(self):
        # CH3-C(=O)-NH2: the C-N single bond is an amide, the C-C bond is
        # terminal; nothing is rotatable
        atoms = [Atom("C", 0, 1), Atom("C", 0, 3), Atom("O", 0, 1),
                 Atom("N", 0, 1)]
        bonds = [Bond(0, 1), Bond(1, 2, "double"), Bond(1, 3)]
        graph = MolecularGraph(atoms, bonds)
        assert find_rotatable_bonds(graph) == []

    def test_n_methyl_amide_still_excluded(self):
        # CH3-C(=O)-NH-CH3: C-N bond has two non-terminal endpoints but is
        # an amide; the N-CH3 bond has a terminal carbon
        atoms = [Atom("C", 0, 1), Atom("C", 0, 3), Atom("O", 0, 1),
                 Atom("N", 0, 2), Atom("C", 0, 1)]
        bonds = [Bond(0, 1), Bond(1, 2, "double"), Bond(1, 3), Bond(3, 4)]
        graph = MolecularGraph(atoms, bonds)
        assert find_rotatable_bonds(graph) == []

    def test_conjugated_single_bond_excluded(self):
        # 1,3-butadiene: C=C-C=C, the central single bond joins two atoms
        # that both carry a double bond
        graph = heavy_chain(["C", "C", "C", "C"],
                            orders=["double", "single", "double"])
        assert find_rotatable_bonds(graph) == []

    def test_double_bond_itself_not_rotatable(self):
        graph = heavy_chain(["C", "C", "C", "C"],
                            orders=["single", "double", "single"])
        assert find_rotatable_bonds(graph) == []

    def test_hexane_three_rotatable(self):
        graph = heavy_chain(["C"] * 6)
        assert find_rotatable_bonds(graph) == [1, 2, 3]

    def test_ether_linkage_rotatable(self):
        graph = heavy_chain(["C", "C", "O", "C", "C"])
        assert find_rotatable_bonds(graph) == [1, 2]


class TestCoarseGrain:
    def test_butane_two_beads(self):
        graph = heavy_chain(["C", "C", "C", "C"])
        mapping = coarse_grain(graph, Conformer(chain_coords(4)))
        assert mapping.n_beads == 2
        assert mapping.members[mapping.assignment[0]] == {0, 1}
        assert mapping.members[mapping.assignment[3]] == {2, 3}

    def test_beads_equal_rotatable_plus_one_on_corpus(self):
        for mol in make_corpus(20, 5):
            k = len(find_rotatable_bonds(mol.graph))
            assert mol.mapping.n_beads == k + 1

    def test_partition_is_exact(self):
        for mol in make_corpus(5, 1):
            seen = set()
            for members in mol.mapping.members:
                assert not (seen & members)
                seen |= members
            assert seen == set(range(mol.graph.n_atoms))
            for atom, bead in enumerate(mol.mapping.assignment):
                assert atom in mol.mapping.members[bead]

    def test_centroids_are_member_means(self):
        for mol in make_corpus(5, 2):
            for bead, members in enumerate(mol.mapping.members):
                want = mol.ref.coords[sorted(members)].mean(axis=0)
                np.testing.assert_allclose(mol.mapping.bead_centroids[bead],
                                           want, atol=1e-12)

    def test_disconnected_graph_rejected(self):
        atoms = [Atom("C", 0, 0), Atom("C", 0, 0)]
        graph = MolecularGraph(atoms, [])
        with pytest.raises(ValueError, match="disconnected"):
            coarse_grain(graph, Conformer(chain_coords(2)))

    def test_atom_count_mismatch(self):
        graph = heavy_chain(["C", "C"])
        with pytest.raises(ValueError):
            coarse_grain(graph, Conformer(chain_coords(3)))


class TestBeadGraph:
    def test_severed_bond_becomes_bead_edge(self):
        graph = heavy_chain(["C", "C", "C", "C"])
        mapping = coarse_grain(graph, Conformer(chain_coords(4)))
        bead_graph = build_bead_graph(graph, mapping, cutoff=0.1)
        assert (0, 1) in bead_graph.edges

    def test_centroid_cutoff_edges(self):
        graph = heavy_chain(["C"] * 6)
        mapping = coarse_grain(graph, Conformer(chain_coords(6)))
        bg = build_bead_graph(graph, mapping, cutoff=100.0)
        n = mapping.n_beads
        assert set(bg.edges) == {(i, j) for i in range(n)
                                 for j in range(i + 1, n)}


class TestOrderBeads:
    def test_starts_at_largest_bead(self):
        graph = heavy_chain(["C"] * 7)       # beads sized 2,1,1,1,2
        mapping = coarse_grain(graph, Conformer(chain_coords(7)))
        order = order_beads(mapping, build_bead_graph(graph, mapping, 4.0))
        sizes = [len(m) for m in mapping.members]
        assert sizes[order[0]] == max(sizes)

    def test_order_is_permutation_and_connected_prefix(self):
        for mol in make_corpus(10, 3):
            bg = build_bead_graph(mol.graph, mol.mapping, 4.0)
            order = order_beads(mol.mapping, bg)
            assert sorted(order) == list(range(mol.mapping.n_beads))
            adj = bg.adjacency()
            for pos in range(1, len(order)):
                assert any(prev in adj[order[pos]] for prev in order[:pos])

    def test_deterministic(self):
        mol = make_corpus(1, 4)[0]
        bg = build_bead_graph(mol.graph, mol.mapping, 4.0)
        assert order_beads(mol.mapping, bg) == order_beads(mol.mapping, bg)
