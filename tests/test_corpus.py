"""Synthetic corpus generator: determinism, chemistry invariants, the
relationship between the exact and approximate conformers, and equality with
a scalar reference builder."""

import numpy as np
import pytest

from coarsegen import corpus
from coarsegen.coarsen import coarse_grain, find_rotatable_bonds
from coarsegen.corpus import _build_topology, apply_torsions, make_corpus, make_molecule
from coarsegen.geometry import aligned_rmsd
from coarsegen.kernels import pairs_within_cutoff
from coarsegen.molio import AUX_CUTOFF, Atom, Bond, Conformer, MolecularGraph


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = make_corpus(3, 7)
        b = make_corpus(3, 7)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.gt.coords, mb.gt.coords)
            np.testing.assert_array_equal(ma.ref.coords, mb.ref.coords)
            for ta, tb in zip(ma.truth_ensemble, mb.truth_ensemble):
                np.testing.assert_array_equal(ta.coords, tb.coords)
            assert [x.element for x in ma.graph.atoms] == \
                   [x.element for x in mb.graph.atoms]

    def test_different_seeds_differ(self):
        a = make_corpus(1, 0)[0]
        b = make_corpus(1, 1)[0]
        assert (a.gt.coords.shape != b.gt.coords.shape
                or np.abs(a.gt.coords - b.gt.coords).max() > 0)


class TestChemistryInvariants:
    def test_valences_and_elements(self):
        for mol in make_corpus(10, 11):
            adj = mol.graph.adjacency()
            for k, atom in enumerate(mol.graph.atoms):
                n = len(adj[k])
                if atom.element == "C":
                    assert n == 4
                elif atom.element == "O":
                    assert n == 2
                elif atom.element == "H":
                    assert n == 1
                else:  # pragma: no cover
                    raise AssertionError(atom.element)

    def test_no_atom_clashes(self):
        for mol in make_corpus(10, 13):
            c = mol.gt.coords
            d = np.linalg.norm(c[:, None] - c[None, :], axis=-1)
            np.fill_diagonal(d, np.inf)
            assert d.min() > 0.8

    def test_truth_ensemble_size(self):
        mol = make_corpus(1, 2, n_truth=7)[0]
        assert len(mol.truth_ensemble) == 7

    def test_beads_track_rotatable_bonds(self):
        for mol in make_corpus(10, 17):
            k = len(find_rotatable_bonds(mol.graph))
            assert mol.mapping.n_beads == k + 1


class TestReferenceQuality:
    def test_zero_noise_zero_torsion_gives_exact_reference(self):
        for mol in make_corpus(5, 3, sigma=0.0, torsion_scale=0.0):
            np.testing.assert_allclose(
                aligned_rmsd(mol.ref.coords, mol.gt.coords), 0.0, atol=1e-9)
            for t in mol.truth_ensemble:
                np.testing.assert_allclose(
                    aligned_rmsd(t.coords, mol.gt.coords), 0.0, atol=1e-9)

    def test_default_reference_is_distorted(self):
        errs = [aligned_rmsd(m.ref.coords, m.gt.coords)
                for m in make_corpus(10, 4)]
        assert min(errs) > 0.05

    def test_torsions_preserve_bond_lengths(self):
        mol = make_corpus(1, 5)[0]
        rot = find_rotatable_bonds(mol.graph)
        if not rot:
            pytest.skip("sampled molecule has no rotatable bonds")
        angles = {rot[0]: 1.3}
        out = apply_torsions(mol.gt.coords, mol.graph, angles)
        for b in mol.graph.bonds:
            want = np.linalg.norm(mol.gt.coords[b.i] - mol.gt.coords[b.j])
            got = np.linalg.norm(out[b.i] - out[b.j])
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_second_apply_torsions_reads_the_cache(self):
        mol = make_corpus(1, 5)[0]
        graph = MolecularGraph(mol.graph.atoms, mol.graph.bonds)   # empty cache
        angles = {idx: 0.4 + idx for idx in find_rotatable_bonds(graph)}
        assert angles
        first = apply_torsions(mol.gt.coords, graph, angles)
        assert all(("torsion_side", idx) in graph._topology for idx in angles)
        np.testing.assert_array_equal(apply_torsions(mol.gt.coords, graph, angles), first)

    def test_conformers_expose_validated_coords(self):
        mol = make_corpus(1, 6)[0]
        assert isinstance(mol.ref, Conformer)
        assert np.isfinite(mol.ref.coords).all()


class TestSingleMolecule:
    def test_make_molecule_respects_rng_stream(self):
        rng = np.random.default_rng(9)
        a = make_molecule(rng)
        b = make_molecule(rng)      # stream advances: different molecule
        assert (a.gt.coords.shape != b.gt.coords.shape
                or np.abs(a.gt.coords - b.gt.coords).max() > 0)

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_conformers_own_separate_arrays(self, sigma):
        """The reference and the truths are rows of one stack when built;
        each conformer gets its own array, so a write to one reaches no other."""
        mol = make_corpus(1, 3, sigma=sigma)[0]
        arrays = [mol.gt.coords, mol.ref.coords] + [t.coords for t in mol.truth_ensemble]
        for k, a in enumerate(arrays):
            assert a.flags.owndata and a.flags.c_contiguous
            before = [b.copy() for b in arrays]
            a[...] += 1.0
            for m, b in enumerate(arrays):
                if m != k:
                    np.testing.assert_array_equal(b, before[m])


class TestSettingsFailByName:
    @pytest.mark.parametrize("kwargs,message", [
        ({"n_truth": -1}, "n_truth must be at least 0, got -1"),
        ({"sigma": -1.0}, "sigma must be finite and at least 0, got -1.0"),
        ({"sigma": float("nan")}, "sigma must be finite and at least 0, got nan"),
        ({"sigma": float("inf")}, "sigma must be finite and at least 0, got inf"),
        ({"torsion_scale": float("nan")}, "torsion_scale must be finite, got nan"),
        ({"torsion_scale": float("-inf")}, "torsion_scale must be finite, got -inf"),
    ])
    @pytest.mark.parametrize("build", ["make_corpus", "make_molecule"])
    def test_invalid_setting_raises(self, build, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            if build == "make_corpus":
                make_corpus(1, 0, **kwargs)
            else:
                make_molecule(np.random.default_rng(0), **kwargs)

    def test_empty_corpus_still_checks(self):
        with pytest.raises(ValueError, match="n_truth"):
            make_corpus(0, 0, n_truth=-2)


# -- scalar reference builder ------------------------------------------------------
# The corpus builder atom by atom and pair by pair: one np.linalg.norm per
# placed atom in the clash check, one conformer after another with its own
# angle draws, one Rodrigues matrix per bond and conformer, one rot @ v per
# turned atom, a fresh BFS per torsion and a Python filter of bonded pairs.
# make_corpus must equal it bit for bit.

def _scalar_rotation(axis, angle):
    """Rodrigues' rotation matrix about ``axis`` by ``angle``."""
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def _scalar_place_atom(coords, anchor, length, rng, min_sep=0.9):
    for _ in range(200):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        pos = anchor + length * direction
        if all(np.linalg.norm(pos - c) > min_sep for c in coords):
            return pos
    return pos


def _scalar_component_side(n, bonds, severed, side):
    adj = [[] for _ in range(n)]
    for i, j in bonds:
        if {i, j} == set(severed):
            continue
        adj[i].append(j)
        adj[j].append(i)
    seen = {side}
    stack = [side]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _scalar_apply_torsions(coords, graph, angles):
    out = coords.copy()
    bond_pairs = [(b.i, b.j) for b in graph.bonds]
    for bond_idx, angle in angles.items():
        b = graph.bonds[bond_idx]
        side = _scalar_component_side(graph.n_atoms, bond_pairs, (b.i, b.j), b.j)
        rot = _scalar_rotation(out[b.j] - out[b.i], angle)
        pivot = out[b.i]
        for a in side:
            out[a] = rot @ (out[a] - pivot) + pivot
    return out


def _scalar_embed(elements, bonds, rng):
    adj = {k: [] for k in range(len(elements))}
    for i, j in bonds:
        adj[i].append(j)
        adj[j].append(i)
    stack = [0]
    coord_map = {0: np.zeros(3)}
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in coord_map:
                continue
            length = 1.0 if "H" in (elements[v], elements[w]) else 1.5
            coord_map[w] = _scalar_place_atom(list(coord_map.values()), coord_map[v],
                                           length, rng)
            stack.append(w)
    return np.stack([coord_map[k] for k in range(len(elements))])


def _scalar_molecule(rng, sigma=0.3, n_truth=5, torsion_scale=1.0,
                     rotatable=find_rotatable_bonds):
    """gt, ref and truth coordinates, aux edges and bead assignment; one
    variant after another, each with its own angle draws."""
    elements, bond_pairs, _ = _build_topology(rng)
    heavy_deg = [0] * len(elements)
    for i, j in bond_pairs:
        heavy_deg[i] += elements[j] != "H"
        heavy_deg[j] += elements[i] != "H"
    atoms = [Atom(el, 0, heavy_deg[k], False) for k, el in enumerate(elements)]
    bonds = [Bond(i, j, "single") for i, j in bond_pairs]
    gt = _scalar_embed(elements, bond_pairs, rng)
    bare = MolecularGraph(atoms, bonds)
    rot = rotatable(bare)

    def variant(noise_sigma):
        angles = {idx: torsion_scale * float(rng.uniform(-np.pi, np.pi)) for idx in rot}
        out = _scalar_apply_torsions(gt, bare, angles)
        if noise_sigma > 0:
            out = out + rng.normal(0.0, noise_sigma, size=out.shape)
        return out

    ref = variant(sigma)
    truth = [variant(0.0) for _ in range(n_truth)]
    bonded = {b.pair for b in bonds}
    aux = [(int(i), int(j)) for i, j in pairs_within_cutoff(ref, AUX_CUTOFF)
           if (int(i), int(j)) not in bonded]
    mapping = coarse_grain(MolecularGraph(atoms, bonds, aux), Conformer(ref))
    return gt, ref, truth, tuple(aux), tuple(mapping.assignment)


class TestScalarReference:
    @staticmethod
    def assert_equal_bytes(mol, want):
        gt, ref, truth, aux, assignment = want
        assert mol.gt.coords.tobytes() == gt.tobytes()
        assert mol.ref.coords.tobytes() == ref.tobytes()
        assert len(mol.truth_ensemble) == len(truth)
        for t, w in zip(mol.truth_ensemble, truth):
            assert t.coords.tobytes() == w.tobytes()
        assert mol.graph.aux_edges == aux
        assert tuple(mol.mapping.assignment) == assignment

    @pytest.mark.parametrize("settings", [
        {}, {"n_truth": 16}, {"sigma": 0.0, "torsion_scale": 0.5},
        {"sigma": 0.0}, {"n_truth": 0}, {"n_truth": 1}, {"torsion_scale": 0.5},
        {"sigma": 0.0, "torsion_scale": 0.0}])
    def test_make_corpus_equals_scalar_builder(self, settings):
        """Bytes equal, signed zeros included, and the generator left in the
        same state after every molecule."""
        for seed in range(25):
            rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for mol in make_corpus(2, seed, **settings):
                self.assert_equal_bytes(mol, _scalar_molecule(scalar_rng, **settings))
                make_molecule(rng, **settings)   # the same draws, to read the state
                assert rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_molecule_without_rotatable_bond(self, monkeypatch, sigma):
        """No bond to turn: the reference is the exact conformer plus its
        noise, and every truth is the exact conformer."""
        monkeypatch.setattr(corpus, "find_rotatable_bonds", lambda graph: [])
        for seed in range(5):
            rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            mol = make_molecule(rng, sigma=sigma)
            want = _scalar_molecule(scalar_rng, sigma=sigma, rotatable=lambda graph: [])
            self.assert_equal_bytes(mol, want)
            assert rng.bit_generator.state == scalar_rng.bit_generator.state
            for t in mol.truth_ensemble:
                assert t.coords.tobytes() == mol.gt.coords.tobytes()
