"""Backmapping decoder: reference anchoring, channel selection semantics,
autoregressive bookkeeping, decode blocks, equivariance of full generation,
the per-store prior cache of sampling."""

import contextlib
import copy
import dataclasses
import gc
import re
import weakref

import numpy as np
import pytest

from coarsegen import decoder, topology
from coarsegen.autodiff import Tensor, backward, no_grad
from coarsegen.coarsen import CGMapping
from coarsegen.corpus import ToyMolecule, make_corpus
from coarsegen.decoder import (channel_selection, decode, decode_blocks, generate,
                               generate_ensemble)
from coarsegen.geometry import random_rotation
from coarsegen.molio import Conformer, MolecularGraph
from coarsegen.nn import ModelConfig
from coarsegen.params import ParameterStore
from coarsegen.train import RunConfig, molecule_loss
from tests.conftest import butane_like

RNG = np.random.default_rng(11)


@pytest.fixture
def cfg():
    return ModelConfig(hidden_dim=8, latent_channels=4, layers=2)


@pytest.fixture
def store():
    return ParameterStore(seed=0)


@pytest.fixture
def mol(cfg):
    graph, mapping, gt, ref = butane_like()
    order = topology.bead_order(graph, mapping, cfg.aux_cutoff)
    return graph, mapping, gt, ref, order


def latent_for(mapping, cfg, seed=0):
    """A one-draw (1, beads, F, 3) latent stack."""
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((1, mapping.n_beads, cfg.latent_channels, 3)))


class TestChannelSelection:
    def test_shapes_and_row_placement(self, mol, cfg):
        graph, mapping, _, ref, _ = mol
        z = latent_for(mapping, cfg)
        out = channel_selection(z, mapping, ref)
        assert out.shape == (1, graph.n_atoms, 3)

    def test_single_channel_degenerate_softmax(self, mol):
        """With one latent channel the attention weight is identically 1 and
        every member atom receives exactly its bead's single channel vector."""
        graph, mapping, _, ref, _ = mol
        z = Tensor(RNG.standard_normal((1, mapping.n_beads, 1, 3)))
        out = channel_selection(z, mapping, ref)
        for atom in range(graph.n_atoms):
            bead = mapping.assignment[atom]
            np.testing.assert_allclose(out.data[0, atom], z.data[0, bead, 0],
                                       atol=1e-14)

    def test_bead_count_mismatch(self, mol, cfg):
        _, mapping, _, ref, _ = mol
        z = Tensor(RNG.standard_normal((1, mapping.n_beads + 1,
                                        cfg.latent_channels, 3)))
        with pytest.raises(ValueError):
            channel_selection(z, mapping, ref)

    def test_matches_softmax_reimplementation(self, mol, cfg):
        graph, mapping, _, ref, _ = mol
        z = latent_for(mapping, cfg)
        out = channel_selection(z, mapping, ref)
        for atom in range(graph.n_atoms):
            keys = z.data[0, mapping.assignment[atom]]     # F x 3
            scores = ref[atom] @ keys.T / np.sqrt(3.0)
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            np.testing.assert_allclose(out.data[0, atom], w @ keys, atol=1e-12)


class TestReferenceAnchoring:
    def zero_update_nets(self, store, cfg):
        for suffix in ("w0", "b0", "w1", "b1"):
            for layer in range(cfg.layers):
                name = f"dec.l{layer}.phi_x.{suffix}"
                if name in store.names():
                    store[name].data[:] = 0.0

    def test_zeroed_gates_return_reference_exactly_ar(self, mol, cfg, store):
        graph, mapping, _, ref, order = mol
        z = latent_for(mapping, cfg)
        blocks = decode_blocks(mapping, "ar", order)
        decode(store, cfg, z, mapping, ref, graph, blocks)  # create params
        self.zero_update_nets(store, cfg)
        out = decode(store, cfg, z, mapping, ref, graph, blocks)
        np.testing.assert_array_equal(out.data[0], ref)

    def test_zeroed_gates_return_reference_exactly_ot(self, mol, cfg, store):
        graph, mapping, _, ref, _ = mol
        z = latent_for(mapping, cfg)
        blocks = decode_blocks(mapping, "ot")
        decode(store, cfg, z, mapping, ref, graph, blocks)
        self.zero_update_nets(store, cfg)
        out = decode(store, cfg, z, mapping, ref, graph, blocks)
        np.testing.assert_array_equal(out.data[0], ref)


class TestAutoregressiveBookkeeping:
    @pytest.mark.parametrize("make_order", [
        lambda order: order[:-1],                   # a bead left out
        lambda order: order + order[:1],            # a bead repeated
        lambda order: [order[0]] * len(order),      # one bead in every slot
    ], ids=["missing", "repeated", "same"])
    def test_order_must_be_permutation(self, mol, cfg, store, make_order):
        """An order that is not a permutation of the beads raises instead of
        returning a conformer with missing or duplicated atoms."""
        graph, mapping, _, ref, order = mol
        bad = make_order(list(order))
        with pytest.raises(ValueError, match="permutation"):
            decode_blocks(mapping, "ar", bad)
        with pytest.raises(ValueError, match="permutation"):
            generate(store, cfg, graph, mapping, ref, bad, np.random.default_rng(0))

    def test_full_pass_covers_all_atoms(self, mol, cfg, store):
        graph, mapping, _, ref, order = mol
        z = latent_for(mapping, cfg)
        out = decode(store, cfg, z, mapping, ref, graph,
                     decode_blocks(mapping, "ar", order))
        assert out.shape == (1, graph.n_atoms, 3)
        assert np.isfinite(out.data).all()

    def test_teacher_forcing_changes_later_beads_only(self, mol, cfg, store):
        graph, mapping, gt, ref, order = mol
        z = latent_for(mapping, cfg)
        blocks = decode_blocks(mapping, "ar", order)
        free = decode(store, cfg, z, mapping, ref, graph, blocks)
        forced = decode(store, cfg, z, mapping, ref, graph, blocks,
                        teacher_coords=gt)
        first = sorted(mapping.members[order[0]])
        np.testing.assert_array_equal(free.data[0, first], forced.data[0, first])


class TestDecodeOt:
    def test_shape_and_finite(self, mol, cfg, store):
        graph, mapping, _, ref, _ = mol
        out = decode(store, cfg, latent_for(mapping, cfg), mapping, ref,
                     graph, decode_blocks(mapping, "ot"))
        assert out.shape == (1, graph.n_atoms, 3)
        assert np.isfinite(out.data).all()

    def test_stacked_latents_decode_as_single_draws(self, mol, cfg, store):
        """Each slice of a 3-draw decode is its one-draw decode bit for bit:
        in one block of every atom, with a tape or without, and in the
        autoregressive blocks, which take several draws only without a
        tape (every draw's attention key is then its own)."""
        graph, mapping, _, ref, order = mol
        zs = np.concatenate([latent_for(mapping, cfg, seed).data for seed in range(3)])
        for blocks, modes in [(decode_blocks(mapping, "ot"), (contextlib.nullcontext, no_grad)),
                              (decode_blocks(mapping, "ar", order), (no_grad,))]:
            for mode in modes:
                with mode():
                    stacked = decode(store, cfg, Tensor(zs), mapping, ref, graph, blocks)
                    for k in range(3):
                        single = decode(store, cfg, Tensor(zs[k:k + 1]), mapping, ref,
                                        graph, blocks)
                        assert np.array_equal(stacked.data[k], single.data[0])
        with pytest.raises(ValueError, match="must hold one path for queries"):
            decode(store, cfg, Tensor(zs), mapping, ref, graph,
                   decode_blocks(mapping, "ar", order))

    def test_latent_needs_the_draws_axis(self, mol, cfg, store):
        graph, mapping, _, ref, _ = mol
        z = latent_for(mapping, cfg).data[0]
        with pytest.raises(ValueError, match=re.escape(f"got shape {z.shape}")):
            decode(store, cfg, Tensor(z), mapping, ref, graph, decode_blocks(mapping, "ot"))


class TestBlocks:
    def test_layouts(self, mol):
        graph, mapping, _, _, order = mol
        assert decode_blocks(mapping, "ot") == [tuple(range(graph.n_atoms))]
        assert decode_blocks(mapping, "ar", order) == [
            tuple(sorted(mapping.members[bead])) for bead in order]

    @pytest.mark.parametrize("make_blocks", [
        lambda blocks: blocks[:-1],                               # a block left out
        lambda blocks: [blocks[0][1:], *blocks[1:]],              # an atom left out
        lambda blocks: blocks + blocks[:1],                       # a block repeated
        lambda blocks: [blocks[0] + blocks[1][:1], *blocks[1:]],  # an atom repeated
    ], ids=["block-missing", "atom-missing", "block-repeated", "atom-repeated"])
    def test_blocks_must_partition_atoms(self, mol, cfg, store, make_blocks):
        """Blocks that leave an atom out or hold one twice raise instead of
        returning a conformer with missing or duplicated atoms."""
        graph, mapping, _, ref, order = mol
        bad = make_blocks(decode_blocks(mapping, "ar", order))
        with pytest.raises(ValueError, match="exactly once"):
            decode(store, cfg, latent_for(mapping, cfg), mapping, ref, graph, bad)

    def test_whole_molecule_block_in_any_order(self, mol, cfg, store):
        """One block of every atom in another order takes the gathering path
        and gives the same coordinates as the atom-order block."""
        graph, mapping, _, ref, _ = mol
        z = latent_for(mapping, cfg)
        ordered = decode(store, cfg, z, mapping, ref, graph,
                         decode_blocks(mapping, "ot"))
        reversed_ = decode(store, cfg, z, mapping, ref, graph,
                           [tuple(reversed(range(graph.n_atoms)))])
        np.testing.assert_allclose(reversed_.data, ordered.data, atol=1e-12)


class TestGenerate:
    def test_unknown_mode(self, mol, cfg, store):
        graph, mapping, _, ref, order = mol
        with pytest.raises(ValueError, match="mode"):
            generate(store, cfg, graph, mapping, ref, order,
                     np.random.default_rng(0), mode="diffusion")

    def test_matched_noise_equivariance(self, mol, cfg, store):
        graph, mapping, _, ref, order = mol
        noise = RNG.standard_normal((mapping.n_beads, cfg.latent_channels, 3))
        base = generate(store, cfg, graph, mapping, ref, order,
                        np.random.default_rng(0), noise=noise).coords
        rot = random_rotation(RNG)
        shift = np.array([4.0, -1.0, 2.5])
        moved = generate(store, cfg, graph, mapping, ref @ rot.T + shift,
                         order, np.random.default_rng(0),
                         noise=noise @ rot.T).coords
        np.testing.assert_allclose(moved, base @ rot.T + shift, atol=1e-9)

    @pytest.mark.parametrize("shape", [(3,), (1, "F", 3)])
    def test_wrong_noise_shape_rejected(self, mol, cfg, store, shape):
        """Noise that would broadcast against the (beads, F, 3) latent is an
        error, not a conformer."""
        graph, mapping, _, ref, order = mol
        shape = tuple(cfg.latent_channels if d == "F" else d for d in shape)
        want = (1, mapping.n_beads, cfg.latent_channels, 3)
        with pytest.raises(ValueError, match=re.escape(f"{want}, got {(1,) + shape}")):
            generate(store, cfg, graph, mapping, ref, order,
                     np.random.default_rng(0), noise=np.ones(shape))

    def test_ensemble_noise_needs_a_row_per_draw(self, mol, cfg, store):
        graph, mapping, _, ref, order = mol
        noise = np.ones((2, mapping.n_beads, cfg.latent_channels, 3))
        with pytest.raises(ValueError, match="noise must have shape"):
            generate_ensemble(store, cfg, graph, mapping, ref, order,
                              np.random.default_rng(0), 3, noise=noise)

    def test_deterministic_given_rng_seed(self, mol, cfg, store):
        graph, mapping, _, ref, order = mol
        a = generate(store, cfg, graph, mapping, ref, order,
                     np.random.default_rng(3)).coords
        b = generate(store, cfg, graph, mapping, ref, order,
                     np.random.default_rng(3)).coords
        np.testing.assert_array_equal(a, b)

    def test_ensemble_equals_successive_generates(self, mol, cfg, monkeypatch):
        """In both decode modes the draws of one ensemble are the successive
        single draws bit for bit, and all of them decode in one call."""
        graph, mapping, _, ref, order = mol
        decodes = []
        original = decoder.decode

        def counted(*args, **kwargs):
            decodes.append(args[2].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(decoder, "decode", counted)
        for mode in ("ar", "ot"):
            store = ParameterStore(seed=4)
            rng = np.random.default_rng(8)
            one_by_one = [generate(store, cfg, graph, mapping, ref, order, rng,
                                   mode=mode).coords for _ in range(4)]
            decodes.clear()
            batch = generate_ensemble(ParameterStore(seed=4), cfg, graph, mapping, ref,
                                      order, np.random.default_rng(8), 4, mode=mode)
            assert decodes == [(4, mapping.n_beads, cfg.latent_channels, 3)]
            assert len(batch) == 4
            for a, b in zip(one_by_one, batch):
                assert np.array_equal(a, b.coords)

    def test_ot_mode_runs(self, mol, cfg, store):
        graph, mapping, _, ref, order = mol
        out = generate(store, cfg, graph, mapping, ref, order,
                       np.random.default_rng(0), mode="ot")
        assert out.coords.shape == (graph.n_atoms, 3)

    @pytest.mark.parametrize("num", [0, -3])
    def test_num_below_one_rejected_before_encoding(self, mol, cfg, store, num,
                                                    monkeypatch):
        graph, mapping, _, ref, order = mol
        monkeypatch.setattr(decoder, "encode_reference", None)   # any call fails
        with pytest.raises(ValueError, match=f"num must be at least 1, got {num}"):
            generate_ensemble(store, cfg, graph, mapping, ref, order,
                              np.random.default_rng(0), num)


def fresh_copy(store: ParameterStore) -> ParameterStore:
    """A new store holding copies of ``store``'s parameter values."""
    fresh = ParameterStore(seed=99)
    fresh.params = {n: Tensor(t.data.copy(), requires_grad=True)
                    for n, t in store.params.items()}
    return fresh


def with_element(graph: MolecularGraph, atom: int, element: str) -> MolecularGraph:
    atoms = list(graph.atoms)
    atoms[atom] = dataclasses.replace(atoms[atom], element=element)
    return MolecularGraph(atoms, graph.bonds, graph.aux_edges)


def regrouped(graph: MolecularGraph, mapping: CGMapping, ref: np.ndarray) -> CGMapping:
    """``mapping`` with one atom of a severed bond moved into the bead across
    the bond, from a bead it does not empty."""
    assignment = list(mapping.assignment)
    bonds = [graph.bonds[k] for k in mapping.severed_bonds]
    ends = [(bd.i, bd.j) for bd in bonds] + [(bd.j, bd.i) for bd in bonds]
    moved, target = next((a, b) for a, b in ends if len(mapping.members[assignment[a]]) > 1)
    assignment[moved] = assignment[target]
    members = [[a for a, b in enumerate(assignment) if b == bead]
               for bead in range(mapping.n_beads)]
    severed = [k for k, bd in enumerate(graph.bonds) if assignment[bd.i] != assignment[bd.j]]
    return CGMapping(assignment, members, np.array([ref[m].mean(axis=0) for m in members]),
                     severed)


def write_enc(store, cfg, graph, mapping, ref, order):
    store["enc.main.emb.w"].data[...] += 0.5
    return cfg, graph, mapping, ref, order


def write_prior(store, cfg, graph, mapping, ref, order):
    store["lat.prior.vn.w0"].data[...] *= 1.5
    return cfg, graph, mapping, ref, order


def gradient_step(step):
    def change(store, cfg, graph, mapping, ref, order):
        for t in store.params.values():
            t.grad = np.full(t.data.shape, 0.3)
        getattr(store, step)(0.05)
        return cfg, graph, mapping, ref, order
    return change


def replace_tensor(store, cfg, graph, mapping, ref, order):
    name = "lat.prior.lv.b1"
    store.params[name] = Tensor(store[name].data + 1.0, requires_grad=True)
    return cfg, graph, mapping, ref, order


def other_molecule(store, cfg, graph, mapping, ref, order):
    mol = make_corpus(1, 3)[0]
    return (cfg, mol.graph, mol.mapping, mol.ref.coords,
            topology.bead_order(mol.graph, mol.mapping, cfg.aux_cutoff))


def other_graph(store, cfg, graph, mapping, ref, order):
    return cfg, with_element(graph, 0, "N"), mapping, ref, order


def other_mapping(store, cfg, graph, mapping, ref, order):
    moved = regrouped(graph, mapping, ref)
    return cfg, graph, moved, ref, topology.bead_order(graph, moved, cfg.aux_cutoff)


def other_cutoff(store, cfg, graph, mapping, ref, order):
    return dataclasses.replace(cfg, aux_cutoff=2.0), graph, mapping, ref, order


def rotated(store, cfg, graph, mapping, ref, order):
    return cfg, graph, mapping, ref @ random_rotation(np.random.default_rng(1)).T, order


def translated(store, cfg, graph, mapping, ref, order):
    return cfg, graph, mapping, ref + np.array([0.3, -7.1, 2.9]), order


class TestPriorCache:
    """Successive draws for one store, molecule and reference encode the
    reference once, and any change to what the prior reads computes it
    afresh: every draw has the bits of a draw from a fresh store."""

    @pytest.fixture
    def mol(self, cfg):
        """Four beads, whose bead graph changes with the cutoff."""
        mol = make_corpus(1, 1)[0]
        order = topology.bead_order(mol.graph, mol.mapping, cfg.aux_cutoff)
        return mol.graph, mol.mapping, mol.gt.coords, mol.ref.coords, order

    @pytest.fixture
    def encodes(self, monkeypatch):
        calls = []
        original = decoder.encode_reference

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(decoder, "encode_reference", counted)
        return calls

    def test_successive_draws_encode_once(self, mol, cfg, encodes):
        graph, mapping, _, ref, order = mol
        rng = np.random.default_rng(8)
        store = ParameterStore(seed=4)
        one_by_one = [generate(store, cfg, graph, mapping, ref, order, rng).coords
                      for _ in range(32)]
        assert len(encodes) == 1
        batch = generate_ensemble(ParameterStore(seed=4), cfg, graph, mapping, ref, order,
                                  np.random.default_rng(8), 32)
        assert len(encodes) == 2
        for a, b in zip(one_by_one, batch):
            assert np.array_equal(a, b.coords)

    def test_modes_share_the_prior(self, mol, cfg, encodes):
        graph, mapping, _, ref, order = mol
        store = ParameterStore(seed=4)
        for mode in ("ar", "ot", "ar"):
            generate(store, cfg, graph, mapping, ref, order, np.random.default_rng(0),
                     mode=mode)
        assert len(encodes) == 1

    @pytest.mark.parametrize("change", [
        write_enc, write_prior, gradient_step("adam_step"), gradient_step("sgd_step"),
        replace_tensor, other_molecule, other_graph, other_mapping, other_cutoff,
        rotated, translated])
    def test_change_gives_cold_bits(self, mol, cfg, change, encodes):
        graph, mapping, _, ref, order = mol
        store = ParameterStore(seed=4)
        generate(store, cfg, graph, mapping, ref, order, np.random.default_rng(0))
        before = generate(store, cfg, graph, mapping, ref, order,
                          np.random.default_rng(1)).coords
        assert len(encodes) == 1
        args = change(store, cfg, graph, mapping, ref, order)
        warm = generate(store, *args, np.random.default_rng(1)).coords
        cold = generate(fresh_copy(store), *args, np.random.default_rng(1)).coords
        assert np.array_equal(warm, cold)
        if change is not translated:      # its centred reference may be the same bits
            assert len(encodes) == 3
            assert warm.shape != before.shape or not np.allclose(warm, before, atol=1e-6)

    def test_stores_share_no_entry(self, mol, cfg, encodes):
        graph, mapping, _, ref, order = mol
        store = ParameterStore(seed=4)
        twin = ParameterStore(seed=4)
        for s in (store, twin):
            generate(s, cfg, graph, mapping, ref, order, np.random.default_rng(0))
        assert len(encodes) == 2
        copied = copy.deepcopy(store)
        generate(copied, cfg, graph, mapping, ref, order, np.random.default_rng(0))
        assert len(encodes) == 3
        for s in (store, twin, copied):
            generate(s, cfg, graph, mapping, ref, order, np.random.default_rng(0))
        assert len(encodes) == 3

    def test_keeps_no_store_alive(self, mol, cfg):
        graph, mapping, _, ref, order = mol
        store = ParameterStore(seed=4)
        generate(store, cfg, graph, mapping, ref, order, np.random.default_rng(0))
        alive = weakref.ref(store)
        del store
        gc.collect()
        assert alive() is None

    def test_cached_prior_is_read_only_and_records_no_tape(self, mol, cfg, monkeypatch):
        graph, mapping, _, ref, order = mol
        priors = []
        original = decoder.prior_params

        def kept(*args):
            priors.append(original(*args))
            return priors[-1]

        monkeypatch.setattr(decoder, "prior_params", kept)
        store = ParameterStore(seed=4)
        for _ in range(3):
            generate(store, cfg, graph, mapping, ref, order, np.random.default_rng(0))
        (prior,) = priors
        for t in (prior.mu, prior.log_var):
            assert not t.requires_grad and t._parents == () and t._backward_fn is None
            assert not t.data.flags.writeable
            with pytest.raises(ValueError):
                t.data[...] = 0.0


class TestNoGradSampling:
    """``generate_ensemble`` draws under ``no_grad``; patching that out to a
    null context gives the same draws, taken one at a time while
    recording."""

    def draw(self, mol, cfg, mode, recorded=False):
        """Three draws: one ensemble, or while recording three successive
        one-draw ensembles, since under a tape an attention key holds one
        path (the autoregressive decode of one draw)."""
        graph, mapping, _, ref, order = mol
        store = ParameterStore(seed=6)
        rng = np.random.default_rng(9)
        if recorded:
            confs = [generate(store, cfg, graph, mapping, ref, order, rng, mode=mode)
                     for _ in range(3)]
        else:
            confs = generate_ensemble(store, cfg, graph, mapping, ref, order, rng, 3,
                                      mode=mode)
        return store, [c.coords for c in confs]

    @pytest.mark.parametrize("mode", ["ar", "ot"])
    def test_draws_equal_recorded_draws(self, mol, cfg, mode, monkeypatch):
        _, quiet = self.draw(mol, cfg, mode)
        monkeypatch.setattr(decoder, "no_grad", contextlib.nullcontext)
        _, recorded = self.draw(mol, cfg, mode, recorded=True)
        for a, b in zip(quiet, recorded):
            assert np.array_equal(a, b)

    def test_parameters_created_inside_still_train(self, mol, cfg, monkeypatch):
        graph, mapping, gt, ref, _ = mol
        quiet, _ = self.draw(mol, cfg, "ar")
        monkeypatch.setattr(decoder, "no_grad", contextlib.nullcontext)
        recorded, _ = self.draw(mol, cfg, "ar", recorded=True)
        assert quiet.names() == recorded.names()
        assert all(quiet[n].requires_grad for n in quiet.names())

        toy = ToyMolecule(graph, Conformer(gt), Conformer(ref), [], mapping)
        run = RunConfig(preset="elbo-ar")
        for store in (quiet, recorded):
            loss, _ = molecule_loss(store, cfg, toy, run, 0,
                                    np.random.default_rng(2))
            backward(loss)
        # the bead-feature update of the last encoder layer and the last
        # decoder layer's attention on this two-bead molecule reach no loss,
        # so their parameters get no gradient in either store
        trained = [n for n in recorded.names() if recorded[n].grad is not None]
        assert trained
        assert trained == [n for n in quiet.names() if quiet[n].grad is not None]
        for name in trained:
            assert np.array_equal(quiet[name].grad, recorded[name].grad), name
