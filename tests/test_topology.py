"""Per-molecule topology cache: built once, read-only, and never stale, plus
the paused garbage collector the tape relies on."""

import dataclasses
import gc

import numpy as np
import pytest

from coarsegen import topology
from coarsegen.autodiff import gc_paused
from coarsegen.coarsen import build_bead_graph, order_beads
from coarsegen.corpus import make_corpus
from coarsegen.decoder import decode, decode_blocks, generate_ensemble
from coarsegen.encoder import center, encode
from coarsegen.losses import distance_loss
from coarsegen.molio import MolecularGraph
from coarsegen.nn import ModelConfig
from coarsegen.params import ParameterStore
from coarsegen.train import RunConfig, train
from tests.conftest import butane_like

BUILDERS = ("_build_atom_features", "_build_directed_edges", "_build_hop12_index",
            "_build_local_edges", "_build_pooling_index", "_build_bead_edges",
            "_build_bead_order")


@pytest.fixture
def builds(monkeypatch):
    """Count calls of every topology builder."""
    counts = {name: 0 for name in BUILDERS}
    for name in BUILDERS:
        original = getattr(topology, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(topology, name, counted)
    return counts


def encode_and_decode(mol, cfg, store):
    gt_c, ref_c = center(mol.gt.coords)[0], center(mol.ref.coords)[0]
    z_gt, _ = encode(store, cfg, mol.graph, mol.mapping, [gt_c], ref_c)
    z = z_gt.reshape(z_gt.shape[1:])
    order = topology.bead_order(mol.graph, mol.mapping, cfg.aux_cutoff)
    coords = decode(store, cfg, z, mol.mapping, ref_c, mol.graph,
                    decode_blocks(mol.mapping, "ar", order))
    decode(store, cfg, z, mol.mapping, ref_c, mol.graph, decode_blocks(mol.mapping, "ot"))
    distance_loss(coords, gt_c, mol.graph)


class TestTopologyCache:
    def test_second_pass_rebuilds_nothing(self, builds):
        mol = make_corpus(1, 3)[0]
        cfg = ModelConfig(hidden_dim=8, latent_channels=4, layers=2)
        store = ParameterStore(seed=0)
        encode_and_decode(mol, cfg, store)
        first = dict(builds)
        assert all(first.values()), first
        # one subgraph per bead for the AR decoder, one for all atoms
        assert first["_build_local_edges"] == mol.mapping.n_beads + 1
        encode_and_decode(mol, cfg, store)
        assert builds == first

    def test_cached_arrays_are_read_only(self):
        graph, mapping, gt, ref = butane_like()
        edges = topology.directed_edges(graph)
        arrays = [topology.atom_features(graph), edges.src, edges.dst, edges.feats,
                  edges.inv_degree, *topology.hop12_index(graph),
                  *topology.local_edges(graph, [0, 1]), topology.torsion_side(graph, 1),
                  *topology.pooling_index(mapping),
                  topology.bead_edges(graph, mapping, 4.0).src, mapping.bead_centroids]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        assert isinstance(topology.bead_order(graph, mapping, 4.0), tuple)

    def test_graph_and_mapping_are_frozen(self):
        graph, mapping, _, _ = butane_like()
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.bonds = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            mapping.assignment = ()
        assert isinstance(graph.bonds, tuple) and isinstance(mapping.members, tuple)

    def test_bead_edges_follow_the_graph(self):
        """The bead edges cached on a mapping are rebuilt for another graph."""
        graph, mapping, _, _ = butane_like()
        bonded = topology.bead_edges(graph, mapping, 0.1)
        assert len(bonded.src) == 2          # the severed bond, both directions
        # same bonds in another order: severed bond 1 is now inside bead 1
        shuffled = MolecularGraph(graph.atoms, graph.bonds[1:] + graph.bonds[:1])
        assert len(topology.bead_edges(shuffled, mapping, 0.1).src) == 0
        assert topology.bead_edges(graph, mapping, 0.1).src.tolist() == bonded.src.tolist()

    @pytest.mark.parametrize("cutoff", [0.1, 4.0])
    def test_bead_order_matches_order_beads(self, cutoff):
        for mol in make_corpus(6, 2):
            graph, mapping = mol.graph, mol.mapping
            want = order_beads(mapping, build_bead_graph(graph, mapping, cutoff))
            assert topology.bead_order(graph, mapping, cutoff) == tuple(want)

    def test_bead_order_follows_the_graph(self):
        """The order cached on a mapping is rebuilt for another graph, and a
        disconnected bead graph raises on every call."""
        graph, mapping, _, _ = butane_like()
        assert topology.bead_order(graph, mapping, 0.1) == (0, 1)
        # same bonds in another order: no severed bond joins the two beads
        shuffled = MolecularGraph(graph.atoms, graph.bonds[1:] + graph.bonds[:1])
        for _ in range(2):
            with pytest.raises(ValueError, match="disconnected"):
                topology.bead_order(shuffled, mapping, 0.1)
        assert topology.bead_order(graph, mapping, 0.1) == (0, 1)

    def test_local_edges_match_subgraph(self):
        graph, _, _, _ = butane_like()
        src, dst, inv = topology.local_edges(graph, [1, 2, 3])
        pairs = {(int(s), int(d)) for s, d in zip(src, dst)}
        want = set()
        for i, j in [(b.i, b.j) for b in graph.bonds] + list(graph.aux_edges):
            if i >= 1 and j >= 1:
                want |= {(i - 1, j - 1), (j - 1, i - 1)}
        assert pairs == want
        np.testing.assert_array_equal(inv, 1.0 / np.bincount(dst, minlength=3))


def cycle_garbage(fn) -> int:
    """Objects in reference cycles that ``fn()`` leaves behind. The collector
    stays off meanwhile, so no automatic collection frees them first."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if was:
            gc.enable()


class TestGcPaused:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_caller_state(self, enabled):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with gc_paused():
                assert not gc.isenabled()
            assert gc.isenabled() == enabled
            with pytest.raises(RuntimeError):
                with gc_paused():
                    raise RuntimeError("boom")
            assert gc.isenabled() == enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_training_step_leaves_no_cycles(self):
        """The collector is paused during a step; the tape must then hold no
        reference cycle (a closure that captures its own output would)."""
        corpus = make_corpus(2, 0, n_truth=3)
        for preset in ("ot", "elbo-ar"):
            run = RunConfig(preset=preset, epochs=1, batch_size=2, corpus_size=2,
                            layers=1, hidden_dim=8, latent_channels=4,
                            optimizer="adam")
            assert cycle_garbage(lambda: train(run, corpus=corpus)) == 0, preset

    def test_generate_ensemble_leaves_no_cycles(self):
        graph, mapping, _, ref = butane_like()
        cfg = ModelConfig(hidden_dim=8, latent_channels=4, layers=2)
        store = ParameterStore(seed=0)
        order = topology.bead_order(graph, mapping, 4.0)
        rng = np.random.default_rng(0)
        for mode in ("ar", "ot"):
            assert cycle_garbage(lambda: generate_ensemble(
                store, cfg, graph, mapping, ref, order, rng, 3, mode=mode)) == 0, mode
