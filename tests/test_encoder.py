"""Hierarchical path-stacked encoder: equivariance, translation invariance,
one-way information flow between the paths, one layer call per update."""

import numpy as np
import pytest

from coarsegen import encoder
from coarsegen.encoder import center, encode, encode_reference
from coarsegen.geometry import random_rotation
from coarsegen.nn import ModelConfig
from coarsegen.params import ParameterStore
from coarsegen.topology import directed_edges
from tests.conftest import butane_like

RNG = np.random.default_rng(19)


@pytest.fixture
def cfg():
    return ModelConfig(hidden_dim=8, latent_channels=4, layers=2)


class TestDirectedEdges:
    def test_both_directions_and_features(self, micro_molecule):
        graph, *_ = micro_molecule
        edges = directed_edges(graph)
        pairs = set(zip(edges.src.tolist(), edges.dst.tolist()))
        for b in graph.bonds:
            assert (b.i, b.j) in pairs and (b.j, b.i) in pairs
        for i, j in graph.aux_edges:
            assert (i, j) in pairs and (j, i) in pairs
        covalent = 2 * len(graph.bonds)
        assert np.all(edges.feats[:covalent].sum(axis=1) == 1.0)
        assert np.all(edges.feats[covalent:] == 0.0)

    def test_inverse_degree(self, micro_molecule):
        graph, *_ = micro_molecule
        edges = directed_edges(graph)
        deg = np.bincount(edges.dst, minlength=graph.n_atoms)
        np.testing.assert_allclose(edges.inv_degree[deg > 0], 1.0 / deg[deg > 0])


class TestCenter:
    def test_centroid_removed(self):
        coords = RNG.standard_normal((6, 3)) + 5.0
        centered, centroid = center(coords)
        np.testing.assert_allclose(centered.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(centered + centroid, coords, atol=1e-12)


class TestEquivariance:
    def test_latents_rotate_with_input(self, cfg, store, micro_molecule):
        graph, mapping, gt, ref = micro_molecule
        z_gt, z_ref = encode(store, cfg, graph, mapping, [gt], ref)
        for _ in range(5):
            rot = random_rotation(RNG)
            zg2, zr2 = encode(store, cfg, graph, mapping, [gt @ rot.T], ref @ rot.T)
            np.testing.assert_allclose(zg2.data, z_gt.data @ rot.T, atol=1e-10)
            np.testing.assert_allclose(zr2.data, z_ref.data @ rot.T, atol=1e-10)

    def test_translation_invariance(self, cfg, store, micro_molecule):
        graph, mapping, gt, ref = micro_molecule
        z_gt, z_ref = encode(store, cfg, graph, mapping, [gt], ref)
        shift = np.array([3.0, -2.0, 7.0])
        zg2, zr2 = encode(store, cfg, graph, mapping, [gt + shift], ref + shift)
        np.testing.assert_allclose(zg2.data, z_gt.data, atol=1e-10)
        np.testing.assert_allclose(zr2.data, z_ref.data, atol=1e-10)

    def test_reference_only_encoding_equivariant(self, cfg, store, micro_molecule):
        graph, mapping, _, ref = micro_molecule
        z = encode_reference(store, cfg, graph, mapping, ref)
        rot = random_rotation(RNG)
        z2 = encode_reference(store, cfg, graph, mapping, ref @ rot.T)
        np.testing.assert_allclose(z2.data, z.data @ rot.T, atol=1e-10)


class TestNoLeak:
    def test_reference_latent_ignores_ground_truth(self, cfg, store, micro_molecule):
        """The approximate-conformer path must be bit-identical no matter what
        the other path sees (this is what makes the learned prior safe)."""
        graph, mapping, gt, ref = micro_molecule
        _, z_ref_a = encode(store, cfg, graph, mapping, [gt], ref)
        for seed in range(3):
            noise = np.random.default_rng(seed).standard_normal(gt.shape)
            _, z_ref_b = encode(store, cfg, graph, mapping, [gt + 5.0 * noise], ref)
            np.testing.assert_array_equal(z_ref_a.data, z_ref_b.data)

    def test_reference_path_matches_reference_only_run(self, cfg, store,
                                                       micro_molecule):
        graph, mapping, gt, ref = micro_molecule
        _, z_ref = encode(store, cfg, graph, mapping, [gt], ref)
        z_solo = encode_reference(store, cfg, graph, mapping, ref)
        np.testing.assert_array_equal(z_ref.data, z_solo.data)

    def test_ground_truth_path_does_depend_on_reference(self, cfg, store,
                                                        micro_molecule):
        graph, mapping, gt, ref = micro_molecule
        z_gt_a, _ = encode(store, cfg, graph, mapping, [gt], ref)
        z_gt_b, _ = encode(store, cfg, graph, mapping, [gt],
                           ref + RNG.standard_normal(ref.shape))
        assert np.abs(z_gt_a.data - z_gt_b.data).max() > 0


class TestDeterminismAndShapes:
    def test_shapes(self, cfg, store, micro_molecule):
        graph, mapping, gt, ref = micro_molecule
        z_gt, z_ref = encode(store, cfg, graph, mapping, [gt], ref)
        assert z_gt.shape == (1, mapping.n_beads, cfg.latent_channels, 3)
        assert z_ref.shape == z_gt.shape[1:]

    def test_bitwise_deterministic(self, cfg, store, micro_molecule):
        graph, mapping, gt, ref = micro_molecule
        a = encode(store, cfg, graph, mapping, [gt], ref)
        b = encode(store, cfg, graph, mapping, [gt], ref)
        np.testing.assert_array_equal(a[0].data, b[0].data)
        np.testing.assert_array_equal(a[1].data, b[1].data)


class TestOneStack:
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_one_call_per_update_and_layer(self, k, cfg, store, micro_molecule,
                                           monkeypatch):
        """The K truths and the reference run as one stack: each layer makes
        one fg, one pool and one cg call, whatever K."""
        graph, mapping, gt, ref = micro_molecule
        calls = {"fg_layer": 0, "pool_layer": 0, "cg_layer": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(encoder, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(encoder, name, counted)
        z_gts, z_ref = encode(store, cfg, graph, mapping, [gt + 0.1 * i for i in range(k)],
                              ref)
        assert z_gts.shape == (k, mapping.n_beads, cfg.latent_channels, 3)
        assert z_ref.shape == z_gts.shape[1:]
        assert calls == dict.fromkeys(calls, cfg.layers)


@pytest.fixture
def store():
    return ParameterStore(seed=0)


@pytest.fixture
def micro_molecule():
    return butane_like()
