"""Rigid alignment: optimality against random-rotation oracles, reflections,
degeneracy flags."""

import numpy as np
import pytest

from coarsegen.geometry import aligned_rmsd, kabsch_align, random_rotation

RNG = np.random.default_rng(11)


def rmsd_under(rot, p, q):
    pc, qc = p - p.mean(axis=0), q - q.mean(axis=0)
    return np.sqrt(np.mean(np.sum((pc @ rot.T - qc) ** 2, axis=1)))


class TestKabsch:
    def test_exact_recovery_of_rigid_motion(self):
        p = RNG.standard_normal((10, 3))
        rot = random_rotation(RNG)
        t = RNG.uniform(-5, 5, 3)
        q = p @ rot.T + t
        a = kabsch_align(p, q)
        assert a.rmsd < 1e-10
        np.testing.assert_allclose(a.rotation, rot, atol=1e-10)
        np.testing.assert_allclose(a.apply(p), q, atol=1e-10)

    def test_beats_random_rotations(self):
        for _ in range(20):
            p = RNG.standard_normal((8, 3))
            q = RNG.standard_normal((8, 3))
            best = kabsch_align(p, q).rmsd
            trials = min(rmsd_under(random_rotation(RNG), p, q)
                         for _ in range(500))
            assert best <= trials + 1e-12

    def test_reflection_input_yields_proper_rotation(self):
        p = RNG.standard_normal((8, 3))
        q = p @ np.diag([1.0, 1.0, -1.0])    # mirrored copy
        a = kabsch_align(p, q)
        assert abs(np.linalg.det(a.rotation) - 1.0) < 1e-10

    def test_rotation_always_proper_on_random_pairs(self):
        for _ in range(50):
            a = kabsch_align(RNG.standard_normal((5, 3)),
                             RNG.standard_normal((5, 3)))
            assert abs(np.linalg.det(a.rotation) - 1.0) < 1e-10
            np.testing.assert_allclose(a.rotation @ a.rotation.T, np.eye(3),
                                       atol=1e-10)

    def test_collinear_still_optimal(self):
        """Collinear points leave the rotation about their line free; the
        motion returned still maps one set onto the other."""
        p = np.outer(np.arange(4.0), np.array([1.0, 0, 0]))
        q = np.outer(np.arange(4.0), np.array([0, 1.0, 0]))
        assert kabsch_align(p, q).rmsd < 1e-10

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            kabsch_align(np.zeros((3, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            kabsch_align(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            kabsch_align(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_translation_only(self):
        p = RNG.standard_normal((5, 3))
        a = kabsch_align(p, p + np.array([1.0, 2.0, 3.0]))
        assert a.rmsd < 1e-12
        np.testing.assert_allclose(a.rotation, np.eye(3), atol=1e-8)


class TestAlignedRmsd:
    def test_symmetry(self):
        p = RNG.standard_normal((7, 3))
        q = RNG.standard_normal((7, 3))
        assert abs(aligned_rmsd(p, q) - aligned_rmsd(q, p)) < 1e-10

    def test_zero_for_identical(self):
        p = RNG.standard_normal((7, 3))
        assert aligned_rmsd(p, p) < 1e-14


class TestRandomRotation:
    def test_orthonormal_proper(self):
        for _ in range(100):
            r = random_rotation(RNG)
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12
