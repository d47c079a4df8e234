"""Geometric kernels against brute-force and per-pair reference versions."""

import re

import numpy as np
import pytest

from coarsegen import kernels
from coarsegen.geometry import aligned_rmsd, random_rotation

RNG = np.random.default_rng(7)


class TestPairsWithinCutoff:
    def test_matches_brute_force(self):
        coords = RNG.uniform(0, 10, size=(40, 3))
        got = {tuple(p) for p in kernels.pairs_within_cutoff(coords, 4.0)}
        want = {(i, j)
                for i in range(40) for j in range(i + 1, 40)
                if np.linalg.norm(coords[i] - coords[j]) <= 4.0}
        assert got == want

    def test_empty_and_single(self):
        assert kernels.pairs_within_cutoff(np.zeros((0, 3)), 4.0).shape == (0, 2)
        assert kernels.pairs_within_cutoff(np.zeros((1, 3)), 4.0).shape == (0, 2)


def kabsch_rmsd_loop(a, b):
    """Per-pair reference: one SVD per pair, the arithmetic of the batched
    kernel applied to one (m, 3) pair at a time."""
    out = np.empty((len(a), len(b)))
    for k, p in enumerate(a):
        for l, q in enumerate(b):
            pc = p - p.sum(axis=0) / p.shape[0]
            qc = q - q.sum(axis=0) / q.shape[0]
            u, _, vt = np.linalg.svd(pc.T @ qc)
            rot = u @ vt
            if np.linalg.det(rot) < 0.0:
                u[:, -1] *= -1.0
                rot = u @ vt
            r = pc @ rot - qc
            out[k, l] = np.sqrt((r * r).sum() / p.shape[0])
    return out


class TestRmsdMatrix:
    """Each test draws from its own fixed generator, so the data it sees does
    not depend on which other tests ran first."""

    SEED = 59

    def test_equals_per_pair_loop(self):
        """The batched kernel does the per-pair arithmetic, so it agrees bit
        for bit; mirror images exercise the reflection fix, and rigidly
        moved copies, collinear stacks and coincident points the degenerate
        SVDs where two solvers could part."""
        rng = np.random.default_rng(self.SEED)
        for m in (1, 2, 3, 9, 33):
            a = 10.0 * rng.standard_normal((7, m, 3))
            moved = np.stack([a[k] @ random_rotation(rng).T + 10.0 * rng.standard_normal(3)
                              for k in range(3)])
            b = np.concatenate([10.0 * rng.standard_normal((4, m, 3)),
                                a[:3] * np.array([1.0, 1.0, -1.0]), moved])
            np.testing.assert_array_equal(kernels.rmsd_matrix(a, b),
                                          kabsch_rmsd_loop(a, b))
            line = rng.standard_normal((5, m, 1)) * rng.standard_normal(3)
            point = np.repeat(rng.standard_normal((4, 1, 3)), m, axis=1)
            degenerate = np.concatenate([line, line + rng.standard_normal(3), point])
            np.testing.assert_array_equal(kernels.rmsd_matrix(degenerate, degenerate),
                                          kabsch_rmsd_loop(degenerate, degenerate))

    def test_prefix_rows_bit_identical_across_blocks(self, monkeypatch):
        """Rows of ``a`` are scored in blocks; a prefix of ``a`` gives the same
        rows bit for bit, whichever block boundary it cuts through."""
        rng = np.random.default_rng(self.SEED)
        a = rng.standard_normal((11, 8, 3))
        b = rng.standard_normal((5, 8, 3))
        full = kernels.rmsd_matrix(a, b)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 4 * 5 * 8 * 3)  # 4 rows
        blocked = kernels.rmsd_matrix(a, b)
        np.testing.assert_array_equal(blocked, full)
        for k in (1, 3, 4, 5, 8, 11):
            np.testing.assert_array_equal(kernels.rmsd_matrix(a[:k], b), full[:k])

    def test_empty_stacks(self):
        assert kernels.rmsd_matrix(np.zeros((0, 4, 3)), np.zeros((2, 4, 3))).shape == (0, 2)
        assert kernels.rmsd_matrix(np.zeros((3, 4, 3)), np.zeros((0, 4, 3))).shape == (3, 0)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 4, 2), (2, 4, 2)),   # planar points
        ((3, 0, 3), (2, 0, 3)),   # no atoms: NaN, which coverage read as 0 %
        ((3, 4, 3), (2, 5, 3)),   # unequal atom counts
        ((4, 3), (4, 3)),         # single conformers, not stacks
    ])
    def test_rejects_malformed_stacks(self, a_shape, b_shape):
        with pytest.raises(ValueError, match=re.escape(f"{a_shape} and {b_shape}")):
            kernels.rmsd_matrix(np.ones(a_shape), np.ones(b_shape))

    def test_matches_alignment_oracle(self):
        rng = np.random.default_rng(self.SEED)
        a = rng.standard_normal((4, 9, 3))
        b = rng.standard_normal((3, 9, 3))
        mat = kernels.rmsd_matrix(a, b)
        for k in range(4):
            for l in range(3):
                assert abs(mat[k, l] - aligned_rmsd(a[k], b[l])) < 1e-9

    def test_symmetric_in_role(self):
        rng = np.random.default_rng(self.SEED)
        a = rng.standard_normal((3, 7, 3))
        b = rng.standard_normal((2, 7, 3))
        np.testing.assert_allclose(kernels.rmsd_matrix(a, b),
                                   kernels.rmsd_matrix(b, a).T, atol=1e-10)

    def test_identical_rows_zero(self):
        """Self-RMSD is zero, also at molecular scale (10-20 A) and for a
        rotated and translated copy, where the cancelling closed form
        |p|^2 + |q|^2 - 2 sum(sigma) was worst."""
        rng = np.random.default_rng(self.SEED)
        a = rng.standard_normal((2, 6, 3))
        for scale in (1.0, 10.0, 20.0):
            mat = kernels.rmsd_matrix(scale * a, scale * a)
            assert np.abs(np.diag(mat)).max() < 1e-9
        big = 20.0 * rng.standard_normal((3, 12, 3))
        moved = big @ random_rotation(rng).T + np.array([15.0, -30.0, 8.0])
        mat = kernels.rmsd_matrix(big, moved)
        assert np.abs(np.diag(mat)).max() < 1e-9
