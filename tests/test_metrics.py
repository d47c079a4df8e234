"""Ensemble metrics: hand-derived coverage/AMR cases, budget monotonicity,
histogram and report formatting."""

import numpy as np
import pytest

from coarsegen.geometry import aligned_rmsd, random_rotation
from coarsegen.metrics import (budget_sweep, ensemble_report, error_histogram,
                               format_report, rmsd)

RNG = np.random.default_rng(31)


def conf(seed):
    return np.random.default_rng(seed).standard_normal((5, 3))


class TestRmsd:
    def test_matches_alignment_oracle(self):
        a, b = conf(0), conf(1)
        np.testing.assert_allclose(rmsd(a, b), aligned_rmsd(a, b), atol=1e-12)

    def test_heavy_only_drops_hydrogens(self):
        a, b = conf(0), conf(1)
        elements = ["C", "H", "C", "H", "O"]
        keep = [0, 2, 4]
        np.testing.assert_allclose(
            rmsd(a, b, heavy_only=True, elements=elements),
            aligned_rmsd(a[keep], b[keep]), atol=1e-12)

    def test_heavy_only_requires_elements(self):
        with pytest.raises(ValueError):
            rmsd(conf(0), conf(1), heavy_only=True)


class TestHandCases:
    def test_identical_ensembles(self):
        truth = [conf(k) for k in range(3)]
        rep = ensemble_report(truth, truth, delta=0.5)
        assert rep.cov_precision == 100.0 and rep.cov_recall == 100.0
        assert rep.amr_precision < 1e-9 and rep.amr_recall < 1e-9

    def test_half_precision_full_recall(self):
        """Generated = {A, B far away}, truth = {A}: one generated conformer
        matches exactly, the other misses, but the single truth conformer is
        covered."""
        a = conf(0)
        b = conf(0) * 5.0 + conf(7)          # deliberately far from a
        d = aligned_rmsd(b, a)
        assert d > 0.5
        rep = ensemble_report([a, b], [a], delta=0.5)
        assert rep.cov_precision == 50.0
        assert rep.cov_recall == 100.0
        np.testing.assert_allclose(rep.amr_precision, (0.0 + d) / 2.0,
                                   atol=1e-9)
        assert rep.amr_recall < 1e-9

    def test_infinite_threshold_covers_everything(self):
        rep = ensemble_report([conf(0), conf(1)], [conf(2)], delta=np.inf)
        assert rep.cov_precision == 100.0 and rep.cov_recall == 100.0

    def test_rigid_motions_do_not_count_as_error(self):
        a = conf(3)
        moved = a @ random_rotation(RNG).T + np.array([5.0, 0, 0])
        rep = ensemble_report([moved], [a], delta=0.1)
        assert rep.cov_precision == 100.0 and rep.amr_recall < 1e-9

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            ensemble_report([], [conf(0)], delta=0.5)
        with pytest.raises(ValueError):
            ensemble_report([conf(0)], [], delta=0.5)


class TestBudgetSweep:
    def test_recall_monotone_on_random_pools(self):
        for trial in range(10):
            rng = np.random.default_rng(trial)
            pool = [rng.standard_normal((4, 3)) for _ in range(8)]
            truth = [rng.standard_normal((4, 3)) for _ in range(3)]
            reports = budget_sweep(pool, truth, [1, 2, 4, 8], delta=1.5)
            recalls = [r.cov_recall for r in reports]
            amrs = [r.amr_recall for r in reports]
            assert all(x <= y + 1e-12 for x, y in zip(recalls, recalls[1:]))
            assert all(x >= y - 1e-12 for x, y in zip(amrs, amrs[1:]))

    def test_reports_equal_prefix_reports(self):
        rng = np.random.default_rng(23)
        pool = [rng.standard_normal((5, 3)) for _ in range(8)]
        truth = [rng.standard_normal((5, 3)) for _ in range(3)]
        budgets = [1, 3, 8, 2]
        for k, rep in zip(budgets, budget_sweep(pool, truth, budgets, delta=1.5)):
            want = ensemble_report(pool[:k], truth, delta=1.5)
            assert np.array_equal(rep.rmsd_matrix, want.rmsd_matrix)
            assert np.array_equal(rep.min_per_generated, want.min_per_generated)
            assert np.array_equal(rep.min_per_truth, want.min_per_truth)
            assert (rep.cov_precision, rep.cov_recall, rep.amr_precision,
                    rep.amr_recall, rep.n_generated, rep.n_truth, rep.delta) == (
                want.cov_precision, want.cov_recall, want.amr_precision,
                want.amr_recall, want.n_generated, want.n_truth, want.delta)

    def test_budget_out_of_range(self):
        pool = [conf(0)]
        with pytest.raises(ValueError):
            budget_sweep(pool, [conf(1)], [2], delta=0.5)
        with pytest.raises(ValueError):
            budget_sweep(pool, [conf(1)], [0], delta=0.5)


class TestAtomSelection:
    def test_report_and_sweep_equal_the_selected_atoms_alone(self):
        gen = [conf(k) for k in range(4)]
        truth = [conf(k) for k in range(10, 13)]
        keep = [0, 2, 4]
        picked = [g[keep] for g in gen], [t[keep] for t in truth]
        rep = ensemble_report(gen, truth, delta=0.8, atoms=keep)
        assert rep.rmsd_matrix.tobytes() == \
            ensemble_report(*picked, delta=0.8).rmsd_matrix.tobytes()
        for got, want in zip(budget_sweep(gen, truth, [1, 4], 0.8, atoms=keep),
                             budget_sweep(*picked, [1, 4], 0.8)):
            assert got.rmsd_matrix.tobytes() == want.rmsd_matrix.tobytes()

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="atom selection is empty"):
            ensemble_report([conf(0)], [conf(1)], delta=0.5, atoms=[])


class TestHistogramAndFormat:
    def test_histogram_counts_all_pairs(self):
        rep = ensemble_report([conf(k) for k in range(4)],
                              [conf(k) for k in range(5, 8)], delta=1.0)
        edges, counts = error_histogram(rep, n_bins=6)
        assert len(edges) == 7
        assert counts.sum() == 4 * 3

    def test_format_report_fields(self):
        rep = ensemble_report([conf(0)], [conf(0)], delta=0.75)
        text = format_report(rep)
        assert "cov_precision 100.00 %" in text
        assert "delta 0.75" in text
        assert "amr_recall" in text
