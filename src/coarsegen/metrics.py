"""Ensemble evaluation: Kabsch RMSD, Coverage and Average Minimum RMSD for
precision and recall, error-distribution histograms and sampling-budget
sweeps."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels


@dataclass
class EnsembleReport:
    cov_precision: float     # percent
    cov_recall: float        # percent
    amr_precision: float     # angstrom
    amr_recall: float        # angstrom
    rmsd_matrix: np.ndarray  # K x L
    min_per_generated: np.ndarray
    min_per_truth: np.ndarray
    n_generated: int
    n_truth: int
    delta: float


def build_rmsd_matrix(generated: list[np.ndarray], truth: list[np.ndarray],
                      atoms: Sequence[int] | None = None) -> np.ndarray:
    """Kabsch RMSD of every (generated, truth) pair, over the atoms at the
    indices ``atoms`` (default: every atom)."""
    a = np.stack([np.asarray(g, dtype=np.float64) for g in generated])
    b = np.stack([np.asarray(t, dtype=np.float64) for t in truth])
    if atoms is not None:
        if len(atoms) == 0:
            raise ValueError("the atom selection is empty")
        a, b = a[:, atoms], b[:, atoms]
    return kernels.rmsd_matrix(a, b)


def _report_from_matrix(mat: np.ndarray, delta: float) -> EnsembleReport:
    """Coverage and AMR in both directions from a K x L RMSD matrix."""
    min_gen = mat.min(axis=1)     # best truth match per generated conformer
    min_truth = mat.min(axis=0)   # best generated match per truth conformer
    return EnsembleReport(
        cov_precision=100.0 * float(np.mean(min_gen < delta)),
        cov_recall=100.0 * float(np.mean(min_truth < delta)),
        amr_precision=float(min_gen.mean()),
        amr_recall=float(min_truth.mean()),
        rmsd_matrix=mat,
        min_per_generated=min_gen,
        min_per_truth=min_truth,
        n_generated=mat.shape[0],
        n_truth=mat.shape[1],
        delta=delta,
    )


def ensemble_report(generated: list[np.ndarray], truth: list[np.ndarray],
                    delta: float, atoms: Sequence[int] | None = None) -> EnsembleReport:
    """Coverage and AMR in both directions, with the full RMSD matrix, over
    the atoms at the indices ``atoms`` (default: every atom)."""
    if not generated or not truth:
        raise ValueError("both ensembles must be nonempty")
    return _report_from_matrix(build_rmsd_matrix(generated, truth, atoms), delta)


def budget_sweep(generated_pool: list[np.ndarray], truth: list[np.ndarray],
                 budgets: list[int], delta: float,
                 atoms: Sequence[int] | None = None) -> list[EnsembleReport]:
    """Reports on nested prefixes of the generated pool (recall can only
    improve as the budget grows), over the atoms at the indices ``atoms``
    (default: every atom).

    The RMSD matrix of the largest prefix is computed once; the report for a
    budget k reads its first k rows, which equal the rows of the k-prefix
    matrix because every entry is computed on its own.
    """
    for k in budgets:
        if k < 1 or k > len(generated_pool):
            raise ValueError(f"budget {k} out of range")
    if not budgets:
        return []
    if not truth:
        raise ValueError("both ensembles must be nonempty")
    mat = build_rmsd_matrix(generated_pool[:max(budgets)], truth, atoms)
    return [_report_from_matrix(mat[:k].copy(), delta) for k in budgets]


def error_histogram(report: EnsembleReport, n_bins: int = 20):
    """Histogram of all pairwise RMSD errors (bin edges and counts)."""
    values = report.rmsd_matrix.ravel()
    counts, edges = np.histogram(values, bins=n_bins)
    return edges, counts


def format_report(report: EnsembleReport) -> str:
    lines = [
        f"generated {report.n_generated}  truth {report.n_truth}  delta {report.delta:g} A",
        f"cov_precision {report.cov_precision:.2f} %",
        f"cov_recall    {report.cov_recall:.2f} %",
        f"amr_precision {report.amr_precision:.6f} A",
        f"amr_recall    {report.amr_recall:.6f} A",
    ]
    return "\n".join(lines)
