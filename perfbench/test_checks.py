"""Self-test of the benchmark's output checks.

Runs each workload at a tiny size, requires every check to pass on the
program's real outputs, then feeds each check a wrong answer and requires
it to fail. Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

run.add_src_to_path()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402

SEED = 3
TINY_MOLS = [11, 12]   # corpus seeds of two small molecules (2 and 5 beads)


def _tiny_training(workload: str):
    s = W.setup(workload, SEED, TINY_MOLS)
    s.run = dataclasses.replace(s.run, epochs=2, batch_size=min(s.run.batch_size, 2))
    loop = W.Loop()
    W.train_phase(s, 0.0, 2, loop)
    return s, loop


@pytest.fixture(scope="module")
def elbo():
    return _tiny_training("train-elbo")


@pytest.fixture(scope="module")
def ot():
    return _tiny_training("train-ot")


@pytest.fixture(scope="module")
def sample():
    s = W.setup("sample-eval", SEED, TINY_MOLS[:1])
    loop = W.Loop()
    W.sample_phase(s, 0.0, 1, loop, np.random.default_rng(SEED), keep=True)
    return s, loop


# -- real outputs pass ---------------------------------------------------------

def test_train_elbo_outputs_pass(elbo):
    s, loop = elbo
    assert loop.failed == 0 and loop.ops == 2 * s.run.epochs * len(s.mols)
    assert W.check_train("train-elbo", s, loop, SEED) == []


def test_train_ot_outputs_pass(ot):
    s, loop = ot
    assert loop.failed == 0
    assert W.check_train("train-ot", s, loop, SEED) == []


def test_sample_eval_outputs_pass(sample):
    s, loop = sample
    assert loop.failed == 0 and loop.attempted == 2 * W.L_TRUTH + 1
    assert W.check_sample(s, loop, SEED) == []


# -- wrong answers fail -----------------------------------------------------------

def _edited(history, step, **changes):
    h = copy.deepcopy(history)
    h[step].update(changes)
    return h


def test_terms_reject_wrong_history(elbo):
    history = elbo[1].outputs[0].history
    assert checks.check_terms(history) == []
    h0 = history[0]
    assert checks.check_terms(_edited(history, 0, kl=-1e-3))
    assert checks.check_terms(_edited(history, 0, recon=-1e-9))
    assert checks.check_terms(_edited(history, 1, dist=float("nan")))
    assert checks.check_terms(_edited(history, 0, total=h0["total"] * (1 + 1e-9)))


def test_descent_rejects_rising_loss(elbo):
    s, loop = elbo
    history = loop.outputs[0].history
    n = W.steps_per_epoch(s)
    assert checks.check_descent(history, "total", n) == []
    assert checks.check_descent(history[n:] + history[:n], "total", n)


def test_rounds_must_be_identical(elbo):
    histories = [r.history for r in elbo[1].outputs]
    assert checks.check_rounds_identical(histories) == []
    off = _edited(histories[1], 2, total=np.nextafter(histories[1][2]["total"], np.inf))
    assert checks.check_rounds_identical([histories[0], off])


@pytest.mark.parametrize("workload", ["train-elbo", "train-ot"])
def test_directional_derivative_rejects_wrong_gradient(workload, elbo, ot):
    s, loop = elbo if workload == "train-elbo" else ot
    fd, analytic = W.directional_derivative(loop.outputs[-1].store, s.run, s.mols[0],
                                            s.run.epochs - 1, SEED)
    assert checks.check_directional_derivative(fd, analytic) == []
    assert checks.check_directional_derivative(fd, analytic * (1 + 1e-3))
    assert checks.check_directional_derivative(fd, -analytic)


def test_transport_rejects_wrong_plan(ot):
    s, loop = ot
    cases = W.transport_cases(loop.outputs[-1].store, s.run, s.mols, 1, SEED)
    assert len(cases) == len(s.mols)
    for cost, plan, value in cases:
        assert checks.check_transport(cost, plan, value) == []
        swapped = plan[[1, 0, 2]]
        assert checks.check_transport(cost, swapped, float((swapped * cost).sum()))
        assert checks.check_transport(cost, plan, value + 1e-6)
        assert checks.check_transport(cost, plan * 1.01, value)


def test_coordinates_reject_bad_sample(sample):
    out = sample[1].outputs[0]
    n = out["mol"].graph.n_atoms
    coords = [c.coords.copy() for c in out["confs"]]
    assert checks.check_coordinates(coords, n) == []
    coords[3][2, 1] = np.nan
    assert checks.check_coordinates(coords, n)
    assert checks.check_coordinates([coords[0][:-1]], n)


def test_equivariance_rejects_misrotated_sample(sample):
    s = sample[0]
    base, moved, rot, shift = W.equivariance_case(s, s.mols[0], np.random.default_rng(SEED))
    assert checks.check_equivariance(base, moved, rot, shift) == []
    tilt = W.random_rotation(np.random.default_rng(0))
    assert checks.check_equivariance(base, moved, rot @ tilt, shift)
    assert checks.check_equivariance(base, moved + 1e-3, rot, shift)


def test_sdf_roundtrip_rejects_moved_or_renamed_atoms(sample):
    out = sample[1].outputs[0]
    elements = [a.element for a in out["mol"].graph.atoms]
    written = [c.coords for c in out["confs"]]
    parsed = [c.coords.copy() for _, c in out["gen"]]
    parsed_el = [[a.element for a in g.atoms] for g, _ in out["gen"]]
    assert checks.check_sdf_roundtrip(written, parsed, elements, parsed_el) == []
    parsed[0][0, 0] += 1e-4
    assert checks.check_sdf_roundtrip(written, parsed, elements, parsed_el)
    parsed_el[1] = parsed_el[1][::-1]
    assert checks.check_sdf_roundtrip(written, [c.coords for _, c in out["gen"]],
                                      elements, parsed_el)


def test_rmsd_and_report_reject_wrong_entries(sample):
    out = sample[1].outputs[0]
    gen = [c.coords for _, c in out["gen"]]
    truth = [c.coords for _, c in out["truth"]]
    report = out["report"]
    own = checks.own_rmsd_matrix(gen, truth)
    assert checks.check_rmsd_matrix(report.rmsd_matrix, own) == []
    assert checks.check_report(report, own, W.DELTA) == []
    bad = report.rmsd_matrix.copy()
    bad[5, 7] += 1e-6
    assert checks.check_rmsd_matrix(bad, own)
    assert checks.check_report(dataclasses.replace(report, amr_recall=report.amr_recall + 1e-6),
                               own, W.DELTA)
    assert checks.check_report(dataclasses.replace(report, cov_precision=report.cov_precision + 100 / len(gen)),
                               own, W.DELTA)


def test_budget_sweep_rejects_nonmonotone_or_mismatched(sample):
    out = sample[1].outputs[0]
    budgets, sweep, report = list(W.BUDGETS), out["sweep"], out["report"]
    assert checks.check_budget_sweep(budgets, sweep, report) == []
    worse = sweep[:-2] + [dataclasses.replace(sweep[-2], amr_recall=sweep[-1].amr_recall - 1e-3,
                                              cov_recall=sweep[-1].cov_recall + 1.0)] + sweep[-1:]
    assert checks.check_budget_sweep(budgets, worse, report)
    assert checks.check_budget_sweep(budgets, sweep, dataclasses.replace(
        report, amr_precision=report.amr_precision + 1e-12))


def test_self_match_rejects_distinct_ensembles(sample):
    truth = [c.coords for _, c in sample[1].outputs[0]["truth"]]
    me = W.M["metrics"]
    assert checks.check_self_match(me.ensemble_report(truth, truth, W.DELTA)) == []
    shaken = [t + 1e-3 * np.random.default_rng(k).standard_normal(t.shape)
              for k, t in enumerate(truth)]
    assert checks.check_self_match(me.ensemble_report(truth, shaken, W.DELTA))
