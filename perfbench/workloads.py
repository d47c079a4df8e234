"""The three workloads of the coarsegen benchmark.

``train-elbo`` and ``train-ot`` call ``train()`` in whole rounds (one round
is one ``train()`` call from the same initial parameters), so every round
must reproduce the first one bit for bit. ``sample-eval`` draws 2L
conformers per molecule from the prior, writes and parses them as SDF and
scores them against the L-conformer truth ensemble, as ``coarsegen generate
--num`` followed by ``coarsegen eval --budgets`` does.

The program is reached only through module attributes (``M["train"].train``)
so that the tracer's rebinding takes effect; nothing here is imported by
name from ``coarsegen``.
"""

from __future__ import annotations

import copy
import importlib
import logging
import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from tracer import Tracer

M = {name: importlib.import_module(f"coarsegen.{name}")
     for name in ("autodiff", "coarsen", "corpus", "decoder", "losses",
                  "metrics", "molio", "params", "train")}

# Size make-up shared by every workload: (beads, atoms) of each molecule.
# The seed draws which molecules fill the classes (topology details,
# geometry, torsions); the classes themselves are fixed, because step cost
# grows with the bead count and atom count and an unstratified draw of a
# couple of dozen molecules changes the mean cost by more than the bounds.
SIZE_CLASSES = ((2, 18), (2, 23), (3, 20), (3, 24), (4, 24),
                (4, 30), (5, 24), (5, 30), (6, 27), (6, 33))
SIGMA = 0.3
CUTOFF = 4.0
DELTA = 0.75
L_TRUTH = 16                      # truth conformers per molecule; 2L are drawn
BUDGETS = (1, 2, 4, 8, 16, 32)    # powers of two up to 2L, as ``eval --budgets``
SETUP_REPEATS = 9                 # set-ups per run, at least
FD_STEP = 1e-6

# Model size of acceptance test_7: 2 layers, D=16, F=8, Adam.
TRAIN_RUNS = {
    "train-elbo": dict(preset="elbo-ar", epochs=3, lr=5e-3, lr_decay=1.0,
                       batch_size=1),
    "train-ot": dict(preset="ot", epochs=2, lr=1e-2, lr_decay=0.995,
                     batch_size=10, ot_samples=3),
}
COPIES = {"train-elbo": 2, "train-ot": 2, "sample-eval": 1}


def run_config(workload: str, seed: int):
    return M["train"].RunConfig(seed=seed, layers=2, hidden_dim=16,
                                latent_channels=8, optimizer="adam",
                                sigma=SIGMA, **TRAIN_RUNS[workload])


def select_molecules(seed: int, copies: int) -> list[int]:
    """Corpus seeds of ``copies`` molecules per size class, ordered so that
    every block of ``len(SIZE_CLASSES)`` molecules has the same make-up."""
    rng = np.random.default_rng(seed)
    found: dict[tuple[int, int], list[int]] = {c: [] for c in SIZE_CLASSES}
    while any(len(v) < copies for v in found.values()):
        s = int(rng.integers(2**31))
        mol = M["corpus"].make_corpus(1, s, sigma=SIGMA, n_truth=1)[0]
        cls = (mol.mapping.n_beads, mol.graph.n_atoms)
        if cls in found and len(found[cls]) < copies:
            found[cls].append(s)
    return [found[c][k] for k in range(copies) for c in SIZE_CLASSES]


@dataclass
class Setup:
    mols: list
    store: object
    cfg: object
    run: object = None


def setup(workload: str, seed: int, mol_seeds: list[int]) -> Setup:
    """Corpus, graphs, parameter initialisation and first-call costs."""
    n_truth = L_TRUTH if workload == "sample-eval" else 5
    mols = [M["corpus"].make_corpus(1, s, sigma=SIGMA, n_truth=n_truth)[0]
            for s in mol_seeds]
    store = M["params"].ParameterStore(seed=seed)
    warm = np.random.default_rng(seed)
    if workload == "sample-eval":
        cfg = M["train"].RunConfig(layers=2, hidden_dim=16, latent_channels=8).model_config()
        mol = mols[0]
        order = bead_order(mol)
        M["decoder"].generate(store, cfg, mol.graph, mol.mapping, mol.ref.coords,
                              order, warm, mode="ar")
        return Setup(mols, store, cfg)
    run = run_config(workload, seed)
    cfg = run.model_config()
    M["train"].molecule_loss(store, cfg, mols[0], run, 0, warm)
    return Setup(mols, store, cfg, run)


def bead_order(mol) -> list[int]:
    co = M["coarsen"]
    return co.order_beads(mol.mapping, co.build_bead_graph(mol.graph, mol.mapping, CUTOFF))


def count_tape_nodes(out) -> int:
    """Recorded operations reachable from ``out`` through ``_parents``."""
    seen: set[int] = set()
    stack = [out]
    n = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward_fn is not None:
            n += 1
        stack.extend(node._parents)
    return n


class StepClock(logging.Handler):
    """Timestamps each optimizer step from the per-step record ``train()`` logs."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.stamps: list[float] = []
        self._logger = logging.getLogger("coarsegen.train")

    def emit(self, record):
        self.stamps.append(time.perf_counter())

    def __enter__(self):
        self._saved = (self._logger.level, self._logger.propagate)
        self._logger.setLevel(logging.INFO)
        self._logger.propagate = False
        self._logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        self._logger.removeHandler(self)
        self._logger.setLevel(self._saved[0])
        self._logger.propagate = self._saved[1]


@dataclass
class Loop:
    """What one timed phase did."""
    wall: float = 0.0
    ops: int = 0                  # optimizer steps, or molecules
    mols: int = 0                 # molecules through the model
    attempted: int = 0
    failed: int = 0
    op_times: list[float] = field(default_factory=list)
    gen_times: list[float] = field(default_factory=list)
    eval_times: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)   # kept for the checks


def steps_per_epoch(s: Setup) -> int:
    return math.ceil(len(s.mols) / s.run.batch_size)


def train_phase(s: Setup, seconds: float, min_rounds: int, loop: Loop,
                tracer: Tracer | None = None, between=None) -> None:
    """Whole ``train()`` rounds until ``seconds`` of them have run.

    ``between`` runs after each round, outside the measured time.
    """
    per_round = s.run.epochs * steps_per_epoch(s)
    measured = 0.0
    rounds = 0
    with StepClock() as clock:
        while rounds < min_rounds or measured < seconds:
            clock.stamps.clear()
            idx = tracer.open("bench.round") if tracer else None
            t0 = time.perf_counter()
            try:
                result = M["train"].train(s.run, store=copy.deepcopy(s.store),
                                          corpus=s.mols)
            except (ValueError, RuntimeError, ArithmeticError):
                loop.failed += per_round
                result = None
            finally:
                if tracer:
                    tracer.close(idx)
            measured += time.perf_counter() - t0
            rounds += 1
            loop.attempted += per_round
            if result is not None:
                loop.op_times += list(np.diff([t0] + clock.stamps))
                loop.ops += per_round
                loop.mols += s.run.epochs * len(s.mols)
                loop.outputs.append(result)
            if between is not None:
                between()
    loop.wall += measured


def sample_op(s: Setup, mol, rng, loop: Loop, tracer: Tracer | None) -> dict | None:
    """Draw 2L conformers, write and parse both ensembles, score them."""
    mo, me = M["molio"], M["metrics"]
    t0 = time.perf_counter()
    idx = tracer.open("bench.generate_ensemble") if tracer else None
    confs = []
    try:
        order = bead_order(mol)
        for _ in range(2 * L_TRUTH):
            loop.attempted += 1
            try:
                confs.append(M["decoder"].generate(s.store, s.cfg, mol.graph, mol.mapping,
                                                   mol.ref.coords, order, rng, mode="ar"))
            except (ValueError, RuntimeError, ArithmeticError):
                loop.failed += 1
    finally:
        if tracer:
            tracer.close(idx)
    t1 = time.perf_counter()
    idx = tracer.open("bench.score") if tracer else None
    loop.attempted += 1
    try:
        gen_sdf = mo.write_sdf_records([(mol.graph, c) for c in confs])
        truth_sdf = mo.write_sdf_records([(mol.graph, c) for c in mol.truth_ensemble])
        gen = mo.parse_sdf(gen_sdf)
        truth = mo.parse_sdf(truth_sdf)
        gen_xyz = [c.coords for _, c in gen]
        truth_xyz = [c.coords for _, c in truth]
        report = me.ensemble_report(gen_xyz, truth_xyz, DELTA)
        sweep = me.budget_sweep(gen_xyz, truth_xyz, list(BUDGETS), DELTA)
    except (ValueError, RuntimeError, ArithmeticError):
        loop.failed += 1
        return None
    finally:
        if tracer:
            tracer.close(idx)
    t2 = time.perf_counter()
    loop.gen_times.append(t1 - t0)
    loop.eval_times.append(t2 - t1)
    loop.op_times.append(t2 - t0)
    return dict(mol=mol, confs=confs, gen=gen, truth=truth, report=report, sweep=sweep)


def sample_phase(s: Setup, seconds: float, min_passes: int, loop: Loop, rng,
                 tracer: Tracer | None = None, keep: bool = False, between=None) -> None:
    """Whole passes over the molecules until ``seconds`` of them have run.

    ``between`` runs after each pass, outside the measured time.
    """
    measured = 0.0
    passes = 0
    while passes < min_passes or measured < seconds:
        t0 = time.perf_counter()
        for mol in s.mols:
            idx = tracer.open("bench.molecule") if tracer else None
            try:
                out = sample_op(s, mol, rng, loop, tracer)
            finally:
                if tracer:
                    tracer.close(idx)
            loop.ops += 1
            loop.mols += 1
            if out is not None and keep and passes == 0:
                loop.outputs.append(out)
        measured += time.perf_counter() - t0
        passes += 1
        if between is not None:
            between()
    loop.wall += measured


# -- output checks --------------------------------------------------------------

def directional_derivative(store, run, mol, epoch: int, seed: int) -> tuple[float, float]:
    """Central difference of one molecule's loss along a random direction over
    all parameters, and the same derivative from the backward gradients."""
    cfg = run.model_config()
    params = [store.params[n] for n in store.names()]
    drng = np.random.default_rng(seed)
    u = [drng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((d * d).sum()) for d in u))
    u = [d / norm for d in u]

    def loss(grad: bool = False) -> float:
        value, _ = M["train"].molecule_loss(store, cfg, mol, run, epoch,
                                            np.random.default_rng(seed + 1))
        if grad:
            M["autodiff"].backward(value)
        return float(value.data)

    store.zero_grad()
    loss(grad=True)
    analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, u)
                   if p.grad is not None)
    base = [p.data.copy() for p in params]
    values = []
    for sign in (1.0, -1.0):
        for p, b, d in zip(params, base, u):
            p.data[...] = b + sign * FD_STEP * d
        values.append(loss())
    for p, b in zip(params, base):
        p.data[...] = b
    store.zero_grad()
    return (values[0] - values[1]) / (2.0 * FD_STEP), analytic


def transport_cases(store, run, batch, epoch: int, seed: int) -> list[tuple]:
    """(cost, plan, value) of every EMD solve in one batch's forward pass."""
    losses = M["losses"]
    original = losses.emd_solve
    cases = []

    def capture(cost):
        plan, value = original(cost)
        cases.append((np.array(cost, dtype=np.float64), plan.matrix.copy(), value))
        return plan, value

    losses.emd_solve = capture
    try:
        rng = np.random.default_rng(seed)
        for mol in batch:
            M["train"].molecule_loss(store, run.model_config(), mol, run, epoch, rng)
    finally:
        losses.emd_solve = original
    return cases


def check_train(workload: str, s: Setup, loop: Loop, seed: int) -> list[str]:
    if not loop.outputs:
        return ["no training round completed"]
    histories = [r.history for r in loop.outputs]
    key = "total" if workload == "train-elbo" else "recon"
    bad = checks.check_rounds_identical(histories)
    bad += checks.check_terms(histories[0])
    bad += checks.check_descent(histories[0], key, steps_per_epoch(s))
    final = loop.outputs[-1].store
    last_epoch = s.run.epochs - 1
    fd, analytic = directional_derivative(final, s.run, s.mols[0], last_epoch, seed)
    bad += checks.check_directional_derivative(fd, analytic)
    if workload == "train-ot":
        cases = transport_cases(final, s.run, s.mols[:s.run.batch_size], last_epoch, seed)
        if len(cases) != s.run.batch_size:
            bad.append(f"expected {s.run.batch_size} EMD solves, saw {len(cases)}")
        for cost, plan, value in cases:
            bad += checks.check_transport(cost, plan, value)
    return bad


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def check_sample(s: Setup, loop: Loop, seed: int) -> list[str]:
    if not loop.outputs:
        return ["no molecule was scored"]
    me = M["metrics"]
    bad = []
    for out in loop.outputs:
        mol = out["mol"]
        elements = [a.element for a in mol.graph.atoms]
        written = [c.coords for c in out["confs"]]
        bad += checks.check_coordinates(written, mol.graph.n_atoms)
        for confs, parsed in ((written, out["gen"]),
                              ([c.coords for c in mol.truth_ensemble], out["truth"])):
            bad += checks.check_sdf_roundtrip(
                confs, [c.coords for _, c in parsed], elements,
                [[a.element for a in g.atoms] for g, _ in parsed])
        gen = [c.coords for _, c in out["gen"]]
        truth = [c.coords for _, c in out["truth"]]
        own = checks.own_rmsd_matrix(gen, truth)
        bad += checks.check_rmsd_matrix(out["report"].rmsd_matrix, own)
        bad += checks.check_report(out["report"], own, DELTA)
        bad += checks.check_budget_sweep(list(BUDGETS), out["sweep"], out["report"])
        bad += checks.check_self_match(me.ensemble_report(truth, truth, DELTA))
    rng = np.random.default_rng(seed + 2)
    for mol in s.mols:
        base, moved, rot, shift = equivariance_case(s, mol, rng)
        bad += checks.check_equivariance(base, moved, rot, shift)
    return bad


def equivariance_case(s: Setup, mol, rng):
    """One sample, and the sample for a rotated and shifted reference with
    the noise co-rotated."""
    order = bead_order(mol)
    noise = rng.standard_normal((mol.mapping.n_beads, s.cfg.latent_channels, 3))
    rot = random_rotation(rng)
    shift = rng.uniform(-10.0, 10.0, size=3)
    gen = M["decoder"].generate
    base = gen(s.store, s.cfg, mol.graph, mol.mapping, mol.ref.coords, order, rng,
               mode="ar", noise=noise).coords
    moved = gen(s.store, s.cfg, mol.graph, mol.mapping, mol.ref.coords @ rot.T + shift,
                order, rng, mode="ar", noise=noise @ rot.T).coords
    return base, moved, rot, shift


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
