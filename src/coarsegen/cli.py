"""Command-line interface.

Subcommands: coarsen, train, generate, eval, gradcheck, equivcheck.
Exit codes: 0 success, 1 runtime/input errors (missing, unreadable or
unwritable files, corrupt checkpoints, failed checks), 2 usage errors
(argparse default). The default seed can be set with the
``COARSEGEN_SEED`` environment variable.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys

import numpy as np

from . import topology
from .checks import equivariance_check, gradient_check
from .coarsen import coarse_grain
from .decoder import generate_ensemble
from .metrics import budget_sweep, error_histogram, format_report
from .molio import AUX_CUTOFF, ParseError, build_graph, parse_sdf, write_sdf_records
from .nn import ModelConfig
from .params import ParameterStore
from .train import PRESETS, RunConfig, resume, train


def _default_seed() -> int:
    return int(os.environ.get("COARSEGEN_SEED", "0"))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise SystemExit(f"error: input file not found: {path}")


def _parse_sdf_file(path: str):
    try:
        return parse_sdf(_read_text(path))
    except ParseError as exc:
        raise SystemExit(f"error: {path}: {exc}")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layers", type=int, default=ModelConfig.layers)
    p.add_argument("--hidden-dim", type=int, default=ModelConfig.hidden_dim)
    p.add_argument("--latent-channels", type=int, default=ModelConfig.latent_channels)


def _model_config(args) -> ModelConfig:
    return ModelConfig(hidden_dim=args.hidden_dim,
                       latent_channels=args.latent_channels,
                       layers=args.layers,
                       aux_cutoff=args.cutoff)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsegen",
        description="Coarse-grained variational conformer generation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coarsen", help="report the bead decomposition of molecules")
    p.add_argument("input", help="SDF file")
    p.add_argument("--cutoff", type=float, default=AUX_CUTOFF)

    p = sub.add_parser("train", help="train on the synthetic toy corpus")
    p.add_argument("--config", help="INI file with a [train] section of key = value pairs")
    p.add_argument("--preset", choices=PRESETS, default="elbo-ar")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--corpus-size", type=int, default=8)
    p.add_argument("--corpus-seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--resume", default=None, metavar="CKPT",
                   help="continue from an epoch checkpoint")
    _add_model_flags(p)

    p = sub.add_parser("generate", help="sample conformers for a reference molecule")
    p.add_argument("input", help="SDF file with the approximate reference conformer")
    p.add_argument("--checkpoint", default=None, help="trained parameter file")
    p.add_argument("--num", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=("ar", "ot"), default="ar")
    p.add_argument("--cutoff", type=float, default=AUX_CUTOFF)
    p.add_argument("--output", default="-", help="output SDF path (default stdout)")
    _add_model_flags(p)

    p = sub.add_parser("eval", help="ensemble metrics between two SDF files")
    p.add_argument("generated", help="SDF with generated conformers")
    p.add_argument("truth", help="SDF with ground-truth conformers")
    p.add_argument("--delta", type=float, default=0.75,
                   help="coverage threshold in angstrom")
    p.add_argument("--budgets", default=None,
                   help="comma-separated prefix sizes for a budget sweep")
    p.add_argument("--histogram", default=None,
                   help="write RMSD histogram (edges/counts) to this path")
    p.add_argument("--heavy-only", action="store_true",
                   help="score RMSD over the non-hydrogen atoms only")

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("equivcheck", help="rotation/translation equivariance suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--molecules", type=int, default=20)
    p.add_argument("--motions", type=int, default=10)
    return parser


def _cmd_coarsen(args) -> int:
    ModelConfig(aux_cutoff=args.cutoff)     # the model's check of the cutoff
    records = _parse_sdf_file(args.input)
    for rec, (graph, conf) in enumerate(records):
        expanded = build_graph(graph.atoms, graph.bonds, conf, args.cutoff)
        mapping = coarse_grain(expanded, conf)
        order = topology.bead_order(expanded, mapping, args.cutoff)
        print(f"record {rec}: atoms={graph.n_atoms} "
              f"rotatable={len(mapping.severed_bonds)} beads={mapping.n_beads} "
              f"order={','.join(map(str, order))}")
        for bead in range(mapping.n_beads):
            members = ",".join(map(str, sorted(mapping.members[bead])))
            c = mapping.bead_centroids[bead]
            print(f"  bead {bead}: atoms [{members}] "
                  f"centroid ({c[0]:.4f}, {c[1]:.4f}, {c[2]:.4f})")
    return 0


def _apply_config_file(args) -> None:
    if not args.config:
        return
    ini = configparser.ConfigParser()
    try:
        ini.read_string(_read_text(args.config), source=args.config)
    except configparser.Error as exc:
        raise SystemExit(f"error: {args.config}: {exc}")
    if "train" not in ini:
        raise SystemExit(f"error: {args.config}: missing [train] section")
    casts = {"preset": str, "epochs": int, "lr": float, "batch_size": int,
             "seed": int, "corpus_size": int, "corpus_seed": int,
             "sigma": float, "checkpoint_dir": str, "layers": int,
             "hidden_dim": int, "latent_channels": int}
    for key, raw in ini["train"].items():
        attr = key.replace("-", "_")
        if attr not in casts:
            raise SystemExit(f"error: {args.config}: unknown key {key!r}")
        setattr(args, attr, casts[attr](raw))


def _cmd_train(args) -> int:
    _apply_config_file(args)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    seed = args.seed if args.seed is not None else _default_seed()
    run = RunConfig(preset=args.preset, epochs=args.epochs, lr=args.lr,
                    batch_size=args.batch_size, seed=seed,
                    corpus_size=args.corpus_size, corpus_seed=args.corpus_seed,
                    sigma=args.sigma, layers=args.layers,
                    hidden_dim=args.hidden_dim,
                    latent_channels=args.latent_channels,
                    checkpoint_dir=args.checkpoint_dir)
    print(f"config_hash={run.config_hash()}")
    if args.resume:
        if not os.path.exists(args.resume):
            raise SystemExit(f"error: input file not found: {args.resume}")
        result = resume(run, args.resume)
    else:
        result = train(run)
    final = result.history[-1] if result.history else {}
    print(f"done steps={result.store.step} final_total={final.get('total', float('nan')):.6f}")
    return 0


def _cmd_generate(args) -> int:
    if args.num < 1:
        raise SystemExit(f"error: --num must be at least 1, got {args.num}")
    records = _parse_sdf_file(args.input)
    if not records:
        raise SystemExit(f"error: {args.input}: no molecule records")
    graph, ref = records[0]
    # one cutoff for the atom graph, the encoder's bead graph and the order
    cfg = _model_config(args)
    expanded = build_graph(graph.atoms, graph.bonds, ref, cfg.aux_cutoff)
    mapping = coarse_grain(expanded, ref)
    order = topology.bead_order(expanded, mapping, cfg.aux_cutoff)

    seed = args.seed if args.seed is not None else _default_seed()
    if args.checkpoint:
        if not os.path.exists(args.checkpoint):
            raise SystemExit(f"error: input file not found: {args.checkpoint}")
        store = ParameterStore.load(args.checkpoint)
    else:
        store = ParameterStore(seed=seed)
    rng = np.random.default_rng(seed)
    confs = generate_ensemble(store, cfg, expanded, mapping, ref.coords, order,
                              rng, args.num, mode=args.mode)
    payload = write_sdf_records([(graph, conf) for conf in confs])
    if args.output == "-":
        sys.stdout.buffer.write(payload)
    else:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    return 0


def _check_same_atoms(path: str, records, want: list[str], first: str) -> None:
    """Every record must list the atoms ``want`` of ``first`` in its order."""
    for rec, (graph, _) in enumerate(records):
        got = [a.element for a in graph.atoms]
        if len(got) != len(want):
            problem = f"{len(got)} atoms where {first} has {len(want)}"
        else:
            k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
            if k is None:
                continue
            problem = f"atom {k + 1} is {got[k]} where {first} has {want[k]}"
        raise SystemExit(f"error: {path}: {problem} (record {rec})")


def _cmd_eval(args) -> int:
    if not (np.isfinite(args.delta) and args.delta > 0):
        raise SystemExit(f"error: --delta must be finite and positive, got {args.delta}")
    gen_records = _parse_sdf_file(args.generated)
    truth_records = _parse_sdf_file(args.truth)
    if not gen_records or not truth_records:
        raise SystemExit("error: both files must contain at least one record")
    want = [a.element for a in gen_records[0][0].atoms]
    first = f"{args.generated} record 0"
    _check_same_atoms(args.generated, gen_records, want, first)
    _check_same_atoms(args.truth, truth_records, want, first)
    gen = [c.coords for _, c in gen_records]
    truth = [c.coords for _, c in truth_records]
    budgets = [int(b) for b in args.budgets.split(",")] if args.budgets else []
    atoms = None
    if args.heavy_only:
        atoms = [k for k, el in enumerate(want) if el != "H"]
        if not atoms:
            raise SystemExit(f"error: --heavy-only: {first} has no heavy atom")
    # one RMSD matrix serves every budget and, as its full prefix, the report
    *sweep, report = budget_sweep(gen, truth, budgets + [len(gen)], args.delta, atoms)
    print(format_report(report))
    for b, rep in zip(budgets, sweep):
        print(f"budget {b}: cov_recall {rep.cov_recall:.2f} % "
              f"amr_recall {rep.amr_recall:.6f} A")
    if args.histogram:
        edges, counts = error_histogram(report)
        with open(args.histogram, "w", encoding="utf-8") as fh:
            fh.write("# bin_left bin_right count\n")
            for k, c in enumerate(counts):
                fh.write(f"{edges[k]:.6f} {edges[k + 1]:.6f} {int(c)}\n")
    return 0


def _cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    report = gradient_check(seed=seed)
    print(report)
    return 0 if report.passed else 1


def _cmd_equivcheck(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    report = equivariance_check(seed=seed, n_molecules=args.molecules,
                                n_motions=args.motions)
    print(report)
    return 0 if report.passed else 1


_COMMANDS = {
    "coarsen": _cmd_coarsen,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "equivcheck": _cmd_equivcheck,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a file argument that is a directory, unreadable or unwritable
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
