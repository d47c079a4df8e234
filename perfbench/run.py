"""coarsegen benchmark: one run of one workload, from the repository root.

    python3 perfbench/run.py --workload train-elbo --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs half its time untraced and
half with every ``coarsegen`` module wrapped (see ``tracer.py``) and reports
the per-layer metrics, the tracing overhead, and writes the spans to
``perfbench/out/``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
every output check passed, 1 when one failed or the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread: the tape works on 16-wide matrices, where extra threads
# only add contention on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
TRACED_SETUPS = 2


def add_src_to_path() -> None:
    src = ROOT / "src"
    if not (src / "coarsegen" / "__init__.py").is_file():
        raise SystemExit(f"error: coarsegen sources not found under {src}")
    sys.path.insert(0, str(src))


def end_to_end(workload: str, seed: int, seconds: float):
    import numpy as np
    import workloads as W

    mol_seeds = W.select_molecules(seed, W.COPIES[workload])
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        fresh = W.setup(workload, seed, mol_seeds)
        setup_times.append(time.perf_counter() - t0)
        return fresh

    # One set-up before the loop and one after each round or pass, so that
    # the set-up samples span the run like the loop's own samples do.
    s = timed_setup()
    loop = W.Loop()
    if workload == "sample-eval":
        W.sample_phase(s, seconds, 1, loop, np.random.default_rng(seed + 1), keep=True,
                       between=timed_setup)
    else:
        W.train_phase(s, seconds, 2, loop, between=timed_setup)
    while len(setup_times) < W.SETUP_REPEATS:
        timed_setup()
    rss = W.peak_rss_mb()
    bad = (W.check_sample(s, loop, seed) if workload == "sample-eval"
           else W.check_train(workload, s, loop, seed))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms": (1e3 * statistics.median(loop.op_times), "ms"),
        "mols_per_s": (loop.mols / loop.wall, "mol/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    q = statistics.quantiles(loop.op_times, n=4) if len(loop.op_times) > 1 else loop.op_times * 3
    detail = (f"{workload} seed={seed} ops={loop.ops} wall={loop.wall:.2f}s "
              f"op_ms q1/med/q3={1e3 * q[0]:.2f}/{1e3 * q[1]:.2f}/{1e3 * q[2]:.2f} "
              f"setups_s={','.join(f'{t:.4f}' for t in setup_times)}")
    if loop.gen_times:
        detail += (f" gen_ensemble_ms={1e3 * statistics.median(loop.gen_times):.1f}"
                   f" eval_ms={1e3 * statistics.median(loop.eval_times):.1f}"
                   f" conformers_per_s={2 * W.L_TRUTH * len(loop.gen_times) / sum(loop.gen_times):.2f}")
    return metrics, loop, bad, detail


def traced(workload: str, seed: int, seconds: float):
    import numpy as np
    import workloads as W
    from tracer import Tracer

    mol_seeds = W.select_molecules(seed, W.COPIES[workload])
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        for _ in range(TRACED_SETUPS):
            with setup_tracer.span("bench.setup"):
                s = W.setup(workload, seed, mol_seeds)
    finally:
        setup_tracer.uninstall()

    tracer = Tracer()
    counts = defaultdict(float)
    per_round = (W.L_TRUTH * 2 if workload == "sample-eval" else s.run.epochs) * len(s.mols)

    def count_nodes(pick):
        def after(args, result):
            if counts["nodes_calls"] < per_round:
                with tracer.span("bench.count_nodes"):
                    counts["nodes"] += W.count_tape_nodes(pick(result))
                counts["nodes_calls"] += 1
        return after

    def count_pairs(args, result):
        counts["rmsd_pairs"] += result.size

    base, run = W.Loop(), W.Loop()
    if workload == "sample-eval":
        rng = np.random.default_rng(seed + 1)
        W.sample_phase(s, seconds / 2, 1, base, rng, keep=True)
        hooks = {"decoder.decode_ar": count_nodes(lambda r: r),
                 "kernels.rmsd_matrix": count_pairs}
        tracer.install(hooks)
        try:
            W.sample_phase(s, seconds / 2, 1, run, rng, tracer)
        finally:
            tracer.uninstall()
        bad = W.check_sample(s, base, seed)
    else:
        W.train_phase(s, seconds / 2, 1, base)
        tracer.install({"train.molecule_loss": count_nodes(lambda r: r[0])})
        try:
            W.train_phase(s, seconds / 2, 1, run, tracer)
        finally:
            tracer.uninstall()
        base.outputs += run.outputs
        bad = W.check_train(workload, s, base, seed)

    metrics = layer_metrics(workload, tracer, setup_tracer, TRACED_SETUPS, base, run, counts)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"spans-{workload}-seed{seed}.json"))
    detail = (f"{workload} seed={seed} traced ops={run.ops} wall={run.wall:.2f}s "
              f"untraced ops={base.ops} wall={base.wall:.2f}s spans={len(tracer.names)}")
    return metrics, base, run, bad, detail


SELF_MODULES = ("molio", "coarsen", "encoder", "latent", "decoder", "losses",
                "geometry", "autodiff", "params", "metrics", "kernels", "train",
                "bench")


def layer_metrics(workload, tracer, setup_tracer, n_setups, base, run, counts) -> dict:
    """Per-layer figures from the spans: ``_ms`` metrics are inclusive time per
    operation (optimizer step, or molecule in sample-eval) unless noted."""
    import workloads as W

    names, dur, self_t, parent = tracer.arrays()
    by_name = defaultdict(list)
    for k, n in enumerate(names):
        by_name[n].append(k)
    s_names, s_dur, _, _ = setup_tracer.arrays()
    ops, mols = max(run.ops, 1), max(run.mols, 1)
    training = workload != "sample-eval"

    def incl(*span_names, exclude_parent=None):
        total = 0.0
        for n in span_names:
            for k in by_name.get(n, ()):
                if exclude_parent is None or parent[k] < 0 or names[parent[k]] != exclude_parent:
                    total += dur[k]
        return total

    def calls(name):
        return len(by_name.get(name, ()))

    def per_setup(name):
        return 1e3 * float(sum(d for n, d in zip(s_names, s_dur) if n == name)) / n_setups

    def per_op_ms(*span_names, **kw):
        return 1e3 * incl(*span_names, **kw) / ops

    pairs = counts["rmsd_pairs"]
    nodes = counts["nodes"] / max(counts["nodes_calls"], 1)
    out = {
        "corpus.make_corpus_ms": (per_setup("corpus.make_corpus"), "ms"),
        "molio.build_graph_ms": (per_setup("molio.build_graph"), "ms"),
        "molio.write_sdf_ms": (per_op_ms("molio.write_sdf_records"), "ms"),
        "molio.parse_sdf_ms": (per_op_ms("molio.parse_sdf"), "ms"),
        "coarsen.bead_order_ms": (per_op_ms("coarsen.build_bead_graph", "coarsen.order_beads"), "ms"),
        "encoder.encode_ms": (per_op_ms("encoder.encode"), "ms"),
        "encoder.encode_calls_per_mol": (calls("encoder.encode") / mols, "count"),
        "encoder.encode_reference_ms": (per_op_ms("encoder.encode_reference"), "ms"),
        "encoder.encode_reference_calls_per_mol": (calls("encoder.encode_reference") / mols, "count"),
        "encoder.fg_layer_ms": (per_op_ms("encoder.fg_layer"), "ms"),
        "encoder.pool_layer_ms": (per_op_ms("encoder.pool_layer"), "ms"),
        "encoder.cg_layer_ms": (per_op_ms("encoder.cg_layer"), "ms"),
        "latent.heads_ms": (per_op_ms("latent.posterior_params", "latent.prior_params",
                                      "latent.kl_divergence", "latent.sample"), "ms"),
        "decoder.channel_selection_ms": (per_op_ms("decoder.channel_selection"), "ms"),
        "decoder.ar_step_ms": (per_op_ms("decoder.ar_step"), "ms"),
        "decoder.ar_steps_per_mol": (calls("decoder.ar_step") / mols, "count"),
        "decoder.decode_ot_ms": (per_op_ms("decoder.decode_ot"), "ms"),
        "losses.recon_ms": (per_op_ms("losses.aligned_mse", "losses.distance_loss"), "ms"),
        "losses.ot_loss_ms": (per_op_ms("losses.ot_loss"), "ms"),
        "losses.emd_solve_ms": (per_op_ms("losses.emd_solve"), "ms"),
        "losses.emd_solve_calls_per_step": (calls("losses.emd_solve") / ops if training else 0.0, "count"),
        "geometry.kabsch_align_calls_per_step": (calls("geometry.kabsch_align") / ops if training else 0.0, "count"),
        "autodiff.nodes_per_mol": (nodes if training else 0.0, "count"),
        "autodiff.nodes_per_conformer": (0.0 if training else nodes, "count"),
        "autodiff.backward_ms": (per_op_ms("autodiff.backward"), "ms"),
        "params.optimizer_ms": (per_op_ms("params.zero_grad", "params.adam_step", "params.sgd_step"), "ms"),
        "metrics.ensemble_report_ms": (per_op_ms("metrics.ensemble_report", exclude_parent="metrics.budget_sweep"), "ms"),
        "metrics.budget_sweep_ms": (per_op_ms("metrics.budget_sweep"), "ms"),
        "kernels.rmsd_matrix_ms": (per_op_ms("kernels.rmsd_matrix"), "ms"),
        "kernels.rmsd_pairs_per_eval": (0.0 if training else pairs / ops, "count"),
        "kernels.rmsd_pairs_useful_ratio": (2 * W.L_TRUTH * W.L_TRUTH * ops / pairs if pairs else 0.0, "ratio"),
        "train.loop_self_ms": (1e3 * sum(self_t[k] for k in by_name.get("train.train", ())) / ops, "ms"),
        "bench.gen_ensemble_ms": (per_op_ms("bench.generate_ensemble"), "ms"),
        "bench.eval_ms": (per_op_ms("bench.score"), "ms"),
    }
    module_self = defaultdict(float)
    for n, t in zip(names, self_t):
        module_self[n.split(".", 1)[0]] += t
    for m in SELF_MODULES:
        out[f"{m}.self_ms"] = (1e3 * module_self[m] / ops, "ms")
    out["trace.overhead_ratio"] = ((run.wall / ops) / (base.wall / max(base.ops, 1)), "ratio")
    out["trace.accounted_share"] = (float(self_t.sum()) / run.wall, "ratio")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-elbo", "train-ot", "sample-eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    add_src_to_path()

    if args.trace:
        metrics, base, run, bad, detail = traced(args.workload, args.seed, args.seconds)
        attempted, failed = base.attempted + run.attempted, base.failed + run.failed
    else:
        metrics, loop, bad, detail = end_to_end(args.workload, args.seed, args.seconds)
        attempted, failed = loop.attempted, loop.failed
    print(detail, file=sys.stderr)
    for msg in bad:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {"correct": not bad, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
