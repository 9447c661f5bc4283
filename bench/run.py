#!/usr/bin/env python3
"""relukit benchmark: one seeded workload per run, closed loop, one caller.

    python3 bench/run.py --workload verify_scaled --seed 1 --seconds 35 --trace 0

Run from the root of a relukit checkout; the package is imported from its
`src/`. The set-up is repeated 3 to 20 times, for about 2 s, then one round
of the workload's fixed work is repeated until --seconds have passed. With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 half the time runs untraced and half traced, and it carries the
per-layer metrics.
Everything else (input digests, machine facts, all metrics, span summaries,
the spans themselves) goes to .bench_out/ in the checkout. README.md
describes the workloads and metrics.
"""

import os
import sys

# BLAS is pinned to one thread before numpy is first imported.
THREAD_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = (3, 20)  # set-ups per run, at least and at most
SETUP_SECONDS = 2.0      # repeat set-up, between those bounds, this long
MIN_ROUNDS = 3        # untraced run
MIN_TRACE_ROUNDS = 2  # each half of a traced run
TAIL_BEYOND = 10      # samples beyond the reported tail percentile

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
}
# Spans the traced run records, by the relukit function they wrap (module
# attribute as the caller resolves it) or the benchmark call they surround.
SPANS = (
    "verifier.verify_bab", "verifier.root_unstable_count", "verifier.lp",
    "verifier.check_pattern", "verifier.interval_forward", "verifier.sampling",
    "verifier.fold", "network.forward", "training.train",
    "training.loss_and_grads", "training.adam_step", "training.evaluate",
    "training.forward_batch", "pruning.weight_prune", "pruning.network_slim",
    "repair.repair", "repair.verify", "repair.train", "repair.falsify_sample",
    "datasets.add_train_sample",
)
PER_LAYER = {
    "verifier.lp_calls": "count", "verifier.lp_s": "s",
    "verifier.lp_feasible_s": "s", "verifier.lp_feasible_frac": "fraction",
    "verifier.lp_undecided": "count", "verifier.check_pattern_s": "s",
    "verifier.spurious_witness": "count", "verifier.nodes": "count",
    "verifier.unknown": "count",
    "verifier.interval_forward_s": "s", "verifier.interval_forward_calls":
    "count", "verifier.sampling_s": "s", "verifier.fold_s": "s",
    "verifier.root_unstable_count_s": "s",
    "verifier.root_unstable.L0": "count", "verifier.root_unstable.L1": "count",
    "verifier.root_unstable.L2": "count",
    "verifier.solved.Baseline": "count", "verifier.solved.Sparse": "count",
    "verifier.solved.WP": "count", "verifier.solved.NS": "count",
    "training.loss_and_grads_s": "s", "training.adam_step_s": "s",
    "training.evaluate_s": "s", "training.batches": "count",
    "training.samples": "count", "setup.training_s": "s",
    "network.forward_calls": "count", "network.forward_s": "s",
    "network.forward_batch_calls": "count", "network.forward_batch_s": "s",
    "pruning.weight_prune_s": "s", "pruning.network_slim_s": "s",
    "pruning.sparsity": "fraction",
    "repair.iterations": "count", "repair.counterexamples_added": "count",
    "repair.verify_s": "s", "repair.train_s": "s",
    "repair.falsify_sample_s": "s", "datasets.add_train_sample_calls": "count",
    "trace.overhead_s": "s", "trace.overhead_frac": "fraction",
    "trace.spans": "count", "trace.round_s": "s",
    **{f"{name}.self_s": "s" for name in SPANS},
}
# What one operation is on each workload: (singular, plural) for the names
# of the report-only operation metrics.
OPERATION = {"verify_scaled": ("query", "queries"),
             "train_blobs784": ("step", "steps"),
             "repair_blobs": ("repair", "repairs")}


def load_relukit():
    """Import relukit from this checkout's src/, and nowhere else."""
    init = SRC / "relukit" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} is missing; run from a relukit checkout")
    sys.path.insert(0, str(SRC))
    import relukit
    if Path(relukit.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported relukit from {relukit.__file__}, "
                 f"not from {init}")
    return relukit


def install_wraps(tracer, modules):
    verifier, training = modules["verifier"], modules["training"]
    repair, datasets = modules["repair"], modules["datasets"]

    def lp_outcome(args, result, error):
        if error is not None:
            return "error"
        return {0: "feasible", 2: "infeasible"}.get(result.status,
                                                    "undecided")

    def pattern_outcome(args, result, error):
        if isinstance(error, verifier.SpuriousWitnessError):
            return "spurious"
        if isinstance(error, verifier.LPUndecidedError):
            return "undecided"
        return "error" if error is not None else (
            "infeasible" if result is None else "witness")

    def count_samples(args, result, error):
        tracer.counts["training.samples"] += len(args[1])

    tracer.wrap(verifier, "linprog", "verifier.lp", lp_outcome)
    tracer.wrap(verifier, "check_pattern", "verifier.check_pattern",
                pattern_outcome)
    tracer.wrap(verifier, "interval_forward", "verifier.interval_forward")
    tracer.wrap(verifier, "forward_batch", "verifier.sampling")
    tracer.wrap(verifier, "fold_batchnorm", "verifier.fold")
    tracer.wrap(verifier, "forward", "network.forward")
    tracer.wrap(training, "loss_and_grads", "training.loss_and_grads",
                count_samples)
    tracer.wrap(training, "adam_step", "training.adam_step")
    tracer.wrap(training, "evaluate", "training.evaluate")
    tracer.wrap(training, "forward_batch", "training.forward_batch")
    tracer.wrap(repair, "verify_bab", "repair.verify")
    tracer.wrap(repair, "train", "repair.train")
    tracer.wrap(repair, "falsify_sample", "repair.falsify_sample")
    tracer.wrap(repair, "evaluate", "training.evaluate")
    tracer.wrap(datasets.Dataset, "add_train_sample",
                "datasets.add_train_sample")


def measure(workload, state, tracer, seconds, min_rounds):
    """Repeat the workload's round until `seconds` have passed, and at least
    `min_rounds` times. Returns [(round seconds, Round)]."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        rnd = workload.run_round(state, tracer)
        rounds.append((time.perf_counter() - t0, rnd))
        if len(rounds) > 1:
            rnd.outputs = None  # only the first round's outputs are checked
    return rounds


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def best_of(rounds):
    """Each operation's fastest latency over the rounds, sorted.

    Every round repeats identical work, while a shared 2-vCPU virtual
    machine was measured to change speed by up to 2x over tens of seconds;
    the best of several repetitions tracks the program rather than its
    neighbours (README.md, "How a run works")."""
    return sorted(min(op) for op in zip(*(r.ops for _, r in rounds)))


def end_to_end(setup_times, rounds, operation):
    """The gated metrics, and the report-only operation latencies."""
    latencies = best_of(rounds)
    wall = sum(latencies)
    # Highest percentile with TAIL_BEYOND operations beyond it; a round of
    # fewer than 2 * TAIL_BEYOND operations has no tail above the median.
    tail_q = max(1.0 - TAIL_BEYOND / len(latencies), 0.5)
    one, many = operation
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }, {
        f"{many}_per_s": (len(latencies) / wall, "1/s"),
        f"{one}_p50_s": (nearest_rank(latencies, 0.5), "s"),
        f"{one}_tail_s": (nearest_rank(latencies, tail_q), "s"),
        f"{one}_tail_percentile": (round(100 * tail_q, 2), "%"),
        f"{one}_samples": (len(latencies), "count"),
    }


def per_layer(tracer, layer_counts, n_setups, plain, traced):
    n = len(traced)
    spans = tracer.summary(lambda rec: rec[4] != "setup")
    setup = tracer.summary(lambda rec: rec[4] == "setup")

    def total(name):
        return spans[name]["total_s"] / n if name in spans else 0.0

    def calls(name):
        return spans[name]["calls"] / n if name in spans else 0

    def tag(name, tag_name, index):
        entry = spans.get(name)
        if entry is None or tag_name not in entry["tags"]:
            return 0
        return entry["tags"][tag_name][index] / n

    lp_calls = calls("verifier.lp")
    plain_s = sum(best_of(plain))
    overhead = sum(best_of(traced)) - plain_s
    out = {
        "verifier.lp_calls": lp_calls,
        "verifier.lp_s": total("verifier.lp"),
        "verifier.lp_feasible_s": tag("verifier.lp", "feasible", 1),
        "verifier.lp_feasible_frac": (tag("verifier.lp", "feasible", 0)
                                      / lp_calls if lp_calls else 0.0),
        "verifier.lp_undecided": tag("verifier.lp", "undecided", 0),
        "verifier.check_pattern_s": total("verifier.check_pattern"),
        "verifier.spurious_witness": tag("verifier.check_pattern",
                                         "spurious", 0),
        "verifier.interval_forward_s": total("verifier.interval_forward"),
        "verifier.interval_forward_calls": calls("verifier.interval_forward"),
        "verifier.sampling_s": total("verifier.sampling"),
        "verifier.fold_s": total("verifier.fold"),
        "verifier.root_unstable_count_s": total(
            "verifier.root_unstable_count"),
        "training.loss_and_grads_s": total("training.loss_and_grads"),
        "training.adam_step_s": total("training.adam_step"),
        "training.evaluate_s": total("training.evaluate"),
        "training.batches": calls("training.loss_and_grads"),
        "training.samples": tracer.counts["training.samples"] / n,
        "setup.training_s": (setup["training.train"]["total_s"] / n_setups
                             if "training.train" in setup else 0.0),
        "network.forward_calls": calls("network.forward"),
        "network.forward_s": total("network.forward"),
        "network.forward_batch_calls": calls("verifier.sampling")
        + calls("training.forward_batch"),
        "network.forward_batch_s": total("verifier.sampling")
        + total("training.forward_batch"),
        "pruning.weight_prune_s": total("pruning.weight_prune"),
        "pruning.network_slim_s": total("pruning.network_slim"),
        "repair.verify_s": total("repair.verify"),
        "repair.train_s": total("repair.train"),
        "repair.falsify_sample_s": total("repair.falsify_sample"),
        "datasets.add_train_sample_calls": calls("datasets.add_train_sample"),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / plain_s,
        "trace.spans": sum(e["calls"] for e in spans.values()) / n,
        "trace.round_s": statistics.mean(s for s, _ in traced),
    }
    for name in SPANS:
        out[f"{name}.self_s"] = (spans[name]["self_s"] / n if name in spans
                                 else 0.0)
    out.update(layer_counts)
    missing = set(PER_LAYER) - set(out)
    out.update({name: 0 for name in missing})
    return out, {name: {"calls": e["calls"] / n, "total_s": e["total_s"] / n,
                        "self_s": e["self_s"] / n}
                 for name, e in sorted(spans.items())}


def source_digest(*dirs):
    h = hashlib.sha256()
    for path in sorted(p for d in dirs for p in d.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts():
    import numpy
    import scipy
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "commit": commit, "source_digest": source_digest(SRC / "relukit"),
        "bench_digest": source_digest(BENCH),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pin": THREAD_PIN,
    }


def check_repeatable(key, counts):
    """Counts of one workload, size, seed and source must repeat exactly
    across runs, traced or not; the first run records them."""
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True)
                            .encode()).hexdigest()
    path = OUT / "counts.json"
    records = json.loads(path.read_text()) if path.is_file() else {}
    seen = records.setdefault(key, digest)
    path.write_text(json.dumps(records, indent=1, sort_keys=True))
    if seen != digest:
        return [f"counts differ from an earlier run of the same code ({key})"]
    return []


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: a seconds-long run of the same code paths")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    load_relukit()
    sys.path.insert(0, str(BENCH))
    import workloads
    from tracing import NullTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, args.size)
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        install_wraps(tracer, workloads.MODULES)

    setup_times, digests = [], []
    while len(setup_times) < SETUP_REPEATS[0] or (
            sum(setup_times) < SETUP_SECONDS
            and len(setup_times) < SETUP_REPEATS[1]):
        tracer.op = "setup"
        tracer.install()
        t0 = time.perf_counter()
        try:
            state = workload.setup(args.seed, tracer)
        finally:
            setup_times.append(time.perf_counter() - t0)
            tracer.restore()
        digests.append(state["digests"])
    tracer.op = None

    if args.trace:
        plain = measure(workload, state, NullTracer(), args.seconds / 2,
                        MIN_TRACE_ROUNDS)
        tracer.counts.clear()
        tracer.install()
        try:
            traced = measure(workload, state, tracer, args.seconds / 2,
                             MIN_TRACE_ROUNDS)
        finally:
            tracer.restore()
        rounds = plain + traced
    else:
        rounds = measure(workload, state, NullTracer(), args.seconds,
                         MIN_ROUNDS)

    first = rounds[0][1]
    failed_ops, errors = workload.check(state, first)
    errors = failed_ops + errors
    if any(d != digests[0] for d in digests):
        errors.append("repeated set-ups built different inputs")
    if any(r.counts != first.counts for _, r in rounds):
        errors.append("rounds of identical work gave different counts")
    OUT.mkdir(exist_ok=True)
    errors += check_repeatable(
        f"{args.workload}|{args.size}|seed={args.seed}|"
        f"{source_digest(SRC / 'relukit', BENCH)}",
        first.counts)

    e2e, extras = end_to_end(setup_times, plain if args.trace else rounds,
                             OPERATION[args.workload])
    extras.update(workload.extras(state, first, e2e["wall_s"]))
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "inputs": digests[0], "machine": machine_facts(),
        "setup_times_s": setup_times,
        "round_times_s": [s for s, _ in rounds],
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in e2e.items()},
        "rounds": len(rounds),
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "errors": errors,
    }
    if args.trace:
        layers, span_table = per_layer(
            tracer, workload.layer_counts(state, first), len(setup_times),
            plain, traced)
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k]}
                   for k in PER_LAYER}
        result.update(per_layer=metrics, spans=span_table)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        metrics = result["end_to_end"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1))

    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"ops/round={len(first.ops)}; details in .bench_out/{name}")
    for key, entry in {**result["end_to_end"], **result["extras"]}.items():
        print(f"  {key:<24} {entry['value']:>14.6g} {entry['unit']}")
    for error in errors:
        print(f"bench: check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors,
                      "attempted": sum(len(r.ops) for _, r in rounds),
                      "failed": len(failed_ops), "metrics": metrics}))


if __name__ == "__main__":
    main()
