"""The benchmark's three workloads, built only from relukit's public functions.

Each workload has a set-up (inputs and trained networks) and a round: a fixed
amount of work that the timed phase repeats. A round returns the latency of
each operation, counts that must repeat exactly, and the outputs that the
checks re-validate. Why each workload exists is in README.md.
"""

import hashlib
import importlib
import json
import time
from dataclasses import dataclass

import numpy as np

from relukit import (BabConfig, Box, RepairConfig, Status, TrainingConfig,
                     evaluate, falsify_sample, fold_batchnorm, forward,
                     init_network, interval_forward, network_slim, repair,
                     robustness_property, synth_blobs, train, verify_bab,
                     weight_prune)
from relukit.datasets import Dataset
from relukit.network import FullyConnectedNode
from relukit.properties import violated_disjunct
from relukit.verifier import root_unstable_count

# `relukit.repair` names the re-exported function, so the module is taken
# from the import system; wrapping an attribute of the function would do
# nothing.
MODULES = {name: importlib.import_module(f"relukit.{name}")
           for name in ("verifier", "training", "repair", "datasets")}

# verify_scaled and repair_blobs build their data and networks from this
# fixed seed: per-query and per-problem costs are heavy-tailed, so seeded
# instances spread the timed phase by more than any bound a regression check
# could use (README.md, "Seeds"). --seed drives the verifier's sampling on
# verify_scaled and the problem order on repair_blobs.
INSTANCE_SEED = 0
# No verdict may depend on wall time: budgets stop on max_nodes only.
NO_TIME_BUDGET = 1e6
# Counterexample re-validation tolerance, the verifier's own.
CEX_TOL = 1e-7
# Samples the output check throws at every Verified query.
CHECK_SAMPLES = 256
VARIANTS = ("Baseline", "Sparse", "WP", "NS")
# The ROADMAP "scaled" data of verify_scaled.
SCALED = dict(n_per_class=80, num_classes=4, dim=8, spread=0.12)
HIDDEN_LAYERS = 3


@dataclass
class Round:
    ops: list        # seconds per operation
    counts: dict     # must be identical in every round and run of one code
    outputs: object  # what check() re-validates


def net_digest(net) -> str:
    h = hashlib.sha256()
    for node in net.nodes:
        h.update(type(node).__name__.encode())
        for attr in ("weights", "bias", "gamma", "beta", "running_mean",
                     "running_var"):
            value = getattr(node, attr, None)
            if value is not None:
                h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()[:16]


def queries_digest(props) -> str:
    h = hashlib.sha256()
    for prop in props:
        h.update(prop.input_box.lo.tobytes())
        h.update(prop.input_box.hi.tobytes())
        h.update(json.dumps(prop.source.get("label")).encode())
    return h.hexdigest()[:16]


def dataset_digest(ds) -> str:
    h = hashlib.sha256()
    for sample in ds.train + ds.test:
        h.update(sample.input.tobytes())
        h.update(bytes([sample.label]))
    return h.hexdigest()[:16]


def sparsity(net) -> float:
    weights = np.concatenate([n.weights.ravel() for n in net.nodes
                              if isinstance(n, FullyConnectedNode)])
    return float((weights == 0.0).mean())


def robustness_queries(samples, epsilon, dataset):
    domain = Box(np.zeros(dataset.input_dim), np.ones(dataset.input_dim))
    return [robustness_property(s.input, s.label, epsilon, domain,
                                dataset.num_classes) for s in samples]


def root_unstable_per_layer(net, box) -> list:
    """Unstable hidden ReLUs per layer from root interval bounds."""
    folded = fold_batchnorm(net)
    bounds = interval_forward(folded, box)
    pre = [bounds[i] for i, n in enumerate(folded.nodes)
           if isinstance(n, FullyConnectedNode)][:-1]
    return [int(np.sum((lo < 0.0) & (hi > 0.0))) for lo, hi in pre]


def _train(tracer, net, dataset, config):
    with tracer.span("training.train"):
        return train(net, dataset, config)


class VerifyWorkload:
    """verify_bab plus root_unstable_count over the first test queries of
    the scaled blobs, per network variant; one operation is one query on
    one variant."""

    name = "verify_scaled"

    def __init__(self, n_queries):
        self.n_queries = n_queries

    def setup(self, seed, tracer):
        """Baseline, Sparse, WP and NS networks, trained as the experiment
        runner trains them: WP prunes the baseline, NS slims the sparse net,
        and both are fine-tuned."""
        with tracer.span("datasets.synth_blobs"):
            ds = synth_blobs(INSTANCE_SEED, **SCALED)
        cfg = dict(batch_size=16, learning_rate=0.01, seed=INSTANCE_SEED)
        fine = TrainingConfig(epochs=10, **cfg)
        fresh = init_network([ds.input_dim, 32, 32, 32, ds.num_classes],
                             seed=INSTANCE_SEED, with_bn=True, name=self.name)
        base = _train(tracer, fresh, ds, TrainingConfig(epochs=30, **cfg))[0]
        sparse = _train(tracer, fresh, ds, TrainingConfig(
            epochs=30, slim_lambda=0.01, **cfg))[0]
        with tracer.span("pruning.weight_prune"):
            wp = weight_prune(base, ratio=0.5)
        wp = _train(tracer, wp, ds, fine)[0]
        with tracer.span("pruning.network_slim"):
            ns = network_slim(sparse, 0.5)
        ns = _train(tracer, ns, ds, fine)[0]
        nets = {"Baseline": base, "Sparse": sparse, "WP": wp, "NS": ns}
        queries = robustness_queries(ds.test[:self.n_queries], 0.03, ds)
        bab = BabConfig(max_nodes=8, enum_threshold=6,
                        time_budget=NO_TIME_BUDGET, seed=seed)
        accuracy = {v: evaluate(net, ds.test)[0] for v, net in nets.items()}
        digests = {f"net.{v}": net_digest(n) for v, n in nets.items()}
        digests["queries"] = queries_digest(queries)
        return {"nets": nets, "queries": queries, "bab": bab, "seed": seed,
                "accuracy": accuracy, "digests": digests}

    def run_round(self, st, tracer):
        ops, outputs = [], []
        for variant, net in st["nets"].items():
            for qi, prop in enumerate(st["queries"]):
                tracer.op = f"{variant}/{qi}"
                t0 = time.perf_counter()
                with tracer.span("verifier.verify_bab"):
                    res = verify_bab(net, prop, st["bab"])
                with tracer.span("verifier.root_unstable_count"):
                    unstable = root_unstable_count(net, prop.input_box)
                ops.append(time.perf_counter() - t0)
                outputs.append((variant, qi, res, unstable))
        tracer.op = None
        counts = {"ops": [[v, qi, r.status.value, r.stats["nodes"],
                           r.stats["lp_calls"], u]
                          for v, qi, r, u in outputs]}
        return Round(ops, counts, outputs)

    def check(self, st, rnd):
        """Errors per failed operation: every counterexample is re-run
        through forward, and sampling must not break a Verified query."""
        failed = []
        for variant, qi, res, _ in rnd.outputs:
            net, prop = st["nets"][variant], st["queries"][qi]
            where = f"{variant} query {qi}"
            if "time budget" in res.stats.get("reason", ""):
                failed.append(f"{where}: verdict ended by the time budget")
            elif res.status == Status.FALSIFIED:
                x = res.counterexample.input
                if not prop.input_box.contains(x):
                    failed.append(f"{where}: counterexample outside the box")
                elif violated_disjunct(forward(net, x), prop.violation,
                                       tol=CEX_TOL) is None:
                    failed.append(f"{where}: counterexample does not "
                                  "violate the property")
            elif res.status == Status.VERIFIED:
                if falsify_sample(net, prop, CHECK_SAMPLES,
                                  seed=st["seed"]) is not None:
                    failed.append(f"{where}: Verified but sampling found "
                                  "a counterexample")
        return failed, []

    def layer_counts(self, st, rnd):
        out = {"verifier.nodes": sum(r.stats["nodes"]
                                     for _, _, r, _ in rnd.outputs),
               "verifier.unknown": sum(r.status == Status.UNKNOWN
                                       for _, _, r, _ in rnd.outputs)}
        for v in VARIANTS:
            out[f"verifier.solved.{v}"] = sum(
                r.status != Status.UNKNOWN for var, _, r, _ in rnd.outputs
                if var == v)
        per_layer = np.zeros(HIDDEN_LAYERS)
        for variant, qi, _, _ in rnd.outputs:
            per_layer += root_unstable_per_layer(
                st["nets"][variant], st["queries"][qi].input_box)
        for i, total in enumerate(per_layer):
            out[f"verifier.root_unstable.L{i}"] = total / len(rnd.outputs)
        out["pruning.sparsity"] = sparsity(st["nets"]["WP"])
        return out

    def extras(self, st, rnd, wall_s):
        statuses = [r.status for _, _, r, _ in rnd.outputs]
        unknown = sum(s == Status.UNKNOWN for s in statuses)
        return {"unknown_frac": (unknown / len(statuses), "fraction"),
                "verified": (statuses.count(Status.VERIFIED), "count"),
                "falsified": (statuses.count(Status.FALSIFIED), "count"),
                "test_accuracy": (float(np.mean(list(
                    st["accuracy"].values()))), "fraction")}


class TrainWorkload:
    """Train from init, sparse-train, weight-prune, slim and fine-tune both
    on seeded 784-dim blobs; one operation is one optimizer step or one
    pruning call."""

    name = "train_blobs784"

    def __init__(self, n_per_class, epochs, fine_epochs, accuracy_floor):
        self.n_per_class = n_per_class
        self.epochs, self.fine_epochs = epochs, fine_epochs
        self.accuracy_floor = accuracy_floor

    def setup(self, seed, tracer):
        with tracer.span("datasets.synth_blobs"):
            ds = synth_blobs(seed, self.n_per_class, 10, 784, 0.1)
        fresh = init_network([784, 64, 32, 16, 10], seed=seed, with_bn=True,
                             name=self.name)
        return {"dataset": ds, "fresh": fresh, "seed": seed,
                "digests": {"net.init": net_digest(fresh),
                            "dataset": dataset_digest(ds)}}

    def run_round(self, st, tracer):
        training = MODULES["training"]
        ds, seed = st["dataset"], st["seed"]
        cfg = dict(batch_size=32, learning_rate=0.01, seed=seed)
        ops, finals = [], {}
        stamps, samples = [], [0]
        inner = training.loss_and_grads

        def stamped(net, xs, *args, **kwargs):
            stamps.append(time.perf_counter())
            samples[0] += len(xs)
            return inner(net, xs, *args, **kwargs)

        def stage(name, net, config):
            # One step runs from one loss_and_grads call to the next; the
            # last also carries the train() epilogue.
            tracer.op = name
            stamps.clear()
            t0 = time.perf_counter()
            out, metrics = _train(tracer, net, ds, config)
            bounds = [t0] + stamps[1:] + [time.perf_counter()]
            ops.extend(b - a for a, b in zip(bounds, bounds[1:]))
            finals[name] = (out, metrics[-1]["test_accuracy"],
                            max(m["train_accuracy"] for m in metrics),
                            len(stamps))
            return out

        training.loss_and_grads = stamped
        try:
            base = stage("Baseline", st["fresh"], TrainingConfig(
                epochs=self.epochs, **cfg))
            sparse = stage("Sparse", st["fresh"], TrainingConfig(
                epochs=self.epochs, slim_lambda=0.01, **cfg))
            tracer.op = "prune"
            t0 = time.perf_counter()
            with tracer.span("pruning.weight_prune"):
                wp = weight_prune(base, ratio=0.5)
            t1 = time.perf_counter()
            with tracer.span("pruning.network_slim"):
                ns = network_slim(sparse, 0.5)
            ops += [t1 - t0, time.perf_counter() - t1]
            stage("WP", wp, TrainingConfig(epochs=self.fine_epochs, **cfg))
            stage("NS", ns, TrainingConfig(epochs=self.fine_epochs, **cfg))
        finally:
            training.loss_and_grads = inner
            tracer.op = None
        counts = {name: [net_digest(net), acc, steps]
                  for name, (net, acc, _, steps) in finals.items()}
        counts["samples"] = samples[0]
        return Round(ops, counts, {"finals": finals, "wp": wp,
                                   "samples": samples[0]})

    def check(self, st, rnd):
        """Every stage must reach the accuracy floor on its training set
        at some epoch. The last epoch's test accuracy is no check: at
        learning rate 0.01 it swings from epoch to epoch, down to 0.125 on
        working code (README.md, "Correctness checks")."""
        errors = [f"{name}: best training-set accuracy {peak:.3f} below the "
                  f"floor {self.accuracy_floor}"
                  for name, (_, _, peak, _) in rnd.outputs["finals"].items()
                  if not peak >= self.accuracy_floor]
        return [], errors

    def layer_counts(self, st, rnd):
        return {"pruning.sparsity": sparsity(rnd.outputs["wp"])}

    def extras(self, st, rnd, wall_s):
        finals = rnd.outputs["finals"]
        return {"train_samples_per_s": (rnd.outputs["samples"] / wall_s,
                                        "1/s"),
                "test_accuracy": (float(np.mean([a for _, a, _, _ in
                                                 finals.values()])),
                                  "fraction")}


class RepairWorkload:
    """repair() on small fixed problems, in an order drawn from the seed,
    with several counterexamples per property per round; one operation is
    one repair() call."""

    name = "repair_blobs"

    def __init__(self, problems, n_props, epsilon, max_iterations,
                 per_round, epochs, max_nodes):
        self.problems, self.n_props, self.epsilon = problems, n_props, epsilon
        self.max_iterations, self.per_round = max_iterations, per_round
        self.epochs, self.max_nodes = epochs, max_nodes

    def setup(self, seed, tracer):
        problems, digests = [], {}
        for p in np.random.default_rng(seed).permutation(self.problems):
            pseed = INSTANCE_SEED + p
            with tracer.span("datasets.synth_blobs"):
                ds = synth_blobs(pseed, 40, 3, 4, 0.1)
            net = init_network([4, 12, 12, 3], seed=pseed, with_bn=True,
                               name=f"repair{p}")
            net = _train(tracer, net, ds, TrainingConfig(
                epochs=3, batch_size=16, learning_rate=0.01, seed=pseed))[0]
            props = robustness_queries(ds.test[:self.n_props], self.epsilon,
                                       ds)
            config = RepairConfig(
                max_iterations=self.max_iterations,
                counterexamples_per_property_per_round=self.per_round,
                trainer=TrainingConfig(epochs=self.epochs, batch_size=16,
                                       learning_rate=0.01, seed=pseed),
                verifier=BabConfig(max_nodes=self.max_nodes, enum_threshold=4,
                                   time_budget=NO_TIME_BUDGET,
                                   seed=INSTANCE_SEED))
            problems.append((int(p), ds, net, props, config))
            digests[f"net.{p}"] = net_digest(net)
            digests[f"queries.{p}"] = queries_digest(props)
        return {"problems": problems, "seed": seed, "digests": digests}

    def run_round(self, st, tracer):
        ops, outputs = [], []
        for problem in st["problems"]:
            p, ds, net, props, config = problem
            work = Dataset(ds.input_dim, ds.num_classes, list(ds.train),
                           list(ds.test))
            tracer.op = f"problem{p}"
            t0 = time.perf_counter()
            with tracer.span("repair.repair"):
                out, report = repair(net, props, work, config)
            ops.append(time.perf_counter() - t0)
            outputs.append((problem, out, report,
                            len(work.train) - len(ds.train)))
        tracer.op = None
        counts = {"problems": [[prob[0], net_digest(out),
                                len(report["iterations"]),
                                report["total_counterexamples_added"],
                                report["final_statuses"]]
                               for prob, out, report, _ in outputs]}
        return Round(ops, counts, outputs)

    def check(self, st, rnd):
        """The report must match the dataset's growth and an independent
        verification pass; sampling must not break a Verified property."""
        failed = []
        for (p, _, _, props, config), out, report, grown in rnd.outputs:
            if grown != report["total_counterexamples_added"]:
                failed.append(f"problem {p}: dataset grew by {grown}, report "
                              f"says {report['total_counterexamples_added']}")
            fresh = [verify_bab(out, prop, config.verifier) for prop in props]
            if [r.status.value for r in fresh] != report["final_statuses"]:
                failed.append(f"problem {p}: final statuses differ from a "
                              "fresh verification")
            for i, (prop, res) in enumerate(zip(props, fresh)):
                if "time budget" in res.stats.get("reason", ""):
                    failed.append(f"problem {p} property {i}: verdict ended "
                                  "by the time budget")
                if res.status == Status.VERIFIED and falsify_sample(
                        out, prop, CHECK_SAMPLES, seed=st["seed"]) is not None:
                    failed.append(f"problem {p} property {i}: Verified but "
                                  "sampling found a counterexample")
        return failed, []

    def layer_counts(self, st, rnd):
        return {"repair.iterations": sum(len(r["iterations"])
                                         for _, _, r, _ in rnd.outputs),
                "repair.counterexamples_added": sum(
                    r["total_counterexamples_added"]
                    for _, _, r, _ in rnd.outputs)}

    def extras(self, st, rnd, wall_s):
        statuses = [s for _, _, r, _ in rnd.outputs
                    for s in r["final_statuses"]]
        accuracy = [r["iterations"][-1]["test_accuracy"]
                    for _, _, r, _ in rnd.outputs
                    if "test_accuracy" in r["iterations"][-1]]
        out = {"repaired_frac": (statuses.count(Status.VERIFIED.value)
                                 / len(statuses), "fraction")}
        if accuracy:
            out["test_accuracy"] = (float(np.mean(accuracy)), "fraction")
        return out


def make(name, size):
    """Workload `name` at size "full" (the benchmark) or "smoke" (a
    seconds-long run of the same code paths, for the benchmark's tests)."""
    smoke = size == "smoke"
    if name == "verify_scaled":
        return VerifyWorkload(n_queries=4 if smoke else 16)
    if name == "train_blobs784":
        return TrainWorkload(n_per_class=20 if smoke else 60,
                             epochs=2 if smoke else 10,
                             fine_epochs=1 if smoke else 5,
                             accuracy_floor=0.0 if smoke else 0.25)
    if name == "repair_blobs":
        return RepairWorkload(problems=2 if smoke else 10, n_props=6,
                              epsilon=0.04, max_iterations=3, per_round=4,
                              epochs=4, max_nodes=8)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify_scaled", "train_blobs784",
             "repair_blobs")
