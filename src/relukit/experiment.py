"""Experiment runner: train baseline and sparse variants, prune both ways,
batch-verify a robustness query set per variant and tabulate solved counts.

Rows mirror the Baseline / Sparse / WP / NS comparison: weight pruning is
applied to the baseline network, network slimming to the sparse one, each
by prune_pipeline with the optional fine-tune.
"""

import dataclasses
import time

import numpy as np

from .config import (ConfigError, _from_signature, bab_config_from,
                     dataset_from, training_config_from, validate_keys)
from .network import network_stats
from .properties import Box, robustness_property
from .pruning import PruningConfig, prune_pipeline
from .tensor import as_declared, as_float, as_int
from .training import evaluate, init_network, train
from .verifier import Status, _solver, verify_bab

__all__ = ["robustness_queries", "run_experiment"]


def robustness_queries(dataset, samples, indices, epsilon, context):
    """One robustness property per samples[i], i in indices, on the [0, 1]
    input domain. An empty selection or an index outside samples is a
    ConfigError naming `context`, the config field the indices came from."""
    if not indices:
        raise ConfigError(f"{context}: selects no samples")
    domain = Box(np.zeros(dataset.input_dim), np.ones(dataset.input_dim))
    queries = []
    for i in indices:
        if not 0 <= i < len(samples):
            raise ConfigError(f"{context}: index {i} out of range "
                              f"(have {len(samples)} samples)")
        queries.append(robustness_property(samples[i].input, samples[i].label,
                                           epsilon, domain,
                                           dataset.num_classes))
    return queries


def _verify_variant(name, net, queries, bab_cfg):
    instances = []
    for i, prop in enumerate(queries):
        t0 = time.monotonic()
        res = verify_bab(net, prop, bab_cfg)
        instances.append({
            "query": i,
            "status": res.status.value,
            "time": time.monotonic() - t0,
            "root_unstable": res.stats["root_unstable"],
            "nodes": res.stats.get("nodes", 0),
        })
    solved = sum(1 for r in instances if r["status"] != Status.UNKNOWN.value)
    mean_unstable = (float(np.mean([r["root_unstable"] for r in instances]))
                     if instances else 0.0)
    return {"variant": name, "solved": solved,
            "verified": sum(1 for r in instances
                            if r["status"] == Status.VERIFIED.value),
            "falsified": sum(1 for r in instances
                             if r["status"] == Status.FALSIFIED.value),
            "mean_root_unstable": mean_unstable,
            "instances": instances}


def run_experiment(config: dict) -> dict:
    """Run the four-variant pruning/verification comparison.

    Returns a result document: per-variant rows with solved counts, mean
    root-unstable ReLU counts and per-instance records, plus the trained
    variant summaries.
    """
    required = ("dataset", "hidden", "baseline_train", "sparse_train")
    validate_keys(config, required + ("seed", "fine_tune", "wp", "ns",
                                      "queries", "verify"),
                  "experiment config", required)
    seed = as_int(config.get("seed", 0), "seed")
    dataset = dataset_from(config["dataset"])
    hidden = as_declared(config["hidden"], list[int], "hidden")
    widths = [dataset.input_dim] + hidden + [dataset.num_classes]

    base_cfg = training_config_from(config["baseline_train"], "baseline_train")
    sparse_cfg = training_config_from(config["sparse_train"], "sparse_train")
    fine_cfg = (training_config_from(config["fine_tune"], "fine_tune")
                if "fine_tune" in config else None)
    wp_cfg = _from_signature(PruningConfig, config.get("wp", {"ratio": 0.5}),
                             "wp", method="weight_pruning", fine_tune=fine_cfg)
    ns_spec = config.get("ns", {})
    if isinstance(ns_spec, dict):
        ns_spec = {"ratio": 0.5, **ns_spec}
    ns_cfg = _from_signature(PruningConfig, ns_spec, "ns",
                             method="network_slimming", fine_tune=fine_cfg)
    bab_cfg = bab_config_from(config.get("verify", {}), "verify")
    queries_spec = config.get("queries", {})
    validate_keys(queries_spec, ("count", "epsilon"), "queries")
    queries = robustness_queries(
        dataset, dataset.test,
        range(as_int(queries_spec.get("count", 20), "queries.count")),
        as_float(queries_spec.get("epsilon", 0.02), "queries.epsilon"),
        "queries.count")

    fresh = init_network(widths, seed=seed, with_bn=True, name="experiment")
    baseline, _ = train(fresh, dataset, base_cfg)
    sparse, _ = train(fresh, dataset, sparse_cfg)
    wp_net, _ = prune_pipeline(baseline, dataset, wp_cfg)
    ns_net, _ = prune_pipeline(sparse, dataset, ns_cfg)

    variants = [("Baseline", baseline), ("Sparse", sparse),
                ("WP", wp_net), ("NS", ns_net)]
    _solver()  # loads HiGHS now, so that no query's time carries the load
    rows = [_verify_variant(name, net, queries, bab_cfg)
            for name, net in variants]
    summary = {}
    for name, net in variants:
        entry = {"widths": network_stats(net)["widths"]}
        if dataset.test:
            entry["test_accuracy"] = evaluate(net, dataset.test)[0]
        summary[name] = entry
    return {
        "config": {"seed": seed, "hidden": hidden,
                   "queries": len(queries),
                   "verify": dataclasses.asdict(bab_cfg)},
        "networks": summary,
        "table": [{k: row[k] for k in ("variant", "solved", "verified",
                                       "falsified", "mean_root_unstable")}
                  for row in rows],
        "instances": {row["variant"]: row["instances"] for row in rows},
    }
