"""Experiment runner: train baseline and sparse variants, prune both ways,
batch-verify a robustness query set per variant and tabulate solved counts.

Rows mirror the Baseline / Sparse / WP / NS comparison: weight pruning is
applied to the baseline network, network slimming to the sparse one, both
followed by an optional fine-tune.
"""

import dataclasses
import time

import numpy as np

from .config import (ConfigError, bab_config_from, dataset_from, int_list,
                     training_config_from, validate_keys)
from .network import network_stats
from .properties import Box, robustness_property
from .pruning import PruningConfig, network_slim, weight_prune
from .tensor import as_int
from .training import evaluate, init_network, train
from .verifier import Status, verify_bab

__all__ = ["robustness_queries", "run_experiment"]

_TOP_KEYS = ("seed", "dataset", "hidden", "baseline_train", "sparse_train",
             "fine_tune", "wp", "ns", "queries", "verify")


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


def _queries_from(obj, dataset):
    validate_keys(obj, ("count", "epsilon"), "queries")
    count = as_int(obj.get("count", 20), "queries.count")
    epsilon = float(obj.get("epsilon", 0.02))
    return robustness_queries(dataset, dataset.test, range(count), epsilon,
                              "queries.count")


def _pruning_from(method, spec, context):
    try:
        return PruningConfig(method, **spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


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
    validate_keys(config, _TOP_KEYS, "experiment config")
    for key in ("dataset", "hidden", "baseline_train", "sparse_train"):
        if key not in config:
            raise ConfigError(f"experiment config: missing '{key}'")
    seed = as_int(config.get("seed", 0), "seed")
    dataset = dataset_from(config["dataset"])
    hidden = int_list(config["hidden"], "hidden")
    widths = [dataset.input_dim] + hidden + [dataset.num_classes]

    base_cfg = training_config_from(config["baseline_train"], "baseline_train")
    sparse_cfg = training_config_from(config["sparse_train"], "sparse_train")
    fine_cfg = (training_config_from(config["fine_tune"], "fine_tune")
                if "fine_tune" in config else None)
    wp_spec = config.get("wp", {"ratio": 0.5})
    validate_keys(wp_spec, ("ratio", "threshold"), "wp")
    wp_cfg = _pruning_from("weight_pruning", wp_spec, "wp")
    ns_spec = config.get("ns", {"ratio": 0.5})
    validate_keys(ns_spec, ("ratio",), "ns")
    ns_cfg = _pruning_from("network_slimming", {"ratio": 0.5, **ns_spec}, "ns")
    bab_cfg = bab_config_from(config.get("verify", {}), "verify")

    fresh = init_network(widths, seed=seed, with_bn=True, name="experiment")
    baseline, _ = train(fresh, dataset, base_cfg)
    sparse, _ = train(fresh, dataset, sparse_cfg)

    wp_net = weight_prune(baseline, threshold=wp_cfg.threshold,
                          ratio=wp_cfg.ratio)
    ns_net = network_slim(sparse, ns_cfg.ratio)
    if fine_cfg is not None:
        wp_net, _ = train(wp_net, dataset, fine_cfg)
        ns_net, _ = train(ns_net, dataset, fine_cfg)

    queries = _queries_from(config.get("queries", {}), dataset)
    variants = [("Baseline", baseline), ("Sparse", sparse),
                ("WP", wp_net), ("NS", ns_net)]
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
