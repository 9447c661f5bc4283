"""Command-line surface: train, prune, verify, repair, eval, info,
export-smtlib and the experiment runner.

Exit codes: 0 success (verify: Verified), 1 verify Falsified, 2 verify
Unknown, 3 any error. All output documents are written atomically.
"""

import argparse
import json
import sys

from .config import (ConfigError, _from_signature, bab_config_from,
                     dataset_from, training_config_from, validate_keys)
from .datasets import Dataset
from .experiment import robustness_queries, run_experiment
from .model_io import atomic_write_text, load_model, save_model
from .network import network_stats
from .properties import emit_smtlib, parse_smtlib
from .pruning import PruningConfig, prune_pipeline
from .repair import RepairConfig, repair
from .tensor import as_declared, as_float, as_int
from .training import evaluate, init_network, train
from .verifier import (LPUndecidedError, SpuriousWitnessError, Status,
                       verify_bab)

__all__ = ["main"]

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: str, doc) -> None:
    atomic_write_text(path, json.dumps(doc, indent=1))


def _override(spec, **flags):
    """spec with each flag given on the command line (a spec that is not an
    object goes through unchanged, for the config builder to reject)."""
    given = {k: v for k, v in flags.items() if v is not None}
    return {**spec, **given} if isinstance(spec, dict) else spec


def _dataset_required(config: dict):
    if "dataset" not in config:
        raise ConfigError("config: missing 'dataset' section")
    return dataset_from(config["dataset"])


# --- commands --------------------------------------------------------------

def cmd_train(args) -> int:
    config = _load_config(args.config)
    validate_keys(config, ("dataset", "net", "train"), "config")
    dataset = _dataset_required(config)
    net_spec = config.get("net", {})
    validate_keys(net_spec, ("hidden", "with_bn", "init_seed", "model", "name"),
                  "config.net")
    if "model" in net_spec:
        if len(net_spec) > 1:
            raise ConfigError("config.net: 'model' takes no other key, got "
                              f"{sorted(net_spec)}")
        net = load_model(as_declared(net_spec["model"], str,
                                     "config.net.model"))
    else:
        hidden, with_bn, seed, name = (
            as_declared(net_spec.get(key, default), kind, f"config.net.{key}")
            for key, kind, default in (("hidden", list[int], [16]),
                                       ("with_bn", bool, True),
                                       ("init_seed", int, 0),
                                       ("name", str, "net")))
        net = init_network([dataset.input_dim, *hidden, dataset.num_classes],
                           seed=seed, with_bn=with_bn, name=name)
    train_cfg = training_config_from(
        _override(config.get("train", {}), seed=args.seed), "config.train")
    trained, metrics = train(net, dataset, train_cfg)
    save_model(trained, args.out)
    if args.metrics:
        _write_json(args.metrics, metrics)
    return EXIT_OK


def cmd_prune(args) -> int:
    net = load_model(args.model)
    method = {"wp": "weight_pruning", "ns": "network_slimming"}[args.method]
    config = _load_config(args.config) if args.config else {}
    validate_keys(config, ("dataset", "fine_tune"), "config")
    if "fine_tune" in config and "dataset" not in config:
        raise ConfigError("config: 'fine_tune' needs a 'dataset' section")
    dataset = (dataset_from(config["dataset"]) if "dataset" in config
               else Dataset(net.input_dim, net.output_dim))
    prune_cfg = PruningConfig(
        method=method, threshold=args.threshold, ratio=args.ratio,
        fine_tune=(training_config_from(config["fine_tune"], "fine_tune")
                   if "fine_tune" in config else None))
    pruned, report = prune_pipeline(net, dataset, prune_cfg)
    save_model(pruned, args.out)
    if args.report:
        _write_json(args.report, report)
    return EXIT_OK


def _reject_ignored_flags(args):
    """A robustness flag given with --property, which would ignore it, is a
    usage error."""
    if not args.property:
        return
    for flag, value in (("--robustness", args.robustness or None),
                        ("--config", args.config),
                        ("--sample-index", args.sample_index),
                        ("--epsilon", args.epsilon)):
        if value is not None:
            raise ConfigError(f"{flag} has no effect with --property")


def _build_property(args):
    if args.property:
        with open(args.property) as fh:
            return parse_smtlib(fh.read())
    if args.sample_index is None or args.epsilon is None or not args.config:
        raise ConfigError("robustness mode needs --config (dataset), "
                          "--sample-index and --epsilon")
    return _sample_property(args)


def _sample_property(args):
    """The robustness property of --sample-index in the test split, or in
    the training split when the test split is empty."""
    dataset = _dataset_required(_load_config(args.config))
    return robustness_queries(dataset, dataset.test or dataset.train,
                              [args.sample_index], args.epsilon,
                              "--sample-index")[0]


def cmd_verify(args) -> int:
    _reject_ignored_flags(args)
    net = load_model(args.model)
    prop = _build_property(args)
    bab_cfg = bab_config_from(_override({}, time_budget=args.timeout,
                                        max_nodes=args.max_nodes,
                                        seed=args.seed), "verify")
    result = verify_bab(net, prop, bab_cfg)
    record = {"status": result.status.value, "stats": result.stats}
    if result.counterexample is not None:
        record["counterexample"] = {
            "input": result.counterexample.input.tolist(),
            "output": result.counterexample.output.tolist(),
            "disjunct": result.counterexample.disjunct,
        }
    if args.out:
        _write_json(args.out, record)
    print(result.status.value)
    return {Status.VERIFIED: EXIT_OK, Status.FALSIFIED: EXIT_FALSIFIED,
            Status.UNKNOWN: EXIT_UNKNOWN}[result.status]


def cmd_repair(args) -> int:
    net = load_model(args.model)
    config = _load_config(args.config)
    validate_keys(config, ("dataset", "queries", "repair", "trainer",
                           "verifier"), "config")
    dataset = _dataset_required(config)
    queries_spec = config.get("queries", {})
    validate_keys(queries_spec, ("count", "indices", "epsilon", "split"),
                  "config.queries")
    if "indices" in queries_spec:
        context = "config.queries.indices"
        indices = as_declared(queries_spec["indices"], list[int], context)
        if "count" in queries_spec:
            raise ConfigError("config.queries: give 'count' or 'indices', "
                              "not both")
    else:
        context = "config.queries.count"
        indices = range(as_int(queries_spec.get("count", 1), context))
    split = queries_spec.get("split", "test")
    if split not in ("train", "test"):
        raise ConfigError(f'config.queries.split must be "train" or "test", '
                          f"got {split!r}")
    epsilon = as_float(queries_spec.get("epsilon", 0.01),
                       "config.queries.epsilon")
    properties = robustness_queries(dataset, getattr(dataset, split),
                                    indices, epsilon, context)
    repair_cfg = _from_signature(
        RepairConfig, config.get("repair", {}), "config.repair",
        trainer=training_config_from(config.get("trainer", {}), "trainer"),
        verifier=bab_config_from(config.get("verifier", {}), "verifier"))
    repaired, report = repair(net, properties, dataset, repair_cfg)
    save_model(repaired, args.out)
    if args.report:
        _write_json(args.report, report)
    return EXIT_OK


def cmd_eval(args) -> int:
    net = load_model(args.model)
    dataset = _dataset_required(_load_config(args.config))
    samples = dataset.train if args.split == "train" else dataset.test
    accuracy, wrong = evaluate(net, samples)
    print(f"{args.split} accuracy: {accuracy:.4f} "
          f"({len(samples) - wrong}/{len(samples)} correct)")
    return EXIT_OK


def cmd_info(args) -> int:
    net = load_model(args.model)
    stats = network_stats(net)
    print(f"name: {net.name}")
    print(f"layers: {stats['num_layers']}")
    print(f"widths: {stats['widths']}")
    print(f"parameters: {stats['param_count']}")
    return EXIT_OK


def cmd_export_smtlib(args) -> int:
    atomic_write_text(args.out, emit_smtlib(_sample_property(args)))
    return EXIT_OK


def cmd_experiment(args) -> int:
    results = run_experiment(_load_config(args.config))
    _write_json(args.out, results)
    for row in results["table"]:
        print(f"{row['variant']:>8}: solved {row['solved']}"
              f" (verified {row['verified']}, falsified {row['falsified']}),"
              f" mean root-unstable {row['mean_root_unstable']:.1f}")
    return EXIT_OK


# --- argument parsing ------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error exits EXIT_ERROR, not argparse's 2 (verify Unknown).
    Subcommand parsers are built from this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relukit",
        description="Train, prune, verify and repair fully-connected "
                    "ReLU networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="prune a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", required=True, choices=["wp", "ns"])
    p.add_argument("--ratio", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--config")
    p.add_argument("--report")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("verify", help="verify a property against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--property")
    p.add_argument("--robustness", action="store_true")
    p.add_argument("--sample-index", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--config")
    p.add_argument("--timeout", type=float)
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("repair", help="counterexample-guided repair")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("eval", help="evaluate accuracy on a dataset split")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("info", help="print model structure")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("export-smtlib",
                       help="export a robustness property as SMT-LIB")
    p.add_argument("--config", required=True)
    p.add_argument("--sample-index", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_smtlib)

    p = sub.add_parser("experiment",
                       help="train/prune/verify comparison run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    # Every relukit error derives from one of these; NonFiniteError is an
    # ArithmeticError.
    except (ValueError, ArithmeticError, OSError, LPUndecidedError,
            SpuriousWitnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
