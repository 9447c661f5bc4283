"""Counterexample-driven repair: verify, harvest labeled counterexamples
into the training set, retrain, repeat."""

from dataclasses import dataclass, field

from .datasets import Dataset, Sample
from .network import BatchNorm1DNode, SequentialNetwork, network_stats
from .tensor import check_fields
from .training import TrainingConfig, evaluate, init_network, train
from .verifier import BabConfig, Status, falsify_sample, verify_bab

__all__ = ["RepairConfig", "repair"]


@dataclass
class RepairConfig:
    max_iterations: int = 10
    trainer: TrainingConfig = field(default_factory=lambda: TrainingConfig(epochs=10))
    counterexamples_per_property_per_round: int = 1
    verifier: BabConfig = field(default_factory=BabConfig)
    from_scratch: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.counterexamples_per_property_per_round < 1:
            raise ValueError("need at least one counterexample per property "
                             "per round")


def _require_labeled(properties):
    for i, prop in enumerate(properties):
        if prop.source.get("type") != "robustness" or "label" not in prop.source:
            raise ValueError(
                f"property {i} carries no reference label; only robustness "
                "properties can drive repair (generic properties are "
                "verification-only)")


def _verify_all(net, properties, config: RepairConfig):
    return [verify_bab(net, p, config.verifier) for p in properties]


def repair(net: SequentialNetwork, properties: list, dataset: Dataset,
           config: RepairConfig):
    """Repair loop; returns (net, report).

    Each Falsified property contributes its counterexample (and extra sampled
    witnesses up to the per-round quota), labeled with the property's
    reference class, to the training split before retraining. The final
    per-property statuses are produced by a fresh verification pass on the
    returned network.
    """
    _require_labeled(properties)
    iterations = []
    total_added = 0
    final_statuses = None

    for it in range(config.max_iterations):
        results = _verify_all(net, properties, config)
        statuses = [r.status.value for r in results]
        if all(r.status == Status.VERIFIED for r in results):
            final_statuses = statuses  # net untouched since this pass
            iterations.append({"iteration": it, "statuses": statuses,
                               "counterexamples_added": 0})
            break

        added = 0
        for prop, res in zip(properties, results):
            if res.status != Status.FALSIFIED:
                continue  # Unknown contributes no counterexamples
            label = int(prop.source["label"])
            witnesses = [res.counterexample.input]
            quota = config.counterexamples_per_property_per_round
            if len(witnesses) < quota:
                extra = falsify_sample(net, prop,
                                       n_samples=64 * quota,
                                       seed=config.verifier.seed + it)
                if extra is not None:
                    witnesses.append(extra.input)
            for x in witnesses[:quota]:
                dataset.add_train_sample(Sample(x, label))
                added += 1
        total_added += added

        if config.from_scratch:
            widths = network_stats(net)["widths"]
            has_bn = any(isinstance(n, BatchNorm1DNode) for n in net.nodes)
            net = init_network(widths, seed=config.trainer.seed, with_bn=has_bn,
                              name=net.name)
        net, metrics = train(net, dataset, config.trainer)
        entry = {"iteration": it, "statuses": statuses,
                 "counterexamples_added": added}
        # train's last epoch measured the returned net on both splits; with
        # no epoch run, metrics is empty and the net is measured here
        for key, split in (("train_accuracy", dataset.train),
                           ("test_accuracy", dataset.test)):
            if split:
                entry[key] = (metrics[-1][key] if metrics
                              else evaluate(net, split)[0])
        iterations.append(entry)

    if final_statuses is None:
        final_statuses = [r.status.value
                          for r in _verify_all(net, properties, config)]

    report = {
        "iterations": iterations,
        "final_statuses": final_statuses,
        "all_verified": all(s == Status.VERIFIED.value for s in final_statuses),
        "total_counterexamples_added": total_added,
    }
    return net, report
