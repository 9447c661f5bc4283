"""Pruning: unstructured weight pruning and structured network slimming.

Slimming ranks hidden neurons by the magnitude of their batch-norm scale
(gamma) across all BN layers and removes the globally smallest fraction,
always keeping at least one neuron per layer.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import Dataset
from .network import (BatchNorm1DNode, FullyConnectedNode, ReLUNode,
                      SequentialNetwork, network_stats, validate)
from .training import TrainingConfig, evaluate, train

__all__ = ["PruningConfig", "weight_prune", "select_slim_targets",
           "network_slim", "prune_pipeline"]


@dataclass
class PruningConfig:
    method: str  # "weight_pruning" | "network_slimming"
    threshold: Optional[float] = None
    ratio: Optional[float] = None
    pre_train: Optional[TrainingConfig] = None
    fine_tune: Optional[TrainingConfig] = None

    def __post_init__(self):
        if self.method not in ("weight_pruning", "network_slimming"):
            raise ValueError(f"unknown pruning method {self.method!r}")
        if self.method == "weight_pruning":
            if (self.threshold is None) == (self.ratio is None):
                raise ValueError("weight pruning needs exactly one of "
                                 "threshold or ratio")
        else:
            if self.ratio is None:
                raise ValueError("network slimming needs a ratio")
            if self.threshold is not None:
                raise ValueError("network slimming takes no threshold")
        _check_amount(self.threshold, self.ratio)


def _check_amount(threshold: Optional[float] = None,
                  ratio: Optional[float] = None) -> None:
    if threshold is not None and not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    if ratio is not None and not 0 <= ratio < 1:
        raise ValueError(f"ratio must lie in [0, 1), got {ratio}")


def _ratio_cutoff(magnitudes: np.ndarray, ratio: float) -> float:
    """Cutoff so that entries strictly below it are the smallest `ratio`
    fraction; ties at the cutoff are kept."""
    _check_amount(ratio=ratio)
    if magnitudes.size == 0:
        return 0.0
    k = int(np.floor(ratio * magnitudes.size))
    if k == 0:
        return 0.0
    return float(np.sort(magnitudes)[k])


def weight_prune(net: SequentialNetwork, threshold: Optional[float] = None,
                 ratio: Optional[float] = None) -> SequentialNetwork:
    """Zero every FC weight with |w| < threshold; shape unchanged.

    With `ratio`, the threshold is the global ratio-quantile of |w| over all
    FC weights.
    """
    if (threshold is None) == (ratio is None):
        raise ValueError("pass exactly one of threshold or ratio")
    _check_amount(threshold=threshold)
    errors = validate(net)
    if errors:
        raise ValueError("invalid network: " + "; ".join(errors))
    if threshold is None:
        pool = np.concatenate([np.abs(n.weights).ravel() for n in net.nodes
                               if isinstance(n, FullyConnectedNode)])
        threshold = _ratio_cutoff(pool, ratio)
    out = net.copy()
    for node in out.nodes:
        if isinstance(node, FullyConnectedNode):
            node.weights = np.where(np.abs(node.weights) < threshold, 0.0,
                                    node.weights)
    return out


def select_slim_targets(net: SequentialNetwork, ratio: float) -> dict:
    """Keep masks per BN node index, keyed by position in net.nodes.

    Cutoff is the global ratio-quantile over |gamma| of every BN layer; each
    layer's largest-|gamma| neuron is always kept.
    """
    bn_indices = [i for i, n in enumerate(net.nodes)
                  if isinstance(n, BatchNorm1DNode)]
    if not bn_indices:
        raise ValueError("network has no batch-norm layers to slim")
    pool = np.concatenate([np.abs(net.nodes[i].gamma) for i in bn_indices])
    cutoff = _ratio_cutoff(pool, ratio)
    masks = {}
    for i in bn_indices:
        mag = np.abs(net.nodes[i].gamma)
        keep = mag >= cutoff
        if not keep.any():
            keep[int(np.argmax(mag))] = True
        masks[i] = keep
    return masks


def network_slim(net: SequentialNetwork, ratio: float) -> SequentialNetwork:
    """Remove low-|gamma| neurons from every hidden FC-BN-ReLU block.

    The removed neuron's constant output proxy relu(beta_j) is folded into
    the next layer's bias; this is exact when gamma_j = 0.
    """
    errors = validate(net)
    if errors:
        raise ValueError("invalid network: " + "; ".join(errors))
    masks = select_slim_targets(net, ratio)
    out = net.copy()
    for bn_idx, keep in masks.items():
        # validate() fixes the canonical order FC, BN, ReLU, FC around bn_idx
        fc, bn, next_fc = (out.nodes[bn_idx - 1], out.nodes[bn_idx],
                           out.nodes[bn_idx + 2])
        dropped = np.flatnonzero(~keep)
        if dropped.size:
            constant_out = np.maximum(0.0, bn.beta[dropped])
            next_fc.bias = next_fc.bias + next_fc.weights[:, dropped] @ constant_out
        fc.weights = fc.weights[keep]
        fc.bias = fc.bias[keep]
        bn.gamma = bn.gamma[keep]
        bn.beta = bn.beta[keep]
        bn.running_mean = bn.running_mean[keep]
        bn.running_var = bn.running_var[keep]
        out.nodes[bn_idx + 1] = ReLUNode(int(keep.sum()))
        next_fc.weights = next_fc.weights[:, keep]
    errors = validate(out)
    if errors:
        raise ValueError("slimming produced an invalid network: "
                         + "; ".join(errors))
    return out


def _sparsity(net: SequentialNetwork) -> float:
    weights = np.concatenate([n.weights.ravel() for n in net.nodes
                              if isinstance(n, FullyConnectedNode)])
    return float((weights == 0.0).mean())


def _stage_report(name: str, net: SequentialNetwork, dataset: Dataset) -> dict:
    stats = network_stats(net)
    entry = {"stage": name, "widths": stats["widths"],
             "param_count": stats["param_count"], "sparsity": _sparsity(net)}
    if dataset.train:
        entry["train_accuracy"] = evaluate(net, dataset.train)[0]
    if dataset.test:
        entry["test_accuracy"] = evaluate(net, dataset.test)[0]
    return entry


def prune_pipeline(net: SequentialNetwork, dataset: Dataset,
                   config: PruningConfig):
    """Optional pre-train, prune, optional fine-tune; returns (net, report)."""
    stages = [_stage_report("input", net, dataset)]
    if config.pre_train is not None:
        net, _ = train(net, dataset, config.pre_train)
        stages.append(_stage_report("pre_train", net, dataset))
    if config.method == "weight_pruning":
        net = weight_prune(net, threshold=config.threshold, ratio=config.ratio)
        stages.append(_stage_report("weight_pruning", net, dataset))
    else:
        net = network_slim(net, config.ratio)
        stages.append(_stage_report("network_slimming", net, dataset))
    if config.fine_tune is not None:
        net, _ = train(net, dataset, config.fine_tune)
        stages.append(_stage_report("fine_tune", net, dataset))
    return net, {"method": config.method, "stages": stages}
