"""Native training: batch-stat forward, analytic backprop, Adam updates.

The optimized objective is softmax cross-entropy plus an L2 penalty on
connection weights (lambda / (2 * batch) * sum w^2) plus an L1 penalty on
batch-norm scales (slim_lambda * sum |gamma|). The literal 0-1 risk and the
unsquared L2 regularizer are reported as metrics but never optimized.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import Dataset
from .network import (BatchNorm1DNode, FullyConnectedNode, ReLUNode,
                      SequentialNetwork, _require_valid, forward_batch)
from .tensor import NonFiniteError, require_int

__all__ = ["TrainingConfig", "AdamState", "init_network", "loss_and_grads",
           "adam_step", "train", "evaluate"]


_FLOAT_FIELDS = ("learning_rate", "beta1", "beta2", "adam_eps", "l2_lambda",
                 "slim_lambda", "bn_momentum")


@dataclass
class TrainingConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    l2_lambda: float = 0.0
    slim_lambda: float = 0.0
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    bn_momentum: float = 0.1

    def __post_init__(self):
        require_int(self, "batch_size", "epochs", "seed")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1/beta2 must lie in (0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        if self.l2_lambda < 0 or self.slim_lambda < 0:
            raise ValueError("regularization weights must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not (0 < self.bn_momentum <= 1):
            raise ValueError("bn_momentum must lie in (0, 1]")


@dataclass
class AdamState:
    """Step count, and Adam's two moments (m, v) and one scratch buffer
    (scratch), each shaped like the parameter vector and allocated at the
    first step."""
    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    t: int = 0
    scratch: Optional[np.ndarray] = None


def init_network(widths: list[int], seed: int = 0, with_bn: bool = True,
                 name: str = "net") -> SequentialNetwork:
    """Seeded fresh network: widths [d, h1, ..., hk, m], FC[-BN]-ReLU blocks.

    FC weights uniform in +-sqrt(6 / (in + out)), biases 0, gamma 1, beta 0,
    running stats (0, 1).
    """
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(len(widths) - 1):
        d_in, d_out = widths[i], widths[i + 1]
        limit = np.sqrt(6.0 / (d_in + d_out))
        nodes.append(FullyConnectedNode(
            rng.uniform(-limit, limit, size=(d_out, d_in)), np.zeros(d_out)))
        if i < len(widths) - 2:
            if with_bn:
                nodes.append(BatchNorm1DNode(
                    np.ones(d_out), np.zeros(d_out),
                    np.zeros(d_out), np.ones(d_out), 1e-5))
            nodes.append(ReLUNode(d_out))
    return SequentialNetwork(name, widths[0], nodes)


def _collect_params(net: SequentialNetwork) -> dict:
    params = {}
    for i, node in enumerate(net.nodes):
        if isinstance(node, FullyConnectedNode):
            params[f"{i}.weights"] = node.weights
            params[f"{i}.bias"] = node.bias
        elif isinstance(node, BatchNorm1DNode):
            params[f"{i}.gamma"] = node.gamma
            params[f"{i}.beta"] = node.beta
    return params


def _assign_params(net: SequentialNetwork, params: dict) -> None:
    for key, value in params.items():
        idx, name = key.split(".")
        setattr(net.nodes[int(idx)], name, value)


def _views(params: dict, flat: np.ndarray) -> dict:
    """Views of the vector `flat`, one per entry of `params` and shaped like
    it, laid out in params' order."""
    views, offset = {}, 0
    for key, p in params.items():
        views[key] = flat[offset:offset + p.size].reshape(p.shape)
        offset += p.size
    return views


def _bind_flat(net: SequentialNetwork) -> np.ndarray:
    """Pack every trainable parameter of `net` into one new vector, in
    _collect_params order, rebind each node's arrays as views of it, and
    return the vector."""
    params = _collect_params(net)
    flat = np.concatenate([p.ravel() for p in params.values()])
    _assign_params(net, _views(params, flat))
    return flat


def _has_bn(net: SequentialNetwork) -> bool:
    return any(isinstance(n, BatchNorm1DNode) for n in net.nodes)


def _forward_train(net: SequentialNetwork, xs: np.ndarray):
    """Batch-statistics forward; returns (outputs, per-node cache).

    The cache holds an FC node's input, a ReLU node's mask, and a batch-norm
    node's {"xhat", "inv_std", "mu", "var"}.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ValueError(f"expected a (batch, features) matrix, got shape {xs.shape}")
    if xs.shape[0] == 0:
        raise ValueError("empty batch")
    if xs.shape[0] < 2 and _has_bn(net):
        raise ValueError("batch of size 1 cannot feed batch normalization "
                         "(batch variance needs at least 2 points)")
    h = xs
    cache = []
    for node in net.nodes:
        if isinstance(node, FullyConnectedNode):
            cache.append(h)
            h = h @ node.weights.T + node.bias
        elif isinstance(node, BatchNorm1DNode):
            # what h.mean / h.var(axis=0) compute, bit for bit, without
            # their Python overhead; var is biased
            n = h.shape[0]
            mu = h.sum(axis=0) / n
            d = h - mu
            var = (d * d).sum(axis=0) / n
            inv_std = 1.0 / np.sqrt(var + node.eps)
            xhat = d * inv_std
            cache.append({"xhat": xhat, "inv_std": inv_std, "mu": mu, "var": var})
            h = node.gamma * xhat + node.beta
        else:
            mask = h > 0
            cache.append(mask)
            h = h * mask
    return h, cache


def _softmax_ce(logits: np.ndarray, labels: np.ndarray):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    n = logits.shape[0]
    ce = -log_p[np.arange(n), labels].sum() / n  # .mean(), bit for bit
    probs = np.exp(log_p)
    probs[np.arange(n), labels] -= 1.0
    probs /= n
    return ce, probs


def loss_and_grads(net: SequentialNetwork, xs: np.ndarray, labels: np.ndarray,
                   config: TrainingConfig, out: Optional[np.ndarray] = None):
    """Surrogate loss and analytic gradients for every parameter.

    Returns (loss, grads, parts): grads keyed like _collect_params, parts the
    decomposition {"surrogate", "l2", "slim"} plus the per-BN batch stats
    needed for running-stat updates. Every gradient is written into a view
    of one vector laid out in _collect_params order: `out` when given (a
    contiguous float64 vector with one entry per parameter, overwritten),
    else a new one.
    """
    labels = np.asarray(labels, dtype=np.int64)
    logits, cache = _forward_train(net, xs)
    n_b = xs.shape[0]
    if labels.shape[0] != n_b:
        raise ValueError("labels/batch size mismatch")
    params = _collect_params(net)
    size = sum(p.size for p in params.values())
    if out is None:
        out = np.empty(size)
    elif (out.shape != (size,) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a contiguous float64 vector of "
                         f"{size} entries")
    grads = _views(params, out)
    ce, dh = _softmax_ce(logits, labels)
    lam, lam_s = config.l2_lambda, config.slim_lambda

    l2_term = 0.0
    slim_term = 0.0
    for i in range(len(net.nodes) - 1, -1, -1):
        node = net.nodes[i]
        if isinstance(node, FullyConnectedNode):
            dw = grads[f"{i}.weights"]
            np.matmul(dh.T, cache[i], out=dw)
            np.add.reduce(dh, axis=0, out=grads[f"{i}.bias"])
            if i > 0:  # nothing reads the gradient of the input
                dh = dh @ node.weights
            if lam > 0:
                l2_term += 0.5 * lam / n_b * float(np.sum(node.weights ** 2))
                dw += lam / n_b * node.weights
        elif isinstance(node, BatchNorm1DNode):
            c = cache[i]
            xhat, inv_std = c["xhat"], c["inv_std"]
            dgamma = grads[f"{i}.gamma"]
            np.add.reduce(dh * xhat, axis=0, out=dgamma)
            np.add.reduce(dh, axis=0, out=grads[f"{i}.beta"])
            dxhat = dh * node.gamma
            # sums over n_b, as .mean(axis=0) takes them; xhat * S / n_b
            # would round differently
            dh = inv_std * (dxhat - dxhat.sum(axis=0) / n_b
                            - xhat * ((dxhat * xhat).sum(axis=0) / n_b))
            if lam_s > 0:
                slim_term += lam_s * float(np.sum(np.abs(node.gamma)))
                # L1 subgradient at 0 taken as 0
                dgamma += lam_s * np.sign(node.gamma)
        else:
            dh = dh * cache[i]

    loss = ce + l2_term + slim_term
    if not np.isfinite(loss):
        raise NonFiniteError("non-finite training loss")
    parts = {"surrogate": float(ce), "l2": float(l2_term),
             "slim": float(slim_term),
             "bn_stats": {i: (cache[i]["mu"], cache[i]["var"])
                          for i, node in enumerate(net.nodes)
                          if isinstance(node, BatchNorm1DNode)}}
    return float(loss), grads, parts


def adam_step(theta: np.ndarray, g: np.ndarray, state: AdamState,
              config: TrainingConfig) -> None:
    """One Adam update of the parameter vector theta, in place.

    theta and the moments state.m and state.v are overwritten; the gradient
    g is only read. The moments and one scratch buffer are allocated at the
    first step, so later steps allocate no parameter-sized array.

    The moments keep the operands and order of m = b1 * m + (1 - b1) * g and
    v = b2 * v + ((1 - b2) * g) * g. The update takes the efficient form of
    Kingma & Ba ("Adam", ICLR 2015, section 2):
    theta - alpha_t * (m / (sqrt(v) + eps_hat)), with
    alpha_t = lr * sqrt(1 - b2^t) / (1 - b1^t) and
    eps_hat = eps * sqrt(1 - b2^t). In exact arithmetic it equals
    theta - lr * m_hat / (sqrt(v_hat) + eps) with the bias-corrected
    moments, but it makes no bias-correction pass over the vector.
    """
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
        state.scratch = np.empty_like(theta)
    state.t += 1
    t = state.t
    b1, b2 = config.beta1, config.beta2
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
    alpha = config.learning_rate * math.sqrt(c2) / c1
    eps_hat = config.adam_eps * math.sqrt(c2)
    m, v, a = state.m, state.v, state.scratch
    np.multiply(m, b1, out=m)
    np.multiply(g, 1 - b1, out=a)
    m += a
    np.multiply(v, b2, out=v)
    np.multiply(g, 1 - b2, out=a)
    a *= g
    v += a
    np.sqrt(v, out=a)
    a += eps_hat
    np.divide(m, a, out=a)
    a *= alpha
    theta -= a


def _stack_split(samples):
    xs = np.stack([s.input for s in samples])
    ys = np.array([s.label for s in samples], dtype=np.int64)
    return xs, ys


def _misclassified(net: SequentialNetwork, xs, ys) -> int:
    return int((forward_batch(net, xs).argmax(axis=1) != ys).sum())


def _literal_objective(net: SequentialNetwork, err01: float,
                       n_samples: int, lam: float):
    """0-1 empirical risk plus lambda times the unsquared L2 regularizer."""
    sq = sum(float(np.sum(n.weights ** 2)) for n in net.nodes
             if isinstance(n, FullyConnectedNode))
    reg = np.sqrt(sq) / (2 * n_samples)
    return err01 + lam * reg, reg


def train(net: SequentialNetwork, dataset: Dataset, config: TrainingConfig):
    """Mini-batch Adam training; returns (trained_net, per-epoch metrics).

    Deterministic for fixed (net, dataset, config); the input net is not
    mutated. The trained net's FC weights and biases and BN gammas and betas
    are views of one parameter vector. Each batch's gradients are written
    into one gradient vector of the same layout, which one adam_step call
    per batch reads to update the parameters in place; the BN running
    statistics are also updated in place.
    """
    _require_valid(net)
    if dataset.input_dim != net.input_dim:
        raise ValueError("dataset input_dim does not match network")
    net = net.copy()
    metrics: list[dict] = []
    if config.epochs == 0 or not dataset.train:
        return net, metrics

    xs_all, ys_all = _stack_split(dataset.train)
    n = xs_all.shape[0]
    test_split = _stack_split(dataset.test) if dataset.test else None
    rng = np.random.default_rng(config.seed)
    flat = _bind_flat(net)
    flat_g = np.empty_like(flat)
    state = AdamState()
    has_bn = _has_bn(net)
    mom = config.bn_momentum

    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        starts = list(range(0, n, config.batch_size))
        # A trailing singleton batch cannot feed batch norm; merge it back.
        if has_bn and len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        epoch_parts = {"surrogate": 0.0, "l2": 0.0, "slim": 0.0}
        epoch_loss = 0.0
        for b, start in enumerate(starts):
            idx = perm[start:start + config.batch_size] if b < len(starts) - 1 \
                else perm[start:]
            loss, _, parts = loss_and_grads(net, xs_all[idx], ys_all[idx],
                                            config, out=flat_g)
            adam_step(flat, flat_g, state, config)
            for i, (mu, var) in parts["bn_stats"].items():
                bn = net.nodes[i]
                bn.running_mean *= 1 - mom
                bn.running_mean += mom * mu
                bn.running_var *= 1 - mom
                bn.running_var += mom * var
            epoch_loss += loss
            for key in epoch_parts:
                epoch_parts[key] += parts[key]

        n_batches = len(starts)
        err01 = _misclassified(net, xs_all, ys_all) / n
        test_acc = (1.0 - _misclassified(net, *test_split) / len(dataset.test)
                    if test_split else float("nan"))
        literal_j, literal_reg = _literal_objective(net, err01, n,
                                                    config.l2_lambda)
        metrics.append({
            "epoch": epoch,
            "loss": epoch_loss / n_batches,
            "loss_surrogate": epoch_parts["surrogate"] / n_batches,
            "loss_l2": epoch_parts["l2"] / n_batches,
            "loss_slim": epoch_parts["slim"] / n_batches,
            "literal_objective": literal_j,
            "literal_err01": err01,
            "literal_regularizer": literal_reg,
            "train_accuracy": 1.0 - err01,
            "test_accuracy": test_acc,
        })
    return net, metrics


def evaluate(net: SequentialNetwork, samples):
    """(accuracy, misclassification count) over a sample list."""
    if not samples:
        raise ValueError("cannot evaluate on an empty sample list")
    wrong = _misclassified(net, *_stack_split(samples))
    return 1.0 - wrong / len(samples), wrong
