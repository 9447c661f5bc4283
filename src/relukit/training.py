"""Native training: batch-stat forward, analytic backprop, Adam updates.

The optimized objective is softmax cross-entropy plus an L2 penalty on
connection weights (lambda / (2 * batch) * sum w^2) plus an L1 penalty on
batch-norm scales (slim_lambda * sum |gamma|). The literal 0-1 risk and the
unsquared L2 regularizer are reported as metrics but never optimized.
"""

import math
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datasets import Dataset, Split
from .network import (BatchNorm1DNode, FullyConnectedNode, ReLUNode,
                      SequentialNetwork, _require_valid, forward_batch)
from .tensor import NonFiniteError, check_fields

__all__ = ["TrainingConfig", "AdamState", "init_network", "loss_and_grads",
           "adam_step", "train", "evaluate"]


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
        check_fields(self)
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


def _views(params: dict, flat: np.ndarray) -> dict:
    """Views of the vector `flat`, one per entry of `params` and shaped like
    it, laid out in params' order."""
    views, offset = {}, 0
    for key, p in params.items():
        views[key] = flat[offset:offset + p.size].reshape(p.shape)
        offset += p.size
    return views


def _bind_flat(net: SequentialNetwork, params: dict) -> np.ndarray:
    """Pack the arrays of `net` in `params`, keyed like _collect_params,
    into one new vector in their order, rebind each node's arrays as views
    of it, and return the vector."""
    flat = np.concatenate([p.ravel() for p in params.values()])
    for key, view in _views(params, flat).items():
        idx, name = key.split(".")
        setattr(net.nodes[int(idx)], name, view)
    return flat


# A training plan's records, one per node, hold the node's arrays and the
# views of the gradient vector its gradients go to; a ReLU's record is None.
# A batch-norm record's mu_at and var_at are the slices of the plan's stats
# vector that each forward pass writes the node's batch mean and variance
# to, laid out like train's vector of running statistics.
_FC = namedtuple("_FC", "W b dW db")
_BN = namedtuple("_BN", "gamma beta dgamma dbeta eps mu_at var_at")
# steps: the records in node order; grads: their gradient views keyed like
# _collect_params; bn_at: the indices of the batch-norm nodes.
_TrainPlan = namedtuple("_TrainPlan", "steps grads bn_at stats")


def _plan(net: SequentialNetwork, out: Optional[np.ndarray] = None):
    """The training plan of `net`, its gradients written into `out` (a
    float64 vector with one entry per parameter, laid out in _collect_params
    order), or into a new vector when out is None.

    The records hold `net`'s own arrays, so they see the in-place updates
    adam_step makes to them."""
    params = _collect_params(net)
    if out is None:
        out = np.empty(sum(p.size for p in params.values()))
    grads = _views(params, out)
    steps, bn_at, n_stats = [], [], 0
    for i, node in enumerate(net.nodes):
        if isinstance(node, FullyConnectedNode):
            steps.append(_FC(node.weights, node.bias, grads[f"{i}.weights"],
                             grads[f"{i}.bias"]))
        elif isinstance(node, BatchNorm1DNode):
            bn_at.append(i)
            k = node.dim
            steps.append(_BN(node.gamma, node.beta, grads[f"{i}.gamma"],
                             grads[f"{i}.beta"], node.eps,
                             slice(n_stats, n_stats + k),
                             slice(n_stats + k, n_stats + 2 * k)))
            n_stats += 2 * k
        else:
            steps.append(None)
    return _TrainPlan(steps, grads, bn_at, np.empty(n_stats))


def _checked_labels(labels, n_out: int) -> np.ndarray:
    """labels as an int64 array; ValueError naming the first label that is
    not an integer in [0, n_out)."""
    ys = np.asarray(labels)
    ok = (ys >= 0) & (ys < n_out)
    if ys.dtype.kind == "f":
        ok &= ys == np.trunc(ys)
    if not ok.all():
        raise ValueError(f"label {ys[~ok][0].item()!r} is not a class index "
                         f"in [0, {n_out})")
    return ys.astype(np.int64, copy=False)


def _forward_train(plan: _TrainPlan, xs: np.ndarray):
    """Batch-statistics forward; returns (outputs, per-node cache).

    The cache holds an FC node's input, a ReLU node's mask, and a batch-norm
    node's (xhat, inv_std); its batch mean and variance go to the plan's
    stats vector. A ReLU's masking and a batch norm's centring and scaling
    work in place on the array the FC or batch-norm step before them made;
    xs is only read.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ValueError(f"expected a (batch, features) matrix, got shape {xs.shape}")
    if xs.shape[0] == 0:
        raise ValueError("empty batch")
    if xs.shape[0] < 2 and plan.bn_at:
        raise ValueError("batch of size 1 cannot feed batch normalization "
                         "(batch variance needs at least 2 points)")
    h = xs
    cache = []
    for rec in plan.steps:
        kind = type(rec)
        if kind is _FC:
            cache.append(h)
            h = h @ rec.W.T
            h += rec.b
        elif kind is _BN:
            # what h.mean / h.var(axis=0) compute, bit for bit, without
            # their Python overhead; var is biased
            n = h.shape[0]
            mu = plan.stats[rec.mu_at]
            np.add.reduce(h, axis=0, out=mu)
            mu /= n
            h -= mu
            var = plan.stats[rec.var_at]
            np.add.reduce(h * h, axis=0, out=var)
            var /= n
            inv_std = 1.0 / np.sqrt(var + rec.eps)
            h *= inv_std
            cache.append((h, inv_std))
            h = rec.gamma * h + rec.beta
        else:
            mask = h > 0
            cache.append(mask)
            h *= mask
    return h, cache


def _softmax_ce(logits: np.ndarray, labels: np.ndarray):
    """(mean cross-entropy, its gradient with respect to logits), computed
    in place in logits."""
    n, m = logits.shape
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    probs = np.exp(logits)
    log_z = np.add.reduce(probs, axis=1, keepdims=True)
    np.log(log_z, out=log_z)
    logits -= log_z
    picked = np.arange(0, n * m, m) + labels  # each row's label, flat
    ce = -np.add.reduce(logits.take(picked)) / n  # .mean(), bit for bit
    np.exp(logits, out=probs)
    probs.ravel()[picked] -= 1.0
    probs /= n
    return ce, probs


def loss_and_grads(net: SequentialNetwork, xs: np.ndarray, labels: np.ndarray,
                   config: TrainingConfig, *,
                   plan: Optional[_TrainPlan] = None):
    """Surrogate loss and analytic gradients for every parameter.

    Returns (loss, grads, parts): grads keyed like _collect_params, parts the
    decomposition {"surrogate", "l2", "slim"}. Every gradient is written
    into a view of the plan's gradient vector, laid out in _collect_params
    order, and each batch norm's batch mean and variance into the plan's
    stats vector. Each label must be an integer in [0, output_dim).

    train passes `plan`, built once per call by _plan after it has checked
    the network and every label, so each call overwrites the gradients and
    batch stats of the call before; without it the network and the labels
    are checked and a plan is built for this one call.
    """
    if plan is None:
        _require_valid(net)
        labels = _checked_labels(labels, net.output_dim)
        plan = _plan(net)
    logits, cache = _forward_train(plan, xs)
    n_b = logits.shape[0]
    if labels.shape[0] != n_b:
        raise ValueError("labels/batch size mismatch")
    ce, dh = _softmax_ce(logits, labels)
    lam, lam_s = config.l2_lambda, config.slim_lambda

    l2_term = 0.0
    slim_term = 0.0
    steps = plan.steps
    for i in range(len(steps) - 1, -1, -1):
        rec = steps[i]
        kind = type(rec)
        if kind is _FC:
            W, _, dW, db = rec
            np.matmul(dh.T, cache[i], out=dW)
            np.add.reduce(dh, axis=0, out=db)
            if i > 0:  # nothing reads the gradient of the input
                dh = dh @ W
            if lam > 0:
                l2_term += 0.5 * lam / n_b * float(np.sum(W ** 2))
                dW += lam / n_b * W
        elif kind is _BN:
            xhat, inv_std = cache[i]
            gamma, dgamma = rec.gamma, rec.dgamma
            np.add.reduce(dh * xhat, axis=0, out=dgamma)
            np.add.reduce(dh, axis=0, out=rec.dbeta)
            dxhat = dh * gamma
            # sums over n_b, as .mean(axis=0) takes them; xhat * S / n_b
            # would round differently
            dh = inv_std * (dxhat - np.add.reduce(dxhat, axis=0) / n_b
                            - xhat * (np.add.reduce(dxhat * xhat, axis=0)
                                      / n_b))
            if lam_s > 0:
                slim_term += lam_s * float(np.sum(np.abs(gamma)))
                # L1 subgradient at 0 taken as 0
                dgamma += lam_s * np.sign(gamma)
        else:
            dh *= cache[i]

    loss = ce + l2_term + slim_term
    if not np.isfinite(loss):
        raise NonFiniteError("non-finite training loss")
    parts = {"surrogate": float(ce), "l2": float(l2_term),
             "slim": float(slim_term)}
    return float(loss), plan.grads, parts


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


# _misclassified runs forward_batch over blocks of at most this many rows,
# of near-equal size, so its peak memory does not grow with the split. On
# [784, 64, 32, 16, 10] with one BLAS thread, 60,000 rows took 199 ms with
# a traced peak of 3.1 MB, against 309 ms and 92 MB in one call (1,024
# rows: 211 ms; 4,096: 235 ms). Each row's outputs equal those of one
# whole-split call as long as no block is small: OpenBLAS multiplies some
# products of fewer than about 1,200 / out_width rows on another path,
# whose sums can differ in the last bit, and near-equal blocks of a split
# above one block hold at least 1,024 rows each.
_EVAL_ROWS = 2048

# train measures an epoch's accuracies beside the next epoch, on a copy of
# the network in one worker thread, when the pass has at least this many
# multiply-adds (rows of both splits times FC weights). Below it, the
# second thread slows the main thread about as much as the pass takes, or
# more (small numpy calls hold the GIL). On a 2-vCPU host with one BLAS
# thread, whole 10-epoch train calls (medians of 15 to 25 alternating
# pairs per shape) ran up to 43% slower beside the pass below 7 M
# multiply-adds, from 4% faster to 16% slower between 8 M and 13 M, and
# 4% to 12% faster from 16 M to 159 M. The 784-dim bench shape has 32 M.
_BESIDE_MIN_MACS = 20_000_000


def _misclassified(net: SequentialNetwork, xs, ys) -> int:
    """How many rows of xs net assigns to another class than ys says."""
    n = len(ys)
    blocks = -(-n // _EVAL_ROWS)
    wrong = 0
    for k in range(blocks):
        rows = slice(n * k // blocks, n * (k + 1) // blocks)
        wrong += int((forward_batch(net, xs[rows]).argmax(axis=1)
                      != ys[rows]).sum())
    return wrong


def _accuracies(net: SequentialNetwork, train_split, test_split,
                lam: float) -> dict:
    """The measured part of net's epoch entry: the literal objective (0-1
    empirical risk plus lambda times the unsquared L2 regularizer), its
    parts, and the train and test accuracies (NaN without a test split);
    each split is (xs, checked labels) or None."""
    n = len(train_split[1])
    err01 = _misclassified(net, *train_split) / n
    test_acc = (1.0 - _misclassified(net, *test_split) / len(test_split[1])
                if test_split else float("nan"))
    sq = sum(float(np.sum(node.weights ** 2)) for node in net.nodes
             if isinstance(node, FullyConnectedNode))
    reg = np.sqrt(sq) / (2 * n)
    return {"literal_objective": err01 + lam * reg,
            "literal_err01": err01,
            "literal_regularizer": reg,
            "train_accuracy": 1.0 - err01,
            "test_accuracy": test_acc}


def train(net: SequentialNetwork, dataset: Dataset, config: TrainingConfig):
    """Mini-batch Adam training; returns (trained_net, per-epoch metrics).

    Deterministic for fixed (net, dataset, config); the input net is not
    mutated. Batches are gathered from the train split's arrays, and the
    per-epoch accuracies read both splits' arrays in place. The trained
    net's FC weights and biases and BN gammas and betas are views of one
    parameter vector. Each batch's gradients are written into one gradient
    vector of the same layout, which one adam_step call per batch reads to
    update the parameters in place. The BN running statistics are views of
    one more vector, updated in place from the plan's batch statistics.

    When the accuracy pass has at least _BESIDE_MIN_MACS multiply-adds, it
    runs on a copy of the epoch's network in one worker thread while the
    next epoch trains; it only reads that copy, so the results are those
    of the inline pass. A pass's error is raised before any error of the
    epochs after it, and the worker ends before train returns or raises.
    """
    _require_valid(net)
    if dataset.input_dim != net.input_dim:
        raise ValueError("dataset input_dim does not match network")
    net = net.copy()
    metrics: list[dict] = []
    if config.epochs == 0 or not dataset.train:
        return net, metrics

    xs_all = dataset.train.xs
    ys_all = _checked_labels(dataset.train.ys, net.output_dim)
    n = xs_all.shape[0]
    test_split = ((dataset.test.xs,
                   _checked_labels(dataset.test.ys, net.output_dim))
                  if dataset.test else None)
    splits = ((xs_all, ys_all), test_split, config.l2_lambda)
    beside = (n + len(dataset.test)) * sum(
        node.weights.size for node in net.nodes
        if isinstance(node, FullyConnectedNode)) >= _BESIDE_MIN_MACS
    rng = np.random.default_rng(config.seed)
    flat = _bind_flat(net, _collect_params(net))
    flat_g = np.empty_like(flat)
    plan = _plan(net, flat_g)
    stats = {f"{i}.{name}": getattr(net.nodes[i], name) for i in plan.bn_at
             for name in ("running_mean", "running_var")}
    running = _bind_flat(net, stats) if stats else None
    state = AdamState()
    mom = config.bn_momentum

    worker = nullcontext()
    if beside:
        # imported here, as it loads logging and traceback (0.5 MB of
        # resident memory) that the inline pass never needs
        from concurrent.futures import ThreadPoolExecutor
        worker = ThreadPoolExecutor(1)
    with worker:
        pending = None  # (losses, future) of the pass not yet joined
        for epoch in range(config.epochs):
            try:
                perm = rng.permutation(n)
                starts = list(range(0, n, config.batch_size))
                # A trailing singleton batch cannot feed batch norm; merge
                # it back.
                if (running is not None and len(starts) > 1
                        and n - starts[-1] == 1):
                    starts.pop()
                epoch_parts = {"surrogate": 0.0, "l2": 0.0, "slim": 0.0}
                epoch_loss = 0.0
                for b, start in enumerate(starts):
                    idx = (perm[start:start + config.batch_size]
                           if b < len(starts) - 1 else perm[start:])
                    loss, _, parts = loss_and_grads(
                        net, xs_all[idx], ys_all[idx], config, plan=plan)
                    adam_step(flat, flat_g, state, config)
                    if running is not None:
                        running *= 1 - mom
                        running += mom * plan.stats
                    epoch_loss += loss
                    for key in epoch_parts:
                        epoch_parts[key] += parts[key]
            finally:
                # The pass of the epoch before is joined even when this
                # epoch raised, so its error is the one that leaves.
                if pending is not None:
                    metrics.append({**pending[0], **pending[1].result()})
            n_batches = len(starts)
            losses = {"epoch": epoch, "loss": epoch_loss / n_batches,
                      **{f"loss_{key}": part / n_batches
                         for key, part in epoch_parts.items()}}
            if beside:
                pending = (losses,
                           worker.submit(_accuracies, net.copy(), *splits))
            else:
                metrics.append({**losses, **_accuracies(net, *splits)})
        if pending is not None:
            metrics.append({**pending[0], **pending[1].result()})
    return net, metrics


def evaluate(net: SequentialNetwork, samples):
    """(accuracy, misclassification count) over a Split, read in place, or
    any other iterable of Samples, copied into one first; each label must be
    a class index in [0, output_dim)."""
    split = Split.of(samples, net.input_dim)
    if not split:
        raise ValueError("cannot evaluate on an empty sample list")
    wrong = _misclassified(net, split.xs,
                           _checked_labels(split.ys, net.output_dim))
    return 1.0 - wrong / len(split), wrong
