"""Native verification engine: interval bound propagation plus branch and
bound with exact activation-pattern leaf decisions.

Networks are batch-norm-folded before analysis, so the engine only ever sees
alternating fully-connected and ReLU layers. Verdicts are violation-oriented:
Verified means no input in the box satisfies any violation disjunct,
Falsified comes with a concretely re-validated counterexample.
"""

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .network import (FullyConnectedNode, ReLUNode, SequentialNetwork,
                      fold_batchnorm, forward, forward_batch)
from .properties import (Box, LinearAtom, Property, satisfies_disjunct,
                         violated_disjunct)

__all__ = ["Status", "Counterexample", "VerificationResult", "BabConfig",
           "interval_forward", "verify_ibp", "verify_bab", "check_pattern",
           "lp_feasible", "falsify_sample", "root_unstable_count",
           "LPUndecidedError", "SpuriousWitnessError"]

CEX_TOL = 1e-7


class Status(str, Enum):
    VERIFIED = "Verified"
    FALSIFIED = "Falsified"
    UNKNOWN = "Unknown"


class LPUndecidedError(RuntimeError):
    """LP solver gave neither a feasible point nor an infeasibility proof."""


class SpuriousWitnessError(RuntimeError):
    """LP point failed concrete re-validation; node must be treated as
    undecided."""


@dataclass
class Counterexample:
    input: np.ndarray
    output: np.ndarray
    disjunct: int


@dataclass
class VerificationResult:
    status: Status
    counterexample: Optional[Counterexample] = None
    stats: dict = field(default_factory=dict)


@dataclass
class BabConfig:
    max_nodes: int = 100000
    min_box_width: float = 1e-6
    enum_threshold: int = 12
    time_budget: float = 600.0
    sample_count: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, ok, rule in (
                ("max_nodes", self.max_nodes >= 1, ">= 1"),
                ("enum_threshold", self.enum_threshold >= 0, ">= 0"),
                ("min_box_width", self.min_box_width > 0, "> 0"),
                ("time_budget", self.time_budget > 0, "> 0"),
                ("sample_count", self.sample_count >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, "
                                 f"got {getattr(self, name)!r}")


def _is_folded(net: SequentialNetwork) -> bool:
    return all(isinstance(n, (FullyConnectedNode, ReLUNode)) for n in net.nodes)


def _folded(net: SequentialNetwork) -> SequentialNetwork:
    return net if _is_folded(net) else fold_batchnorm(net)


def interval_forward(net: SequentialNetwork, box: Box):
    """Per-node interval bounds over a folded network.

    Returns a list aligned with net.nodes; FC entries carry pre-activation
    bounds, ReLU entries the clamped post-activation bounds. Sound: every
    concrete activation for x in box lies inside its interval.
    """
    if not _is_folded(net):
        raise ValueError("expected a folded (FC/ReLU only) network")
    lo, hi = box.lo.copy(), box.hi.copy()
    bounds = []
    for node in net.nodes:
        if isinstance(node, FullyConnectedNode):
            w_pos = np.maximum(node.weights, 0.0)
            w_neg = np.minimum(node.weights, 0.0)
            lo, hi = (w_pos @ lo + w_neg @ hi + node.bias,
                      w_pos @ hi + w_neg @ lo + node.bias)
        else:
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        bounds.append((lo, hi))
    return bounds


def _atom_lower_bound(atom: LinearAtom, lo: np.ndarray, hi: np.ndarray) -> float:
    pos = np.maximum(atom.coeffs, 0.0)
    neg = np.minimum(atom.coeffs, 0.0)
    return float(pos @ lo + neg @ hi)


def _bound(net: SequentialNetwork, box: Box, violation=()):
    """The bounding step over a folded network, shared by every engine.

    Returns (pre_lo, pre_hi, unstable, alive): the interval bounds of every
    hidden pre-activation as two flat vectors (empty without a hidden layer),
    the number of hidden ReLUs whose bounds straddle 0, and the indices of the
    violation disjuncts the output bounds do not refute.
    """
    bounds = interval_forward(net, box)
    pre = [b for b, nxt in zip(bounds, net.nodes[1:])
           if isinstance(nxt, ReLUNode)]
    pre_lo = np.concatenate([np.zeros(0)] + [lo for lo, _ in pre])
    pre_hi = np.concatenate([np.zeros(0)] + [hi for _, hi in pre])
    unstable = int(np.sum((pre_lo < 0.0) & (pre_hi > 0.0)))
    out_lo, out_hi = bounds[-1]
    alive = [j for j, disjunct in enumerate(violation)
             if not any(_atom_lower_bound(a, out_lo, out_hi) > a.rhs
                        for a in disjunct)]
    return pre_lo, pre_hi, unstable, alive


def _validated_cex(net, prop, x) -> Optional[Counterexample]:
    y = forward(net, x)
    j = violated_disjunct(y, prop.violation, tol=CEX_TOL)
    if j is None:
        return None
    return Counterexample(np.asarray(x, dtype=np.float64), y, j)


def _sample_points(box: Box, count: int, rng) -> np.ndarray:
    return np.vstack([box.center()[None, :],
                      rng.uniform(box.lo, box.hi, size=(count, box.dim))])


def _falsify(net, folded, prop, points) -> Optional[Counterexample]:
    """The first point, in point-major order, whose output on `folded`
    satisfies a violation disjunct, re-validated on `net`; None when no point
    does or the first one fails re-validation."""
    ys = forward_batch(folded, points)
    for i in range(points.shape[0]):
        for disjunct in prop.violation:
            if satisfies_disjunct(ys[i], disjunct, tol=0.0):
                return _validated_cex(net, prop, points[i])
    return None


def verify_ibp(net: SequentialNetwork, prop: Property,
               sample_count: int = 32, seed: int = 0) -> VerificationResult:
    """The root node of verify_bab: interval refutation, a quick sampling
    falsification, and one exact LP when no ReLU is unstable."""
    return verify_bab(net, prop, BabConfig(max_nodes=1, enum_threshold=0,
                                           sample_count=sample_count,
                                           seed=seed))


def lp_feasible(a_ub: np.ndarray, b_ub: np.ndarray, box: Box):
    """Point satisfying a_ub @ x <= b_ub inside the box, or None if the
    system is infeasible. Raises LPUndecidedError on solver distress."""
    bounds = list(zip(box.lo, box.hi))
    if a_ub.shape[0] == 0:
        return box.center()
    res = linprog(c=np.zeros(box.dim), A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                  method="highs")
    if res.status == 0:
        return np.asarray(res.x, dtype=np.float64)
    if res.status == 2:
        return None
    raise LPUndecidedError(f"linprog status {res.status}: {res.message}")


def _affine_maps(net: SequentialNetwork, pattern: np.ndarray):
    """Affine expression of every pre-activation and the output as functions
    of the input, under a total activation pattern (1 active, 0 inactive).

    Returns (sign_rows, sign_rhs, a_out, c_out): sign constraints already
    oriented as rows @ x <= rhs.
    """
    if not _is_folded(net):
        raise ValueError("expected a folded (FC/ReLU only) network")
    d = net.input_dim
    a = np.eye(d)
    c = np.zeros(d)
    sign_rows = []
    sign_rhs = []
    k = 0
    fc_nodes = [n for n in net.nodes if isinstance(n, FullyConnectedNode)]
    for li, node in enumerate(fc_nodes):
        a = node.weights @ a
        c = node.weights @ c + node.bias
        if li == len(fc_nodes) - 1:
            break
        width = node.out_dim
        active = pattern[k:k + width].astype(bool)
        k += width
        # active: pre >= 0  ->  -row @ x <= const ; inactive: row @ x <= -const
        sign_rows.append(np.where(active[:, None], -a, a))
        sign_rhs.append(np.where(active, c, -c))
        a = a * active[:, None]
        c = c * active
    if k != pattern.shape[0]:
        raise ValueError(f"pattern length {pattern.shape[0]} != hidden "
                         f"neuron count {k}")
    rows = np.vstack(sign_rows) if sign_rows else np.zeros((0, d))
    rhs = np.concatenate(sign_rhs) if sign_rhs else np.zeros(0)
    return rows, rhs, a, c


def check_pattern(net: SequentialNetwork, box: Box, pattern: np.ndarray,
                  disjunct) -> Optional[np.ndarray]:
    """Feasibility of one total activation pattern against one disjunct.

    Returns a witness input or None (infeasible). A witness failing concrete
    re-validation raises SpuriousWitnessError.
    """
    rows, rhs, a_out, c_out = _affine_maps(net, np.asarray(pattern))
    atom_rows = np.stack([atom.coeffs @ a_out for atom in disjunct])
    atom_rhs = np.array([atom.rhs - float(atom.coeffs @ c_out)
                         for atom in disjunct])
    x = lp_feasible(np.vstack([rows, atom_rows]),
                    np.concatenate([rhs, atom_rhs]), box)
    if x is None:
        return None
    y = forward(net, x)
    if not satisfies_disjunct(y, disjunct, tol=CEX_TOL):
        raise SpuriousWitnessError("LP witness failed concrete re-validation")
    return x


def _enum_decide(net, box, prop, alive, los, his, counters):
    """Exact decision for a node whose free neurons are enumerable.

    Returns a Counterexample, or None when the node is proven safe.
    """
    base = np.where(los >= 0.0, 1, 0)
    free = np.flatnonzero((los < 0.0) & (his > 0.0))
    for bits in range(1 << free.size):
        pattern = base.copy()
        for b in range(free.size):
            pattern[free[b]] = (bits >> b) & 1
        for j in alive:
            counters["lp_calls"] += 1
            x = check_pattern(net, box, pattern, prop.violation[j])
            if x is not None:
                cex = _validated_cex(net, prop, x)
                if cex is None:
                    raise SpuriousWitnessError(
                        "pattern witness failed property re-validation")
                return cex
    return None


def verify_bab(net: SequentialNetwork, prop: Property,
               config: BabConfig = None) -> VerificationResult:
    """Branch-and-bound decision over the input box.

    Per node: IBP refutation, concrete sampling, exact enumeration when few
    ReLUs are unstable, else split the widest input dimension at its
    midpoint. Verified only when every node is refuted or exactly decided
    safe; Falsified only with a concretely re-validated counterexample.
    """
    if config is None:
        config = BabConfig()
    start = time.monotonic()
    folded = _folded(net)
    rng = np.random.default_rng(config.seed)
    counters = {"lp_calls": 0}
    worklist = [prop.input_box]
    nodes = 0
    undecided = 0

    def result(status, cex=None, reason=None):
        stats = {"nodes": nodes, "lp_calls": counters["lp_calls"],
                 "wall_time": time.monotonic() - start}
        if reason:
            stats["reason"] = reason
        return VerificationResult(status, cex, stats)

    while worklist:
        if nodes >= config.max_nodes:
            return result(Status.UNKNOWN, reason="node budget exhausted")
        if time.monotonic() - start > config.time_budget:
            return result(Status.UNKNOWN, reason="time budget exhausted")
        box = worklist.pop()
        nodes += 1

        los, his, free, alive = _bound(folded, box, prop.violation)
        if not alive:
            continue

        cex = _falsify(net, folded, prop,
                       _sample_points(box, config.sample_count, rng))
        if cex is not None:
            return result(Status.FALSIFIED, cex)

        if free <= config.enum_threshold:
            try:
                cex = _enum_decide(folded, box, prop, alive, los, his,
                                   counters)
            except (SpuriousWitnessError, LPUndecidedError):
                pass  # no exact decision here: split the box instead
            else:
                if cex is not None:
                    return result(Status.FALSIFIED, cex)
                continue

        widths = box.hi - box.lo
        split_dim = int(np.argmax(widths))
        if widths[split_dim] < config.min_box_width:
            undecided += 1  # box too thin to split, not decided exactly
            continue
        mid = (box.lo[split_dim] + box.hi[split_dim]) / 2.0
        left_hi = box.hi.copy(); left_hi[split_dim] = mid
        right_lo = box.lo.copy(); right_lo[split_dim] = mid
        worklist.append(Box(box.lo.copy(), left_hi))
        worklist.append(Box(right_lo, box.hi.copy()))

    if undecided:
        return result(Status.UNKNOWN,
                      reason=f"{undecided} nodes hit the minimum box width")
    return result(Status.VERIFIED)


def falsify_sample(net: SequentialNetwork, prop: Property, n_samples: int,
                   seed: int = 0) -> Optional[Counterexample]:
    """Seeded random falsification: box corners (when dim <= 12) plus
    uniform samples; returns the first validated witness."""
    box = prop.input_box
    points = []
    if box.dim <= 12:
        grid = np.stack(np.meshgrid(*[(box.lo[i], box.hi[i])
                                      for i in range(box.dim)],
                                    indexing="ij"), axis=-1)
        points.append(grid.reshape(-1, box.dim))
    if n_samples > 0:
        rng = np.random.default_rng(seed)
        points.append(rng.uniform(box.lo, box.hi, size=(n_samples, box.dim)))
    return _falsify(net, _folded(net), prop, np.vstack(points))


def root_unstable_count(net: SequentialNetwork, box: Box) -> int:
    """Number of hidden ReLUs whose root IBP pre-activation straddles 0."""
    return _bound(_folded(net), box)[2]
