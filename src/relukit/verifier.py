"""Native verification engine: back-substituted linear bounds plus one
branch-and-bound tree over input boxes and ReLU phases, with an exact LP
decision at each leaf.

Networks are batch-norm-folded before analysis, so the engine only ever sees
alternating fully-connected and ReLU layers. Verdicts are violation-oriented:
Verified means no input in the box satisfies any violation disjunct,
Falsified comes with a concretely re-validated counterexample.
"""

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .network import (FullyConnectedNode, ReLUNode, SequentialNetwork,
                      _params, _require_valid, fold_batchnorm, forward,
                      forward_batch)
from .properties import (Box, Property, satisfies_disjunct,
                         violated_disjunct)
from .tensor import require_int

__all__ = ["Status", "Counterexample", "VerificationResult", "BabConfig",
           "interval_forward", "verify_ibp", "verify_bab", "check_pattern",
           "lp_feasible", "falsify_sample", "root_unstable_count",
           "LPUndecidedError", "SpuriousWitnessError"]

CEX_TOL = 1e-7
# How far an LP point may miss the box or the rows: scipy's linprog check,
# sqrt of its default tol 1e-9, times 10
LP_TOL = np.sqrt(1e-9) * 10
# How far rounding alone may push lo above hi: where the net is constant, the
# interval and back-substituted bounds are one value rounded two ways
EMPTY_TOL = 1e-9
DESCENT_STEPS = 8  # sign-gradient steps of verify_bab's root descent
_thread = threading.local()  # each thread's HiGHS solver and fold memo


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
    """Limits and seeds of verify_bab. max_nodes counts every node, phase
    splits too; time_budget (seconds) is checked before each node, so one
    leaf's LPs, one sampling batch or the root descent's DESCENT_STEPS steps
    can overrun it. So can the first LP of a process, which loads the solver
    (about 0.4 s, counted in that call's wall_time). A node with 1 to
    enum_threshold unstable ReLUs branches on a ReLU phase. sample_count
    uniform points, with the centre, are tried at each node with a new box,
    and the root descent starts from them; 0 turns the descent off."""
    max_nodes: int = 100000
    min_box_width: float = 1e-6
    enum_threshold: int = 12
    time_budget: float = 600.0
    sample_count: int = 32
    seed: int = 0

    def __post_init__(self):
        require_int(self, "max_nodes", "enum_threshold", "sample_count",
                    "seed")
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


def _content_key(net: SequentialNetwork) -> tuple:
    """What validate and fold_batchnorm read from net, copied: name,
    input_dim, each node's type, eps and dim, and each parameter array's
    shape, dtype and values (joined as float64, as the fold casts them)."""
    arrays = [a for node in net.nodes for a in _params(node)]
    return (net.name, net.input_dim,
            [(type(n), getattr(n, "eps", None), getattr(n, "dim", None))
             for n in net.nodes],
            [(a.shape, a.dtype) for a in arrays],
            np.concatenate([np.zeros(0), *arrays], axis=None).tobytes())


def _folded(net: SequentialNetwork) -> SequentialNetwork:
    """net validated and batch-norm-folded (net itself without batch norm);
    ValueError if invalid. Each thread remembers the last valid net's content
    key, fold and plan (_plan), so the same content is not validated, folded
    or planned again. Neither shares an array with a caller or is mutated."""
    key = _content_key(net)
    memo = getattr(_thread, "fold", None)
    if memo is None or memo[0] != key:
        fold = None if _is_folded(net) else fold_batchnorm(net)
        if fold is None:
            _require_valid(net)
        fcs = [(np.array(n.weights), np.array(n.bias)) for n in
               (net if fold is None else fold).nodes
               if isinstance(n, FullyConnectedNode)]
        plan = tuple((w, b, np.maximum(w, 0.0), np.minimum(w, 0.0),
                      np.concatenate([w, -w]), np.concatenate([b, -b]), b.size)
                     for w, b in fcs)
        memo = _thread.fold = (key, fold, plan)
    return net if memo[1] is None else memo[1]


def _plan(net: SequentialNetwork) -> tuple:
    """The bounding plan of _folded(net): per FC node, from copies of its
    arrays, (W, b, max(W, 0), min(W, 0), [W; -W], [b; -b], out_dim)."""
    _folded(net)
    return _thread.fold[2]


def _check_box(net: SequentialNetwork, box: Box):
    if box.dim != net.input_dim:
        raise ValueError(f"box dim {box.dim} does not match network "
                         f"{net.name!r} ({net.input_dim} in)")


def _interval_fc(node: FullyConnectedNode, lo: np.ndarray, hi: np.ndarray):
    """Interval image of [lo, hi] under one FC node."""
    w_pos = np.maximum(node.weights, 0.0)
    w_neg = np.minimum(node.weights, 0.0)
    return (w_pos @ lo + w_neg @ hi + node.bias,
            w_pos @ hi + w_neg @ lo + node.bias)


def interval_forward(net: SequentialNetwork, box: Box):
    """Per-node interval bounds over a folded network.

    Returns a list aligned with net.nodes; FC entries carry pre-activation
    bounds, ReLU entries the clamped post-activation bounds. Sound: every
    concrete activation for x in box lies inside its interval.
    """
    if not _is_folded(net):
        raise ValueError("expected a folded (FC/ReLU only) network")
    _check_box(net, box)
    lo, hi = box.lo.copy(), box.hi.copy()
    bounds = []
    for node in net.nodes:
        if isinstance(node, FullyConnectedNode):
            lo, hi = _interval_fc(node, lo, hi)
        else:
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        bounds.append((lo, hi))
    return bounds


def _box_min(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Closed-form minimum of coeffs @ x over the box [lo, hi], per row."""
    return np.maximum(coeffs, 0.0) @ lo + np.minimum(coeffs, 0.0) @ hi


def _relu_relaxation(lo: np.ndarray, hi: np.ndarray):
    """Per neuron, (lower, upper, shift) with lower * z <= relu(z) <=
    upper * z + shift for every z in [lo, hi].

    A neuron with lo >= 0 is the identity and one with hi <= 0 is zero. An
    unstable neuron (lo < 0 < hi) gets the triangle's upper side
    hi / (hi - lo) * (z - lo) and the lower slope 1 when hi > -lo, else 0,
    whichever of z and 0 leaves the smaller area under relu on [lo, hi].
    Only unstable neurons get slopes and shifts computed; a layer without
    one is (mask, mask, None), its 0/1 mask twice and no shift.
    """
    mask = (lo >= 0.0).astype(np.float64)
    at = ((lo < 0.0) & (hi > 0.0)).nonzero()[0]
    if not at.size:
        return mask, mask, None
    lower, upper, shift = mask.copy(), mask.copy(), np.zeros(mask.size)
    l, h = lo[at], hi[at]
    u = h / (h - l)
    upper[at], lower[at], shift[at] = u, h > -l, -u * l
    return lower, upper, shift


def _back_substitute(coeffs, const, plan, relaxations, box: Box):
    """Per row, a lower bound over the box of coeffs @ h + const, where h is
    the output of the last hidden layer in `relaxations` (one per hidden
    layer from the first, as _relu_relaxation gives them), or the input when
    there is none. Layer by layer towards the input, each ReLU is replaced by
    the side of its relaxation that bounds each row from below (the lower
    slope under a positive coefficient, the upper line under a negative
    one), and then the plan's FC layer before it; _box_min minimizes what is
    left. A relaxation without a shift is a mask, applied as one product.
    """
    for (w, b, *_), (lower, upper, shift) in zip(
            reversed(plan[:len(relaxations)]), reversed(relaxations)):
        if shift is None:
            coeffs = coeffs * lower
        else:
            neg = np.minimum(coeffs, 0.0)
            const = const + neg @ shift
            coeffs = np.maximum(coeffs, 0.0) * lower + neg * upper
        const = const + coeffs @ b
        coeffs = coeffs @ w
    return _box_min(coeffs, box.lo, box.hi) + const


def _compile(violation):
    """The atoms of a violation as (rows, rhs, starts): row k and rhs[k] are
    atom k's coeffs and rhs, atoms numbered disjunct by disjunct, and
    starts[j] is the index of disjunct j's first atom. Every disjunct needs
    an atom (Property requires it), since reduceat reads an empty segment as
    the element at its start."""
    rows = np.array([a.coeffs for d in violation for a in d])
    rhs = np.array([a.rhs for d in violation for a in d])
    return rows, rhs, np.cumsum([0] + [len(d) for d in violation[:-1]])


def _bound(plan: tuple, box: Box, compiled=None, known=None):
    """The bounding step over a folded net's plan (_plan), for every engine.

    Returns (pre_lo, pre_hi, unstable, alive): bounds of every hidden
    pre-activation as two flat vectors (empty without a hidden layer), the
    number of hidden ReLUs whose bounds straddle 0, and the indices of the
    disjuncts of the violation, compiled by _compile, not refuted.

    Layer by layer, a hidden layer's bounds are the elementwise tighter of
    its interval step from the previous layer's bounds and the back-
    substitution (_back_substitute) of its rows and their negations through
    the ReLU relaxations of the layers before it, so they are never looser
    than interval_forward's, and then intersected with `known`, a node's
    inherited (pre_lo, pre_hi), when given; an interval empty by more than
    EMPTY_TOL refutes every disjunct. A disjunct is refuted when one of its
    atoms coeffs @ y <= rhs is: its closed-form minimum over the output's
    interval step, or the back-substituted lower bound of coeffs @ y itself,
    exceeds rhs. The interval test runs first; one backward pass of every
    atom runs only when it leaves a disjunct open. Without a violation, the
    last hidden layer's relaxation, which only that pass reads, is skipped.
    """
    relaxations, pre_lo, pre_hi = [], [np.zeros(0)], [np.zeros(0)]
    lo, hi, k = box.lo, box.hi, 0
    for i, (_, b, pos, neg, stacked, stacked_bias, n) in enumerate(plan[:-1]):
        lo, hi = pos @ lo + neg @ hi + b, pos @ hi + neg @ lo + b
        if relaxations:
            back = _back_substitute(stacked, stacked_bias, plan, relaxations,
                                    box)
            lo, hi = np.maximum(lo, back[:n]), np.minimum(hi, -back[n:])
        if known is not None:
            at = slice(k, k + n)
            lo, hi = np.maximum(lo, known[0][at]), np.minimum(hi, known[1][at])
            k += n
        pre_lo.append(lo)
        pre_hi.append(hi)
        if compiled is None and i == len(plan) - 2:
            break
        relaxations.append(_relu_relaxation(lo, hi))
        lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    pre_lo, pre_hi = np.concatenate(pre_lo), np.concatenate(pre_hi)
    unstable = int(np.count_nonzero((pre_lo < 0.0) & (pre_hi > 0.0)))
    if compiled is None or (known is not None
                            and np.any(pre_lo > pre_hi + EMPTY_TOL)):
        return pre_lo, pre_hi, unstable, []
    rows, rhs, starts = compiled
    w, b, pos, neg = plan[-1][:4]
    out_lo, out_hi = pos @ lo + neg @ hi + b, pos @ hi + neg @ lo + b
    refuted = _box_min(rows, out_lo, out_hi) > rhs
    if not np.logical_or.reduceat(refuted, starts).all():
        refuted |= _back_substitute(rows @ w, rows @ b, plan, relaxations,
                                    box) > rhs
    return (pre_lo, pre_hi, unstable,
            np.flatnonzero(~np.logical_or.reduceat(refuted, starts)).tolist())


def _validated_cex(net, prop, x) -> Optional[Counterexample]:
    y = forward(net, x)
    j = violated_disjunct(y, prop.violation, tol=CEX_TOL)
    if j is None:
        return None
    return Counterexample(np.asarray(x, dtype=np.float64), y, j)


def _sample_points(box: Box, count: int, rng) -> np.ndarray:
    return np.concatenate([box.center()[None, :],
                           rng.uniform(box.lo, box.hi, size=(count, box.dim))])


def _falsify(net, folded, prop, compiled, points) -> Optional[Counterexample]:
    """The first point, in point-major order, whose output on `folded`
    satisfies a violation disjunct (all of its atoms, from `compiled`, the
    violation as _compile gives it), re-validated on `net`; None when no
    point does or the first one fails re-validation."""
    rows, rhs, starts = compiled
    sat = forward_batch(folded, points) @ rows.T <= rhs
    hit = np.logical_and.reduceat(sat, starts, axis=1).any(axis=1)
    first = np.flatnonzero(hit)
    return _validated_cex(net, prop, points[first[0]]) if first.size else None


def _descend(net, plan, prop, compiled, alive, box, points, counters):
    """Sign-gradient descent on `plan`, the bounding plan of `net`, from
    each of `points` towards each alive disjunct of the compiled violation.
    Each of DESCENT_STEPS steps moves a point by an eighth of the box width
    against the sign of the input gradient of the disjunct's worst atom
    margin max_k(rows_k @ y - rhs_k), then clips it to the box. The gradient
    is _back_substitute's loop with each point's ReLU mask in place of the
    relaxation. After each step, the points with margin <= 0 are
    re-validated on `net`, disjunct-major; the first that holds is returned,
    else None. counters["descent_steps"] counts the steps taken."""
    rows, rhs, starts = compiled
    w_out, b_out = plan[-1][:2]
    atom_of = np.repeat(np.arange(len(starts)),
                        np.diff(starts, append=len(rhs)))
    own = np.repeat(atom_of == np.array(alive)[:, None], len(points), axis=0)
    x = np.tile(points, (len(alive), 1))
    delta = (box.hi - box.lo) / 8.0
    for step in range(DESCENT_STEPS + 1):
        h, masks = x, []
        for w, b, *_ in plan[:-1]:
            h = h @ w.T + b
            masks.append(h > 0.0)
            h = np.maximum(h, 0.0)
        y = h @ w_out.T + b_out
        margins = np.where(own, y @ rows.T - rhs, -np.inf)
        if step:
            for i in np.flatnonzero(margins.max(axis=1) <= 0.0):
                cex = _validated_cex(net, prop, x[i])
                if cex is not None:
                    return cex
        if step == DESCENT_STEPS:
            return None
        counters["descent_steps"] += 1
        g = rows[margins.argmax(axis=1)] @ w_out
        for (w, *_), mask in zip(reversed(plan[:-1]), reversed(masks)):
            g = (g * mask) @ w
        x = np.clip(x - delta * np.sign(g), box.lo, box.hi)


def verify_ibp(net: SequentialNetwork, prop: Property,
               sample_count: int = 32, seed: int = 0) -> VerificationResult:
    """The root node of verify_bab: refutation by the bounding step, a quick
    sampling falsification followed by the root descent from its points
    (when sample_count > 0), and, when no ReLU is unstable, one LP for each
    disjunct the bounding step leaves open."""
    return verify_bab(net, prop, BabConfig(max_nodes=1, enum_threshold=0,
                                           sample_count=sample_count,
                                           seed=seed))


class LPResult(NamedTuple):
    """Outcome of one LP, with scipy's linprog status codes: 0 feasible (x is
    the point), 2 proven infeasible, 4 undecided (message says why)."""
    status: int
    x: Optional[np.ndarray] = None
    message: str = ""


def _highs_api():
    """scipy's HiGHS binding, imported at the first LP and then kept as the
    module attribute `_highs`: importing it loads all of scipy.optimize
    (about 0.4 s and 41 MB), which a process that solves no LP skips."""
    api = globals().get("_highs")
    if api is None:
        from scipy.optimize._highspy import _core as api
        globals()["_highs"] = api
    return api


def __getattr__(name):
    """PEP 562: `verifier._highs` resolves before the first LP too."""
    if name == "_highs":
        return _highs_api()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _solver():
    """This thread's HiGHS solver, created and configured on first use with
    the options scipy's linprog(method="highs") passes: no output, presolve
    on, dual simplex."""
    highs = getattr(_thread, "highs", None)
    if highs is None:
        api = _highs_api()
        highs = api._Highs()
        for name, value in (("output_flag", False), ("log_to_console", False),
                            ("presolve", "on"), ("simplex_strategy", 1)):
            if highs.setOptionValue(name, value) != api.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected option {name}={value!r}")
        _thread.highs = highs
    return highs


def linprog(a_ub: np.ndarray, b_ub: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> LPResult:
    """Find a point with a_ub @ x <= b_ub and lo <= x <= hi (zero cost).

    Only HiGHS's kOptimal gives a point, and only if the point meets the box
    and the rows within LP_TOL; only kInfeasible proves infeasibility. Every
    other model status, and a load or run error, is undecided.
    """
    if not (np.isfinite(a_ub).all() and np.isfinite(b_ub).all()):
        raise ValueError("a_ub and b_ub must be finite")
    m, n = a_ub.shape
    if b_ub.shape != (m,) or lo.shape != (n,) or hi.shape != (n,):
        raise ValueError(f"a_ub {a_ub.shape}, b_ub {b_ub.shape}, lo "
                         f"{lo.shape} and hi {hi.shape} do not fit together")
    api = _highs_api()
    lp = api.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_ = np.zeros(n)
    lp.col_lower_, lp.col_upper_ = lo, hi
    lp.row_lower_ = np.full(m, -api.kHighsInf)
    lp.row_upper_ = b_ub
    mat = lp.a_matrix_
    mat.format_ = api.MatrixFormat.kRowwise
    mat.num_col_, mat.num_row_ = n, m
    mat.start_ = np.arange(0, m * n + 1, n, dtype=np.int32)
    mat.index_ = np.tile(np.arange(n, dtype=np.int32), m)
    mat.value_ = a_ub.ravel()
    highs = _solver()
    if (highs.passModel(lp) == api.HighsStatus.kError
            or highs.run() == api.HighsStatus.kError):
        return LPResult(4, message="HiGHS failed to load or solve the LP")
    status = highs.getModelStatus()
    if status == api.HighsModelStatus.kInfeasible:
        return LPResult(2)
    if status != api.HighsModelStatus.kOptimal:
        return LPResult(4, message="HiGHS model status "
                        + highs.modelStatusToString(status))
    x = np.array(highs.getSolution().col_value)
    if not ((x >= lo - LP_TOL).all() and (x <= hi + LP_TOL).all()
            and (a_ub @ x <= b_ub + LP_TOL).all()):
        return LPResult(4, message=f"HiGHS point misses the box or the rows "
                        f"by more than {LP_TOL:.2e}")
    return LPResult(0, x)


def lp_feasible(a_ub: np.ndarray, b_ub: np.ndarray, box: Box):
    """Point satisfying a_ub @ x <= b_ub inside the box, or None if the
    system is infeasible. Raises LPUndecidedError on solver distress."""
    if a_ub.shape[0] == 0:
        return box.center()
    res = linprog(a_ub, b_ub, box.lo, box.hi)
    if res.status == 0:
        return res.x
    if res.status == 2:
        return None
    raise LPUndecidedError(f"LP status {res.status}: {res.message}")


def _pattern_maps(fcs, pattern):
    """Affine maps of a folded network's FC nodes `fcs` under an activation
    pattern (1 active, 0 inactive): (rows, rhs, a, c), with each hidden
    neuron's sign constraint a row of rows @ x <= rhs (-pre <= 0 when
    active, pre <= 0 when inactive) and a @ x + c the output as a function
    of the input x."""
    d = fcs[0].in_dim
    a, c = np.eye(d), np.zeros(d)
    rows, rhs, k = [np.zeros((0, d))], [np.zeros(0)], 0
    for node in fcs[:-1]:
        a = node.weights @ a
        c = node.weights @ c + node.bias
        active = pattern[k:k + node.out_dim].astype(bool)
        k += node.out_dim
        rows.append(np.where(active[:, None], -a, a))
        rhs.append(np.where(active, c, -c))
        a, c = a * active[:, None], c * active
    a, c = fcs[-1].weights @ a, fcs[-1].weights @ c + fcs[-1].bias
    return np.vstack(rows), np.concatenate(rhs), a, c


def check_pattern(net: SequentialNetwork, box: Box, pattern: np.ndarray,
                  disjunct) -> Optional[np.ndarray]:
    """Feasibility of one total activation pattern against one disjunct.

    Returns a witness input or None (infeasible). A witness failing concrete
    re-validation raises SpuriousWitnessError.
    """
    if not _is_folded(net):
        raise ValueError("expected a folded (FC/ReLU only) network")
    fcs = [n for n in net.nodes if isinstance(n, FullyConnectedNode)]
    pattern = np.asarray(pattern)
    hidden = sum(n.out_dim for n in fcs[:-1])
    if pattern.shape[0] != hidden:
        raise ValueError(f"pattern length {pattern.shape[0]} != hidden "
                         f"neuron count {hidden}")
    rows, rhs, a_out, c_out = _pattern_maps(fcs, pattern)
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


def _decide_leaf(net, folded, prop, box, pattern, alive, counters):
    """Exact decision of a node with no unstable ReLU: check_pattern's LP on
    `folded`, the fold of `net`, per alive disjunct. Returns a Counterexample
    re-validated on `net`, or None when safe; counts LPs in `counters`."""
    for j in alive:
        counters["lp_calls"] += 1
        w = check_pattern(folded, box, pattern, prop.violation[j])
        if w is not None:
            cex = _validated_cex(net, prop, w)
            if cex is None:
                raise SpuriousWitnessError(
                    "pattern witness failed property re-validation")
            return cex
    return None


def _fitted(net: SequentialNetwork, prop: Property):
    """(_folded(net), _plan(net)); ValueError unless prop's box and outputs
    have net's dimensions."""
    folded = _folded(net)
    if (prop.input_box.dim, prop.num_outputs) != (net.input_dim,
                                                  net.output_dim):
        raise ValueError(
            f"property dims ({prop.input_box.dim} in, {prop.num_outputs} "
            f"out) do not match network {net.name!r} ({net.input_dim} in, "
            f"{net.output_dim} out)")
    return folded, _thread.fold[2]


def verify_bab(net: SequentialNetwork, prop: Property,
               config: BabConfig = None) -> VerificationResult:
    """Branch and bound over the input box and the ReLU phases.

    A node is a box plus the hidden bounds and alive disjuncts its parent
    left, which _bound and the node only narrow. Per node: refutation by the
    bounding step, sampling (not below a phase split, whose box was
    sampled), at the root the descent (_descend), then one move. A node
    with no unstable ReLU is a leaf, decided by one LP per alive disjunct.
    One with 1 to enum_threshold branches on the first in layer order, its
    upper bound clamped to 0 (inactive, searched first) or its lower bound
    (active). Any other node, or a leaf whose LP is undecided or spurious,
    splits the widest input dimension at its midpoint.

    Verified only when every node is refuted or decided safe; Falsified only
    with a re-validated counterexample; Unknown, with its reason, when a
    budget runs out. stats counts nodes, LPs, LP-decided leaves
    (enum_leaves), phase-split nodes refuted by their bounds (enum_pruned)
    and descent steps, and gives root_unstable (root_unstable_count's
    value) on every result. ValueError on a property of other dimensions.
    """
    if config is None:
        config = BabConfig()
    start = time.monotonic()
    folded, plan = _fitted(net, prop)
    compiled = _compile(prop.violation)
    rng = None  # created by the first node that samples
    counters = {"lp_calls": 0, "enum_leaves": 0, "enum_pruned": 0,
                "descent_steps": 0}
    # (box, inherited bounds and alive disjuncts, made by a phase split)
    worklist = [(prop.input_box, None, range(len(prop.violation)), False)]
    bounds = _bound(plan, prop.input_box, compiled)
    root_unstable = bounds[2]
    nodes = undecided = 0

    def result(status, cex=None, reason=None):
        stats = {"nodes": nodes, **counters, "root_unstable": root_unstable,
                 "wall_time": time.monotonic() - start}
        if reason:
            stats["reason"] = reason
        return VerificationResult(status, cex, stats)

    while worklist:
        if nodes >= config.max_nodes:
            return result(Status.UNKNOWN, reason="node budget exhausted")
        if time.monotonic() - start > config.time_budget:
            return result(Status.UNKNOWN, reason="time budget exhausted")
        box, known, parent_alive, phase = worklist.pop()
        if nodes:  # the root's bounds are already in hand
            bounds = _bound(plan, box, compiled, known)
        nodes += 1

        los, his, free, alive = bounds
        alive = [j for j in alive if j in parent_alive]
        if not alive:
            counters["enum_pruned"] += phase
            continue

        if not phase:
            if rng is None:
                rng = np.random.default_rng(config.seed)
            points = _sample_points(box, config.sample_count, rng)
            cex = _falsify(net, folded, prop, compiled, points)
            if cex is None and nodes == 1 and config.sample_count:
                cex = _descend(net, plan, prop, compiled, alive, box,
                               points, counters)
            if cex is not None:
                return result(Status.FALSIFIED, cex)

        if not free:
            counters["enum_leaves"] += 1
            try:
                cex = _decide_leaf(net, folded, prop, box, los >= 0.0, alive,
                                   counters)
            except (SpuriousWitnessError, LPUndecidedError):
                pass  # no exact decision here: split the box instead
            else:
                if cex is not None:
                    return result(Status.FALSIFIED, cex)
                continue
        elif free <= config.enum_threshold:
            n = int(np.argmax((los < 0.0) & (his > 0.0)))
            active_lo, inactive_hi = los.copy(), his.copy()
            active_lo[n] = inactive_hi[n] = 0.0
            worklist.append((box, (active_lo, his), alive, True))
            worklist.append((box, (los, inactive_hi), alive, True))
            continue

        widths = box.hi - box.lo
        split_dim = int(np.argmax(widths))
        if widths[split_dim] < config.min_box_width:
            undecided += 1  # box too thin to split, not decided exactly
            continue
        mid = (box.lo[split_dim] + box.hi[split_dim]) / 2.0
        left_hi = box.hi.copy(); left_hi[split_dim] = mid
        right_lo = box.lo.copy(); right_lo[split_dim] = mid
        for child in Box(box.lo.copy(), left_hi), Box(right_lo, box.hi.copy()):
            worklist.append((child, (los, his), alive, False))

    if undecided:
        return result(Status.UNKNOWN,
                      reason=f"{undecided} nodes hit the minimum box width")
    return result(Status.VERIFIED)


def falsify_sample(net: SequentialNetwork, prop: Property, n_samples: int,
                   seed: int = 0) -> Optional[Counterexample]:
    """Seeded random falsification: box corners (when dim <= 12) plus
    uniform samples; returns the first validated witness. ValueError when
    the property's dimensions do not match the network's."""
    folded = _fitted(net, prop)[0]
    box = prop.input_box
    points = []
    if box.dim <= 12:
        # corner k takes hi in dimension i where bit dim-1-i of k is set
        bits = (np.arange(2 ** box.dim)[:, None]
                & (1 << np.arange(box.dim - 1, -1, -1))) != 0
        points.append(np.where(bits, box.hi, box.lo))
    if n_samples > 0:
        rng = np.random.default_rng(seed)
        points.append(rng.uniform(box.lo, box.hi, size=(n_samples, box.dim)))
    if not points:
        return None
    return _falsify(net, folded, prop, _compile(prop.violation),
                    np.concatenate(points))


def root_unstable_count(net: SequentialNetwork, box: Box) -> int:
    """Number of hidden ReLUs whose root pre-activation bounds, from the
    bounding step, straddle 0; ValueError on a box of another dimension."""
    _check_box(net, box)
    return _bound(_plan(net), box)[2]
