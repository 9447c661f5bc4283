import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import overflowing_fold_net, random_net
from oracles import (enumerated_pattern_verdict, exact_pattern_verdict,
                     fm_feasible, reference_bound, reference_fm_feasible,
                     relu_relaxation)
from relukit import network, verifier
from relukit.datasets import synth_blobs
from relukit.network import (FullyConnectedNode, ReLUNode, SequentialNetwork,
                             fold_batchnorm, forward, forward_batch, validate)
from relukit.properties import (Box, LinearAtom, Property,
                                robustness_property, satisfies_disjunct,
                                violated_disjunct)
from relukit.training import TrainingConfig, init_network, train
from relukit.verifier import (CEX_TOL, BabConfig, LPUndecidedError,
                              SpuriousWitnessError, Status, check_pattern,
                              falsify_sample, interval_forward, lp_feasible,
                              root_unstable_count, verify_bab)

# verify_bab's root node alone: bounding, sampling, the root descent and,
# with no unstable ReLU, the leaf LPs
ROOT_ONLY = BabConfig(max_nodes=1)


def identity_net(d=1):
    return SequentialNetwork("id", d,
                             [FullyConnectedNode(np.eye(d), np.zeros(d))])


def violation(coeffs, rhs):
    return [[LinearAtom(coeffs, rhs)]]


def abs_net():
    # |x| via relu(x) + relu(-x); IBP overestimates the output range
    return SequentialNetwork("abs", 1, [
        FullyConnectedNode([[1.0], [-1.0]], [0.0, 0.0]),
        ReLUNode(2),
        FullyConnectedNode([[1.0, 1.0]], [0.0]),
    ])


def linear_net():
    # no hidden layer: one bare FC node
    return SequentialNetwork("lin", 1, [FullyConnectedNode([[1.0]], [0.0])])


def plan_of(net):
    """The bounding plan the verifier reads for net."""
    return verifier._prepared(net).plan


def fc_layers(net):
    return [(n.weights, n.bias) for n in net.nodes
            if isinstance(n, FullyConnectedNode)]


def tiny_instance(seed, widths=(2, 4, 4, 2), with_bn=False):
    """Random net, folded unless with_bn (by default 2 inputs, 8 hidden
    ReLUs), plus a robustness query on a random sub-box of the unit
    cube."""
    rng = np.random.default_rng(seed)
    net = random_net(widths, seed=seed, with_bn=with_bn, scale=1.5)
    d = widths[0]
    x0 = rng.uniform(0.2, 0.8, size=d)
    label = int(np.argmax(forward(net, x0)))
    eps = float(rng.uniform(0.05, 0.4))
    prop = robustness_property(x0, label, eps, Box(np.zeros(d), np.ones(d)),
                               widths[-1])
    return net, prop


class TestIntervalForward:
    def test_identity(self):
        bounds = interval_forward(identity_net(), Box([0.0], [1.0]))
        lo, hi = bounds[-1]
        assert lo == pytest.approx([0.0]) and hi == pytest.approx([1.0])

    def test_mixed_sign_row(self):
        net = SequentialNetwork("n", 2, [
            FullyConnectedNode([[1.0, -1.0]], [0.0]),
            ReLUNode(1),
            FullyConnectedNode([[1.0]], [0.0])])
        bounds = interval_forward(net, Box([0.0, 0.0], [1.0, 1.0]))
        pre_lo, pre_hi = bounds[0]
        post_lo, post_hi = bounds[1]
        assert (pre_lo, pre_hi) == (pytest.approx([-1.0]), pytest.approx([1.0]))
        assert (post_lo, post_hi) == (pytest.approx([0.0]), pytest.approx([1.0]))

    def test_containment_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            net = random_net([3, 5, 4, 2], seed=trial, with_bn=False)
            lo = rng.uniform(-1, 0, size=3)
            hi = lo + rng.uniform(0.1, 1, size=3)
            box = Box(lo, hi)
            bounds = interval_forward(net, box)
            for _ in range(100):
                x = rng.uniform(lo, hi)
                h = x
                for node, (blo, bhi) in zip(net.nodes, bounds):
                    if isinstance(node, FullyConnectedNode):
                        h = node.weights @ h + node.bias
                    else:
                        h = np.maximum(h, 0.0)
                    assert np.all(h >= blo - 1e-12)
                    assert np.all(h <= bhi + 1e-12)

    def test_batch_norm_net_reads_its_fold(self):
        """A batch-norm net's bounds are its fold's, bit for bit, one entry
        per node of the fold."""
        net = random_net([3, 5, 4, 2], seed=2)
        box = Box(np.zeros(3), np.ones(3))
        folded = fold_batchnorm(net)
        got, want = interval_forward(net, box), interval_forward(folded, box)
        assert len(got) == len(folded.nodes)
        assert all(np.array_equal(g, w) for gw in zip(got, want)
                   for g, w in zip(*gw))

    @pytest.mark.parametrize("broken", ["trailing_relu", "nan_weight"])
    def test_invalid_folded_net_is_rejected(self, broken):
        if broken == "trailing_relu":
            net, match = trailing_relu_net(), "must end with a fully"
        else:
            net, match = random_net([2, 3, 2], seed=1, with_bn=False), \
                "non-finite"
            net.nodes[2].weights[0, 1] = np.nan
        with pytest.raises(ValueError, match=match):
            interval_forward(net, Box(np.zeros(2), np.ones(2)))


def hidden_pre_activations(net, xs):
    """Every hidden pre-activation of a folded net, one row per input."""
    h, pre = xs, [np.zeros((xs.shape[0], 0))]
    for node in net.nodes:
        if isinstance(node, FullyConnectedNode):
            h = h @ node.weights.T + node.bias
        else:
            pre.append(h)
            h = np.maximum(h, 0.0)
    return np.hstack(pre)


def bound_instance(trial, rng):
    """A seeded net of one of two shapes, folded, with batch norm unless
    trial % 3 == 0, and a random box for it."""
    widths = (3, 6, 5, 4, 3) if trial % 2 else (2, 5, 5, 2)
    net = fold_batchnorm(random_net(widths, seed=trial,
                                    with_bn=trial % 3 != 0, scale=1.5))
    lo = rng.uniform(-1.0, 0.5, size=widths[0])
    return net, Box(lo, lo + rng.uniform(0.05, 1.0, size=widths[0]))


class TestBound:
    def test_contains_samples_and_is_inside_ibp(self):
        """On seeded folded nets, with and without BN: sampled hidden
        pre-activations lie inside the bounds, the bounds inside the IBP
        bounds, and a disjunct is refuted whenever IBP refutes one of its
        atoms but never when a sampled output satisfies it."""
        TOL = 1e-9
        rng = np.random.default_rng(11)
        tighter_hidden = tighter_atoms = 0
        for trial in range(24):
            widths = (3, 6, 5, 4, 3) if trial % 2 else (2, 5, 5, 2)
            net = fold_batchnorm(random_net(widths, seed=trial,
                                            with_bn=trial % 3 != 0,
                                            scale=1.5))
            lo = rng.uniform(-1.0, 0.5, size=widths[0])
            box = Box(lo, lo + rng.uniform(0.05, 1.0, size=widths[0]))
            xs = rng.uniform(box.lo, box.hi, size=(3000, widths[0]))
            ys = forward_batch(net, xs)
            ibp = interval_forward(net, box)
            ibp_pre = [b for b, n in zip(ibp, net.nodes[1:])
                       if isinstance(n, ReLUNode)]
            ibp_lo = np.concatenate([lo for lo, _ in ibp_pre])
            ibp_hi = np.concatenate([hi for _, hi in ibp_pre])
            # one-atom disjuncts from below IBP's minimum of the atom's
            # function up to its sampled minimum, then a two-atom disjunct
            # that sample 0 satisfies and one with an atom IBP refutes; a
            # sampled output satisfies an atom with TOL to spare, because
            # the bounds, like the samples, are rounded
            atoms, ibp_refutes, sampled = [], [], []
            for c in rng.normal(size=(4, widths[-1])):
                ibp_min = float(verifier._box_min(c, *ibp[-1]))
                seen = float((ys @ c).min())
                for rhs in np.linspace(ibp_min - 0.1, seen + TOL, 6):
                    atoms.append([LinearAtom(c, rhs)])
                    ibp_refutes.append(rhs < ibp_min)
                    sampled.append(rhs >= seen + TOL)
            c1, c2 = rng.normal(size=(2, widths[-1]))
            atoms.append([LinearAtom(c1, c1 @ ys[0] + TOL),
                          LinearAtom(c2, c2 @ ys[0] + TOL)])
            ibp_refutes.append(False)
            sampled.append(True)
            atoms.append([LinearAtom(c1, c1 @ ys[0] + TOL), atoms[0][0]])
            ibp_refutes.append(True)
            sampled.append(False)

            pre_lo, pre_hi, unstable, alive = verifier._bound(
                plan_of(net), box, verifier._compile(atoms))
            pre = hidden_pre_activations(net, xs)
            assert np.all(pre >= pre_lo - TOL), trial
            assert np.all(pre <= pre_hi + TOL), trial
            assert np.all(pre_lo >= ibp_lo) and np.all(pre_hi <= ibp_hi)
            assert unstable == np.sum((pre_lo < 0.0) & (pre_hi > 0.0))
            tighter_hidden += bool(np.any(pre_lo > ibp_lo + TOL)
                                   or np.any(pre_hi < ibp_hi - TOL))
            for j, (refuted, hit) in enumerate(zip(ibp_refutes, sampled)):
                if refuted:
                    assert j not in alive, (trial, j)
                if hit:
                    assert j in alive, (trial, j)
                tighter_atoms += not refuted and not hit and j not in alive
        assert tighter_hidden > 0 and tighter_atoms > 0

    def test_known_bounds_that_fix_one_relu(self):
        """Known bounds that fix one unstable ReLU active or inactive: the
        sampled points whose pre-activation has that sign lie inside the
        returned bounds, and those lie inside the known bounds."""
        TOL = 1e-9
        rng = np.random.default_rng(12)
        fixed = tighter = 0
        for trial in range(12):
            net, box = bound_instance(trial, rng)
            pre = hidden_pre_activations(net, rng.uniform(
                box.lo, box.hi, size=(3000, box.dim)))
            compiled = verifier._compile(violation(np.ones(net.output_dim),
                                                   0.0))
            pre_lo, pre_hi = verifier._bound(plan_of(net), box,
                                             compiled)[:2]
            for n in np.flatnonzero((pre_lo < 0.0) & (pre_hi > 0.0)):
                for active in (True, False):
                    known_lo, known_hi = pre_lo.copy(), pre_hi.copy()
                    (known_lo if active else known_hi)[n] = 0.0
                    got_lo, got_hi = verifier._bound(
                        plan_of(net), box, compiled,
                        (known_lo, known_hi))[:2]
                    assert np.all(got_lo >= known_lo), (trial, n, active)
                    assert np.all(got_hi <= known_hi), (trial, n, active)
                    side = pre[(pre[:, n] >= 0.0) if active
                               else (pre[:, n] <= 0.0)]
                    assert np.all(side >= got_lo - TOL), (trial, n, active)
                    assert np.all(side <= got_hi + TOL), (trial, n, active)
                    fixed += 1
                    tighter += bool(np.any(got_lo > known_lo + TOL)
                                    or np.any(got_hi < known_hi - TOL))
        assert fixed >= 20 and tighter > 0

    def test_fixed_pattern_refutes_what_its_output_map_refutes(self):
        """Known bounds that fix every unstable ReLU make each relaxation
        exact: an atom that the pattern's output map refutes on the box is
        refuted, though the root bounds leave it open."""
        rng = np.random.default_rng(13)
        open_at_root = 0
        for trial in range(12):
            net, box = bound_instance(trial, rng)
            plan = plan_of(net)
            pre_lo, pre_hi = verifier._bound(plan, box)[:2]
            free = np.flatnonzero((pre_lo < 0.0) & (pre_hi > 0.0))
            for _ in range(4):
                pattern = (pre_lo >= 0.0).astype(int)
                pattern[free] = rng.integers(0, 2, size=free.size)
                known_lo, known_hi = pre_lo.copy(), pre_hi.copy()
                known_lo[free[pattern[free] == 1]] = 0.0
                known_hi[free[pattern[free] == 0]] = 0.0
                a, c = verifier._pattern_maps(plan, pattern)[2:]
                atoms = []
                for coeffs in rng.normal(size=(4, net.output_dim)):
                    least = verifier._box_min(coeffs @ a, box.lo, box.hi)
                    atoms.append([LinearAtom(coeffs,
                                             least + coeffs @ c - 0.05)])
                compiled = verifier._compile(atoms)
                assert verifier._bound(plan_of(net), box, compiled,
                                       (known_lo, known_hi))[3] == [], trial
                open_at_root += len(verifier._bound(plan_of(net),
                                                    box, compiled)[3])
        assert open_at_root > 0

    def test_empty_known_interval_refutes_beyond_rounding(self):
        """An interval inverted by intersecting with the known bounds
        refutes the node only when it is empty by more than EMPTY_TOL."""
        net = fold_batchnorm(random_net((2, 5, 5, 2), seed=3, scale=1.5))
        box = Box([0.0, 0.0], [1.0, 1.0])
        compiled = verifier._compile(violation([1.0, 0.0], 1e6))
        pre_lo, pre_hi, _, alive = verifier._bound(plan_of(net), box,
                                                   compiled)
        assert alive == [0]
        for gap, refuted in ((1e-12, False), (1e-3, True)):
            known_hi = pre_hi.copy()
            known_hi[7] = pre_lo[7] - gap
            got = verifier._bound(plan_of(net), box, compiled,
                                  (pre_lo, known_hi))
            assert got[3] == ([] if refuted else [0]), gap

    def test_adaptive_lower_slope_refutes_what_ibp_cannot(self):
        # Y_0 = relu(x) - (x + 2) + 2 = relu(x) - x >= 0 on [-1, 2]; IBP
        # sees [-2, 3], but x's ReLU has hi > -lo, so its lower slope is 1
        # and relu(x) >= x gives Y_0 >= 0
        net = SequentialNetwork("ramp", 1, [
            FullyConnectedNode([[1.0], [1.0]], [0.0, 2.0]), ReLUNode(2),
            FullyConnectedNode([[1.0, -1.0]], [2.0])])
        box = Box([-1.0], [2.0])
        assert interval_forward(net, box)[-1][0] == pytest.approx([-2.0])
        assert verifier._bound(
            plan_of(net), box,
            verifier._compile(violation([1.0], -0.25)))[3] == []
        assert verifier._bound(
            plan_of(net), box,
            verifier._compile(violation([1.0], 0.0)))[3] == [0]


class TestRelaxation:
    """_relu_relaxation, which computes slopes and shifts at the unstable
    neurons only, equals oracles.relu_relaxation, which computes them over
    every neuron, value for value; a layer without an unstable ReLU is its
    0/1 mask and no shift."""

    CASES = {
        "exact_zeros": ([0.0, -0.0, -1.0, 0.0, -2.0, -0.0],
                        [1.0, 0.0, 0.0, -0.0, 3.0, 2.0]),
        "lo_equals_hi": ([-0.5, 0.5, 0.0, -0.0], [-0.5, 0.5, 0.0, -0.0]),
        "all_stable": ([0.1, -2.0, 0.0, -1.0], [0.3, -1.0, 4.0, 0.0]),
        "all_unstable": ([-1.0, -3.0, -1e-300, -0.5, -2.0],
                         [2.0, 1.0, 1e-300, 0.5, 1e-12]),
    }

    @staticmethod
    def check(lo, hi):
        got, ref = verifier._relu_relaxation(lo, hi), relu_relaxation(lo, hi)
        stable = not np.any((lo < 0.0) & (hi > 0.0))
        assert (got[2] is None) == stable
        if stable:
            assert np.array_equal(got[0], lo >= 0.0) and got[1] is got[0]
        shift = np.zeros_like(lo) if got[2] is None else got[2]
        for g, r in zip((got[0], got[1], shift), ref):
            assert g.dtype == np.float64 and np.array_equal(g, r)

    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_oracle(self, case):
        self.check(*map(np.array, self.CASES[case]))

    def test_equals_the_oracle_on_random_layers(self):
        rng = np.random.default_rng(9)
        values = [-2.0, -0.5, -0.0, 0.0, 1e-9, 0.25, 3.0]
        for _ in range(300):
            a = rng.choice(values, size=(2, 6)) + rng.choice(
                [0.0, 1.0], size=(2, 6)) * rng.normal(size=(2, 6))
            self.check(a.min(axis=0), a.max(axis=0))


class TestBoundMatchesReference:
    """_bound equals oracles.reference_bound, the bounding step as it was
    before the violation was compiled, bit for bit."""

    @staticmethod
    def violations(rng, net, box, last_lo, last_hi):
        """(kind, violation) pairs of one- to three-atom disjuncts, "all",
        "some" or "none" of them refuted by the interval test. An atom with
        rhs below IBP's minimum of its function is refuted by that test; one
        with rhs from the minimum over the output's interval step (from the
        bounding step's last hidden bounds) up to a sampled value is not, but
        may be by back-substitution; one above a sampled value is by
        neither."""
        ys = forward_batch(net, rng.uniform(box.lo, box.hi,
                                            size=(500, box.dim)))
        ibp = interval_forward(net, box)[-1]
        fcs, tight = fc_layers(net), ibp
        if len(fcs) > 1:
            (w, b), lo, hi = (fcs[-1], np.maximum(last_lo, 0.0),
                              np.maximum(last_hi, 0.0))
            pos, neg = np.maximum(w, 0.0), np.minimum(w, 0.0)
            tight = pos @ lo + neg @ hi + b, pos @ hi + neg @ lo + b

        def atom(how):
            c = rng.normal(size=ys.shape[1])
            ibp_min = float(verifier._box_min(c, *ibp))
            tight_min = float(verifier._box_min(c, *tight))
            seen = float((ys @ c).min())
            rhs = {"closed": ibp_min - rng.uniform(0.01, 0.5),
                   "open": seen + rng.uniform(1e-9, 0.5),
                   "between": rng.uniform(tight_min, seen)}[how]
            return LinearAtom(c, rhs)

        def disjunct(closed):
            atoms = [atom(rng.choice(["open", "between"]))
                     for _ in range(rng.integers(0 if closed else 1, 3))]
            if closed:
                atoms.insert(rng.integers(0, len(atoms) + 1), atom("closed"))
            return atoms

        yield "all", [disjunct(True) for _ in range(4)]
        yield "some", [disjunct(j % 2 == 0) for j in range(4)]
        yield "none", [disjunct(False) for _ in range(4)]

    def test_bit_identical(self, monkeypatch):
        backs = []
        back_substitute = verifier._back_substitute

        def counted(*args):
            backs.append(1)
            return back_substitute(*args)

        monkeypatch.setattr(verifier, "_back_substitute", counted)
        rng = np.random.default_rng(21)
        seen = {"all": 0, "some": 0, "none": 0}
        narrowed = 0  # disjuncts refuted past the interval test
        for widths in ((3, 2), (3, 5, 2), (3, 6, 5, 3), (2, 5, 4, 4, 3)):
            hidden = len(widths) - 2
            for seed in range(6):
                net = fold_batchnorm(random_net(widths, seed=seed,
                                                with_bn=seed % 2 == 0,
                                                scale=1.5))
                lo = rng.uniform(-1.0, 0.5, size=widths[0])
                box = Box(lo, lo + rng.uniform(0.05, 1.0, size=widths[0]))
                ref = reference_bound(net, box)
                got = verifier._bound(plan_of(net), box)
                assert np.array_equal(got[0], ref[0])
                assert np.array_equal(got[1], ref[1])
                assert got[2:] == ref[2:] and got[3] == []
                last = slice(ref[0].size - widths[-2], None)
                for kind, viol in self.violations(rng, net, box,
                                                  ref[0][last], ref[1][last]):
                    backs.clear()
                    ref = reference_bound(net, box, viol)
                    got = verifier._bound(plan_of(net), box,
                                          verifier._compile(viol))
                    assert np.array_equal(got[0], ref[0]), (widths, seed)
                    assert np.array_equal(got[1], ref[1]), (widths, seed)
                    assert got[2] == ref[2] and got[3] == ref[3], \
                        (widths, seed, kind)
                    # the output's back-substitution runs only when the
                    # interval test leaves a disjunct open
                    assert len(backs) == max(hidden - 1, 0) + (kind != "all")
                    seen[kind] += 1
                    narrowed += {"all": 0, "some": 2, "none": 4}[kind] \
                        - len(got[3])
        assert min(seen.values()) > 0 and narrowed > 0

    def test_stable_layers_take_the_mask_short_cut(self, monkeypatch):
        """On a box of width 1e-6 no hidden ReLU is unstable: every
        back-substitution passes masks only, and the bounds and the alive
        disjuncts still equal the reference bit for bit."""
        passes = []
        back_substitute = verifier._back_substitute

        def recording(coeffs, const, plan, relaxations, box):
            passes.append([shift is None for _, _, shift in relaxations])
            return back_substitute(coeffs, const, plan, relaxations, box)

        monkeypatch.setattr(verifier, "_back_substitute", recording)
        rng = np.random.default_rng(23)
        for widths in ((3, 6, 5, 3), (2, 5, 4, 4, 3)):
            for seed in range(4):
                net = fold_batchnorm(random_net(widths, seed=seed,
                                                with_bn=seed % 2 == 0,
                                                scale=1.5))
                lo = rng.uniform(-1.0, 0.5, size=widths[0])
                box = Box(lo, lo + 1e-6)
                c = rng.normal(size=widths[-1])
                # the first is open (the box's centre satisfies it), the
                # second refuted by the interval test
                viol = [[LinearAtom(c, c @ forward(net, box.center()) + 0.1)],
                        [LinearAtom(c, c @ forward(net, box.lo) - 1.0)]]
                passes.clear()
                ref = reference_bound(net, box, viol)
                got = verifier._bound(plan_of(net), box,
                                      verifier._compile(viol))
                assert ref[2] == 0 and got[3] == ref[3] == [0]
                assert np.array_equal(got[0], ref[0])
                assert np.array_equal(got[1], ref[1])
                # one pass per hidden layer after the first, one for the
                # output, each through masks only
                assert len(passes) == len(widths) - 2
                assert all(p and all(p) for p in passes)


class TestRootOnly:
    def test_verified(self):
        res = verify_bab(identity_net(),
                         Property(Box([0.0], [1.0]),
                                  violation([-1.0], -2.0), 1), ROOT_ONLY)
        assert res.status == Status.VERIFIED
        assert res.counterexample is None

    def test_falsified_with_witness(self):
        res = verify_bab(identity_net(),
                         Property(Box([0.0], [1.0]),
                                  violation([-1.0], -0.5), 1), ROOT_ONLY)
        assert res.status == Status.FALSIFIED
        assert res.counterexample.input[0] >= 0.5

    def test_unknown_on_loose_bounds(self):
        # Y_0 = relu(x) - relu(x) = 0, but each unstable ReLU is relaxed on
        # its own: back-substitution bounds Y_0 below by -1 on [-1, 1], so
        # Y_0 <= -0.5 is left open, and the root node cannot split
        net = SequentialNetwork("twin", 1, [
            FullyConnectedNode([[1.0], [1.0]], [0.0, 0.0]),
            ReLUNode(2),
            FullyConnectedNode([[1.0, -1.0]], [0.0])])
        prop = Property(Box([-1.0], [1.0]), violation([1.0], -0.5), 1)
        assert verifier._bound(plan_of(net), prop.input_box,
                               verifier._compile(prop.violation))[3] == [0]
        res = verify_bab(net, prop, ROOT_ONLY)
        assert res.status == Status.UNKNOWN
        assert not exact_pattern_verdict(
            fc_layers(net), [-1.0], [1.0], [[([1.0], -0.5)]])

    def test_back_substitution_refutes_at_the_root(self):
        # true range of |x| over [-1, 1] is [0, 1]; IBP sees [0, 2], but the
        # two triangle relaxations sum to (x + 1) / 2 + (1 - x) / 2 = 1
        prop = Property(Box([-1.0], [1.0]), violation([-1.0], -1.5), 1)
        res = verify_bab(abs_net(), prop, ROOT_ONLY)
        assert res.status == Status.VERIFIED
        assert res.stats["nodes"] == 1 and res.stats["lp_calls"] == 0

    def test_exact_lp_when_no_relu_is_unstable(self):
        # output is (x + 1) - (x + 1) = 0, but IBP sees [-1, 1]; both ReLUs
        # are stably active, so the net is affine on the box and the
        # pattern's output map refutes the atom without an LP
        net = SequentialNetwork("zero", 1, [
            FullyConnectedNode([[1.0], [1.0]], [1.0, 1.0]),
            ReLUNode(2),
            FullyConnectedNode([[1.0, -1.0]], [0.0])])
        prop = Property(Box([0.0], [1.0]), violation([-1.0], -0.5), 1)
        res = verify_bab(net, prop, ROOT_ONLY)
        assert res.status == Status.VERIFIED
        assert res.stats["nodes"] == 1 and res.stats["lp_calls"] == 0
        # Y_0 = x on [0, 1] through a stably active ReLU: Y_0 <= 0.2 and
        # Y_0 >= 0.8 each hold somewhere, so only one joint LP refutes them
        net = SequentialNetwork("id", 1, [
            FullyConnectedNode([[1.0]], [0.0]), ReLUNode(1),
            FullyConnectedNode([[1.0]], [0.0])])
        prop = Property(Box([0.0], [1.0]), [[LinearAtom([1.0], 0.2),
                                             LinearAtom([-1.0], -0.8)]], 1)
        res = verify_bab(net, prop, ROOT_ONLY)
        assert res.status == Status.VERIFIED
        assert res.stats["nodes"] == 1 and res.stats["lp_calls"] == 1


class TestDimensionCheck:
    @pytest.mark.parametrize("box_dim,outputs", [(3, 2), (2, 3)])
    def test_property_of_other_dimensions_is_rejected(self, box_dim,
                                                      outputs):
        net = random_net((2, 4, 2), seed=0)
        prop = Property(Box(np.zeros(box_dim), np.ones(box_dim)),
                        violation(np.ones(outputs), 0.0), outputs)
        for call in (lambda: verify_bab(net, prop),
                     lambda: verify_bab(net, prop, ROOT_ONLY),
                     lambda: falsify_sample(net, prop, 8)):
            with pytest.raises(ValueError, match=rf"property dims \({box_dim} "
                               rf"in, {outputs} out\) do not match network "
                               r"'rand-0' \(2 in, 2 out\)"):
                call()


    def test_box_of_other_dimension_is_rejected(self):
        net = random_net((2, 4, 2), seed=0, with_bn=False)
        box = Box(np.zeros(3), np.ones(3))
        for call in (lambda: root_unstable_count(net, box),
                     lambda: interval_forward(net, box),
                     lambda: check_pattern(net, box, np.zeros(4, dtype=int),
                                           [LinearAtom([1.0, 0.0], 0.0)])):
            with pytest.raises(ValueError, match=r"box dim 3 does not match "
                               r"network 'rand-0' \(2 in\)"):
                call()


class TestNoHiddenLayer:
    # the only witness of Y_0 >= 1 over [0, 1] is the corner x = 1
    PROP = Property(Box([0.0], [1.0]), violation([-1.0], -1.0), 1)

    def test_verify_bab_without_sampling(self):
        res = verify_bab(linear_net(), self.PROP, BabConfig(sample_count=0))
        assert res.status == Status.FALSIFIED
        assert res.counterexample.input[0] == pytest.approx(1.0)

    def test_root_only(self):
        res = verify_bab(linear_net(), self.PROP, ROOT_ONLY)
        assert res.status == Status.FALSIFIED
        assert res.counterexample.input[0] == pytest.approx(1.0)

    def test_falsify_sample_finds_the_corner(self):
        cex = falsify_sample(linear_net(), self.PROP, 0, seed=0)
        assert cex is not None and cex.input[0] == 1.0

    def test_root_unstable_count_is_zero(self):
        assert root_unstable_count(linear_net(), self.PROP.input_box) == 0


class TestLpFeasible:
    BOX = Box([-10.0], [10.0])

    def test_infeasible(self):
        a = np.array([[1.0], [-1.0]])
        b = np.array([1.0, -2.0])
        assert lp_feasible(a, b, self.BOX) is None

    def test_feasible_interval(self):
        a = np.array([[1.0], [-1.0]])
        b = np.array([1.0, 0.0])
        x = lp_feasible(a, b, self.BOX)
        assert x is not None and 0.0 - 1e-9 <= x[0] <= 1.0 + 1e-9

    def test_agreement_with_fourier_motzkin(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            rows = int(rng.integers(1, 7))
            a = np.round(rng.normal(size=(rows, n)), 2)
            a[np.all(a == 0, axis=1), 0] = 1.0
            b = np.round(rng.normal(size=rows), 2)
            box = Box(np.full(n, -3.0), np.full(n, 3.0))
            point = lp_feasible(a, b, box)
            cons = [([Fraction(float(c)) for c in row], Fraction(float(rhs)))
                    for row, rhs in zip(a, b)]
            for i in range(n):
                e = [Fraction(0)] * n
                e[i] = Fraction(1)
                cons.append((e, Fraction(3)))
                e2 = [Fraction(0)] * n
                e2[i] = Fraction(-1)
                cons.append((e2, Fraction(3)))
            assert (point is not None) == fm_feasible(cons, n)
            if point is not None:
                assert np.all(a @ point <= b + 1e-9)


    @staticmethod
    def random_system(rng, case):
        """A seeded LP, shaped by `case`: 0 random rows, 1 no rows, 2 a row
        and its negation one apart (infeasible), 3 every row twice, 4 a box
        with some lo == hi."""
        n = int(rng.integers(1, 5))
        m = 0 if case == 1 else int(rng.integers(1, 7))
        a = np.round(rng.normal(size=(m, n)), 2)
        b = np.round(rng.normal(size=m), 2)
        lo = np.round(rng.uniform(-3.0, 0.0, size=n), 2)
        hi = np.round(rng.uniform(0.0, 3.0, size=n), 2)
        if case == 2:
            a = np.vstack([a, -a[:1]])
            b = np.append(b, -b[0] - 1.0)
        elif case == 3:
            a, b = np.vstack([a, a]), np.concatenate([b, b])
        elif case == 4:
            point = rng.random(n) < 0.6
            hi[point] = lo[point]
        return a, b, Box(lo, hi)

    def test_agreement_with_scipy_linprog(self):
        from scipy.optimize import linprog  # the oracle, nothing else
        rng = np.random.default_rng(7)
        statuses = []
        for i in range(250):
            a, b, box = self.random_system(rng, i % 5)
            ref = linprog(np.zeros(box.dim), A_ub=a if a.size else None,
                          b_ub=b if a.size else None,
                          bounds=list(zip(box.lo, box.hi)), method="highs")
            assert ref.status in (0, 2)
            point = lp_feasible(a, b, box)
            assert (point is None) == (ref.status == 2)
            statuses.append((i % 5, ref.status))
            if point is not None:
                assert np.all(point >= box.lo - 1e-7)
                assert np.all(point <= box.hi + 1e-7)
                assert np.all(a @ point <= b + 1e-7)
        for case in (0, 3, 4):  # both outcomes occur, not just one
            assert {st for c, st in statuses if c == case} == {0, 2}
        assert {st for c, st in statuses if c in (1, 2)} == {0, 2}

    @pytest.mark.parametrize("a, b", [
        (np.array([[np.nan]]), np.array([1.0])),
        (np.array([[1.0]]), np.array([np.inf])),
        (np.array([[-np.inf]]), np.array([0.0]))])
    def test_non_finite_system_is_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            lp_feasible(a, b, self.BOX)

    class Doctored:
        """The thread's real solver, with some answers replaced."""

        def __init__(self, **answers):
            self.highs = verifier._solver()
            self.answers = answers

        def __getattr__(self, name):
            if name in self.answers:
                return lambda *args: self.answers[name]
            return getattr(self.highs, name)

    FEASIBLE = (np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("status", ["kModelError",
                                        "kUnboundedOrInfeasible",
                                        "kTimeLimit"])
    def test_status_other_than_optimal_or_infeasible_is_undecided(
            self, monkeypatch, status):
        doctored = self.Doctored(getModelStatus=getattr(
            verifier._highs_api().HighsModelStatus, status))
        monkeypatch.setattr(verifier, "_solver", lambda: doctored)
        with pytest.raises(LPUndecidedError, match="model status"):
            lp_feasible(*self.FEASIBLE, self.BOX)

    @pytest.mark.parametrize("step", ["passModel", "run"])
    def test_solver_error_is_undecided(self, monkeypatch, step):
        error = verifier._highs_api().HighsStatus.kError
        doctored = self.Doctored(**{step: error})
        monkeypatch.setattr(verifier, "_solver", lambda: doctored)
        with pytest.raises(LPUndecidedError):
            lp_feasible(*self.FEASIBLE, self.BOX)

    @pytest.mark.parametrize("x", [
        [1.0 + 2 * verifier.LP_TOL],   # misses the row x <= 1
        [-2 * verifier.LP_TOL],        # misses the row -x <= 0
        [np.nan]])
    def test_point_off_the_rows_is_undecided(self, monkeypatch, x):
        doctored = self.Doctored(getSolution=SimpleNamespace(col_value=x))
        monkeypatch.setattr(verifier, "_solver", lambda: doctored)
        with pytest.raises(LPUndecidedError, match="misses"):
            lp_feasible(*self.FEASIBLE, self.BOX)

    def test_point_off_the_box_is_undecided(self, monkeypatch):
        doctored = self.Doctored(
            getSolution=SimpleNamespace(col_value=[10.0 + 2 * verifier.LP_TOL]))
        monkeypatch.setattr(verifier, "_solver", lambda: doctored)
        with pytest.raises(LPUndecidedError, match="misses"):
            lp_feasible(np.array([[0.0]]), np.array([1.0]), self.BOX)

    def test_reused_solver_is_order_independent(self, monkeypatch):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=6) + 1.0
        box = Box(np.full(3, -2.0), np.full(3, 2.0))
        infeasible = (np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]),
                      np.array([0.5, -1.0]))
        monkeypatch.setattr(verifier, "_thread", threading.local())
        first = lp_feasible(a, b, box)
        assert first is not None
        assert lp_feasible(*infeasible, box) is None
        assert np.array_equal(lp_feasible(a, b, box), first)

    def test_one_solver_per_thread(self):
        mine = verifier._solver()
        assert verifier._solver() is mine
        theirs = []
        worker = threading.Thread(
            target=lambda: theirs.append(verifier._solver()))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(theirs) == 1 and theirs[0] is not mine


def affine_maps_loop(net, pattern):
    """Reference for verifier._pattern_maps: one loop over the FC layers
    that composes every layer's map from the input."""
    d = net.input_dim
    a, c = np.eye(d), np.zeros(d)
    rows, rhs, k = [np.zeros((0, d))], [np.zeros(0)], 0
    fcs = [n for n in net.nodes if isinstance(n, FullyConnectedNode)]
    for li, node in enumerate(fcs):
        a = node.weights @ a
        c = node.weights @ c + node.bias
        if li == len(fcs) - 1:
            break
        active = pattern[k:k + node.out_dim].astype(bool)
        k += node.out_dim
        rows.append(np.where(active[:, None], -a, a))
        rhs.append(np.where(active, c, -c))
        a = a * active[:, None]
        c = c * active
    return np.vstack(rows), np.concatenate(rhs), a, c


class TestAffineMaps:
    def test_pattern_maps_equal_the_loop(self):
        """Every layer's sign rows and the output map, bit for bit."""
        for seed in range(8):
            net = random_net((2, 3, 3, 3, 2), seed=seed, with_bn=False)
            plan = plan_of(net)
            rng = np.random.default_rng(seed)
            for _ in range(60):
                pattern = rng.integers(0, 2, size=9)
                want = affine_maps_loop(net, pattern)
                got = verifier._pattern_maps(plan, pattern)
                assert all(np.array_equal(w, g) for w, g in zip(want, got))

    def test_pattern_length_is_checked(self):
        net = random_net((2, 3, 2), seed=0, with_bn=False)
        with pytest.raises(ValueError, match="pattern length 2"):
            check_pattern(net, Box([0.0, 0.0], [1.0, 1.0]),
                          np.zeros(2, dtype=int), [LinearAtom([1.0, 0.0], 0.0)])


class TestCheckPattern:
    def test_identity_infeasible(self):
        net = identity_net()
        x = check_pattern(net, Box([0.0], [1.0]), np.zeros(0, dtype=int),
                          [LinearAtom([-1.0], -2.0)])
        assert x is None

    def test_identity_feasible_half(self):
        net = identity_net()
        x = check_pattern(net, Box([0.0], [1.0]), np.zeros(0, dtype=int),
                          [LinearAtom([-1.0], -0.5)])
        assert x is not None and x[0] >= 0.5 - 1e-9

    def test_impossible_inactive_pattern(self):
        # pre-activation x + 2 is strictly positive on [0,1]
        net = SequentialNetwork("n", 1, [
            FullyConnectedNode([[1.0]], [2.0]),
            ReLUNode(1),
            FullyConnectedNode([[1.0]], [0.0])])
        x = check_pattern(net, Box([0.0], [1.0]), np.array([0]),
                          [LinearAtom([-1.0], 0.0)])
        assert x is None

    def test_batch_norm_net_equals_its_fold(self):
        """On a batch-norm net and on its fold, the same witness or None.
        The patterns are those of sampled points x, so each region is
        nonempty; per pattern, one disjunct that x satisfies and one below
        the interval bound of its output."""
        found = infeasible = 0
        for seed in range(6):
            net = random_net((3, 4, 3, 2), seed=seed)
            folded, box = fold_batchnorm(net), Box(np.zeros(3), np.ones(3))
            rng = np.random.default_rng(seed)
            xs = rng.uniform(box.lo, box.hi, size=(4, box.dim))
            out_lo, out_hi = interval_forward(folded, box)[-1]
            for x, pattern in zip(xs, hidden_pre_activations(folded, xs) > 0):
                c = rng.normal(size=2)
                for rhs in (c @ forward(net, x) + 0.05,
                            verifier._box_min(c, out_lo, out_hi) - 1.0):
                    disjunct = [LinearAtom(c, rhs)]
                    got = check_pattern(net, box, pattern, disjunct)
                    want = check_pattern(folded, box, pattern, disjunct)
                    if want is None:
                        infeasible += 1
                        assert got is None, seed
                    else:
                        found += 1
                        assert np.array_equal(got, want), seed
        assert found and infeasible


class TestVerifyBab:
    def test_root_refutation(self):
        res = verify_bab(identity_net(),
                         Property(Box([0.0], [1.0]),
                                  violation([-1.0], -2.0), 1))
        assert res.status == Status.VERIFIED and res.stats["nodes"] == 1

    def test_relu_shift_falsified(self):
        net = SequentialNetwork("n", 1, [
            FullyConnectedNode([[1.0]], [0.0]),
            ReLUNode(1),
            FullyConnectedNode([[1.0]], [-0.5])])
        prop = Property(Box([0.0], [1.0]), violation([-1.0], 0.0), 1)
        res = verify_bab(net, prop)
        assert res.status == Status.FALSIFIED
        # brute-force grid: witnesses are exactly [0.5, 1]
        assert 0.5 - 1e-9 <= res.counterexample.input[0] <= 1.0

    def test_matches_exhaustive_oracle(self):
        for seed in range(20):
            net, prop = tiny_instance(seed)
            res = verify_bab(net, prop, BabConfig(seed=seed))
            assert res.status != Status.UNKNOWN
            expected = exact_pattern_verdict(
                fc_layers(net), prop.input_box.lo, prop.input_box.hi,
                [[(a.coeffs, a.rhs) for a in d] for d in prop.violation])
            assert (res.status == Status.FALSIFIED) == expected

    def test_counterexample_revalidates(self):
        for seed in range(30):
            net, prop = tiny_instance(seed + 1000)
            res = verify_bab(net, prop, BabConfig(seed=seed))
            if res.status == Status.FALSIFIED:
                y = forward(net, res.counterexample.input)
                d = prop.violation[res.counterexample.disjunct]
                assert all(a.coeffs @ y <= a.rhs + 1e-7 for a in d)
                assert prop.input_box.contains(res.counterexample.input,
                                               tol=1e-12)

    def test_monotone_under_box_shrink(self):
        for seed in range(15):
            net, prop = tiny_instance(seed + 2000)
            res = verify_bab(net, prop, BabConfig(seed=0))
            if res.status != Status.VERIFIED:
                continue
            center = prop.input_box.center()
            lo = (prop.input_box.lo + center) / 2
            hi = (prop.input_box.hi + center) / 2
            shrunk = Property(Box(lo, hi), prop.violation, prop.num_outputs)
            assert verify_bab(net, shrunk,
                              BabConfig(seed=0)).status == Status.VERIFIED

    def test_budget_exhaustion_is_unknown(self):
        net, prop = tiny_instance(7)
        res = verify_bab(net, prop, BabConfig(time_budget=1e-9))
        assert res.status == Status.UNKNOWN
        assert "budget" in res.stats["reason"]

    def test_budget_is_checked_inside_enumeration(self, monkeypatch):
        # Y_0 = sum_i relu(x - t_i): all 6 ReLUs are free on [-1, 1], and
        # the two atoms are refuted only jointly, so the exact decision runs
        # many LPs, each slowed here to 0.1 s
        t = np.linspace(-0.8, 0.8, 6)
        net = SequentialNetwork("ramp", 1, [
            FullyConnectedNode(np.ones((6, 1)), -t), ReLUNode(6),
            FullyConnectedNode(np.ones((1, 6)), [0.0])])
        prop = Property(Box([-1.0], [1.0]), [[LinearAtom([1.0], 0.5),
                                              LinearAtom([-1.0], -1.0)]], 1)
        real = verifier.lp_feasible

        def slow(a_ub, b_ub, box):
            time.sleep(0.1)
            return real(a_ub, b_ub, box)

        monkeypatch.setattr(verifier, "lp_feasible", slow)
        start = time.monotonic()
        res = verify_bab(net, prop, BabConfig(time_budget=0.3,
                                              sample_count=0))
        assert time.monotonic() - start < 0.3 + 1.0
        assert res.status == Status.UNKNOWN
        assert res.stats["reason"] == "time budget exhausted"


class TestFallbacks:
    """The paths on which verify_bab decides nothing at a node: a leaf whose
    LP is undecided or whose witness is spurious splits its box instead, and
    a box thinner than min_box_width counts as undecided."""

    # y = x on [0, 1]; the violation y <= 0.3 and y >= 0.7 holds nowhere,
    # but each atom alone holds somewhere, so only the leaf LP decides the
    # root, and the split at x = 0.5 lets the bounds refute both halves
    GAP = Property(Box([0.0], [1.0]),
                   [[LinearAtom([1.0], 0.3), LinearAtom([-1.0], -0.7)]], 1)
    # y = x on [0, 1]; y >= 0.75 holds on [0.75, 1], away from the centre
    FAR = Property(Box([0.0], [1.0]), violation([-1.0], -0.75), 1)

    @staticmethod
    def undecided_lp(monkeypatch):
        monkeypatch.setattr(verifier, "linprog",
                            lambda *args: verifier.LPResult(4, message="x"))

    def test_gap_is_decided_by_the_leaf_lp(self):
        res = verify_bab(linear_net(), self.GAP, BabConfig(sample_count=0))
        assert res.status == Status.VERIFIED
        assert (res.stats["nodes"], res.stats["lp_calls"]) == (1, 1)

    def test_undecided_leaf_splits_its_box(self, monkeypatch):
        self.undecided_lp(monkeypatch)
        res = verify_bab(linear_net(), self.GAP,
                         BabConfig(sample_count=0, max_nodes=2))
        # the root's LP was undecided, so the root split: its first half
        # was refuted by its bounds and the second is left when the budget
        # runs out
        assert res.status == Status.UNKNOWN
        assert res.stats["reason"] == "node budget exhausted"
        assert (res.stats["nodes"], res.stats["lp_calls"]) == (2, 1)
        assert res.stats["enum_leaves"] == 1

    def test_undecided_leaf_too_thin_to_split_is_unknown(self, monkeypatch):
        self.undecided_lp(monkeypatch)
        res = verify_bab(linear_net(), self.GAP,
                         BabConfig(sample_count=0, min_box_width=2.0))
        assert res.status == Status.UNKNOWN
        assert res.stats["reason"] == "1 nodes hit the minimum box width"
        assert (res.stats["nodes"], res.stats["lp_calls"]) == (1, 1)

    def test_spurious_witness_raises(self, monkeypatch):
        net = linear_net()
        assert check_pattern(net, self.FAR.input_box, np.zeros(0, dtype=int),
                             self.FAR.violation[0]) is not None
        # the concrete pass moves every output below the disjunct's bound
        monkeypatch.setattr(verifier, "forward", lambda net, x: x - 1.0)
        with pytest.raises(SpuriousWitnessError, match="re-validation"):
            check_pattern(net, self.FAR.input_box, np.zeros(0, dtype=int),
                          self.FAR.violation[0])

    def test_spurious_witness_splits_its_box(self, monkeypatch):
        monkeypatch.setattr(verifier, "forward", lambda net, x: x - 1.0)
        res = verify_bab(linear_net(), self.FAR,
                         BabConfig(sample_count=0, min_box_width=2.0))
        assert res.status == Status.UNKNOWN
        assert res.stats["reason"] == "1 nodes hit the minimum box width"
        assert (res.stats["nodes"], res.stats["lp_calls"]) == (1, 1)
        # [0, 1] splits; the bounds refute [0, 0.5]; [0.5, 1] splits; its
        # halves, thinner than 0.3, each run an LP whose witness is spurious
        res = verify_bab(linear_net(), self.FAR,
                         BabConfig(sample_count=0, min_box_width=0.3))
        assert res.status == Status.UNKNOWN
        assert res.stats["reason"] == "2 nodes hit the minimum box width"
        assert (res.stats["nodes"], res.stats["lp_calls"]) == (5, 4)

    def test_box_thinner_than_min_width_is_unknown(self):
        # |x| on [-1, 1]: both ReLUs are unstable, y >= 0.9 holds only near
        # the ends and not at the centre, and enum_threshold 0 sends the
        # root to an input split its width 2 cannot make
        prop = Property(Box([-1.0], [1.0]), violation([-1.0], -0.9), 1)
        res = verify_bab(abs_net(), prop,
                         BabConfig(sample_count=0, enum_threshold=0,
                                   min_box_width=4.0))
        assert res.status == Status.UNKNOWN
        assert res.stats["reason"] == "1 nodes hit the minimum box width"
        assert (res.stats["nodes"], res.stats["lp_calls"]) == (1, 0)
        assert res.stats["root_unstable"] == 2
        # with room to split, the same search decides it
        assert verify_bab(abs_net(), prop).status == Status.FALSIFIED


def fm_system(rng):
    """A seeded random system of 1 to 3 variables for the FM oracles: rows
    of small rationals, some repeated at a positive scale, some all zero."""
    n = int(rng.integers(1, 4))
    cons = []
    for _ in range(int(rng.integers(1, 8))):
        coeffs = [Fraction(int(c), int(rng.integers(1, 4)))
                  for c in rng.integers(-3, 4, size=n)]
        rhs = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        cons.append((coeffs, rhs))
        if rng.random() < 0.3:
            k = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            cons.append(([c * k for c in coeffs],
                         rhs * k + int(rng.integers(-1, 2))))
    return cons, n


class TestFourierMotzkin:
    def test_equals_the_plain_elimination(self):
        """oracles.fm_feasible, which scales, dedupes, stops early and
        orders its eliminations, against the plain elimination."""
        rng = np.random.default_rng(3)
        verdicts = [fm_feasible(*fm_system(rng)) for _ in range(400)]
        rng = np.random.default_rng(3)
        for verdict in verdicts:
            assert verdict == reference_fm_feasible(*fm_system(rng))
        assert 50 < sum(verdicts) < 350


class TestExactOracle:
    def test_search_equals_the_enumeration(self):
        """oracles.exact_pattern_verdict, a depth-first search that cuts
        empty prefixes, against the enumeration of every pattern."""
        verdicts = []
        for seed, widths, with_bn in [
                (0, (2, 3, 3, 2), False), (1, (2, 3, 3, 2), False),
                (2, (2, 3, 3, 2), True), (3, (3, 4, 2), True),
                (4, (3, 2, 2, 3), False), (5, (2, 2), False),
                (6, (2, 4, 4, 2), False), (7, (2, 4, 4, 2), False)]:
            net, prop = tiny_instance(seed, widths, with_bn)
            args = (fc_layers(fold_batchnorm(net)), prop.input_box.lo,
                    prop.input_box.hi, [[(a.coeffs, a.rhs) for a in d]
                                        for d in prop.violation])
            verdicts.append(exact_pattern_verdict(*args))
            assert verdicts[-1] == enumerated_pattern_verdict(*args), seed
        assert True in verdicts and False in verdicts


def brute_force_enum(net, box, prop, alive, los, his):
    """Reference exact decision: every total pattern, in the lexicographic
    order of the free neurons (the depth-first search's leaf order), against
    every alive disjunct through check_pattern. Returns (witness or None,
    LP count, number of patterns whose activation region is nonempty)."""
    base = np.where(los >= 0.0, 1, 0)
    free = np.flatnonzero((los < 0.0) & (his > 0.0))
    plan = plan_of(net)
    lp_calls = nonempty = 0
    for bits in product((0, 1), repeat=free.size):
        pattern = base.copy()
        pattern[free] = bits
        rows, rhs = verifier._pattern_maps(plan, pattern)[:2]
        nonempty += lp_feasible(rows, rhs, box) is not None
        for j in alive:
            lp_calls += 1
            x = check_pattern(net, box, pattern, prop.violation[j])
            if x is not None:
                return x, lp_calls, nonempty
    return None, lp_calls, nonempty


class TestPhaseSearch:
    def test_matches_brute_force(self, monkeypatch):
        """verify_bab's phase splits against every total pattern of the
        root's free neurons: the same verdict with no more LPs, at most one
        LP-decided leaf per pattern, and no witness inside any node that its
        bounds refuted (every pattern agreeing with the signs its inherited
        bounds fix is checked against every disjunct)."""
        real = verifier._bound
        refuted = []

        def recording(plan, box, compiled=None, known=None):
            out = real(plan, box, compiled, known)
            if known is not None and not out[3]:
                refuted.append(known)
            return out
        monkeypatch.setattr(verifier, "_bound", recording)
        config = BabConfig(sample_count=0, enum_threshold=16, max_nodes=10**6)
        safe = falsified = pruned = checked = 0
        for widths in ([2, 3, 3, 3], [3, 4, 2, 3], [2, 5, 3],
                       [3, 3, 3, 3, 3]):
            for seed in range(48):
                net, prop = tiny_instance(seed, widths)
                box = prop.input_box
                los, his, free, alive = real(
                    plan_of(net), box,
                    verifier._compile(prop.violation))
                if not alive:
                    continue
                refuted.clear()
                res = verify_bab(net, prop, config)
                stats, cex = res.stats, res.counterexample
                ref, ref_calls, nonempty = brute_force_enum(
                    net, box, prop, alive, los, his)
                assert (res.status == Status.VERIFIED) == (ref is None), \
                    (widths, seed)
                assert res.status != Status.UNKNOWN
                assert stats["lp_calls"] <= ref_calls, (widths, seed)
                assert stats["enum_leaves"] <= 2 ** free
                everything = range(len(prop.violation))
                for known in refuted:
                    assert brute_force_enum(net, box, prop, everything,
                                            *known)[0] is None, (widths, seed)
                checked += len(refuted)
                if cex is None:
                    safe += 1
                    assert (stats["enum_pruned"] > 0) == \
                        (stats["enum_leaves"] < 2 ** free)
                else:
                    falsified += 1
                    assert box.contains(cex.input)
                    assert satisfies_disjunct(forward(net, cex.input),
                                              prop.violation[cex.disjunct],
                                              tol=CEX_TOL)
                pruned += stats["enum_pruned"]
        assert safe >= 5 and falsified >= 5 and pruned > 0 and checked > 0

    def test_pattern_witness_is_revalidated_on_the_callers_net(self):
        """A counterexample found by the pattern search on the folded net
        is re-validated on the net the caller passed: its output is that
        net's forward output, bit for bit, not the folded net's."""
        ds = synth_blobs(1, 30, 3, 4, 0.15)
        net, _ = train(init_network([4, 8, 8, 3], 1, with_bn=True), ds,
                       TrainingConfig(epochs=2, seed=1))
        config = BabConfig(sample_count=0, enum_threshold=16,
                           max_nodes=10**6)
        found = 0
        for sample in ds.test:
            prop = robustness_property(sample.input, sample.label, 0.05,
                                       Box(np.zeros(4), np.ones(4)), 3)
            res = verify_bab(net, prop, config)
            # sample_count=0 still tries the centre; skip what it found
            if res.status == Status.FALSIFIED and res.stats["enum_leaves"]:
                cex = res.counterexample
                assert np.array_equal(cex.output, forward(net, cex.input))
                found += 1
        assert found >= 3


class TestFalsify:
    def test_first_witness_matches_the_point_loop(self):
        """The first point, point-major, that satisfies any disjunct in a
        per-point satisfies_disjunct loop is the one _falsify returns."""
        found = 0
        for seed in range(30):
            net, prop = tiny_instance(seed + 4000, widths=(2, 4, 4, 3))
            points = verifier._sample_points(
                prop.input_box, 200, np.random.default_rng(seed))
            ref = next((i for i, x in enumerate(points)
                        if any(satisfies_disjunct(forward(net, x), d)
                               for d in prop.violation)), None)
            cex = verifier._falsify(net, net, prop,
                                    verifier._compile(prop.violation), points)
            if ref is None:
                assert cex is None
            else:
                found += 1
                assert np.array_equal(cex.input, points[ref])
        assert 0 < found < 30


def corner_net(d=10):
    """Y_0 = relu(s - d/2) - relu(d/2 - s) = s - d/2, with s the sum of the
    d inputs; both ReLUs are unstable on [0, 1]^d."""
    return SequentialNetwork("corner", d, [
        FullyConnectedNode(np.vstack([np.ones(d), -np.ones(d)]),
                           [-d / 2, d / 2]),
        ReLUNode(2), FullyConnectedNode([[1.0, -1.0]], [0.0])])


def descent_instance(seed):
    """A batch-norm net with 4 hidden ReLUs and a robustness query."""
    return tiny_instance(seed, (3, 4, 3), with_bn=True)


def by_descent(res):
    """Whether the root descent gave this result's counterexample."""
    return (res.status == Status.FALSIFIED and res.stats["nodes"] == 1
            and res.stats["descent_steps"] > 0
            and res.stats["enum_leaves"] == res.stats["lp_calls"] == 0)


class TestDescent:
    def test_reaches_a_region_the_samples_miss(self):
        # Y_0 >= 4.75 only where s >= 9.75: a corner of the 10-cube with
        # volume 0.25^10 / 10!, which no seeded sample hits
        net = corner_net()
        prop = Property(Box(np.zeros(10), np.ones(10)),
                        violation([-1.0], -4.75), 1)
        points = verifier._sample_points(prop.input_box, 32,
                                         np.random.default_rng(0))
        assert verifier._falsify(net, net, prop,
                                 verifier._compile(prop.violation),
                                 points) is None
        res = verify_bab(net, prop, BabConfig(sample_count=32, seed=0))
        assert res.status == Status.FALSIFIED
        assert res.stats["lp_calls"] == 0 and res.stats["nodes"] == 1
        assert 0 < res.stats["descent_steps"] <= verifier.DESCENT_STEPS
        assert by_descent(res)
        x = res.counterexample.input
        assert prop.input_box.contains(x) and x.sum() >= 9.75
        # without samples there is no descent: the pattern search runs LPs
        exact = verify_bab(net, prop, BabConfig(sample_count=0))
        assert exact.status == Status.FALSIFIED
        assert exact.stats["lp_calls"] > 0
        assert exact.stats["descent_steps"] == 0

    def test_witnesses_agree_with_the_exact_oracle(self):
        found = 0
        for seed in range(60):
            net, prop = descent_instance(seed)
            box = prop.input_box
            res = verify_bab(net, prop, BabConfig(seed=seed, sample_count=2))
            assert res.stats["descent_steps"] <= verifier.DESCENT_STEPS
            # against no samples and so no descent, at the root alone and
            # with the full search, verdicts move only Unknown -> Falsified
            for budget in ({}, {"max_nodes": 1, "enum_threshold": 0}):
                new = verify_bab(net, prop, BabConfig(
                    seed=seed, sample_count=2, **budget)).status
                old = verify_bab(net, prop, BabConfig(
                    seed=seed, sample_count=0, **budget)).status
                assert new == old or (old == Status.UNKNOWN
                                      and new == Status.FALSIFIED), seed
            if not by_descent(res):
                continue
            found += 1
            cex = res.counterexample
            assert box.contains(cex.input)
            assert np.array_equal(cex.output, forward(net, cex.input))
            assert satisfies_disjunct(cex.output,
                                      prop.violation[cex.disjunct],
                                      tol=CEX_TOL)
            assert exact_pattern_verdict(
                fc_layers(fold_batchnorm(net)), box.lo, box.hi,
                [[(a.coeffs, a.rhs) for a in d] for d in prop.violation]), \
                seed
        assert found >= 5

    def test_runs_at_the_root_only(self):
        split = 0
        for seed in range(60):
            net, prop = descent_instance(seed)
            res = verify_bab(net, prop, BabConfig(
                seed=seed, sample_count=2, enum_threshold=0, max_nodes=50))
            if res.stats["nodes"] > 1:  # the root descent missed
                split += 1
                assert res.stats["descent_steps"] == verifier.DESCENT_STEPS
        assert split >= 3

    def test_same_seed_same_counterexample(self):
        runs = [(corner_net(), Property(Box(np.zeros(10), np.ones(10)),
                                        violation([-1.0], -4.75), 1), 0)]
        runs += [(*descent_instance(seed), seed) for seed in range(20)]
        decided = 0
        for net, prop, seed in runs:
            config = BabConfig(seed=seed, sample_count=2)
            first = verify_bab(net, prop, config)
            decided += by_descent(first)
            assert result_facts(first) == \
                result_facts(verify_bab(net, prop, config))
        assert decided >= 3

    def test_no_descent_without_samples(self):
        for seed in range(10):
            net, prop = descent_instance(seed)
            for budget in ({}, {"max_nodes": 1, "enum_threshold": 0}):
                res = verify_bab(net, prop, BabConfig(
                    seed=seed, sample_count=0, **budget))
                assert res.stats["descent_steps"] == 0
            assert "descent_steps" in verify_bab(net, prop, ROOT_ONLY).stats

    def test_every_result_counts_descent_steps(self):
        net = corner_net()
        box = Box(np.zeros(10), np.ones(10))
        refuted = verify_bab(net, Property(box, violation([-1.0], -6.0), 1))
        assert refuted.status == Status.VERIFIED
        out_of_time = verify_bab(net, Property(box, violation([-1.0], -4.75),
                                               1), BabConfig(time_budget=1e-9))
        assert out_of_time.status == Status.UNKNOWN
        assert refuted.stats["descent_steps"] == 0
        assert out_of_time.stats["descent_steps"] == 0


class TestFalsifySample:
    def test_empty_violation_region(self):
        prop = Property(Box([0.0], [1.0]), violation([-1.0], -2.0), 1)
        assert falsify_sample(identity_net(), prop, 1000, seed=0) is None

    def test_half_box_witness(self):
        prop = Property(Box([0.0], [1.0]), violation([-1.0], -0.5), 1)
        cex = falsify_sample(identity_net(), prop, 1000, seed=0)
        assert cex is not None and cex.input[0] >= 0.5 - 1e-9

    def test_deterministic(self):
        net, prop = tiny_instance(3)
        a = falsify_sample(net, prop, 500, seed=9)
        b = falsify_sample(net, prop, 500, seed=9)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.input, b.input)

    def test_no_points_above_twelve_dims(self):
        # no corner grid above 12 inputs and no samples: nothing to try
        prop = Property(Box(np.zeros(13), np.ones(13)),
                        violation(np.eye(13)[0] * -1.0, -2.0), 13)
        assert falsify_sample(identity_net(13), prop, 0) is None

    def test_sampled_witness_implies_bab_falsified(self):
        for seed in range(20):
            net, prop = tiny_instance(seed + 3000)
            cex = falsify_sample(net, prop, 200, seed=seed)
            if cex is not None:
                res = verify_bab(net, prop, BabConfig(seed=seed))
                assert res.status == Status.FALSIFIED

    @pytest.mark.parametrize("d", range(1, 13))
    def test_corners_in_meshgrid_order(self, monkeypatch, d):
        rng = np.random.default_rng(d)
        lo = rng.uniform(-1.0, 0.0, size=d)
        box = Box(lo, lo + rng.uniform(0.0, 1.0, size=d))
        tried = []
        monkeypatch.setattr(verifier, "_falsify",
                            lambda *args: tried.append(args[-1]))
        falsify_sample(identity_net(d),
                       Property(box, violation(-np.eye(d)[0], -2.0), d), 0)
        grid = np.stack(np.meshgrid(*[(box.lo[i], box.hi[i])
                                      for i in range(d)], indexing="ij"),
                        axis=-1).reshape(-1, d)
        assert len(tried) == 1 and np.array_equal(tried[0], grid)


class TestRootUnstable:
    def test_counts_straddling_neurons(self):
        net = abs_net()
        assert root_unstable_count(net, Box([-1.0], [1.0])) == 2
        assert root_unstable_count(net, Box([0.5], [1.0])) == 0


def trailing_relu_net():
    """FC(I, 0) - ReLU - FC(I, [-1, -2]) - ReLU: invalid, since a network
    must end with an FC layer, though it has no batch norm to fold."""
    return SequentialNetwork("trailing-relu", 2, [
        FullyConnectedNode(np.eye(2), np.zeros(2)), ReLUNode(2),
        FullyConnectedNode(np.eye(2), [-1.0, -2.0]), ReLUNode(2)])


def fold_arrays(folded):
    """Each node of a folded net as its type and its dim or its parameters'
    shape and bytes, to compare two folds byte for byte."""
    return [(ReLUNode, n.dim) if isinstance(n, ReLUNode) else
            (type(n), n.weights.shape, n.weights.tobytes(), n.bias.tobytes())
            for n in folded.nodes]


def result_facts(res):
    stats = {k: v for k, v in res.stats.items() if k != "wall_time"}
    cex = res.counterexample
    return res.status, stats, None if cex is None else cex.input.tobytes()


class TestFoldMemo:
    """verifier._prepared validates every network and remembers, per
    thread, the last valid one's fold and plan, keyed on its content."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(verifier, "_thread", threading.local())

    @staticmethod
    def count_folds(monkeypatch):
        calls = []

        def counting(net):
            calls.append(net)
            return fold_batchnorm(net)
        monkeypatch.setattr(verifier, "fold_batchnorm", counting)
        return calls

    @staticmethod
    def query(net, seed, eps=0.1):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.2, 0.8, size=net.input_dim)
        return robustness_property(
            x0, int(np.argmax(forward(net, x0))), eps,
            Box(np.zeros(net.input_dim), np.ones(net.input_dim)),
            net.output_dim)

    def test_bn_free_net_is_validated(self):
        net = trailing_relu_net()
        prop = robustness_property(np.array([0.9, 0.5]), 0, 0.05,
                                   Box(np.zeros(2), np.ones(2)), 2)
        # the centre's output [0, 0] violates the property: Verified would
        # be unsound
        assert violated_disjunct(forward(net, prop.input_box.center()),
                                 prop.violation) is not None
        verify_bab(abs_net(), Property(Box([-1.0], [1.0]),
                                       violation([1.0], -1.0), 1))
        for call in (lambda: verify_bab(net, prop),
                     lambda: verify_bab(net, prop, ROOT_ONLY),
                     lambda: falsify_sample(net, prop, 8),
                     lambda: root_unstable_count(net, prop.input_box)):
            with pytest.raises(ValueError, match="must end with a fully"):
                call()

    @pytest.mark.parametrize("with_bn", [True, False])
    def test_nan_net_raises_on_every_call(self, with_bn):
        net = random_net((3, 5, 4, 2), seed=4, with_bn=with_bn)
        prop = self.query(net, 4)
        verify_bab(net, prop)
        net.nodes[0].weights[1, 2] = np.nan
        for _ in range(3):
            with pytest.raises(ValueError, match="non-finite"):
                verify_bab(net, prop)
            with pytest.raises(ValueError, match="non-finite"):
                root_unstable_count(net, prop.input_box)

    @pytest.mark.parametrize("mutate,with_bn", [
        pytest.param(lambda net: net.nodes[0].weights.__setitem__((0, 1), 2.0),
                     True, id="weight"),
        pytest.param(lambda net: net.nodes[1].running_var.__imul__(3.0),
                     True, id="running_var"),
        pytest.param(lambda net: setattr(net.nodes[1], "eps", 0.5),
                     True, id="eps"),
        pytest.param(lambda net: net.nodes[0].weights.__setitem__((0, 1), 2.0),
                     False, id="weight-without_bn")])
    def test_in_place_change_is_seen(self, monkeypatch, mutate, with_bn):
        net = random_net((3, 6, 5, 2), seed=7, with_bn=with_bn)
        props = [self.query(net, s, eps=0.2) for s in range(4)]
        folds = self.count_folds(monkeypatch)
        before = fold_arrays(verifier._prepared(net).fold)
        plan = plan_of(net)
        [verify_bab(net, p) for p in props]
        mutate(net)
        after = [result_facts(verify_bab(net, p)) for p in props]
        assert len(folds) == 2
        assert fold_arrays(verifier._prepared(net).fold) != before
        assert fold_arrays(verifier._prepared(net).fold) == \
            fold_arrays(fold_batchnorm(net))
        # a new plan, made from the changed net
        assert plan_of(net) is not plan
        fcs = [n for n in fold_batchnorm(net).nodes
               if isinstance(n, FullyConnectedNode)]
        assert all(np.array_equal(w, n.weights)
                   and np.array_equal(pos, np.maximum(n.weights, 0.0))
                   and np.array_equal(neg, np.minimum(n.weights, 0.0))
                   for (w, _, pos, neg, *_), n in
                   zip(plan_of(net), fcs, strict=True))
        prepared = verifier._prepared

        def unmemoized(*args):  # validate, fold and plan anew on every call
            verifier._thread.prepared = None
            return prepared(*args)

        monkeypatch.setattr(verifier, "_prepared", unmemoized)
        assert after == [result_facts(verify_bab(net, p)) for p in props]

    def test_one_fold_per_net_content(self, monkeypatch):
        nets = [random_net((3, 6, 5, 2), seed=s) for s in (1, 2)]
        props = [self.query(nets[0], s) for s in range(3)]
        folds = self.count_folds(monkeypatch)
        for net in nets:
            for prop in props:
                verify_bab(net, prop)
                root_unstable_count(net, prop.input_box)
                falsify_sample(net, prop, 8)
        assert list(map(id, folds)) == list(map(id, nets))
        verify_bab(nets[1].copy(), props[0])  # same content, new arrays
        assert len(folds) == 2
        for net in nets:  # one net remembered per thread
            root_unstable_count(net, props[0].input_box)
        assert list(map(id, folds)) == list(map(id, nets + nets))

    def test_bn_free_net_is_validated_once_and_not_copied(self, monkeypatch):
        net = random_net((3, 6, 5, 2), seed=3, with_bn=False)
        folds = self.count_folds(monkeypatch)
        checks = []
        monkeypatch.setattr(network, "_require_valid", checks.append)
        fold = verifier._prepared(net).fold
        assert fold is not net
        assert all(verifier._prepared(net).fold is fold for _ in range(2))
        assert checks == [net] and folds == [net]

    @pytest.mark.parametrize("with_bn", [True, False])
    def test_memo_shares_no_memory_with_the_net(self, with_bn):
        net = random_net((3, 6, 5, 2), seed=5, with_bn=with_bn)
        folded = verifier._prepared(net).fold
        params = [a for n in net.nodes for a in vars(n).values()
                  if isinstance(a, np.ndarray)]
        if with_bn:
            assert not any(np.shares_memory(a, b) for n in folded.nodes
                           for a in vars(n).values()
                           if isinstance(a, np.ndarray) for b in params)
        # the plan: W, b, max(W, 0), min(W, 0), [W; -W], [b; -b] per layer
        arrays = [a for layer in plan_of(net) for a in layer
                  if isinstance(a, np.ndarray)]
        assert len(arrays) == 3 * 6
        assert not any(np.shares_memory(a, b) for a in arrays
                       for b in params)

    @staticmethod
    def contents(prepared):
        """A preparation's fold and plan arrays, dtype and bytes."""
        return fold_arrays(prepared.fold), [
            (a.dtype, a.shape, a.tobytes()) for layer in prepared.plan
            for a in layer if isinstance(a, np.ndarray)]

    @pytest.mark.parametrize("with_bn", [True, False])
    @pytest.mark.parametrize("change", ["ulp", "negative_zero", "float32",
                                        "int64_view"])
    def test_a_hit_is_of_the_same_content(self, with_bn, change):
        """After a change the key must see, _prepared returns what a fresh
        preparation returns, byte for byte: one ulp, 0.0 to -0.0, the same
        values as float32, or the same bytes read as int64."""
        net = random_net((3, 5, 4, 2), seed=6, with_bn=with_bn)
        w = net.nodes[0].weights
        w[:] = w.astype(np.float32)  # so that a float32 copy is equal
        w[0, 0] = 0.0
        before = self.contents(verifier._prepared(net))
        if change == "ulp":
            w[1, 1] = np.nextafter(w[1, 1], np.inf)
        elif change == "negative_zero":
            w[0, 0] = -0.0
        elif change == "float32":
            net.nodes[0].weights = w.astype(np.float32)
            assert np.array_equal(net.nodes[0].weights, w)
        else:
            net.nodes[0].weights = w.view(np.int64)
        got = self.contents(verifier._prepared(net))
        verifier._thread.prepared = None
        assert got == self.contents(verifier._prepared(net))
        # only the batch-norm fold of float32 weights equals the old one
        assert (got == before) == (with_bn and change == "float32")

    def test_reshaped_weights_are_validated(self):
        """The same bytes in another shape make another key: the reshaped
        net, now invalid, is validated, not taken for the last one."""
        net = random_net((4, 2, 2), seed=8, with_bn=False)
        verifier._prepared(net)
        net.nodes[0].weights = net.nodes[0].weights.reshape(4, 2)
        with pytest.raises(ValueError, match="dim mismatch at node 0"):
            verifier._prepared(net)

    def test_verifier_never_mutates_the_fold(self):
        # With samples the root descent runs on the fold and decides these
        # queries first; without them the phase search's leaf LPs run on it.
        for sample_count in (4, 0):
            config = BabConfig(max_nodes=50, enum_threshold=20,
                               sample_count=sample_count)
            leaves = steps = 0
            for seed in range(6):
                net = random_net((3, 8, 6, 3), seed=seed, scale=1.5)
                for q in range(4):
                    res = verify_bab(net, self.query(net, q, eps=0.3), config)
                    steps += res.stats["descent_steps"]
                    leaves += res.stats["enum_leaves"]
                assert fold_arrays(verifier._prepared(net).fold) == \
                    fold_arrays(fold_batchnorm(net))
            if sample_count:
                assert steps
            else:
                assert leaves and steps == 0


LEAN_SCRIPT = """
import sys
import numpy as np
import relukit
from relukit import cli, verifier
from relukit.properties import Box, LinearAtom, Property

data = relukit.synth_blobs(seed=0, n_per_class=10, num_classes=2, dim=2,
                           spread=0.1)
net, _ = relukit.train(relukit.init_network([2, 4, 2], seed=0), data,
                       relukit.TrainingConfig(epochs=1, batch_size=8))
box = Box(np.zeros(2), np.ones(2))
ident = relukit.SequentialNetwork("id", 2, [relukit.FullyConnectedNode(
    np.eye(2), np.zeros(2))])
safe = Property(box, [[LinearAtom(np.array([-1.0, 0.0]), -2.0)]], 2)
res = relukit.verify_bab(ident, safe)
assert res.status == relukit.Status.VERIFIED, res
assert res.stats["lp_calls"] == 0, res.stats
assert relukit.falsify_sample(ident, safe, 16) is None
verifier.root_unstable_count(net, box)
relukit.save_model(net, sys.argv[1])
assert cli.main(["info", "--model", sys.argv[1]]) == 0
assert "scipy.optimize" not in sys.modules, "an LP-free run loaded scipy"
x = verifier.lp_feasible(np.array([[1.0, 1.0]]), np.array([1.0]), box)
assert box.contains(x, 1e-9) and x.sum() <= 1.0 + 1e-9, x
assert verifier._highs is sys.modules["scipy.optimize._highspy._core"]
print("lean")
"""


class TestLeanImport:
    def test_highs_loads_at_the_first_lp(self, tmp_path):
        # a fresh interpreter, so that no earlier test has loaded scipy
        src = str(Path(verifier.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", LEAN_SCRIPT,
                               str(tmp_path / "net.json")],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("lean\n")


class TestOverflowingFold:
    """A valid net whose fold holds an inf weight. Bounding that fold gives
    inf/nan bounds, which refuted label 0's disjunct (a Verified no sample
    checked), and sampling it raises NonFiniteError; so every entry point
    rejects the net before either."""

    FOLD_ERROR = "folding the batch norm at node 1 gives non-finite parameters"

    def test_the_net_is_valid_but_its_fold_raises(self):
        net = overflowing_fold_net()
        assert validate(net) == []
        with pytest.raises(ValueError, match=self.FOLD_ERROR):
            fold_batchnorm(net)

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("entry", [
        lambda net, prop: verify_bab(net, prop),
        lambda net, prop: verify_bab(net, prop, ROOT_ONLY),
        lambda net, prop: falsify_sample(net, prop, 16),
        lambda net, prop: root_unstable_count(net, prop.input_box),
        lambda net, prop: interval_forward(net, prop.input_box)],
        ids=["verify_bab", "root_only", "falsify_sample",
             "root_unstable_count", "interval_forward"])
    def test_every_entry_point_raises(self, entry, label):
        prop = robustness_property([0.5, 0.5], label, 0.1,
                                   Box(np.zeros(2), np.ones(2)), 2)
        with pytest.raises(ValueError, match=self.FOLD_ERROR):
            entry(overflowing_fold_net(), prop)
