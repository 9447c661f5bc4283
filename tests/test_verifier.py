from fractions import Fraction

import numpy as np
import pytest

from conftest import random_net
from oracles import exact_pattern_verdict, fm_feasible
from relukit.network import (FullyConnectedNode, ReLUNode, SequentialNetwork,
                             forward)
from relukit.properties import (Box, LinearAtom, Property,
                                robustness_property)
from relukit.verifier import (BabConfig, SpuriousWitnessError, Status,
                              check_pattern, falsify_sample, interval_forward,
                              lp_feasible, root_unstable_count, verify_bab,
                              verify_ibp)


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


def fc_layers(net):
    return [(n.weights, n.bias) for n in net.nodes
            if isinstance(n, FullyConnectedNode)]


def tiny_instance(seed):
    """Random folded net (2 inputs, 8 hidden ReLUs) plus a robustness query."""
    rng = np.random.default_rng(seed)
    net = random_net([2, 4, 4, 2], seed=seed, with_bn=False, scale=1.5)
    x0 = rng.uniform(0.2, 0.8, size=2)
    label = int(np.argmax(forward(net, x0)))
    eps = float(rng.uniform(0.05, 0.4))
    prop = robustness_property(x0, label, eps, Box(np.zeros(2), np.ones(2)), 2)
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


class TestVerifyIbp:
    def test_verified(self):
        res = verify_ibp(identity_net(),
                         Property(Box([0.0], [1.0]),
                                  violation([-1.0], -2.0), 1))
        assert res.status == Status.VERIFIED
        assert res.counterexample is None

    def test_falsified_with_witness(self):
        res = verify_ibp(identity_net(),
                         Property(Box([0.0], [1.0]),
                                  violation([-1.0], -0.5), 1))
        assert res.status == Status.FALSIFIED
        assert res.counterexample.input[0] >= 0.5

    def test_unknown_on_loose_bounds(self):
        # true range of |x| over [-1,1] is [0,1] but IBP sees [0,2]
        prop = Property(Box([-1.0], [1.0]), violation([-1.0], -1.5), 1)
        res = verify_ibp(abs_net(), prop)
        assert res.status == Status.UNKNOWN
        assert not exact_pattern_verdict(
            fc_layers(abs_net()), [-1.0], [1.0], [[([-1.0], -1.5)]])

    def test_exact_lp_when_no_relu_is_unstable(self):
        # output is (x + 1) - (x + 1) = 0, but IBP sees [-1, 1]; both ReLUs
        # are stably active, so one LP decides the root
        net = SequentialNetwork("zero", 1, [
            FullyConnectedNode([[1.0], [1.0]], [1.0, 1.0]),
            ReLUNode(2),
            FullyConnectedNode([[1.0, -1.0]], [0.0])])
        prop = Property(Box([0.0], [1.0]), violation([-1.0], -0.5), 1)
        res = verify_ibp(net, prop)
        assert res.status == Status.VERIFIED
        assert res.stats["nodes"] == 1 and res.stats["lp_calls"] == 1


class TestNoHiddenLayer:
    # the only witness of Y_0 >= 1 over [0, 1] is the corner x = 1
    PROP = Property(Box([0.0], [1.0]), violation([-1.0], -1.0), 1)

    def test_verify_bab_without_sampling(self):
        res = verify_bab(linear_net(), self.PROP, BabConfig(sample_count=0))
        assert res.status == Status.FALSIFIED
        assert res.counterexample.input[0] == pytest.approx(1.0)

    def test_verify_ibp(self):
        res = verify_ibp(linear_net(), self.PROP)
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

    def test_sampled_witness_implies_bab_falsified(self):
        for seed in range(20):
            net, prop = tiny_instance(seed + 3000)
            cex = falsify_sample(net, prop, 200, seed=seed)
            if cex is not None:
                res = verify_bab(net, prop, BabConfig(seed=seed))
                assert res.status == Status.FALSIFIED


class TestRootUnstable:
    def test_counts_straddling_neurons(self):
        net = abs_net()
        assert root_unstable_count(net, Box([-1.0], [1.0])) == 2
        assert root_unstable_count(net, Box([0.5], [1.0])) == 0
