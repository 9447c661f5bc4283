import gc
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import random_net
import relukit.training
from oracles import finite_diff_grads, reference_train
from relukit.datasets import Dataset, Sample, Split, synth_blobs
from relukit.network import BatchNorm1DNode, FullyConnectedNode, forward_batch
from relukit.pruning import network_slim, weight_prune
from relukit.training import (AdamState, TrainingConfig, adam_step, evaluate,
                              init_network, loss_and_grads, train)
from relukit.training import (_bind_flat, _collect_params, _forward_train,
                              _plan)


def grad_check(net, xs, ys, config, h=1e-5):
    """Max relative error between analytic and central-difference grads."""
    _, grads, _ = loss_and_grads(net, xs, ys, config)
    work = net.copy()
    params = _collect_params(work)

    def loss_fn(p):
        _bind_flat(work, p)
        return loss_and_grads(work, xs, ys, config)[0]

    fd = finite_diff_grads(loss_fn, params, h=h)
    worst = 0.0
    for key in grads:
        a, f = grads[key], fd[key]
        rel = np.abs(a - f) / np.maximum(np.abs(a) + np.abs(f), 1e-6)
        worst = max(worst, float(rel.max()))
    return worst


class TestForwardTrain:
    def test_constant_batch_outputs_beta(self):
        net = random_net([3, 4, 2], seed=0)
        xs = np.tile(np.array([0.3, 0.5, 0.7]), (4, 1))
        _, cache = _forward_train(_plan(net), xs)
        bn_idx = next(i for i, n in enumerate(net.nodes)
                      if isinstance(n, BatchNorm1DNode))
        # zero batch variance -> normalized activations 0 -> BN output beta
        xhat = cache[bn_idx][0]
        assert np.allclose(xhat, 0.0)

    def test_standardized_batch_identity_regime(self):
        net = init_network([2, 4, 2], seed=1, with_bn=True)
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(200, 2))
        fc = net.nodes[0]
        pre = xs @ fc.weights.T + fc.bias
        pre = (pre - pre.mean(0)) / pre.std(0)
        # feed a batch whose FC output is standardized by construction
        w_inv = np.linalg.pinv(fc.weights.T)
        xs2 = (pre - fc.bias) @ w_inv
        out, cache = _forward_train(_plan(net), xs2)
        xhat = cache[1][0]
        bn_out = net.nodes[1].gamma * xhat + net.nodes[1].beta
        assert np.allclose(bn_out, xhat, atol=1e-8)

    def test_momentum_one_running_stats_equal_batch_stats(self):
        # One full-batch epoch: the running stats become the batch stats
        # of the single forward pass, taken before the Adam step.
        net = random_net([2, 3, 2], seed=2)
        ds = synth_blobs(1, 5, 2, 2, 0.1)
        cfg = TrainingConfig(epochs=1, batch_size=len(ds.train),
                             bn_momentum=1.0)
        trained, _ = train(net, ds, cfg)
        xs = np.stack([s.input for s in ds.train])
        plan = _plan(net)
        _forward_train(plan, xs)
        assert plan.bn_at
        for i in plan.bn_at:
            rec = plan.steps[i]
            assert np.allclose(trained.nodes[i].running_mean,
                               plan.stats[rec.mu_at])
            assert np.allclose(trained.nodes[i].running_var,
                               plan.stats[rec.var_at])

    def test_singleton_batch_with_bn_errors(self):
        net = random_net([2, 3, 2], seed=3)
        with pytest.raises(ValueError, match="batch"):
            loss_and_grads(net, np.zeros((1, 2)), np.zeros(1, dtype=int),
                           TrainingConfig())


class TestLossAndGrads:
    def test_perfect_prediction_loss_near_zero(self):
        net = init_network([2, 2], seed=0, with_bn=False)
        net.nodes[0].weights = np.array([[100.0, 0.0], [-100.0, 0.0]])
        xs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ys = np.array([0, 1])
        loss, _, _ = loss_and_grads(net, xs, ys,
                                    TrainingConfig(l2_lambda=0.0))
        assert loss < 1e-20

    def test_l2_gradient_of_regularizer(self):
        net = init_network([3, 2], seed=4, with_bn=False)
        xs = np.random.default_rng(2).normal(size=(5, 3))
        cfg0 = TrainingConfig(l2_lambda=0.0)
        cfg1 = TrainingConfig(l2_lambda=0.7)
        ys = np.zeros(5, dtype=int)
        _, g0, _ = loss_and_grads(net, xs, ys, cfg0)
        _, g1, _ = loss_and_grads(net, xs, ys, cfg1)
        expected = 0.7 * net.nodes[0].weights / 5
        assert np.allclose(g1["0.weights"] - g0["0.weights"], expected)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(10)
        cfg = TrainingConfig(l2_lambda=0.01, slim_lambda=0.001)
        for trial in range(3):
            net = random_net([4, 8, 8, 3], seed=100 + trial)
            xs = rng.uniform(size=(6, 4))
            ys = rng.integers(0, 3, size=6)
            assert grad_check(net, xs, ys, cfg) < 1e-4

    def test_loss_decomposition(self):
        net = random_net([3, 4, 2], seed=5)
        xs = np.random.default_rng(3).uniform(size=(8, 3))
        ys = np.random.default_rng(4).integers(0, 2, size=8)
        cfg = TrainingConfig(l2_lambda=0.1, slim_lambda=0.05)
        loss, _, parts = loss_and_grads(net, xs, ys, cfg)
        assert loss == pytest.approx(parts["surrogate"] + parts["l2"]
                                     + parts["slim"])

    @pytest.mark.parametrize("bad", [-1, 0.7, 3, 4])
    def test_label_outside_the_classes_rejected(self, bad):
        net = random_net([2, 4, 3], seed=0)
        xs = np.random.default_rng(1).uniform(size=(4, 2))
        ys = np.array([1, bad, 2, 7])
        with pytest.raises(ValueError, match=re.escape(
                f"label {bad} is not a class index in [0, 3)")):
            loss_and_grads(net, xs, ys, TrainingConfig())

    def test_integral_float_labels_accepted(self):
        net = random_net([2, 4, 3], seed=0)
        xs = np.random.default_rng(1).uniform(size=(4, 2))
        ys = np.array([0, 1, 2, 1])
        loss, _, _ = loss_and_grads(net, xs, ys.astype(float),
                                    TrainingConfig())
        assert loss == loss_and_grads(net, xs, ys, TrainingConfig())[0]


class TestAdamStep:
    def test_zero_gradient_fixed_point(self):
        theta = np.array([1.0, -2.0])
        adam_step(theta, np.zeros(2), AdamState(), TrainingConfig())
        assert np.array_equal(theta, [1.0, -2.0])

    def test_first_step_magnitude(self):
        theta = np.array([0.0])
        cfg = TrainingConfig(learning_rate=0.001)
        adam_step(theta, np.array([1.0]), AdamState(), cfg)
        assert theta[0] == pytest.approx(-0.001, rel=1e-6)

    def test_no_cross_contamination(self):
        theta, state = np.array([1.0, 1.0]), AdamState()
        adam_step(theta, np.array([1.0, 0.0]), state, TrainingConfig())
        assert theta[0] != 1.0 and theta[1] == 1.0
        assert state.t == 1

    def test_updates_params_and_moments_in_place_and_reads_grads(self):
        # The docstring's contract: the vector and the moments are
        # overwritten in place with the allocating update's exact values;
        # the gradient stays. On these 64 entries and 3 steps the
        # bias-corrected textbook update rounds differently, so the test
        # tells the two forms apart.
        rng = np.random.default_rng(8)
        cfg = TrainingConfig(learning_rate=0.01, beta1=0.8, beta2=0.99,
                             adam_eps=1e-6)
        theta = rng.normal(size=64)
        state = AdamState()
        expect, m, v = theta.copy(), np.zeros(64), np.zeros(64)
        textbook = theta.copy()
        for t in (1, 2, 3):
            g = rng.normal(size=64)
            g_before = g.copy()
            assert adam_step(theta, g, state, cfg) is None
            if t > 1:
                assert state.m is m_obj and state.v is v_obj
            m_obj, v_obj = state.m, state.v
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            c1, c2 = 1 - cfg.beta1 ** t, 1 - cfg.beta2 ** t
            alpha_t = cfg.learning_rate * np.sqrt(c2) / c1
            eps_hat = cfg.adam_eps * np.sqrt(c2)
            textbook = textbook - (cfg.learning_rate * (m / c1)) / (
                np.sqrt(v / c2) + cfg.adam_eps)
            expect = expect - alpha_t * (m / (np.sqrt(v) + eps_hat))
            assert np.array_equal(g, g_before)
            assert np.array_equal(state.m, m)
            assert np.array_equal(state.v, v)
            assert np.array_equal(theta, expect)
            assert state.t == t
        assert not np.array_equal(textbook, expect)

    def test_no_parameter_sized_allocation_after_the_first_step(self):
        theta, g = np.zeros(50_000), np.full(50_000, 0.5)
        state, cfg = AdamState(), TrainingConfig()
        adam_step(theta, g, state, cfg)
        tracemalloc.start()
        try:
            adam_step(theta, g, state, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < theta.nbytes // 10

    @pytest.mark.parametrize("lr, b1, b2, eps", [
        (0.001, 0.9, 0.999, 1e-8), (0.01, 0.8, 0.99, 1e-6),
        (0.05, 0.5, 0.9, 1e-3)])
    def test_matches_textbook_update(self, lr, b1, b2, eps):
        # The efficient form is exact in real arithmetic; in floating point
        # it stays within a few ulps of the bias-corrected textbook update.
        rng = np.random.default_rng(21)
        cfg = TrainingConfig(learning_rate=lr, beta1=b1, beta2=b2,
                             adam_eps=eps)
        theta = rng.normal(size=200)
        state = AdamState()
        expect, m, v = theta.copy(), np.zeros(200), np.zeros(200)
        for t in range(1, 51):
            g = rng.normal(size=200) * rng.choice([1e-6, 1e-3, 1.0], size=200)
            adam_step(theta, g, state, cfg)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat, v_hat = m / (1 - b1 ** t), v / (1 - b2 ** t)
            expect = expect - lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(theta, expect, rtol=1e-12, atol=0)


class TestTrainingConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("adam_eps", float("nan")), ("adam_eps", float("inf")),
        ("l2_lambda", float("nan")), ("l2_lambda", float("inf")),
        ("slim_lambda", float("nan")), ("slim_lambda", float("inf")),
        ("beta1", float("nan")), ("beta2", float("-inf")),
        ("bn_momentum", float("nan"))])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError,
                           match=f"{field} must be finite, got {value!r}"):
            TrainingConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("learning_rate", 0.0, "learning_rate must be positive"),
        ("learning_rate", -0.1, "learning_rate must be positive"),
        ("beta1", 0.0, "beta1/beta2 must lie in (0, 1)"),
        ("beta1", 1.0, "beta1/beta2 must lie in (0, 1)"),
        ("beta2", 1.0, "beta1/beta2 must lie in (0, 1)"),
        ("adam_eps", 0.0, "adam_eps must be positive"),
        ("l2_lambda", -1e-3, "regularization weights must be nonnegative"),
        ("slim_lambda", -1e-3, "regularization weights must be nonnegative"),
        ("batch_size", 0, "batch_size must be positive"),
        ("epochs", -1, "epochs must be nonnegative"),
        ("bn_momentum", 0.0, "bn_momentum must lie in (0, 1]"),
        ("bn_momentum", 1.5, "bn_momentum must lie in (0, 1]")])
    def test_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainingConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("l2_lambda", 0.0), ("slim_lambda", 0.0), ("batch_size", 1),
        ("epochs", 0), ("bn_momentum", 1.0)])
    def test_range_ends_accepted(self, field, value):
        assert getattr(TrainingConfig(**{field: value}), field) == value


class TestTrain:
    def test_zero_epochs_is_identity(self):
        net = random_net([2, 4, 2], seed=0)
        ds = synth_blobs(0, 10, 2, 2, 0.1)
        out, metrics = train(net, ds, TrainingConfig(epochs=0))
        assert metrics == []
        for a, b in zip(_collect_params(net).values(),
                        _collect_params(out).values()):
            assert np.array_equal(a, b)

    def test_deterministic(self):
        net = init_network([2, 8, 2], seed=7)
        ds = synth_blobs(2, 25, 2, 2, 0.08)
        cfg = TrainingConfig(epochs=5, batch_size=8, seed=3)
        a, _ = train(net, ds, cfg)
        b, _ = train(net, ds, cfg)
        for pa, pb in zip(_collect_params(a).values(),
                          _collect_params(b).values()):
            assert np.array_equal(pa, pb)

    def test_input_net_not_mutated(self):
        net = init_network([2, 8, 2], seed=7)
        before = {k: v.copy() for k, v in _collect_params(net).items()}
        ds = synth_blobs(2, 25, 2, 2, 0.08)
        train(net, ds, TrainingConfig(epochs=2, batch_size=8))
        for k, v in _collect_params(net).items():
            assert np.array_equal(v, before[k])

    def test_epoch_accuracies_match_evaluate(self):
        ds = synth_blobs(3, 30, 3, 2, 0.2)
        net = init_network([2, 8, 3], seed=3)
        trained, metrics = train(net, ds, TrainingConfig(
            epochs=3, batch_size=16, learning_rate=0.01))
        last = metrics[-1]
        assert last["train_accuracy"] == 1.0 - last["literal_err01"]
        assert last["train_accuracy"] == evaluate(trained, ds.train)[0]
        assert last["test_accuracy"] == evaluate(trained, ds.test)[0]

    def test_learns_blobs(self):
        ds = synth_blobs(1, 50, 2, 2, 0.05)
        net = init_network([2, 16, 2], seed=1)
        cfg = TrainingConfig(epochs=40, batch_size=16, learning_rate=0.01,
                             seed=1)
        trained, metrics = train(net, ds, cfg)
        assert metrics[-1]["test_accuracy"] >= 0.95

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_label_beyond_the_outputs_rejected(self, split):
        ds = synth_blobs(3, 10, 3, 2, 0.2)
        net = init_network([2, 4, 2], seed=0)
        first = next(s.label for s in getattr(ds, split) if s.label >= 2)
        with pytest.raises(ValueError, match=re.escape(
                f"label {first} is not a class index in [0, 2)")):
            train(net, ds if split == "train" else
                  Dataset(2, 3, [s for s in ds.train if s.label < 2],
                          ds.test), TrainingConfig(epochs=1))

    def test_labels_checked_once_per_call(self, monkeypatch):
        calls = []
        inner = relukit.training._checked_labels

        def wrapper(labels, n_out):
            calls.append(len(labels))
            return inner(labels, n_out)
        monkeypatch.setattr(relukit.training, "_checked_labels", wrapper)
        net, ds, cfg = _train_case(True, epochs=3)
        train(net, ds, cfg)
        assert calls == [len(ds.train), len(ds.test)]

    def test_epoch_makes_no_copy_of_the_data(self):
        # Batches are gathered from the split's arrays; a stacked copy of
        # the split would by itself reach its full size.
        ds = synth_blobs(0, 375, 10, 784, 0.1)
        split_bytes = len(ds.train) * 784 * 8
        net = init_network([784, 16, 10], seed=0)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            train(net, ds, TrainingConfig(epochs=1, batch_size=256))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds.train) == 3000
        assert peak - start < split_bytes / 2

    def test_sparsity_pressure_on_gamma(self):
        ds = synth_blobs(4, 40, 2, 2, 0.08)
        net = init_network([2, 12, 2], seed=2)
        base = TrainingConfig(epochs=30, batch_size=16, learning_rate=0.01,
                              seed=5)
        slim = TrainingConfig(epochs=30, batch_size=16, learning_rate=0.01,
                              seed=5, slim_lambda=0.05)
        dense_net, _ = train(net, ds, base)
        sparse_net, _ = train(net, ds, slim)
        def mean_gamma(n):
            return np.mean([np.abs(node.gamma).mean() for node in n.nodes
                            if isinstance(node, BatchNorm1DNode)])
        assert mean_gamma(sparse_net) <= mean_gamma(dense_net)


def _train_case(with_bn, **overrides):
    """A 3-hidden-layer net and a 36-sample training split."""
    ds = synth_blobs(6, 15, 3, 5, 0.2)
    net = random_net([5, 9, 7, 6, 3], seed=11, with_bn=with_bn)
    cfg = dict(epochs=4, batch_size=8, learning_rate=0.02, seed=4)
    cfg.update(overrides)
    return net, ds, TrainingConfig(**cfg)


def _bn_on_blocks_0_and_2():
    net = random_net([5, 9, 7, 6, 3], seed=11)
    assert isinstance(net.nodes[4], BatchNorm1DNode)
    del net.nodes[4]  # the batch norm of hidden block 1
    return net


def _assert_matches_reference(net, ds, cfg):
    got, got_metrics = train(net, ds, cfg)
    ref, ref_metrics = reference_train(net, ds, cfg)
    assert got_metrics == ref_metrics
    assert len(got.nodes) == len(ref.nodes)
    for a, b in zip(got.nodes, ref.nodes):
        assert type(a) is type(b)
        if isinstance(a, FullyConnectedNode):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
        elif isinstance(a, BatchNorm1DNode):
            for name in ("gamma", "beta", "running_mean", "running_var"):
                assert np.array_equal(getattr(a, name), getattr(b, name))


class TestTrainMatchesReference:
    """train against tests/oracles.reference_train, the training loop as
    first written: every parameter, running statistic and per-epoch metric
    must be equal, not close."""

    @pytest.mark.parametrize("with_bn, overrides", [
        (True, {}),
        (False, {}),
        (False, {"l2_lambda": 0.3}),
        (True, {"l2_lambda": 0.1, "slim_lambda": 0.05}),
        (True, {"slim_lambda": 0.2, "bn_momentum": 0.5}),
        # 36 samples in batches of 7: a trailing singleton merged back
        (True, {"batch_size": 7, "l2_lambda": 0.05}),
        (False, {"batch_size": 7}),
        # one batch larger than the split
        (True, {"batch_size": 64, "slim_lambda": 0.01}),
    ])
    def test_bit_identical(self, with_bn, overrides):
        _assert_matches_reference(*_train_case(with_bn, **overrides))

    @pytest.mark.parametrize("layout, overrides", [
        ("no_hidden", {}),
        ("no_hidden", {"batch_size": 1, "l2_lambda": 0.1}),
        ("bn_on_blocks_0_and_2", {"l2_lambda": 0.1, "slim_lambda": 0.05}),
        ("bn_on_blocks_0_and_2", {"batch_size": 7}),
        ("without_bn", {"batch_size": 1}),
        ("without_bn", {"batch_size": 1, "l2_lambda": 0.3}),
    ])
    def test_edge_layouts_bit_identical(self, layout, overrides):
        _, ds, cfg = _train_case(False, **overrides)
        net = {"no_hidden": lambda: random_net([5, 3], seed=11),
               "bn_on_blocks_0_and_2": _bn_on_blocks_0_and_2,
               "without_bn": lambda: random_net([5, 9, 7, 6, 3], seed=11,
                                                with_bn=False)}[layout]()
        _assert_matches_reference(net, ds, cfg)

    @pytest.mark.parametrize("overrides", [
        {},
        {"l2_lambda": 0.1, "slim_lambda": 0.05},
    ])
    def test_accuracies_beside_training_bit_identical(self, overrides):
        # the train_blobs784 shape, whose accuracy pass runs beside the
        # next epoch on a copy of the network
        net, ds = _blobs784_case()
        cfg = TrainingConfig(epochs=3, batch_size=32, learning_rate=0.01,
                             seed=2, **overrides)
        _assert_matches_reference(net, ds, cfg)


def _blobs784_case():
    """The shape of the train_blobs784 benchmark: 600 784-dim inputs and
    a [784, 64, 32, 16, 10] network."""
    return (init_network([784, 64, 32, 16, 10], seed=2),
            synth_blobs(2, 60, 10, 784, 0.1))


class TestAccuraciesBeside:
    """train's accuracy pass, beside the next epoch when it is large."""

    @staticmethod
    def _pass_threads(monkeypatch, net, ds, epochs=2):
        idents = []
        inner = relukit.training._misclassified

        def wrapper(*args):
            idents.append(threading.get_ident())
            return inner(*args)
        monkeypatch.setattr(relukit.training, "_misclassified", wrapper)
        train(net, ds, TrainingConfig(epochs=epochs, batch_size=32))
        assert len(idents) == 2 * epochs
        return set(idents)

    def test_large_pass_runs_in_a_worker(self, monkeypatch):
        before = threading.active_count()
        idents = self._pass_threads(monkeypatch, *_blobs784_case())
        assert idents and threading.get_ident() not in idents
        assert threading.active_count() == before

    @pytest.mark.parametrize("widths, n_per_class, classes", [
        ([4, 12, 12, 3], 50, 3),  # repair_blobs: 150 4-dim inputs
        ([8, 32, 32, 32, 4], 80, 4),  # verify_scaled's set-up
    ])
    def test_small_pass_stays_inline(self, monkeypatch, widths, n_per_class,
                                     classes):
        ds = synth_blobs(0, n_per_class, classes, widths[0], 0.1)
        net = init_network(widths, seed=0)
        idents = self._pass_threads(monkeypatch, net, ds)
        assert idents == {threading.get_ident()}

    @pytest.mark.parametrize("fail_at, later_fails", [
        (1, False), (3, False), (3, True), (6, True)])
    def test_pass_error_raised_in_program_order(self, monkeypatch, fail_at,
                                                later_fails):
        # _misclassified's calls go train, test, train, test, ...: call k
        # belongs to epoch (k - 1) // 2. With later_fails, the first batch
        # of the epoch after it raises too, while that pass is pending.
        net, ds = _blobs784_case()
        epoch = (fail_at - 1) // 2
        first_batch_after = 15 * (epoch + 1) + 1  # 480 rows, batches of 32
        calls = [0]
        inner_pass = relukit.training._misclassified
        inner_grads = relukit.training.loss_and_grads

        def failing_pass(*args):
            calls[0] += 1
            if calls[0] == fail_at:
                raise ArithmeticError(f"pass call {fail_at}")
            return inner_pass(*args)
        monkeypatch.setattr(relukit.training, "_misclassified", failing_pass)
        if later_fails:
            batches = [0]

            def failing_grads(*args, **kwargs):
                batches[0] += 1
                if batches[0] == first_batch_after:
                    raise RuntimeError("later epoch")
                return inner_grads(*args, **kwargs)
            monkeypatch.setattr(relukit.training, "loss_and_grads",
                                failing_grads)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"^pass call {fail_at}$"):
            train(net, ds, TrainingConfig(epochs=4, batch_size=32))
        assert threading.active_count() == before
        if later_fails:
            assert batches[0] == first_batch_after

    def test_training_error_after_a_clean_pass(self, monkeypatch):
        net, ds = _blobs784_case()
        inner = relukit.training.loss_and_grads
        batches = [0]

        def failing_grads(*args, **kwargs):
            batches[0] += 1
            if batches[0] == 20:
                raise RuntimeError("epoch 1")
            return inner(*args, **kwargs)
        monkeypatch.setattr(relukit.training, "loss_and_grads", failing_grads)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^epoch 1$"):
            train(net, ds, TrainingConfig(epochs=3, batch_size=32))
        assert threading.active_count() == before

    def test_concurrent_calls_under_frequent_switches(self):
        # Three train calls at once, each with its own worker, switching
        # threads every 10 us: a pass that read the network the next epoch
        # updates, or another call's arrays, would change the metrics.
        net, ds = _blobs784_case()
        cfg = TrainingConfig(epochs=3, batch_size=32, learning_rate=0.01)
        ref = reference_train(net, ds, cfg)[1]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            calls = [threading.Thread(
                target=lambda: results.append(train(net, ds, cfg)[1]))
                for _ in range(3)]
            for call in calls:
                call.start()
            for call in calls:
                call.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(call.is_alive() for call in calls)
        assert results == [ref] * 3


class TestTrainAliasing:
    def test_outputs_share_no_memory(self):
        net, ds, cfg = _train_case(True)
        before = net.copy()
        a, _ = train(net, ds, cfg)
        b, _ = train(net, ds, cfg)
        wp = weight_prune(a, ratio=0.5)
        ns = network_slim(a, 0.5)
        b_ref, wp_ref, ns_ref = b.copy(), wp.copy(), ns.copy()
        for arr in _collect_params(a).values():
            arr += 1.0
        for p in _collect_params(wp).values():
            p *= 3.0
        for out, ref in ((net, before), (b, b_ref), (ns, ns_ref)):
            for pa, pb in zip(_collect_params(out).values(),
                              _collect_params(ref).values()):
                assert np.array_equal(pa, pb)
        for pa, pb in zip(_collect_params(wp).values(),
                          _collect_params(wp_ref).values()):
            assert np.array_equal(pa, 3.0 * pb)
        # a's own arrays were each moved by exactly 1, no more
        a2, _ = train(net, ds, cfg)
        for pa, pb in zip(_collect_params(a).values(),
                          _collect_params(a2).values()):
            assert np.array_equal(pa, pb + 1.0)

    @pytest.mark.parametrize("with_test", [True, False])
    @pytest.mark.parametrize("batch_size, batches_per_epoch", [
        (8, 5), (7, 5), (64, 1)])
    def test_one_gradient_and_one_adam_call_per_batch(
            self, monkeypatch, batch_size, batches_per_epoch, with_test):
        # The benchmark times steps and spans through these module globals:
        # one loss_and_grads and one adam_step call per batch, and one
        # forward_batch call per split and epoch for the accuracies.
        calls = {"loss_and_grads": 0, "adam_step": 0, "forward_batch": 0}

        def counting(name):
            inner = getattr(relukit.training, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(relukit.training, name, wrapper)

        for name in calls:
            counting(name)
        net, ds, cfg = _train_case(True, batch_size=batch_size, epochs=3)
        assert len(ds.train) == 36 and ds.test
        if not with_test:
            ds = Dataset(ds.input_dim, ds.num_classes, ds.train, [])
        train(net, ds, cfg)
        assert calls == {"loss_and_grads": 3 * batches_per_epoch,
                         "adam_step": 3 * batches_per_epoch,
                         "forward_batch": 3 * (2 if with_test else 1)}

    def test_gradient_vector_dies_when_train_returns(self, monkeypatch):
        # No memo in relukit.training keeps a finished run's gradient
        # vector, or the plan that views it, alive.
        refs = []
        inner = relukit.training.adam_step

        def adam_wrapper(theta, g, state, config):
            if not refs:
                refs.append(weakref.ref(g))
            return inner(theta, g, state, config)
        monkeypatch.setattr(relukit.training, "adam_step", adam_wrapper)
        net, ds, cfg = _train_case(True, epochs=2)
        trained, _ = train(net, ds, cfg)
        gc.collect()
        assert refs and refs[0]() is None
        assert trained.nodes[0].weights.base is not None

    def test_gradients_written_into_one_vector_handed_to_adam(
            self, monkeypatch):
        # train preallocates one gradient vector; every batch's gradients
        # are written into views of it, and adam_step reads that vector.
        seen = []
        inner_grads = relukit.training.loss_and_grads
        inner_adam = relukit.training.adam_step

        def grads_wrapper(*args, **kwargs):
            result = inner_grads(*args, **kwargs)
            seen.append(("grads", result[1]))
            return result

        def adam_wrapper(theta, g, state, config):
            seen.append(("adam", g))
            return inner_adam(theta, g, state, config)
        monkeypatch.setattr(relukit.training, "loss_and_grads", grads_wrapper)
        monkeypatch.setattr(relukit.training, "adam_step", adam_wrapper)
        net, ds, cfg = _train_case(True, epochs=2)
        trained, _ = train(net, ds, cfg)
        vectors = [g for kind, g in seen if kind == "adam"]
        assert len(vectors) == 10
        assert all(g is vectors[0] for g in vectors)
        theta = trained.nodes[0].weights.base
        assert not np.shares_memory(vectors[0], theta)
        for kind, grads in seen:
            if kind == "grads":
                assert all(np.shares_memory(arr, vectors[0])
                           for arr in grads.values())


class TestLossAndGradsOut:
    @pytest.mark.parametrize("with_bn, overrides", [
        (True, {}), (False, {}), (False, {"l2_lambda": 0.3}),
        (True, {"l2_lambda": 0.1, "slim_lambda": 0.05})])
    def test_out_holds_the_gradients_in_param_order(self, with_bn, overrides):
        net = random_net([5, 9, 7, 6, 3], seed=11, with_bn=with_bn)
        cfg = TrainingConfig(**overrides)
        rng = np.random.default_rng(5)
        xs, ys = rng.normal(size=(8, 5)), rng.integers(0, 3, size=8)
        loss, grads, parts = loss_and_grads(net, xs, ys, cfg)
        out = np.full(sum(p.size for p in _collect_params(net).values()),
                      np.nan)
        loss_out, grads_out, _ = loss_and_grads(net, xs, ys, cfg,
                                                plan=_plan(net, out))
        assert loss_out == loss
        assert list(grads_out) == list(_collect_params(net))
        assert np.array_equal(out, np.concatenate(
            [grads[k].ravel() for k in _collect_params(net)]))
        for key, arr in grads_out.items():
            assert np.shares_memory(arr, out)
            assert np.array_equal(arr, grads[key])

    @pytest.mark.parametrize("with_bn, overrides", [
        (True, {"l2_lambda": 0.1, "slim_lambda": 0.05}),
        (False, {"l2_lambda": 0.3}), (True, {"batch_size": 7})])
    def test_train_plan_matches_a_direct_call(self, monkeypatch, with_bn,
                                              overrides):
        # Every batch of a train run, computed once with the plan train
        # built and once by a direct call that builds its own.
        inner = relukit.training.loss_and_grads
        seen = []

        def both(net, xs, ys, config, *, plan=None):
            assert plan is not None
            direct = inner(net, xs, ys, config)
            loss, grads, parts = inner(net, xs, ys, config, plan=plan)
            assert loss == direct[0]
            keys = list(_collect_params(net))
            assert list(grads) == keys == list(direct[1])
            out = grads[keys[0]].base
            for key in keys:
                assert np.shares_memory(grads[key], out)
                assert not np.shares_memory(direct[1][key], out)
                assert np.array_equal(grads[key], direct[1][key])
            assert list(parts) == list(direct[2])
            for key in ("surrogate", "l2", "slim"):
                assert parts[key] == direct[2][key]
            # the batch statistics the plan holds for the running update
            fresh = _plan(net)
            _forward_train(fresh, xs)
            assert bool(plan.bn_at) == with_bn
            assert np.array_equal(plan.stats, fresh.stats)
            seen.append(len(xs))
            return loss, grads, parts

        net, ds, cfg = _train_case(with_bn, **overrides)
        expect, _ = train(net, ds, cfg)
        monkeypatch.setattr(relukit.training, "loss_and_grads", both)
        got, _ = train(net, ds, cfg)
        assert sum(seen) == cfg.epochs * len(ds.train)
        # the direct calls changed nothing the run reads
        for a, b in zip(_collect_params(got).values(),
                        _collect_params(expect).values()):
            assert np.array_equal(a, b)


class TestEvaluate:
    def test_all_correct(self):
        ds = synth_blobs(1, 20, 2, 2, 0.01)
        net, _ = train(init_network([2, 8, 2], seed=0), ds,
                       TrainingConfig(epochs=30, learning_rate=0.01,
                                      batch_size=8, seed=0))
        acc, wrong = evaluate(net, ds.test)
        assert acc == 1.0 and wrong == 0

    def test_empty_errors(self):
        net = random_net([2, 3, 2], seed=0)
        with pytest.raises(ValueError):
            evaluate(net, [])

    def test_label_beyond_the_outputs_rejected(self):
        net = random_net([2, 4, 3], seed=1)
        samples = [Sample(np.zeros(2), 1), Sample(np.ones(2), 7)]
        with pytest.raises(ValueError, match=re.escape(
                "label 7 is not a class index in [0, 3)")):
            evaluate(net, samples)

    def test_matches_zero_one_risk(self):
        net = random_net([2, 4, 3], seed=1)
        ds = synth_blobs(3, 30, 3, 2, 0.2)
        acc, wrong = evaluate(net, ds.train)
        xs = np.stack([s.input for s in ds.train])
        ys = np.array([s.label for s in ds.train])
        err01 = float((forward_batch(net, xs).argmax(axis=1) != ys).mean())
        assert acc == pytest.approx(1.0 - err01)

    def test_peak_memory_does_not_grow_with_the_split(self):
        # one forward_batch over the whole split would by itself hold its
        # 20,000 x 64 first-layer output (10.2 MB), and more than that
        rng = np.random.default_rng(3)
        rows = 20_000
        split = Split(rng.uniform(size=(rows, 784)),
                      rng.integers(0, 10, size=rows))
        net, _ = _blobs784_case()
        whole = int((forward_batch(net, split.xs).argmax(axis=1)
                     != split.ys).sum())
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            _, wrong = evaluate(net, split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert wrong == whole
        assert peak - start < rows * 64 * 8 / 2

    def test_random_net_random_labels_concentration(self):
        net = random_net([4, 8, 2], seed=9)
        rng = np.random.default_rng(6)
        samples = [Sample(rng.uniform(size=4), int(rng.integers(0, 2)))
                   for _ in range(10000)]
        acc, _ = evaluate(net, samples)
        assert 0.45 <= acc <= 0.55
