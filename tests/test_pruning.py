import numpy as np
import pytest

from conftest import random_net
from relukit.datasets import synth_blobs
from relukit.network import (BatchNorm1DNode, FullyConnectedNode, forward,
                             network_stats, validate)
from relukit.pruning import (PruningConfig, network_slim, prune_pipeline,
                             select_slim_targets, weight_prune)
from relukit.training import TrainingConfig, init_network, train


def all_weights(net):
    return np.concatenate([n.weights.ravel() for n in net.nodes
                           if isinstance(n, FullyConnectedNode)])


def set_gammas(net, per_layer_values):
    it = iter(per_layer_values)
    for node in net.nodes:
        if isinstance(node, BatchNorm1DNode):
            node.gamma = np.asarray(next(it), dtype=np.float64)


class TestWeightPrune:
    def test_threshold_zeroing(self):
        net = init_network([3, 2], seed=0, with_bn=False)
        net.nodes[0].weights = np.array([[0.05, -0.2, 0.01],
                                         [0.3, -0.05, 0.5]])
        pruned = weight_prune(net, threshold=0.1)
        assert np.array_equal(pruned.nodes[0].weights,
                              [[0.0, -0.2, 0.0], [0.3, 0.0, 0.5]])

    def test_zero_threshold_is_identity(self):
        net = random_net([3, 5, 2], seed=1)
        pruned = weight_prune(net, threshold=0.0)
        assert np.array_equal(all_weights(pruned), all_weights(net))

    def test_ratio_matches_sort_oracle(self):
        net = random_net([10, 50, 10], seed=2)
        pruned = weight_prune(net, ratio=0.5)
        pool = np.abs(all_weights(net))
        k = int(np.floor(0.5 * pool.size))
        cutoff = np.sort(pool)[k]
        expected_zeros = int((pool < cutoff).sum())
        assert int((all_weights(pruned) == 0.0).sum()) == expected_zeros

    def test_idempotent(self):
        net = random_net([4, 8, 3], seed=3)
        once = weight_prune(net, threshold=0.1)
        twice = weight_prune(once, threshold=0.1)
        assert np.array_equal(all_weights(once), all_weights(twice))

    def test_min_nonzero_magnitude_floor(self):
        for seed in range(20):
            net = random_net([4, 8, 3], seed=seed)
            t = 0.05 * (seed + 1)
            pruned = weight_prune(net, threshold=t)
            nz = np.abs(all_weights(pruned))
            nz = nz[nz > 0]
            assert nz.size == 0 or nz.min() >= t

    @pytest.mark.parametrize("kwargs,message", [
        ({"ratio": 1.0}, "ratio"), ({"ratio": -0.5}, "ratio"),
        ({"threshold": -0.1}, "threshold")])
    def test_out_of_range_amount_rejected(self, kwargs, message):
        net = random_net([3, 5, 2], seed=1)
        with pytest.raises(ValueError, match=message):
            weight_prune(net, **kwargs)

    def test_sparsity_monotone_in_threshold(self):
        net = random_net([4, 8, 3], seed=4)
        last = -1.0
        for t in [0.0, 0.05, 0.1, 0.2, 0.5, 1.0]:
            s = float((all_weights(weight_prune(net, threshold=t)) == 0).mean())
            assert s >= last
            last = s


class TestSelectSlimTargets:
    def test_global_quantile_selection(self):
        net = random_net([2, 2, 2, 2], seed=0)
        set_gammas(net, [[0.9, 0.01], [0.5, 0.02]])
        masks = select_slim_targets(net, 0.5)
        kept = np.concatenate([masks[i] for i in sorted(masks)])
        assert kept.tolist() == [True, False, True, False]

    def test_ratio_zero_keeps_all(self):
        net = random_net([3, 4, 4, 2], seed=1)
        masks = select_slim_targets(net, 0.0)
        assert all(m.all() for m in masks.values())

    def test_keep_one_guard(self):
        net = random_net([2, 3, 3, 2], seed=2)
        set_gammas(net, [[0.001, 0.002, 0.003], [5.0, 6.0, 7.0]])
        masks = select_slim_targets(net, 0.5)
        first_bn = min(masks)
        assert masks[first_bn].sum() == 1
        assert masks[first_bn][2]  # largest |gamma| survives


class TestNetworkSlim:
    def test_dead_neuron_exact(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            net = random_net([3, 6, 2], seed=trial)
            bn = net.nodes[1]
            bn.gamma = bn.gamma.copy()
            bn.beta = bn.beta.copy()
            bn.gamma[0] = 0.0
            bn.beta[0] = 0.0
            # make gamma[0] the unique global minimum
            slim = network_slim(net, ratio=1 / 6)
            for _ in range(10):
                x = rng.uniform(size=3)
                assert np.max(np.abs(forward(net, x) - forward(slim, x))) <= 1e-12

    def test_constant_absorption(self):
        net = random_net([3, 6, 2], seed=9)
        bn = net.nodes[1]
        bn.gamma[0] = 0.0
        bn.beta[0] = 2.0
        slim = network_slim(net, ratio=1 / 6)
        assert network_stats(slim)["widths"] == [3, 5, 2]
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(size=3)
            assert np.max(np.abs(forward(net, x) - forward(slim, x))) <= 1e-9

    def test_halved_widths_on_deep_net(self):
        net = random_net([784, 64, 32, 16, 10], seed=3)
        # gammas arranged so each layer's smaller half is below the global cutoff
        gammas = []
        for width in (64, 32, 16):
            g = np.concatenate([np.linspace(0.01, 0.4, width // 2),
                                np.linspace(0.6, 1.0, width - width // 2)])
            gammas.append(g)
        set_gammas(net, gammas)
        slim = network_slim(net, ratio=0.5)
        assert network_stats(slim)["widths"] == [784, 32, 16, 8, 10]
        assert validate(slim) == []

    def test_removes_globally_smallest(self):
        net = random_net([4, 8, 8, 3], seed=5)
        pool = np.concatenate([np.abs(n.gamma) for n in net.nodes
                               if isinstance(n, BatchNorm1DNode)])
        ratio = 0.25
        slim = network_slim(net, ratio)
        k = int(np.floor(ratio * pool.size))
        cutoff = np.sort(pool)[k]
        kept = sum(n.gamma.size for n in slim.nodes
                   if isinstance(n, BatchNorm1DNode))
        assert kept == int((pool >= cutoff).sum())

    @pytest.mark.parametrize("ratio", [1.0, -0.5])
    def test_out_of_range_ratio_rejected(self, ratio):
        net = random_net([4, 8, 8, 3], seed=5)
        with pytest.raises(ValueError, match=r"ratio must lie in \[0, 1\)"):
            network_slim(net, ratio)


class TestPrunePipeline:
    def test_noop_pipeline(self):
        net = random_net([2, 4, 2], seed=0)
        ds = synth_blobs(0, 10, 2, 2, 0.1)
        cfg = PruningConfig(method="weight_pruning", threshold=0.0)
        out, report = prune_pipeline(net, ds, cfg)
        assert np.array_equal(all_weights(out), all_weights(net))
        assert [s["stage"] for s in report["stages"]] == \
            ["input", "weight_pruning"]

    def test_ns_with_fine_tune_recovers(self):
        ds = synth_blobs(1, 50, 2, 2, 0.05)
        net = init_network([2, 12, 2], seed=1)
        cfg = PruningConfig(
            method="network_slimming", ratio=0.5,
            pre_train=TrainingConfig(epochs=30, batch_size=16, seed=1,
                                     learning_rate=0.01, slim_lambda=0.02),
            fine_tune=TrainingConfig(epochs=20, batch_size=16, seed=1,
                                     learning_rate=0.01))
        out, report = prune_pipeline(net, ds, cfg)
        stages = {s["stage"]: s for s in report["stages"]}
        assert stages["fine_tune"]["test_accuracy"] >= \
            stages["network_slimming"]["test_accuracy"] - 1e-12
        assert validate(out) == []

    def test_pipeline_deterministic(self):
        ds = synth_blobs(2, 30, 2, 2, 0.08)
        net = init_network([2, 8, 2], seed=4)
        cfg = PruningConfig(
            method="network_slimming", ratio=0.25,
            pre_train=TrainingConfig(epochs=5, batch_size=8, seed=2,
                                     slim_lambda=0.01))
        a, _ = prune_pipeline(net, ds, cfg)
        b, _ = prune_pipeline(net, ds, cfg)
        assert np.array_equal(all_weights(a), all_weights(b))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PruningConfig(method="weight_pruning")
        with pytest.raises(ValueError):
            PruningConfig(method="weight_pruning", threshold=0.1, ratio=0.5)
        with pytest.raises(ValueError):
            PruningConfig(method="network_slimming")
        with pytest.raises(ValueError):
            PruningConfig(method="magnitude")
        with pytest.raises(ValueError, match="ratio"):
            PruningConfig(method="network_slimming", ratio=1.0)
        with pytest.raises(ValueError, match="threshold"):
            PruningConfig(method="weight_pruning", threshold=-1.0)
