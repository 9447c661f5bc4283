import importlib

import numpy as np
import pytest

from relukit.datasets import synth_blobs
from relukit.network import forward
from relukit.properties import Box, Property, LinearAtom, robustness_property
from relukit.repair import RepairConfig, repair
from relukit.training import TrainingConfig, evaluate, init_network, train
from relukit.training import _collect_params
from relukit.verifier import BabConfig, Status, verify_bab

# the module, which the package's `repair` function shadows as an attribute
repair_module = importlib.import_module("relukit.repair")


def trained_blob_net(seed=1, epochs=40):
    ds = synth_blobs(seed, 50, 2, 2, 0.05)
    net = init_network([2, 8, 2], seed=seed)
    cfg = TrainingConfig(epochs=epochs, batch_size=16, learning_rate=0.01,
                         seed=seed)
    net, _ = train(net, ds, cfg)
    return net, ds


def robust_query(ds, index, eps):
    s = ds.test[index]
    return robustness_property(s.input, s.label, eps,
                               Box(np.zeros(2), np.ones(2)), 2)


class TestConfigAndInputs:
    def test_generic_property_rejected(self):
        net, ds = trained_blob_net()
        generic = Property(Box(np.zeros(2), np.ones(2)),
                           [[LinearAtom([1.0, 0.0], 0.0)]], 2)
        with pytest.raises(ValueError, match="label"):
            repair(net, [generic], ds, RepairConfig())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RepairConfig(max_iterations=0)
        with pytest.raises(ValueError):
            RepairConfig(counterexamples_per_property_per_round=0)

    @pytest.mark.parametrize("field,value", [
        ("max_iterations", 2.5), ("max_iterations", True),
        ("counterexamples_per_property_per_round", 1.5),
        ("counterexamples_per_property_per_round", True)])
    def test_integer_fields(self, field, value):
        with pytest.raises(ValueError,
                           match=f"{field} must be an integer, got {value!r}"):
            RepairConfig(**{field: value})
        assert getattr(RepairConfig(**{field: np.int64(2)}), field) == 2

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None,
                                       np.bool_(True)])
    def test_from_scratch_must_be_a_bool(self, value):
        # "no" is truthy: it would have retrained from scratch every round
        with pytest.raises(ValueError, match="from_scratch must be true or "
                                             f"false, got {value!r}"):
            RepairConfig(from_scratch=value)
        assert RepairConfig(from_scratch=False).from_scratch is False


class TestAlreadyVerified:
    def test_early_exit_leaves_net_unchanged(self):
        net, ds = trained_blob_net(seed=1)
        prop = robust_query(ds, 0, 1e-4)
        assert verify_bab(net, prop).status == Status.VERIFIED
        n_train = len(ds.train)
        out, report = repair(net, [prop], ds, RepairConfig(max_iterations=3))
        assert report["all_verified"]
        assert report["total_counterexamples_added"] == 0
        assert len(report["iterations"]) == 1
        assert len(ds.train) == n_train
        for a, b in zip(_collect_params(net).values(),
                        _collect_params(out).values()):
            assert np.array_equal(a, b)


class TestHonesty:
    def test_single_iteration_reports_failure(self):
        # an untrained net misclassifies some test point; one short retrain
        # round does not have to fix it, and the report must say so
        ds = synth_blobs(3, 40, 2, 2, 0.05)
        net = init_network([2, 6, 2], seed=0)
        wrong = next(s for s in ds.test
                     if int(np.argmax(forward(net, s.input))) != s.label)
        prop = robustness_property(wrong.input, wrong.label, 0.0,
                                   Box(np.zeros(2), np.ones(2)), 2)
        cfg = RepairConfig(max_iterations=1,
                           trainer=TrainingConfig(epochs=0, seed=0))
        out, report = repair(net, [prop], ds, cfg)
        status = verify_bab(out, prop).status.value
        assert report["final_statuses"] == [status]
        assert report["all_verified"] == (status == Status.VERIFIED.value)

    def test_final_statuses_from_fresh_verification(self):
        net, ds = trained_blob_net(seed=2)
        props = [robust_query(ds, i, 0.01) for i in range(3)]
        cfg = RepairConfig(max_iterations=2,
                           trainer=TrainingConfig(epochs=5, batch_size=16,
                                                  learning_rate=0.01, seed=2))
        out, report = repair(net, props, ds, cfg)
        for prop, status in zip(props, report["final_statuses"]):
            assert verify_bab(out, prop, cfg.verifier).status.value == status


class TestBookkeeping:
    def test_dataset_growth_matches_report(self):
        ds = synth_blobs(5, 30, 2, 2, 0.1)
        net = init_network([2, 6, 2], seed=1)
        props = [robust_query(ds, i, 0.05) for i in range(4)]
        n_before = len(ds.train)
        cfg = RepairConfig(max_iterations=3,
                           counterexamples_per_property_per_round=2,
                           trainer=TrainingConfig(epochs=3, batch_size=16,
                                                  learning_rate=0.01, seed=1))
        _, report = repair(net, props, ds, cfg)
        added = sum(it["counterexamples_added"] for it in report["iterations"])
        assert added == report["total_counterexamples_added"]
        assert len(ds.train) == n_before + added

    def test_counterexamples_carry_reference_label(self):
        ds = synth_blobs(5, 30, 2, 2, 0.1)
        net = init_network([2, 6, 2], seed=1)
        prop = robust_query(ds, 0, 0.05)
        label = prop.source["label"]
        n_before = len(ds.train)
        cfg = RepairConfig(max_iterations=2,
                           trainer=TrainingConfig(epochs=2, batch_size=16,
                                                  seed=1))
        repair(net, [prop], ds, cfg)
        new = ds.train[n_before:]
        assert all(s.label == label for s in new)
        assert all(prop.input_box.contains(s.input) for s in new)


class TestReportAccuracies:
    @pytest.mark.parametrize("epochs", [0, 3])
    def test_each_entry_holds_the_retrained_nets_accuracies(
            self, monkeypatch, epochs):
        # An iteration reports the accuracies of the net its retrain
        # returned, on the splits as they stood then, equal to what
        # evaluate gives; repair runs evaluate only when no epoch ran.
        retrained, evaluated = [], []
        inner_train = repair_module.train

        def recording_train(net, dataset, config):
            out = inner_train(net, dataset, config)
            retrained.append((out[0].copy(), list(dataset.train),
                              list(dataset.test)))
            return out

        def counting_evaluate(net, samples):
            evaluated.append(len(samples))
            return evaluate(net, samples)
        monkeypatch.setattr(repair_module, "train", recording_train)
        monkeypatch.setattr(repair_module, "evaluate", counting_evaluate)
        ds = synth_blobs(5, 30, 2, 2, 0.1)
        net = init_network([2, 6, 2], seed=1)
        props = [robust_query(ds, i, 0.05) for i in range(4)]
        cfg = RepairConfig(max_iterations=3,
                           counterexamples_per_property_per_round=2,
                           trainer=TrainingConfig(epochs=epochs, batch_size=16,
                                                  learning_rate=0.01, seed=1))
        _, report = repair(net, props, ds, cfg)
        entries = [e for e in report["iterations"] if "train_accuracy" in e]
        assert len(entries) == len(retrained) >= 1
        for entry, (out, train_split, test_split) in zip(entries, retrained):
            assert entry["train_accuracy"] == evaluate(out, train_split)[0]
            assert entry["test_accuracy"] == evaluate(out, test_split)[0]
        assert len(evaluated) == (0 if epochs else 2 * len(retrained))


class TestRepairScenario:
    def test_two_blob_repair_improves(self):
        # train briefly so accuracy is imperfect, then let the loop push the
        # boundary away from the misclassified anchors
        ds = synth_blobs(7, 60, 2, 2, 0.06)
        net = init_network([2, 8, 2], seed=3)
        net, _ = train(net, ds, TrainingConfig(epochs=2, batch_size=16,
                                               learning_rate=0.01, seed=3))
        props = [robust_query(ds, i, 0.01) for i in range(5)]
        before = [verify_bab(net, p).status for p in props]
        cfg = RepairConfig(
            max_iterations=6,
            trainer=TrainingConfig(epochs=15, batch_size=16,
                                   learning_rate=0.01, seed=3))
        out, report = repair(net, props, ds, cfg)
        after = report["final_statuses"]
        n_before = sum(s == Status.VERIFIED for s in before)
        n_after = sum(s == Status.VERIFIED.value for s in after)
        assert n_after >= n_before

    def test_deterministic(self):
        def run():
            ds = synth_blobs(9, 40, 2, 2, 0.08)
            net = init_network([2, 6, 2], seed=4)
            props = [robust_query(ds, i, 0.02) for i in range(3)]
            cfg = RepairConfig(max_iterations=2,
                               trainer=TrainingConfig(epochs=4, batch_size=16,
                                                      learning_rate=0.01,
                                                      seed=4))
            out, report = repair(net, props, ds, cfg)
            return out, report
        a_net, a_rep = run()
        b_net, b_rep = run()
        assert a_rep == b_rep
        for pa, pb in zip(_collect_params(a_net).values(),
                          _collect_params(b_net).values()):
            assert np.array_equal(pa, pb)

    def test_from_scratch_restarts_training(self):
        ds = synth_blobs(11, 30, 2, 2, 0.08)
        net = init_network([2, 6, 2], seed=5)
        prop = robust_query(ds, 0, 0.3)
        if verify_bab(net, prop).status != Status.FALSIFIED:
            pytest.skip("query not falsified for this seed")
        cfg = RepairConfig(max_iterations=1, from_scratch=True,
                           trainer=TrainingConfig(epochs=0, seed=5))
        out, _ = repair(net, [prop], ds, cfg)
        fresh = init_network([2, 6, 2], seed=5)
        for pa, pb in zip(_collect_params(out).values(),
                          _collect_params(fresh).values()):
            assert np.array_equal(pa, pb)
