import copy
import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import overflowing_fold_net
from relukit.cli import main
from relukit.datasets import synth_blobs
from relukit.experiment import robustness_queries
from relukit.model_io import load_model, save_model
from relukit.properties import Box, emit_smtlib, robustness_property
from relukit.repair import RepairConfig
from relukit.training import TrainingConfig, init_network, train
from relukit.verifier import BabConfig, root_unstable_count, verify_bab


SYNTH = {"synth": {"seed": 1, "n_per_class": 40, "num_classes": 2,
                   "dim": 2, "spread": 0.05}}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def train_cfg(tmp_path):
    return write_json(tmp_path / "train.json", {
        "dataset": SYNTH,
        "net": {"hidden": [8], "with_bn": True, "init_seed": 1},
        "train": {"epochs": 25, "batch_size": 16, "learning_rate": 0.01,
                  "seed": 1},
    })


@pytest.fixture
def trained_model(tmp_path, train_cfg):
    out = tmp_path / "model.json"
    assert main(["train", "--config", train_cfg, "--out", str(out)]) == 0
    return str(out)


class TestTrain:
    def test_writes_model_and_metrics(self, tmp_path, train_cfg):
        out = tmp_path / "m.json"
        metrics = tmp_path / "metrics.json"
        code = main(["train", "--config", train_cfg, "--out", str(out),
                     "--metrics", str(metrics)])
        assert code == 0
        net = load_model(str(out))
        assert net.input_dim == 2 and net.output_dim == 2
        rows = json.loads(metrics.read_text())
        assert len(rows) == 25 and "test_accuracy" in rows[0]

    def test_deterministic_byte_identical(self, tmp_path, train_cfg):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["train", "--config", train_cfg, "--out", str(a)])
        main(["train", "--config", train_cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_changes_result(self, tmp_path, train_cfg):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["train", "--config", train_cfg, "--out", str(a), "--seed", "1"])
        main(["train", "--config", train_cfg, "--out", str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()

    def test_unknown_config_key_errors(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {
            "dataset": SYNTH, "trian": {"epochs": 1}})
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "m.json")]) == 3
        assert "trian" in capsys.readouterr().err

    def test_non_finite_training_exits_three(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "huge_lr.json", {
            "dataset": SYNTH, "net": {"hidden": [8]},
            "train": {"epochs": 2, "learning_rate": 1e300}})
        with np.errstate(all="ignore"):
            assert main(["train", "--config", cfg,
                         "--out", str(tmp_path / "m.json")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_errors(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "m.json")]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 4.5), ("epochs", 2.5), ("seed", 1.5),
        ("epochs", True)])
    def test_non_integer_field_exits_three(self, tmp_path, field, value,
                                           capsys):
        cfg = write_json(tmp_path / "train.json", {
            "dataset": SYNTH, "net": {"hidden": [4]},
            "train": {"epochs": 2, field: value}})
        out = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert (f"config.train: {field} must be an integer, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_non_finite_field_exits_three(self, tmp_path, capsys):
        # json accepts the NaN literal, so a config file can supply it
        cfg = tmp_path / "train.json"
        cfg.write_text('{"dataset": %s, "net": {"hidden": [4]}, '
                       '"train": {"epochs": 2, "learning_rate": NaN}}'
                       % json.dumps(SYNTH))
        out = tmp_path / "m.json"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert ("config.train: learning_rate must be finite, got nan"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_boolean_with_bn_exits_three(self, tmp_path, value, capsys):
        # bool("false") is True: a string would have built a batch norm
        cfg = write_json(tmp_path / "train.json", {
            "dataset": SYNTH, "net": {"hidden": [4], "with_bn": value},
            "train": {"epochs": 1}})
        out = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert (f"config.net.with_bn must be true or false, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("with_bn", [True, False])
    def test_boolean_with_bn_is_read(self, tmp_path, with_bn):
        cfg = write_json(tmp_path / "train.json", {
            "dataset": SYNTH, "net": {"hidden": [4], "with_bn": with_bn},
            "train": {"epochs": 1}})
        out = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        kinds = [type(n).__name__ for n in load_model(str(out)).nodes]
        assert ("BatchNorm1DNode" in kinds) == with_bn

    @pytest.mark.parametrize("field,value,shown", [
        ("hidden", [4.7], 4.7), ("hidden", [True], True),
        ("init_seed", 1.9, 1.9)],
        ids=["hidden", "hidden-bool", "init_seed"])
    def test_non_integer_net_field_exits_three(self, tmp_path, field, value,
                                               shown, capsys):
        cfg = write_json(tmp_path / "train.json", {
            "dataset": SYNTH, "net": {"hidden": [4], field: value},
            "train": {"epochs": 1}})
        out = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert (f"config.net.{field} must be an integer, got {shown!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_model_continues_training(self, tmp_path, trained_model):
        settings = {"epochs": 3, "batch_size": 8, "learning_rate": 0.02,
                    "seed": 5}
        cfg = write_json(tmp_path / "more.json", {
            "dataset": SYNTH, "net": {"model": trained_model},
            "train": settings})
        out, want = tmp_path / "more_model.json", tmp_path / "want.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        net, _ = train(load_model(trained_model), synth_blobs(**SYNTH["synth"]),
                       TrainingConfig(**settings))
        save_model(net, str(want))
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("extra", [
        {"hidden": [64, 64]}, {"with_bn": False}, {"init_seed": 7},
        {"name": "other"},
        {"hidden": [64, 64], "with_bn": False, "init_seed": 7,
         "name": "other"}], ids=["hidden", "with_bn", "init_seed", "name",
                                 "all"])
    def test_model_takes_no_other_net_key(self, tmp_path, trained_model,
                                          extra, capsys):
        cfg = write_json(tmp_path / "more.json", {
            "dataset": SYNTH, "net": {"model": trained_model, **extra},
            "train": {"epochs": 1}})
        out = tmp_path / "more_model.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "config.net: 'model' takes no other key" in err
        assert all(repr(key) in err for key in extra)
        assert not out.exists()

    @pytest.mark.parametrize("hidden", [4, "4", {"width": 4}],
                             ids=["number", "string", "object"])
    def test_hidden_not_a_list_exits_three(self, tmp_path, hidden, capsys):
        cfg = write_json(tmp_path / "train.json", {
            "dataset": SYNTH, "net": {"hidden": hidden},
            "train": {"epochs": 1}})
        out = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert (f"config.net.hidden must be a list of integers, got "
                f"{hidden!r}" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("net_spec,shown", [
        ({"hidden": [4], "name": None},
         "config.net.name must be a string, got None"),
        ({"hidden": [4], "name": 5}, "config.net.name must be a string, got 5"),
        ({"model": 5}, "config.net.model must be a string, got 5")],
        ids=["name-null", "name-number", "model-number"])
    def test_non_string_net_field_exits_three(self, tmp_path, net_spec, shown,
                                              capsys):
        cfg = write_json(tmp_path / "train.json", {
            "dataset": SYNTH, "net": net_spec, "train": {"epochs": 1}})
        out = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert shown in capsys.readouterr().err
        assert not out.exists()

    def test_number_beyond_the_floats_exits_three(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "train.json", {
            "dataset": SYNTH, "net": {"hidden": [4]},
            "train": {"epochs": 1, "learning_rate": 10 ** 400}})
        out = tmp_path / "m.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
        assert "config.train: learning_rate must be finite, got 1000" in \
            capsys.readouterr().err
        assert not out.exists()


class TestPrune:
    def test_wp_zero_threshold_identity(self, tmp_path, trained_model):
        out = tmp_path / "pruned.json"
        code = main(["prune", "--model", trained_model, "--out", str(out),
                     "--method", "wp", "--threshold", "0.0"])
        assert code == 0
        a = load_model(trained_model)
        b = load_model(str(out))
        for na, nb in zip(a.nodes, b.nodes):
            if hasattr(na, "weights"):
                assert np.array_equal(na.weights, nb.weights)

    def test_ns_report(self, tmp_path, trained_model):
        out = tmp_path / "slim.json"
        report = tmp_path / "report.json"
        code = main(["prune", "--model", trained_model, "--out", str(out),
                     "--method", "ns", "--ratio", "0.25",
                     "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        stages = [s["stage"] for s in doc["stages"]]
        assert stages == ["input", "network_slimming"]

    def test_pre_train_key_is_gone(self, tmp_path, trained_model, capsys):
        cfg = write_json(tmp_path / "prune.json", {
            "dataset": SYNTH, "pre_train": {"epochs": 1}})
        out = tmp_path / "pruned.json"
        assert main(["prune", "--model", trained_model, "--out", str(out),
                     "--method", "wp", "--ratio", "0.5",
                     "--config", cfg]) == 3
        assert "config: unknown keys ['pre_train']" in capsys.readouterr().err
        assert not out.exists()

    def test_fine_tune_without_dataset_exits_three(self, tmp_path,
                                                   trained_model, capsys):
        cfg = write_json(tmp_path / "prune.json", {"fine_tune": {"epochs": 2}})
        out = tmp_path / "pruned.json"
        assert main(["prune", "--model", trained_model, "--out", str(out),
                     "--method", "wp", "--ratio", "0.5",
                     "--config", cfg]) == 3
        assert "config: 'fine_tune' needs a 'dataset' section" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_bad_method_flag(self, tmp_path, trained_model):
        with pytest.raises(SystemExit):
            main(["prune", "--model", trained_model,
                  "--out", str(tmp_path / "x.json"), "--method", "magnitude"])


class TestVerify:
    def test_verified_exit_zero(self, tmp_path, trained_model, train_cfg,
                                capsys):
        out = tmp_path / "result.json"
        code = main(["verify", "--model", trained_model, "--robustness",
                     "--config", train_cfg, "--sample-index", "0",
                     "--epsilon", "1e-4", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Verified"
        assert json.loads(out.read_text())["status"] == "Verified"

    def test_falsified_exit_one_with_counterexample(self, tmp_path, train_cfg,
                                                    capsys):
        # identity-style net: pick a test point and a huge epsilon so the
        # box crosses the decision boundary
        model = tmp_path / "weak.json"
        save_model(init_network([2, 4, 2], seed=0), str(model))
        out = tmp_path / "result.json"
        code = main(["verify", "--model", str(model), "--robustness",
                     "--config", train_cfg, "--sample-index", "0",
                     "--epsilon", "1.0", "--out", str(out)])
        doc = json.loads(out.read_text())
        if code == 1:
            assert doc["status"] == "Falsified"
            assert len(doc["counterexample"]["input"]) == 2
        else:
            assert code == 0 and doc["status"] == "Verified"

    def test_timeout_exit_two(self, tmp_path, trained_model, train_cfg):
        code = main(["verify", "--model", trained_model, "--robustness",
                     "--config", train_cfg, "--sample-index", "1",
                     "--epsilon", "0.3", "--timeout", "1e-9"])
        assert code == 2

    def test_property_file_roundtrip(self, tmp_path, trained_model, train_cfg):
        prop_path = tmp_path / "prop.smt2"
        assert main(["export-smtlib", "--config", train_cfg,
                     "--sample-index", "0", "--epsilon", "1e-4",
                     "--out", str(prop_path)]) == 0
        via_file = main(["verify", "--model", trained_model,
                         "--property", str(prop_path)])
        via_flags = main(["verify", "--model", trained_model, "--robustness",
                          "--config", train_cfg, "--sample-index", "0",
                          "--epsilon", "1e-4"])
        assert via_file == via_flags == 0

    def test_dim_mismatch_errors(self, tmp_path, train_cfg, capsys):
        model = tmp_path / "wide.json"
        save_model(init_network([5, 4, 2], seed=0), str(model))
        code = main(["verify", "--model", str(model), "--robustness",
                     "--config", train_cfg, "--sample-index", "0",
                     "--epsilon", "0.1"])
        assert code == 3
        assert "match" in capsys.readouterr().err

    def test_robustness_needs_all_flags(self, tmp_path, trained_model,
                                        capsys):
        assert main(["verify", "--model", trained_model,
                     "--robustness"]) == 3

    @pytest.mark.parametrize("flag,value,field", [
        ("--max-nodes", "0", "max_nodes"), ("--timeout", "-1", "time_budget")])
    def test_bad_budget_flag_exits_three(self, trained_model, train_cfg,
                                         flag, value, field, capsys):
        assert main(["verify", "--model", trained_model, "--robustness",
                     "--config", train_cfg, "--sample-index", "0",
                     "--epsilon", "0.3", flag, value]) == 3
        assert field in capsys.readouterr().err

    def test_out_records_root_unstable(self, tmp_path, trained_model,
                                       train_cfg):
        out = tmp_path / "result.json"
        main(["verify", "--model", trained_model, "--robustness",
              "--config", train_cfg, "--sample-index", "3",
              "--epsilon", "0.05", "--out", str(out)])
        dataset = synth_blobs(**SYNTH["synth"])
        prop = robustness_queries(dataset, dataset.test, [3], 0.05, "")[0]
        assert json.loads(out.read_text())["stats"]["root_unstable"] == \
            root_unstable_count(load_model(trained_model), prop.input_box)

    @pytest.mark.parametrize("flags,config", [
        ([], BabConfig()), (["--max-nodes", "1"], BabConfig(max_nodes=1))])
    def test_out_records_descent_steps(self, tmp_path, trained_model,
                                       train_cfg, flags, config):
        out = tmp_path / "result.json"
        main(["verify", "--model", trained_model, "--robustness",
              "--config", train_cfg, "--sample-index", "5",
              "--epsilon", "0.2", "--out", str(out)] + flags)
        dataset = synth_blobs(**SYNTH["synth"])
        prop = robustness_queries(dataset, dataset.test, [5], 0.2, "")[0]
        res = verify_bab(load_model(trained_model), prop, config)
        steps = json.loads(out.read_text())["stats"]["descent_steps"]
        # the descent runs at this query's root and misses
        assert steps == res.stats["descent_steps"] > 0

    def test_invalid_bn_free_model_exits_three(self, tmp_path, train_cfg,
                                               capsys):
        # FC - ReLU - FC - ReLU: no batch norm, but a trailing ReLU
        fc = {"kind": "fully_connected", "in": 2, "out": 2}
        model = write_json(tmp_path / "trailing_relu.json", {
            "format_version": 1, "name": "trailing-relu", "input_dim": 2,
            "layers": [{**fc, "weights": [[1, 0], [0, 1]], "bias": [0, 0]},
                       {"kind": "relu", "dim": 2},
                       {**fc, "weights": [[1, 0], [0, 1]], "bias": [-1, -2]},
                       {"kind": "relu", "dim": 2}]})
        assert main(["verify", "--model", model, "--robustness",
                     "--config", train_cfg, "--sample-index", "0",
                     "--epsilon", "0.05"]) == 3
        assert "must end with a fully-connected layer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--robustness", None), ("--config", "train.json"),
        ("--sample-index", "0"), ("--epsilon", "0.1")])
    def test_ignored_flag_exits_three(self, tmp_path, trained_model,
                                      train_cfg, flag, value, capsys):
        prop = str(tmp_path / "prop.smt2")
        assert main(["export-smtlib", "--config", train_cfg,
                     "--sample-index", "0", "--epsilon", "1e-4",
                     "--out", prop]) == 0
        given = [flag] + ([value] if value else [])
        assert main(["verify", "--model", trained_model, "--property",
                     prop] + given) == 3
        assert f"{flag} has no effect with --property" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("label", [0, 1])
    def test_overflowing_fold_exits_three(self, tmp_path, label, capsys):
        model = tmp_path / "overflow.json"
        save_model(overflowing_fold_net(), str(model))
        prop = tmp_path / "prop.smt2"
        prop.write_text(emit_smtlib(robustness_property(
            [0.5, 0.5], label, 0.1, Box(np.zeros(2), np.ones(2)), 2)))
        out = tmp_path / "result.json"
        assert main(["verify", "--model", str(model), "--property",
                     str(prop), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "folding the batch norm at node 1 gives non-finite " \
            "parameters" in captured.err
        assert captured.out == "" and not out.exists()

    def test_malformed_property_exits_three(self, tmp_path, trained_model,
                                            capsys):
        prop = tmp_path / "prop.smt2"
        prop.write_text("(declare-const X_0 Real)\n(push 1)\n")
        assert main(["verify", "--model", trained_model, "--property",
                     str(prop)]) == 3
        assert "line 2, col 2: unsupported command 'push'" in \
            capsys.readouterr().err

    def test_root_only(self, trained_model, train_cfg, capsys):
        assert main(["verify", "--model", trained_model, "--robustness",
                     "--config", train_cfg, "--sample-index", "0",
                     "--epsilon", "1e-4", "--max-nodes", "1"]) == 0
        assert capsys.readouterr().out.strip() == "Verified"

    def test_engine_flag_is_gone(self, trained_model, train_cfg, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", trained_model, "--robustness",
                  "--config", train_cfg, "--sample-index", "0",
                  "--epsilon", "1e-4", "--engine", "ibp"])
        assert exc.value.code == 3
        assert "unrecognized arguments: --engine ibp" in \
            capsys.readouterr().err


class TestRepairCommand:
    def test_repair_roundtrip(self, tmp_path, trained_model, train_cfg):
        cfg = write_json(tmp_path / "repair.json", {
            "dataset": SYNTH,
            "queries": {"count": 2, "epsilon": 0.01},
            "repair": {"max_iterations": 2},
            "trainer": {"epochs": 5, "batch_size": 16,
                        "learning_rate": 0.01, "seed": 1},
        })
        out = tmp_path / "repaired.json"
        report = tmp_path / "report.json"
        code = main(["repair", "--model", trained_model, "--config", cfg,
                     "--out", str(out), "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert len(doc["final_statuses"]) == 2
        assert load_model(str(out)).input_dim == 2

    @pytest.mark.parametrize("index", [999, -1])
    def test_query_index_out_of_range(self, tmp_path, trained_model, index,
                                      capsys):
        cfg = write_json(tmp_path / "repair.json", {
            "dataset": SYNTH, "queries": {"indices": [0, index]}})
        out = tmp_path / "repaired.json"
        assert main(["repair", "--model", trained_model, "--config", cfg,
                     "--out", str(out)]) == 3
        assert f"index {index} out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count,message", [(999, "out of range"),
                                               (-1, "selects no samples")])
    def test_bad_query_count(self, tmp_path, trained_model, count, message,
                             capsys):
        cfg = write_json(tmp_path / "repair.json", {
            "dataset": SYNTH, "queries": {"count": count}})
        assert main(["repair", "--model", trained_model, "--config", cfg,
                     "--out", str(tmp_path / "repaired.json")]) == 3
        assert message in capsys.readouterr().err

    def test_count_with_indices_exits_three(self, tmp_path, trained_model,
                                            capsys):
        cfg = write_json(tmp_path / "repair.json", {
            "dataset": SYNTH, "queries": {"count": 2, "indices": [0, 1]},
            "repair": {"max_iterations": 1}})
        out = tmp_path / "repaired.json"
        assert main(["repair", "--model", trained_model, "--config", cfg,
                     "--out", str(out)]) == 3
        assert "config.queries: give 'count' or 'indices', not both" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec,shown", [
        ({"count": 2.5}, "config.queries.count must be an integer, got 2.5"),
        ({"indices": [0, 1.5]},
         "config.queries.indices must be an integer, got 1.5")],
        ids=["count", "indices"])
    def test_non_integer_query_selection_exits_three(
            self, tmp_path, trained_model, spec, shown, capsys):
        cfg = write_json(tmp_path / "repair.json", {
            "dataset": SYNTH, "queries": spec,
            "repair": {"max_iterations": 1}})
        out = tmp_path / "repaired.json"
        assert main(["repair", "--model", trained_model, "--config", cfg,
                     "--out", str(out)]) == 3
        assert shown in capsys.readouterr().err
        assert not out.exists()

    def test_indices_not_a_list_exits_three(self, tmp_path, trained_model,
                                            capsys):
        cfg = write_json(tmp_path / "repair.json", {
            "dataset": SYNTH, "queries": {"indices": 0}})
        out = tmp_path / "repaired.json"
        assert main(["repair", "--model", trained_model, "--config", cfg,
                     "--out", str(out)]) == 3
        assert ("config.queries.indices must be a list of integers, got 0"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("split", ["Train", "dev", "", 0, None])
    def test_unknown_query_split_exits_three(self, tmp_path, trained_model,
                                             split, capsys):
        cfg = write_json(tmp_path / "repair.json", {
            "dataset": SYNTH, "queries": {"count": 1, "split": split},
            "repair": {"max_iterations": 1}})
        out = tmp_path / "repaired.json"
        assert main(["repair", "--model", trained_model, "--config", cfg,
                     "--out", str(out)]) == 3
        assert (f'config.queries.split must be "train" or "test", got '
                f"{split!r}" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_non_boolean_from_scratch_exits_three(
            self, tmp_path, trained_model, value, capsys):
        cfg = write_json(tmp_path / "repair.json", {
            "dataset": SYNTH, "queries": {"count": 1},
            "repair": {"from_scratch": value}})
        out = tmp_path / "repaired.json"
        assert main(["repair", "--model", trained_model, "--config", cfg,
                     "--out", str(out)]) == 3
        assert (f"from_scratch must be true or false, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("max_iterations", 1.5),
        ("counterexamples_per_property_per_round", True)])
    def test_non_integer_repair_field_exits_three(
            self, tmp_path, trained_model, field, value, capsys):
        cfg = write_json(tmp_path / "repair.json", {
            "dataset": SYNTH, "queries": {"count": 1},
            "repair": {field: value}})
        out = tmp_path / "repaired.json"
        assert main(["repair", "--model", trained_model, "--config", cfg,
                     "--out", str(out)]) == 3
        assert (f"{field} must be an integer, got {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestExperimentCommand:
    @pytest.mark.parametrize("section,ratio", [("wp", 1.0), ("wp", -0.5),
                                               ("ns", 1.0)])
    def test_bad_pruning_ratio_exits_three(self, tmp_path, section, ratio,
                                           capsys):
        cfg = write_json(tmp_path / "experiment.json", {
            "dataset": SYNTH, "hidden": [4],
            "baseline_train": {"epochs": 1}, "sparse_train": {"epochs": 1},
            section: {"ratio": ratio}})
        out = tmp_path / "results.json"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 3
        assert f"{section}: ratio must lie in [0, 1)" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_runs_to_the_end(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "experiment.json", {
            "seed": 2, "dataset": SYNTH, "hidden": [4, 4],
            "baseline_train": {"epochs": 3, "batch_size": 16,
                               "learning_rate": 0.01, "seed": 2},
            "sparse_train": {"epochs": 3, "batch_size": 16,
                             "learning_rate": 0.01, "seed": 2,
                             "slim_lambda": 0.02},
            "fine_tune": {"epochs": 1, "batch_size": 16, "seed": 2},
            "queries": {"count": 3, "epsilon": 0.02},
            "verify": {"time_budget": 10.0}})
        out = tmp_path / "results.json"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [re.fullmatch(r" *(\w+): solved (\d+) \(verified (\d+), "
                             r"falsified (\d+)\), mean root-unstable "
                             r"(\d+\.\d)", line).groups() for line in lines]
        table = json.loads(out.read_text())["table"]
        assert [r[0] for r in rows] == ["Baseline", "Sparse", "WP", "NS"]
        assert rows == [(t["variant"], str(t["solved"]), str(t["verified"]),
                         str(t["falsified"]),
                         f"{t['mean_root_unstable']:.1f}") for t in table]

    def test_ns_threshold_exits_three(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "experiment.json", {
            "dataset": SYNTH, "hidden": [4],
            "baseline_train": {"epochs": 1}, "sparse_train": {"epochs": 1},
            "ns": {"threshold": 0.1}})
        out = tmp_path / "results.json"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 3
        assert "ns: network slimming takes no threshold" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_sample_count_exits_three(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "experiment.json", {
            "dataset": SYNTH, "hidden": [4],
            "baseline_train": {"epochs": 1}, "sparse_train": {"epochs": 1},
            "queries": {"count": 2}, "verify": {"sample_count": 2.5}})
        out = tmp_path / "results.json"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 3
        assert "verify: sample_count must be an integer, got 2.5" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override,shown", [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"queries": {"count": 2.5}},
         "queries.count must be an integer, got 2.5"),
        ({"hidden": [4.7]}, "hidden must be an integer, got 4.7"),
        ({"hidden": 4}, "hidden must be a list of integers, got 4")],
        ids=["seed", "queries.count", "hidden", "hidden-not-a-list"])
    def test_non_integer_field_exits_three(self, tmp_path, override, shown,
                                           capsys):
        cfg = write_json(tmp_path / "experiment.json", {
            "dataset": SYNTH, "hidden": [4],
            "baseline_train": {"epochs": 1}, "sparse_train": {"epochs": 1},
            "queries": {"count": 2}, **override})
        out = tmp_path / "results.json"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 3
        assert shown in capsys.readouterr().err
        assert not out.exists()


def numeric_fields(cls):
    return [(f.name, f.type) for f in dataclasses.fields(cls)
            if f.type in (int, float)]


# A config per command that runs to the end, and every numeric field the
# command reads from it: (command, path to the field, kind), where the kind
# "ints" is a list of integers.
SWEEP_BASES = {
    "train": {"dataset": SYNTH, "net": {"hidden": [4]},
              "train": {"epochs": 1}},
    "repair": {"dataset": SYNTH, "queries": {"count": 1},
               "repair": {"max_iterations": 1}, "trainer": {"epochs": 1},
               "verifier": {"time_budget": 10.0}},
    "experiment": {"dataset": SYNTH, "hidden": [4],
                   "baseline_train": {"epochs": 1},
                   "sparse_train": {"epochs": 1}, "queries": {"count": 2}},
}
SWEEP_FIELDS = (
    [("train", ("train", name), kind)
     for name, kind in numeric_fields(TrainingConfig)]
    + [("train", ("dataset", "synth", name), kind)
       for name, kind in [("seed", int), ("n_per_class", int),
                          ("num_classes", int), ("dim", int),
                          ("spread", float)]]
    + [("train", ("net", "hidden"), "ints"),
       ("train", ("net", "init_seed"), int)]
    + [("repair", ("trainer", name), kind)
       for name, kind in numeric_fields(TrainingConfig)]
    + [("repair", ("verifier", name), kind)
       for name, kind in numeric_fields(BabConfig)]
    + [("repair", ("repair", name), kind)
       for name, kind in numeric_fields(RepairConfig)]
    + [("repair", ("queries", "count"), int),
       ("repair", ("queries", "indices"), "ints"),
       ("repair", ("queries", "epsilon"), float)]
    + [("experiment", ("verify", name), kind)
       for name, kind in numeric_fields(BabConfig)]
    + [("experiment", ("seed",), int), ("experiment", ("hidden",), "ints"),
       ("experiment", ("wp", "threshold"), float),
       ("experiment", ("wp", "ratio"), float),
       ("experiment", ("ns", "ratio"), float),
       ("experiment", ("queries", "count"), int),
       ("experiment", ("queries", "epsilon"), float)]
)


def sweep_cases():
    for command, path, kind in SWEEP_FIELDS:
        for value in [True, "1"] + ([] if kind is float else [1.5]):
            yield pytest.param(command, path, kind, value,
                               id=f"{command}-{'.'.join(path)}-{value!r}")


def run_command(tmp_path, command, config):
    """main's exit code for `command` on config, and the output path."""
    cfg = write_json(tmp_path / "config.json", config)
    out = tmp_path / "out.json"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "repair":
        model = tmp_path / "model.json"
        save_model(init_network([2, 4, 2], seed=0), str(model))
        argv += ["--model", str(model)]
    return main(argv), out


class TestMisreadValues:
    """A JSON true or string in any numeric config field, or a fraction in
    an integer one, is a config error naming the field, not a value read
    as 1 or a traceback."""

    @pytest.mark.parametrize("command", sorted(SWEEP_BASES))
    def test_base_config_runs(self, tmp_path, command):
        code, out = run_command(tmp_path, command, SWEEP_BASES[command])
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("command,path,kind,value", sweep_cases())
    def test_exits_three_naming_the_field(self, tmp_path, command, path,
                                          kind, value, capsys):
        config = copy.deepcopy(SWEEP_BASES[command])
        section = config
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = [value] if kind == "ints" else value
        code, out = run_command(tmp_path, command, config)
        assert code == 3
        assert f"{path[-1]} must be" in capsys.readouterr().err
        assert not out.exists()


class TestEvalInfo:
    def test_eval_prints_accuracy(self, trained_model, train_cfg, capsys):
        assert main(["eval", "--model", trained_model,
                     "--config", train_cfg]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_info(self, trained_model, capsys):
        assert main(["info", "--model", trained_model]) == 0
        out = capsys.readouterr().out
        assert "widths: [2, 8, 2]" in out and "parameters:" in out

    def test_info_missing_model(self, tmp_path, capsys):
        assert main(["info", "--model", str(tmp_path / "none.json")]) == 3

    def test_info_non_integer_size_exits_three(self, trained_model, tmp_path,
                                               capsys):
        with open(trained_model) as fh:
            doc = json.load(fh)
        doc["input_dim"] = 2.9
        model = write_json(tmp_path / "float_dim.json", doc)
        assert main(["info", "--model", model]) == 3
        assert "input_dim must be an integer, got 2.9" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key", ["train_images", "train_labels",
                                     "test_images", "test_labels"])
    def test_eval_idx_path_not_a_path_exits_three(self, trained_model,
                                                  tmp_path, key, capsys):
        # 0 was opened as a file descriptor: eval read standard input
        idx = {k: str(tmp_path / k) for k in ("train_images", "train_labels",
                                              "test_images", "test_labels")}
        config = write_json(tmp_path / "c.json", {"dataset": {"idx": {
            **idx, key: 0, "input_dim": 2, "num_classes": 2}}})
        assert main(["eval", "--model", trained_model,
                     "--config", config]) == 3
        assert f"dataset.idx.{key} must be a path, got 0" in \
            capsys.readouterr().err


class TestExportSmtlib:
    def test_output_is_parseable(self, tmp_path, train_cfg):
        out = tmp_path / "p.smt2"
        assert main(["export-smtlib", "--config", train_cfg,
                     "--sample-index", "0", "--epsilon", "0.05",
                     "--out", str(out)]) == 0
        from relukit.properties import parse_smtlib
        prop = parse_smtlib(out.read_text())
        assert prop.input_box.dim == 2 and prop.num_outputs == 2

    def test_index_out_of_range(self, tmp_path, train_cfg, capsys):
        assert main(["export-smtlib", "--config", train_cfg,
                     "--sample-index", "9999", "--epsilon", "0.05",
                     "--out", str(tmp_path / "p.smt2")]) == 3


class TestAtomicWrites:
    def test_no_partial_file_on_error(self, tmp_path, train_cfg):
        # unwritable output directory: command fails, no stray temp files
        target = tmp_path / "missing_dir" / "model.json"
        assert main(["train", "--config", train_cfg,
                     "--out", str(target)]) == 3
        assert not target.exists()
        assert list(tmp_path.glob("*.tmp*")) == []


class TestUsageErrors:
    """A usage error exits 3, never 2 (the code of verify Unknown)."""

    @pytest.mark.parametrize("argv", [
        # a bad flag value
        ["train", "--config", "c.json", "--out", "m.json", "--seed", "x"],
        ["prune", "--model", "m.json", "--out", "o.json", "--method", "wp",
         "--ratio", "half"],
        ["verify", "--model", "m.json", "--max-nodes", "2.5"],
        ["export-smtlib", "--config", "c.json", "--sample-index", "1.5",
         "--epsilon", "0.1", "--out", "p.smt2"],
        # an invalid choice
        ["prune", "--model", "m.json", "--out", "o.json", "--method", "zz"],
        ["eval", "--model", "m.json", "--config", "c.json", "--split", "dev"],
        # a missing required flag
        ["train", "--out", "m.json"],
        ["prune", "--model", "m.json", "--out", "o.json"],
        ["verify"],
        ["repair", "--model", "m.json", "--out", "o.json"],
        ["eval", "--model", "m.json"],
        ["info"],
        ["export-smtlib", "--config", "c.json", "--out", "p.smt2"],
        ["experiment", "--config", "c.json"],
        # no command, an unknown command, an unknown flag
        [], ["frobnicate"], ["info", "--model", "m.json", "--verbose"],
    ])
    def test_exits_three(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: relukit") and "error:" in err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: relukit" in capsys.readouterr().out
