import json

import numpy as np
import pytest

from relukit.cli import main
from relukit.model_io import load_model, save_model
from relukit.training import init_network


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

    def test_ibp_engine(self, trained_model, train_cfg, capsys):
        assert main(["verify", "--model", trained_model, "--robustness",
                     "--config", train_cfg, "--sample-index", "0",
                     "--epsilon", "1e-4", "--engine", "ibp"]) == 0
        assert capsys.readouterr().out.strip() == "Verified"


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
