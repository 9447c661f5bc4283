import pytest

import relukit.experiment
from relukit.config import ConfigError
from relukit.datasets import synth_blobs
from relukit.experiment import run_experiment
from relukit.model_io import network_to_document
from relukit.pruning import network_slim, weight_prune
from relukit.training import TrainingConfig, init_network, train
from relukit.verifier import root_unstable_count


def small_config():
    return {
        "seed": 3,
        "dataset": {"synth": {"seed": 3, "n_per_class": 40, "num_classes": 2,
                              "dim": 2, "spread": 0.06}},
        "hidden": [8, 8],
        "baseline_train": {"epochs": 10, "batch_size": 16,
                           "learning_rate": 0.01, "seed": 3},
        "sparse_train": {"epochs": 10, "batch_size": 16,
                         "learning_rate": 0.01, "seed": 3,
                         "slim_lambda": 0.02},
        "fine_tune": {"epochs": 5, "batch_size": 16, "learning_rate": 0.01,
                      "seed": 3},
        "ns": {"ratio": 0.25},
        "wp": {"ratio": 0.25},
        "queries": {"count": 4, "epsilon": 0.01},
        "verify": {"time_budget": 10.0},
    }


class TestRunExperiment:
    def test_result_structure(self):
        results = run_experiment(small_config())
        names = [row["variant"] for row in results["table"]]
        assert names == ["Baseline", "Sparse", "WP", "NS"]
        for row in results["table"]:
            assert 0 <= row["solved"] <= 4
            assert row["solved"] == row["verified"] + row["falsified"]
        assert set(results["instances"]) == set(names)
        assert all(len(v) == 4 for v in results["instances"].values())

    def test_ns_variant_is_narrower(self):
        results = run_experiment(small_config())
        base = results["networks"]["Baseline"]["widths"]
        slim = results["networks"]["NS"]["widths"]
        assert slim[0] == base[0] and slim[-1] == base[-1]
        assert sum(slim[1:-1]) < sum(base[1:-1])

    def test_deterministic(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        a["instances"] = b["instances"] = None  # wall times differ
        for row in a["table"]:
            row.pop("mean_root_unstable")
        for row in b["table"]:
            row.pop("mean_root_unstable")
        assert a["table"] == b["table"]
        assert a["networks"] == b["networks"]

    def test_solver_loads_before_any_query_is_timed(self, monkeypatch):
        # the first LP of a process loads HiGHS, about 0.4 s
        calls = []
        verify = relukit.experiment.verify_bab
        monkeypatch.setattr(relukit.experiment, "_solver",
                            lambda: calls.append("solver"))
        monkeypatch.setattr(relukit.experiment, "verify_bab",
                            lambda *args: calls.append("verify")
                            or verify(*args))
        run_experiment(small_config())
        assert calls == ["solver"] + ["verify"] * 16

    def test_missing_section_errors(self):
        cfg = small_config()
        del cfg["baseline_train"]
        with pytest.raises(ConfigError, match="baseline_train"):
            run_experiment(cfg)

    def test_unknown_key_errors(self):
        cfg = small_config()
        cfg["basline_train"] = {}
        with pytest.raises(ConfigError):
            run_experiment(cfg)


def without_fine_tune():
    cfg = small_config()
    del cfg["fine_tune"]
    cfg["wp"] = {"threshold": 0.3}
    return cfg


@pytest.mark.parametrize("config", [small_config(), without_fine_tune()],
                         ids=["fine-tune", "wp-threshold-no-fine-tune"])
def test_variants_are_composed_by_hand(monkeypatch, config):
    """Baseline and Sparse train one fresh net; WP prunes the Baseline and
    NS slims the Sparse net, each then fine-tuned when fine_tune is given."""
    verified = []
    inner = relukit.experiment.verify_bab
    monkeypatch.setattr(relukit.experiment, "verify_bab",
                        lambda net, prop, cfg: verified.append(net)
                        or inner(net, prop, cfg))
    run_experiment(config)
    got = list({id(net): net for net in verified}.values())

    dataset = synth_blobs(**config["dataset"]["synth"])
    fresh = init_network([2, 8, 8, 2], seed=3, with_bn=True,
                         name="experiment")
    baseline, _ = train(fresh, dataset,
                        TrainingConfig(**config["baseline_train"]))
    sparse, _ = train(fresh, dataset, TrainingConfig(**config["sparse_train"]))
    wp = weight_prune(baseline, **config["wp"])
    ns = network_slim(sparse, config["ns"]["ratio"])
    if "fine_tune" in config:
        fine = TrainingConfig(**config["fine_tune"])
        wp, _ = train(wp, dataset, fine)
        ns, _ = train(ns, dataset, fine)
    assert len(got) == 4
    for net, want in zip(got, [baseline, sparse, wp, ns]):
        assert network_to_document(net) == network_to_document(want)


def test_root_unstable_is_root_unstable_count(monkeypatch):
    # Acceptance criterion 9's config. The experiment reads root_unstable
    # from verify_bab's stats; the count it replaced must agree on every
    # query of every variant.
    config = {
        "seed": 0,
        "dataset": {"synth": {"seed": 0, "n_per_class": 60, "num_classes": 3,
                              "dim": 4, "spread": 0.08}},
        "hidden": [16, 16, 16],
        "baseline_train": {"epochs": 40, "batch_size": 16,
                           "learning_rate": 0.01, "seed": 0},
        "sparse_train": {"epochs": 40, "batch_size": 16,
                         "learning_rate": 0.01, "seed": 0,
                         "slim_lambda": 0.01},
        "fine_tune": {"epochs": 15, "batch_size": 16,
                      "learning_rate": 0.01, "seed": 0},
        "ns": {"ratio": 0.5},
        "wp": {"ratio": 0.5},
        "queries": {"count": 20, "epsilon": 0.02},
        "verify": {"time_budget": 60.0},
    }
    counts = []
    inner = relukit.experiment.verify_bab

    def counting(net, prop, cfg):
        counts.append(root_unstable_count(net, prop.input_box))
        return inner(net, prop, cfg)

    monkeypatch.setattr(relukit.experiment, "verify_bab", counting)
    results = run_experiment(config)
    got = [r["root_unstable"] for row in results["table"]
           for r in results["instances"][row["variant"]]]
    assert len(got) == 80
    assert got == counts
    assert any(counts)


@pytest.mark.parametrize("config", [small_config(), without_fine_tune()],
                         ids=["fine-tune", "wp-threshold-no-fine-tune"])
def test_each_variant_is_its_prune_report_stage(monkeypatch, config):
    """Baseline and Sparse are the input stages of the WP and NS reports;
    WP and NS are the last stages of their own reports."""
    reports = {}
    inner = relukit.experiment.prune_pipeline

    def capturing(net, dataset, cfg):
        out, report = inner(net, dataset, cfg)
        reports[cfg.method] = report
        return out, report

    monkeypatch.setattr(relukit.experiment, "prune_pipeline", capturing)
    networks = run_experiment(config)["networks"]
    wp, ns = (reports[m]["stages"]
              for m in ("weight_pruning", "network_slimming"))
    stages = {"Baseline": wp[0], "Sparse": ns[0], "WP": wp[-1], "NS": ns[-1]}
    assert list(networks) == list(stages)
    assert all(networks[v] is stages[v] for v in stages)
    for entry in networks.values():
        assert list(entry) == ["stage", "widths", "param_count", "sparsity",
                               "train_accuracy", "test_accuracy"]
    assert [networks[v]["stage"] for v in networks] == (
        ["input", "input", "fine_tune", "fine_tune"] if "fine_tune" in config
        else ["input", "input", "weight_pruning", "network_slimming"])
    if "fine_tune" not in config:
        assert networks["WP"]["sparsity"] > 0.0
