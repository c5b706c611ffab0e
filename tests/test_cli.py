"""End-to-end command-line behavior, driven through main(argv)."""

import json
import os
import time

import numpy as np
import pytest

from ttgad.cli import main
from ttgad.errors import ConfigError
from ttgad.graphstore import load_graph


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_config(path, **data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


SMALL = dict(p=6, hidden_dim=6, attn_dim=6, num_layers=2, lr=0.01,
             dropout_rate=0.0, source_epochs=3, ttt_max_epochs=3,
             neg_samples_k=2)

GEN_ARGS = ["--nodes", "40", "--dim", "4", "--rate", "0.2",
            "--homophily", "0.8", "--mean-degree", "4"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated source/target pair and a trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    source = root / "source"
    target = root / "target"
    assert main(["gen", "--out", str(source), "--seed", "7", "--quiet",
                 *GEN_ARGS]) == 0
    assert main(["gen", "--out", str(target), "--seed", "8", "--quiet",
                 *GEN_ARGS]) == 0
    cfg = write_config(root / "train.json", **SMALL,
                       source_graph=str(source))
    run = root / "run"
    assert main(["train", "--config", cfg, "--out", str(run),
                 "--quiet"]) == 0
    return {"root": root, "source": source, "target": target,
            "config": cfg, "run": run,
            "checkpoint": run / "checkpoint.bin"}


class TestGen:
    def test_writes_bundle_and_prints_stats(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gen", "--out", str(out), "--seed", "1", *GEN_ARGS]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["edges.tsv", "features.bin", "labels.tsv", "meta.json"]
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_nodes"] == 40
        graph = load_graph(out)
        assert graph.labels.sum() > 0

    def test_same_seed_same_bytes(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
        for d, seed in zip(dirs, ["5", "5", "6"]):
            assert main(["gen", "--out", str(d), "--seed", seed, "--quiet",
                         *GEN_ARGS]) == 0
        for name in ("meta.json", "edges.tsv", "features.bin", "labels.tsv"):
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, name
        assert (dirs[0] / "edges.tsv").read_bytes() \
            != (dirs[2] / "edges.tsv").read_bytes()

    @pytest.mark.parametrize("extra", [
        ["--homophily", "1.5"],
        ["--rate", "-0.1"],
        ["--nodes", "0"],
        ["--mean-degree", "0"],
        ["--rate", "0.6"],
        ["--rate", "0"],
        ["--nodes", "1"],
        ["--homophily", "1.0", "--rate", "0.45", "--nodes", "5"],
    ])
    def test_bad_values_exit_1(self, tmp_path, extra, capsys):
        args = ["gen", "--out", str(tmp_path / "x"), "--nodes", "20"]
        args += extra
        assert main(args) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_out_exits_1(self, capsys):
        assert main(["gen", "--nodes", "20"]) == 1
        assert "requires --out" in capsys.readouterr().err

    def test_spec_past_physical_memory_exits_1_before_allocating(self, tmp_path, capsys):
        # 10**11 nodes would need 745 GiB for the features alone; the spec
        # is sized in closed form and refused before any draw.
        start = time.perf_counter()
        assert main(["gen", "--out", str(tmp_path / "x"), "--nodes", "100000000000"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "error: gen:" in err and "does not fit in memory" in err
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_artifacts_written(self, workspace):
        assert workspace["checkpoint"].exists()
        log = read_json(workspace["run"] / "train_log.json")
        assert [e["epoch"] for e in log["epochs"]] == [1, 2, 3]
        assert all("auroc" in e and "loss" in e for e in log["epochs"])

    def test_repeat_run_identical_checkpoint(self, workspace, tmp_path):
        again = tmp_path / "again"
        assert main(["train", "--config", workspace["config"],
                     "--out", str(again), "--quiet"]) == 0
        assert (again / "checkpoint.bin").read_bytes() \
            == workspace["checkpoint"].read_bytes()

    def test_seed_flag_changes_result(self, workspace, tmp_path):
        other = tmp_path / "other"
        assert main(["train", "--config", workspace["config"],
                     "--out", str(other), "--seed", "99", "--quiet"]) == 0
        assert (other / "checkpoint.bin").read_bytes() \
            != workspace["checkpoint"].read_bytes()

    def test_missing_source_graph_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **SMALL)
        assert main(["train", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "source_graph" in capsys.readouterr().err

    def test_unknown_config_key_exits_1(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **SMALL, momentum=0.9,
                           source_graph=str(workspace["source"]))
        assert main(["train", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "unknown config key 'momentum'" in capsys.readouterr().err

    def test_wrong_value_type_exits_1(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **{**SMALL, "p": "eight"},
                           source_graph=str(workspace["source"]))
        assert main(["train", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "p must be of type int" in capsys.readouterr().err

    def test_nonfinite_setting_exits_1_before_training(self, workspace, tmp_path,
                                                       capsys):
        cfg = write_config(tmp_path / "c.json", **SMALL, nonneighbor_weight=float("nan"),
                           source_graph=str(workspace["source"]))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "nonneighbor_weight must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_removed_neighbor_cap_key_exits_1(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **SMALL, neighbor_cap=3,
                           source_graph=str(workspace["source"]))
        assert main(["train", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "unknown config key 'neighbor_cap'" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [
        {"p": 10 ** 12}, {"attn_dim": 10 ** 14},
        {"hidden_dim": 1000, "num_layers": 10 ** 8},
    ], ids=["p", "attn_dim", "num_layers"])
    def test_parameters_larger_than_memory_exit_1(self, workspace, tmp_path, capsys,
                                                  sizes):
        cfg = write_config(tmp_path / "c.json", **{**SMALL, **sizes},
                           source_graph=str(workspace["source"]))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "config sizes do not fit in memory" in err
        assert "Traceback" not in err

    def test_invalid_json_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # bad syntax, not UTF-8, then nested too deep
        for raw in (b"{not json", b"\xff\xfe{}", b"[" * 100_000):
            bad.write_bytes(raw)
            assert main(["train", "--config", str(bad), "--out",
                         str(tmp_path / "o")]) == 1
            assert "not valid JSON" in capsys.readouterr().err


class TestConfigPaths:
    @pytest.mark.parametrize("command", ["train", "adapt", "eval"])
    @pytest.mark.parametrize("bad", [
        {"source_graph": 5}, {"target_graph": ["x"]}, {"output_dir": ["x"]},
        {"output_dir": ""},
    ], ids=["source-int", "target-list", "output-list", "output-empty"])
    def test_path_of_wrong_type_exits_1_before_any_work(self, workspace, tmp_path,
                                                        monkeypatch, capsys,
                                                        command, bad):
        from ttgad import cli

        def never(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        for name in ("load_graph", "train_source", "adapt_target"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.chdir(tmp_path)
        paths = {"source_graph": str(workspace["source"]),
                 "target_graph": str(workspace["target"]), **bad}
        cfg = write_config(tmp_path / "c.json", **paths)
        argv = [command, "--config", cfg]
        if command != "train":
            argv += ["--checkpoint", str(workspace["checkpoint"])]
        assert main([*argv, "--out", "o"]) == 1
        err = capsys.readouterr().err
        key = next(iter(bad))
        assert f"config key {key!r} must be a non-empty path string" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


class TestAdapt:
    def test_writes_trace_and_checkpoint(self, workspace, tmp_path):
        out = tmp_path / "adapted"
        assert main(["adapt", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"]),
                     "--out", str(out), "--quiet"]) == 0
        trace = read_json(out / "adapt_trace.json")
        assert len(trace["epochs"]) <= 3
        assert trace["stop_reason"] in ("max_epochs", "patience")
        assert (out / "adapted.bin").exists()
        # labels on disk are ignored unless explicitly requested
        assert trace["initial_margin"] is None

    def test_eval_labels_flag_records_margins(self, workspace, tmp_path):
        out = tmp_path / "adapted"
        assert main(["adapt", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"]),
                     "--out", str(out), "--eval-labels", "--quiet"]) == 0
        trace = read_json(out / "adapt_trace.json")
        assert trace["initial_margin"] is not None
        assert all("margin" in e for e in trace["epochs"])

    def test_zero_epochs_flag(self, workspace, tmp_path):
        out = tmp_path / "frozen"
        assert main(["adapt", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"]),
                     "--ttt-max-epochs", "0",
                     "--out", str(out), "--quiet"]) == 0
        trace = read_json(out / "adapt_trace.json")
        assert trace["epochs"] == [] and trace["stop_reason"] == "no_epochs"

    def test_structural_conflict_with_checkpoint(self, workspace, tmp_path,
                                                 capsys):
        cfg = write_config(tmp_path / "c.json", p=12)
        assert main(["adapt", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"]),
                     "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "conflicts with the checkpoint" in capsys.readouterr().err

    def test_ttt_init_flag_flows_through(self, workspace, tmp_path):
        out = tmp_path / "src-init"
        assert main(["adapt", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"]),
                     "--ttt-init", "source",
                     "--out", str(out), "--quiet"]) == 0
        assert read_json(out / "adapt_trace.json")["ttt_init"] == "source"

    def test_missing_graph_exits_1(self, workspace, tmp_path, capsys):
        assert main(["adapt", "--checkpoint", str(workspace["checkpoint"]),
                     "--out", str(tmp_path / "o")]) == 1
        assert "target graph is required" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        assert main(["adapt", "--checkpoint", str(tmp_path / "nope.bin"),
                     "--graph", str(workspace["target"]),
                     "--out", str(tmp_path / "o")]) == 2


class TestEval:
    def test_stdout_report(self, workspace, capsys):
        assert main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"])]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["auroc"] <= 1.0
        assert 0.0 <= report["auprc"] <= 1.0
        assert report["scoring_mode"] == "affinity"

    def test_predictor_mode(self, workspace, capsys):
        assert main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"]),
                     "--mode", "predictor"]) == 0
        assert json.loads(capsys.readouterr().out)["scoring_mode"] == "predictor"

    def test_report_file_when_out_given(self, workspace, tmp_path):
        out = tmp_path / "report"
        assert main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"]),
                     "--out", str(out), "--quiet"]) == 0
        assert "auroc" in read_json(out / "metrics.json")

    def test_dump_ranking_tsv(self, workspace, tmp_path):
        dump = tmp_path / "ranking.tsv"
        assert main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"]),
                     "--dump-ranking", str(dump), "--quiet"]) == 0
        lines = dump.read_text().splitlines()
        graph = load_graph(workspace["target"])
        assert len(lines) == graph.num_nodes
        nodes, scores = [], []
        for line in lines:
            node, score = line.split("\t")
            nodes.append(int(node))
            scores.append(float(score))
        assert sorted(nodes) == list(range(graph.num_nodes))
        assert scores == sorted(scores, reverse=True)

    def test_attention_mode_guard_exits_2(self, workspace, capsys):
        assert main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"]),
                     "--attention", "plain"]) == 2
        assert "plain was requested" in capsys.readouterr().err

    def test_adapted_checkpoint_on_other_dim_exits_2(self, workspace, tmp_path,
                                                     capsys):
        adapted = tmp_path / "adapted"
        assert main(["adapt", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(workspace["target"]), "--out", str(adapted),
                     "--ttt-max-epochs", "1", "--quiet"]) == 0
        other = tmp_path / "other"
        assert main(["gen", "--out", str(other), "--seed", "9", "--quiet",
                     *GEN_ARGS[:2], "--dim", "7"]) == 0
        assert main(["eval", "--checkpoint", str(adapted / "adapted.bin"),
                     "--graph", str(other)]) == 2
        assert "expects feature_dim 4, got 7" in capsys.readouterr().err

    def test_checkpoint_config_not_object_exits_2(self, workspace, tmp_path,
                                                  capsys):
        raw = workspace["checkpoint"].read_bytes()
        cut = raw.index(b"\n")
        header = json.loads(raw[:cut])
        header["config"] = list(header["config"].items())
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps(header).encode() + raw[cut:])
        assert main(["eval", "--checkpoint", str(bad),
                     "--graph", str(workspace["target"])]) == 2
        assert "needs a 'config' object" in capsys.readouterr().err

    def test_checkpoint_with_neighbor_cap_exits_2(self, workspace, tmp_path, capsys):
        raw = workspace["checkpoint"].read_bytes()
        cut = raw.index(b"\n")
        header = json.loads(raw[:cut])
        header["config"]["neighbor_cap"] = None
        bad = tmp_path / "old.bin"
        bad.write_bytes(json.dumps(header).encode() + raw[cut:])
        assert main(["eval", "--checkpoint", str(bad),
                     "--graph", str(workspace["target"])]) == 2
        assert "unknown config key 'neighbor_cap'" in capsys.readouterr().err

    def test_version_1_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        # Version 1 stored each U as (in, attn); with p = attn_dim a square U
        # would otherwise load as its own transpose without an error.
        raw = workspace["checkpoint"].read_bytes()
        cut = raw.index(b"\n")
        header = json.loads(raw[:cut])
        (desc,) = [d for d in header["tensors"] if d["name"] == "layers.0.U"]
        assert desc["rows"] == desc["cols"]
        header["version"] = 1
        old = tmp_path / "v1.bin"
        old.write_bytes(json.dumps(header).encode() + raw[cut:])
        assert main(["eval", "--checkpoint", str(old),
                     "--graph", str(workspace["target"])]) == 2
        assert "unsupported checkpoint version 1" in capsys.readouterr().err

    def test_nonfinite_checkpoint_tensor_exits_2(self, workspace, tmp_path, capsys):
        raw = workspace["checkpoint"].read_bytes()
        cut = raw.index(b"\n")
        header = json.loads(raw[:cut])
        (desc,) = [d for d in header["tensors"] if d["name"] == "layers.0.W"]
        at = cut + 1 + desc["byte_offset"]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw[:at] + np.array([np.nan], dtype="<f8").tobytes() + raw[at + 8:])
        assert main(["eval", "--checkpoint", str(bad),
                     "--graph", str(workspace["target"])]) == 2
        assert "tensor 'layers.0.W' holds non-finite values" in capsys.readouterr().err

    def test_checkpoint_claiming_a_million_layers_exits_2_at_once(self, workspace,
                                                                  tmp_path, capsys):
        # The header claims 10**6 layers, the file stores 2. The refusal
        # names the first missing tensor without listing the claimed layout.
        raw = workspace["checkpoint"].read_bytes()
        cut = raw.index(b"\n")
        header = json.loads(raw[:cut])
        header["config"]["num_layers"] = 10 ** 6
        bad = tmp_path / "deep.bin"
        bad.write_bytes(json.dumps(header).encode() + raw[cut:])
        start = time.perf_counter()
        code = main(["eval", "--checkpoint", str(bad), "--graph", str(workspace["target"])])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "missing tensor 'layers.2.W'" in capsys.readouterr().err

    def test_unlabeled_graph_exits_2(self, workspace, tmp_path, capsys):
        from ttgad.graphstore import save_graph
        bare = tmp_path / "bare"
        save_graph(load_graph(workspace["target"]).without_labels(), bare)
        assert main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(bare)]) == 2
        assert "labels required for eval" in capsys.readouterr().err


class TestExperimentCommands:
    def test_margin_report(self, tmp_path):
        out = tmp_path / "m"
        assert main(["exp-margin", "--seeds", "1", "--nodes", "60",
                     "--steps", "2", "--out", str(out), "--quiet"]) == 0
        report = read_json(out / "margin_report.json")
        assert report["seeds"] == 1 and report["steps"] == 2
        assert len(report["per_seed"]) == 1
        assert 0.0 <= report["median_fraction_increasing"] <= 1.0

    @pytest.mark.parametrize("argv", [
        ["exp-margin", "--seeds", "0"],
        ["exp-margin", "--seeds", "1", "--steps", "0"],
        ["exp-homophily", "--auto-train", "--seeds", "0"],
    ], ids=["margin-seeds", "margin-steps", "homophily-seeds"])
    def test_impossible_runs_refused_before_training(self, argv, monkeypatch, capsys):
        from ttgad import experiments

        def never(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        for name in ("generate_synthetic", "train_source", "adapt_target"):
            monkeypatch.setattr(experiments, name, never)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "must be at least 1" in err
        assert "NaN" not in out

    @pytest.mark.parametrize("flags, message", [
        (["--nodes", "1"], "num_nodes must be at least 2"),
        (["--homophily", "1.5"], "target_homophily must lie in [0, 1]"),
    ], ids=["nodes", "homophily"])
    def test_margin_generator_flags_are_usage_errors(self, flags, message, monkeypatch,
                                                     capsys):
        # as for `ttgad gen`: a spec the generator refuses came from a flag
        from ttgad import experiments

        def never(*args, **kwargs):
            raise AssertionError("training started before the refusal")

        for name in ("train_source", "adapt_target"):
            monkeypatch.setattr(experiments, name, never)
        assert main(["exp-margin", "--seeds", "2", "--steps", "1", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["exp-homophily", "--auto-train", "--seeds", "1", "--levels", "0.5,0.5"],
        ["exp-homophily", "--auto-train", "--levels", "0.9,0.3,0.9"],
    ], ids=["pair", "apart"])
    def test_homophily_repeated_levels_refused(self, argv, monkeypatch, capsys):
        from ttgad import experiments

        def never(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        for name in ("generate_synthetic", "train_source", "adapt_target"):
            monkeypatch.setattr(experiments, name, never)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "must not repeat" in err and not out

    def test_margin_nonfinite_lr_exits_1(self, capsys):
        assert main(["exp-margin", "--seeds", "1", "--steps", "1", "--nodes", "30",
                     "--lr", "1e400"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lr must be finite" in err

    def test_homophily_sweep_refuses_repeated_levels(self):
        from ttgad import experiments
        with pytest.raises(ConfigError, match="must not repeat"):
            experiments.homophily_sweep(levels=(0.5, 0.5), seeds=1)

    @pytest.mark.parametrize("levels", [[], [0.5, 1.5], [float("nan")], [-0.1]],
                             ids=["empty", "above", "nan", "below"])
    def test_homophily_sweep_refuses_levels_before_any_fit(self, levels, monkeypatch):
        from ttgad import experiments

        def never(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        for name in ("generate_synthetic", "train_source", "adapt_target"):
            monkeypatch.setattr(experiments, name, never)
        with pytest.raises(ConfigError, match=r"levels must be homophily values in \[0, 1\]"):
            experiments.homophily_sweep(levels=levels, seeds=2)

    def test_homophily_levels_out_of_range_exit_1(self, capsys):
        assert main(["exp-homophily", "--auto-train", "--levels", "0.5,1.5"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "[0, 1]" in err and not out

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_adaptation_benefit_refuses_no_seeds(self, seeds, monkeypatch):
        from ttgad import experiments

        def never(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        for name in ("generate_synthetic", "train_source", "adapt_target"):
            monkeypatch.setattr(experiments, name, never)
        with pytest.raises(ConfigError, match="seeds must be at least 1"):
            experiments.adaptation_benefit(seeds=seeds)

    def test_homophily_sweep_shared_bundle_needs_centroids(self, workspace):
        from ttgad import experiments
        from ttgad.pipeline import load_checkpoint
        bundle = load_checkpoint(workspace["checkpoint"]).bundle
        with pytest.raises(ConfigError, match="needs its centroids"):
            experiments.homophily_sweep(levels=(0.5,), seeds=1, bundle=bundle)

    def test_homophily_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["exp-homophily", "--out", str(tmp_path / "h")]) == 1
        assert "exactly one of" in capsys.readouterr().err

    def test_homophily_sweep_with_checkpoint(self, workspace, tmp_path):
        out = tmp_path / "h"
        assert main(["exp-homophily", "--checkpoint",
                     str(workspace["checkpoint"]), "--levels", "0.5",
                     "--seeds", "1", "--out", str(out), "--quiet"]) == 0
        report = read_json(out / "homophily_report.json")
        assert len(report["levels"]) == 1
        row = report["levels"][0]
        assert row["requested_homophily"] == 0.5
        assert abs(row["realized_homophily"][0] - 0.5) <= 0.03

    def test_bad_levels_exit_1(self, workspace, capsys):
        assert main(["exp-homophily", "--checkpoint",
                     str(workspace["checkpoint"]), "--levels", "0.5,oops"]) == 1
        assert "invalid --levels" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_and_prints_errors(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "train loss max relative error:" in out
        assert "ttt loss max relative error:" in out
        assert out.strip().endswith("PASS")

    @pytest.mark.parametrize("seed", ["2", "6"])
    def test_passes_at_seeds_that_redraw(self, seed, capsys):
        # seed 2 draws a point whose embeddings hold a relu-dead row, seed 6
        # a 9-node graph whose labels are all one class; both are drawn again
        assert main(["gradcheck", "--seed", seed]) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")


class TestExitCodes:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["gen", "--nodes", "10", "--config", "c.json"],
        ["eval", "--checkpoint", "c.bin", "--seed", "1"],
        ["exp-margin", "--config", "c.json"],
        ["exp-margin", "--seed", "1"],
        ["exp-homophily", "--auto-train", "--config", "c.json"],
        ["exp-homophily", "--auto-train", "--seed", "1"],
        ["gradcheck", "--config", "c.json"],
        ["gradcheck", "--out", "o"],
        ["gradcheck", "--quiet"],
    ], ids=["gen-config", "eval-seed", "margin-config", "margin-seed",
            "homophily-config", "homophily-seed", "gradcheck-config",
            "gradcheck-out", "gradcheck-quiet"])
    def test_shared_flag_a_subcommand_does_not_read_exits_1(self, argv, tmp_path,
                                                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ttgad ")
        assert "error: unrecognized arguments: --" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1", "--out", "o"],
        ["gen", "--nodes", "10", "--seed", "-3", "--out", "o"],
        ["gradcheck", "--seed", "-1"],
    ], ids=["train", "gen", "gradcheck"])
    def test_negative_seed_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["adapt"]) == 1

    def test_missing_graph_dir_exits_2(self, workspace, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--graph", str(tmp_path / "missing")]) == 2
        assert "meta.json" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_blowup_exits_3(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **{**SMALL, "lr": 1e200},
                           source_graph=str(workspace["source"]))
        assert main(["train", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 3
        assert "non-finite" in capsys.readouterr().err
