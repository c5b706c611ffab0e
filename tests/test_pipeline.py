"""Training, adaptation, early stopping, and checkpoint persistence."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edit_json, mutate_bytes
from ttgad import diffkernel as dk
from ttgad import losses, pipeline
from ttgad.diffkernel import Tensor
from ttgad.errors import CheckpointError, ConfigError, DataError, NumericalError
from ttgad.gnn import forward_embeddings, init_bundle, init_encoder, predict
from ttgad.graphstore import SyntheticSpec, build_graph, generate_synthetic
from ttgad.losses import LossWeights
from ttgad.pipeline import (
    AdaptationTrace,
    ClassCentroids,
    PatienceTracker,
    RunConfig,
    adapt_target,
    clone_bundle,
    early_stop_score,
    full_model_grad_check,
    load_checkpoint,
    margin_trace_check,
    save_checkpoint,
    train_source,
)


# ---------------------------------------------------------------------------
# Independent oracle: per-node ratio of larger to smaller centroid distance,
# written directly from the definition with explicit loops.


def ref_distance_ratio(values, normal, anomaly):
    total = 0.0
    for row in values:
        d_n = math.dist(row, normal)
        d_a = math.dist(row, anomaly)
        total += max(d_n, d_a) / max(min(d_n, d_a), 1e-12)
    return total / len(values)


def small_spec(seed, n=24, feature_dim=4, rate=0.25, homophily=0.8):
    return SyntheticSpec(num_nodes=n, feature_dim=feature_dim,
                         anomaly_rate=rate, target_homophily=homophily,
                         mean_degree=4.0, seed=seed, name=f"g{seed}")


def quick_config(**overrides):
    base = dict(seed=0, p=6, hidden_dim=6, attn_dim=6, num_layers=2,
                lr=0.01, dropout_rate=0.0, source_epochs=3, ttt_max_epochs=4,
                patience=10, weights=LossWeights(neg_samples_k=2))
    base.update(overrides)
    return RunConfig(**base)


ROOT = Path(__file__).resolve().parents[1]


def tensor_items(bundle):
    return [(name, t.values.copy()) for name, t in bundle.parameter_items()]


# ---------------------------------------------------------------------------
# Config


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig()
        assert cfg.validate() is cfg
        assert cfg.p == 40 and cfg.hidden_dim == 40 and cfg.attn_dim == 40
        assert cfg.num_layers == 2 and cfg.lr == 0.001
        assert cfg.dropout_rate == 0.7 and cfg.patience == 10
        assert cfg.ttt_init == "fresh" and cfg.scoring_mode == "affinity"

    @pytest.mark.parametrize("field_name,value,msg", [
        ("source_epochs", 0, "source_epochs ≥ 1"),
        ("lr", 0.0, "lr must be positive"),
        ("lr", -0.1, "lr must be positive"),
        ("patience", 0, "patience must be at least 1"),
        ("ttt_max_epochs", -1, "ttt_max_epochs must be non-negative"),
        ("dropout_rate", 1.0, "dropout_rate must lie in"),
        ("p", 0, "p must be at least 1"),
        ("hidden_dim", 0, "hidden_dim must be at least 1"),
        ("num_layers", 0, "num_layers must be at least 1"),
        ("ttt_init", "warm", "ttt_init must be one of"),
        ("scoring_mode", "votes", "scoring_mode must be one of"),
        ("p", "eight", "p must be of type int"),
        ("p", True, "p must be of type int"),
        ("p", 8.0, "p must be of type int"),
        ("lr", "fast", "lr must be of type float"),
        ("lr", True, "lr must be of type float"),
        ("nsaw_enabled", 1, "nsaw_enabled must be of type bool"),
        ("neg_samples_k", "5", "neg_samples_k must be of type int"),
        ("anomaly_weight", None, "anomaly_weight must be of type float"),
        ("seed", -1, "seed must be non-negative"),
        ("lr", float("inf"), "lr must be finite"),
        ("lr", float("nan"), "lr must be finite"),
        ("dropout_rate", float("nan"), "dropout_rate must be finite"),
        ("nonneighbor_weight", float("nan"), "nonneighbor_weight must be finite"),
        ("anomaly_weight", float("inf"), "anomaly_weight must be finite"),
        pytest.param("lr", 10 ** 400, "lr must be finite", id="lr-int-past-float-range"),
        pytest.param("lr", np.float32("inf"), "lr must be finite", id="lr-float32-inf"),
        pytest.param("lr", np.float16("-inf"), "lr must be finite", id="lr-float16-inf"),
    ])
    def test_validation_messages(self, field_name, value, msg):
        cfg = RunConfig.from_dict({field_name: value})
        with pytest.raises(ConfigError, match=msg):
            cfg.validate()

    def test_numpy_floats_validate_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            RunConfig(lr=np.float32(0.01), dropout_rate=np.float16(0.5)).validate()

    def test_validate_checks_loss_weights(self):
        cfg = RunConfig(weights=LossWeights(anomaly_weight=0.5))
        with pytest.raises(ConfigError, match="anomaly_weight"):
            cfg.validate()

    def test_dict_round_trip_is_flat_and_json_safe(self):
        cfg = RunConfig(seed=7, lr=0.05, ttt_init="source",
                        nsaw_enabled=False,
                        weights=LossWeights(anomaly_weight="auto",
                                            neg_samples_k=4))
        data = cfg.to_dict()
        assert all(not isinstance(v, dict) for v in data.values())
        assert data["anomaly_weight"] == "auto" and data["neg_samples_k"] == 4
        revived = RunConfig.from_dict(json.loads(json.dumps(data)))
        assert revived == cfg

    def test_from_dict_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'momentum'"):
            RunConfig.from_dict({"momentum": 0.9})

    def test_type_check_accepts_compatible_values(self):
        RunConfig.from_dict({"lr": 1, "dropout_rate": 0, "anomaly_weight": 5,
                             "seed": np.int64(3)}).validate()


# ---------------------------------------------------------------------------
# Centroids and the distance-ratio early-stop score


class TestCentroids:
    def test_means_per_class(self):
        values = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]])
        cent = ClassCentroids.from_embeddings(values, np.array([0, 0, 1]))
        assert np.array_equal(cent.normal, [1.0, 0.0])
        assert np.array_equal(cent.anomaly, [0.0, 4.0])

    def test_single_class_rejected(self):
        values = np.zeros((3, 2))
        with pytest.raises(DataError, match="each class"):
            ClassCentroids.from_embeddings(values, np.array([0, 0, 0]))

    def test_nonfinite_rejected(self):
        values = np.array([[np.inf, 0.0], [0.0, 0.0]])
        with pytest.raises(DataError, match="finite"):
            ClassCentroids.from_embeddings(values, np.array([0, 1]))


class TestDistanceRatioScore:
    def test_equidistant_node_scores_one(self):
        cent = ClassCentroids(normal=np.array([1.0, 0.0]),
                              anomaly=np.array([-1.0, 0.0]))
        assert early_stop_score(np.array([[0.0, 3.0]]), cent) == 1.0

    def test_two_to_one_distances_score_two(self):
        cent = ClassCentroids(normal=np.array([0.0, 2.0]),
                              anomaly=np.array([0.0, -1.0]))
        assert early_stop_score(np.array([[0.0, 0.0]]), cent) == 2.0

    def test_mean_of_ratios_one_and_three(self):
        cent = ClassCentroids(normal=np.array([1.0, 0.0]),
                              anomaly=np.array([-1.0, 0.0]))
        values = np.array([[0.0, 1.0], [2.0, 0.0]])  # ratios 1 and 3
        assert early_stop_score(values, cent) == 2.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(40, 5))
        cent = ClassCentroids(normal=rng.normal(size=5),
                              anomaly=rng.normal(size=5))
        got = early_stop_score(values, cent)
        want = ref_distance_ratio(values, cent.normal, cent.anomaly)
        assert got == pytest.approx(want, abs=1e-12)
        assert got >= 1.0

    def test_empty_rejected(self):
        cent = ClassCentroids(normal=np.zeros(2), anomaly=np.ones(2))
        with pytest.raises(DataError, match="empty target"):
            early_stop_score(np.zeros((0, 2)), cent)

    def test_node_on_centroid_uses_clamp(self):
        cent = ClassCentroids(normal=np.zeros(2),
                              anomaly=np.array([1.0, 0.0]))
        score = early_stop_score(np.zeros((1, 2)), cent)
        assert score == pytest.approx(1.0 / 1e-12)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(30, 6))
        normal, anomaly = rng.normal(size=6), rng.normal(size=6)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        base = early_stop_score(values, ClassCentroids(normal, anomaly))
        spun = early_stop_score(values @ q,
                                ClassCentroids(normal @ q, anomaly @ q))
        assert spun == pytest.approx(base, rel=1e-9)


class TestPatienceTracker:
    def test_documented_sequence_stops_after_five(self):
        tracker = PatienceTracker(patience=3, initial_score=1.0)
        stops = []
        for score in [1.2, 1.5, 1.4, 1.45, 1.42]:
            tracker.update(score)
            stops.append(tracker.should_stop)
        assert stops == [False, False, False, False, True]
        assert tracker.best_epoch == 2
        assert tracker.best_score == 1.5

    def test_initial_state_counts_as_epoch_zero(self):
        tracker = PatienceTracker(patience=3, initial_score=2.0)
        for score in [1.5, 1.9, 1.8]:
            tracker.update(score)
        assert tracker.should_stop
        assert tracker.best_epoch == 0 and tracker.best_score == 2.0

    def test_equal_score_is_not_improvement(self):
        tracker = PatienceTracker(patience=2, initial_score=1.0)
        assert not tracker.update(1.0)
        assert not tracker.update(1.0)
        assert tracker.should_stop

    def test_improvement_resets_staleness(self):
        tracker = PatienceTracker(patience=2)
        assert tracker.update(1.0)
        assert not tracker.update(0.5)
        assert tracker.update(1.1)
        assert tracker.best_epoch == 3
        assert not tracker.should_stop

    def test_patience_validated(self):
        with pytest.raises(ConfigError, match="patience"):
            PatienceTracker(patience=0)


# ---------------------------------------------------------------------------
# Source training


class TestTrainSource:
    def test_requires_labels_and_both_classes(self, path3):
        cfg = quick_config()
        with pytest.raises(DataError, match="requires labels"):
            train_source(path3.without_labels(), cfg)
        one_class = build_graph("s", 3, [(0, 1), (1, 2)],
                                path3.features, labels=[0, 0, 0])
        with pytest.raises(DataError, match="both classes"):
            train_source(one_class, cfg)

    def test_rejects_zero_epochs_before_touching_data(self, path3):
        with pytest.raises(ConfigError, match="source_epochs ≥ 1"):
            train_source(path3, quick_config(source_epochs=0))

    # Each size takes a different parameter_shapes entry past physical
    # memory; the size is counted before any entry is listed, so nothing of
    # that size is allocated. At unit widths, the tensors' object overhead
    # alone does not fit.
    @pytest.mark.parametrize("sizes", [
        dict(p=10 ** 12), dict(attn_dim=10 ** 14),
        dict(hidden_dim=1000, num_layers=10 ** 8),
        dict(p=1, hidden_dim=1, attn_dim=1, num_layers=10 ** 8),
    ], ids=["p", "attn_dim", "num_layers", "unit_widths"])
    def test_refuses_parameters_larger_than_memory(self, sizes):
        graph = generate_synthetic(small_spec(1))
        with pytest.raises(ConfigError, match="config sizes do not fit in memory"):
            train_source(graph, quick_config(**sizes))

    def test_log_structure(self):
        graph = generate_synthetic(small_spec(1))
        cfg = quick_config(source_epochs=3)
        bundle, centroids, log = train_source(graph, cfg)
        assert [e["epoch"] for e in log] == [1, 2, 3]
        for entry in log:
            for key in ("loss", "loss_sup", "loss_self", "bce", "class_reg",
                        "nonneighbor_reg", "affinity_sum", "auroc",
                        "auroc_affinity"):
                assert key in entry, key
            assert math.isfinite(entry["loss"])
        assert centroids.normal.shape == (cfg.hidden_dim,)

    def test_bitwise_deterministic(self):
        graph = generate_synthetic(small_spec(2))
        cfg = quick_config(seed=5, dropout_rate=0.3)
        b1, c1, log1 = train_source(graph, cfg)
        b2, c2, log2 = train_source(graph, cfg)
        for (n1, v1), (n2, v2) in zip(tensor_items(b1), tensor_items(b2)):
            assert n1 == n2 and np.array_equal(v1, v2)
        assert np.array_equal(c1.normal, c2.normal)
        assert np.array_equal(c1.anomaly, c2.anomaly)
        assert log1 == log2

    def test_centroids_are_those_of_a_fresh_eval_forward(self):
        graph = generate_synthetic(small_spec(4))
        bundle, centroids, _ = train_source(graph, quick_config(seed=6, source_epochs=2))
        h, _ = forward_embeddings(bundle, graph, "source")
        fresh = ClassCentroids.from_embeddings(h.values, graph.labels)
        assert np.array_equal(centroids.normal, fresh.normal)
        assert np.array_equal(centroids.anomaly, fresh.anomaly)

    def test_separable_classes_reach_perfect_ranking(self):
        # Widely separated class clouds on a homophilic graph: supervised
        # training must rank every anomaly above every normal node.
        spec = SyntheticSpec(num_nodes=40, feature_dim=4, anomaly_rate=0.25,
                             target_homophily=0.9, mean_degree=4.0,
                             seed=3, name="toy")
        graph = generate_synthetic(spec)
        features = np.where(graph.labels[:, None] == 1,
                            graph.features - 3.0, graph.features + 3.0)
        graph = build_graph("toy", graph.num_nodes,
                            graph.undirected_edges, features,
                            labels=graph.labels)
        cfg = quick_config(p=8, hidden_dim=8, attn_dim=8,
                           source_epochs=60, lr=0.02)
        _, _, log = train_source(graph, cfg)
        assert log[-1]["auroc"] == 1.0

    def test_loss_drops_on_real_graph(self):
        graph = generate_synthetic(small_spec(4, n=30))
        _, _, log = train_source(graph, quick_config(source_epochs=25))
        assert log[-1]["loss"] < log[0]["loss"]


class TestCloneBundle:
    def test_clone_shares_no_storage(self):
        rng = np.random.default_rng(0)
        bundle = init_bundle(rng, 4, 5, 5, 5, 2)
        bundle.target_encoder = init_encoder(rng, 5, 3, "target")
        copy = clone_bundle(bundle)
        before = tensor_items(bundle)
        for (_, a), (nb, b) in zip(copy.parameter_items(),
                                   bundle.parameter_items()):
            assert np.array_equal(a.values, b.values)
            a.values += 1.0
        for (name, kept), (_, now) in zip(before, tensor_items(bundle)):
            assert np.array_equal(kept, now), name


# ---------------------------------------------------------------------------
# Target adaptation


def trained_pair(seed=0, feature_dim=4, **overrides):
    graph = generate_synthetic(small_spec(seed, feature_dim=feature_dim))
    cfg = quick_config(seed=seed, **overrides)
    bundle, centroids, _ = train_source(graph, cfg)
    return bundle, centroids, cfg


def test_graph_features_untouched_by_training_and_adaptation():
    # the encoders read the features through a read-only view, not a copy
    source = generate_synthetic(small_spec(2))
    target = generate_synthetic(small_spec(3)).without_labels()
    kept = source.features.tobytes(), target.features.tobytes()
    for identity in (False, True):
        cfg = quick_config(dropout_rate=0.3, identity_encoder=identity)
        bundle, centroids, _ = train_source(source, cfg)
        if not identity:
            adapt_target(bundle, centroids, target, cfg)
    assert (source.features.tobytes(), target.features.tobytes()) == kept
    assert source.features.flags.writeable and target.features.flags.writeable


# One short run, its arrays written to the .npz file named by argv[1]: the
# source model's scores on its graph and the adapted model's on the target,
# in both modes, every parameter of the adapted model, and each adaptation
# epoch's loss and selection score, which read the weights after each step.
CONTRACT_RUN = """
import itertools
import sys
import numpy as np
import ttgad.pipeline
from ttgad import evaluation
from ttgad.graphstore import SyntheticSpec, generate_synthetic
from ttgad.pipeline import RunConfig, adapt_target, train_source

def graph(n, dim, seed):
    return generate_synthetic(SyntheticSpec(num_nodes=n, feature_dim=dim, anomaly_rate=0.05,
                                            target_homophily=0.9, mean_degree=10.0,
                                            seed=seed, name=f"g{seed}"))

source, target = graph(5000, 32, 1), graph(3000, 24, 2).without_labels()
config = RunConfig(seed=0, source_epochs=3, ttt_max_epochs=2)
bundle, centroids, _ = train_source(source, config)
adapted, trace = adapt_target(bundle, centroids, target, config)
arrays = {f"{model}.{mode}": evaluation.score_nodes(m, g, mode=mode).scores
          for model, m, g in (("source", bundle, source), ("adapted", adapted, target))
          for mode in ("affinity", "predictor")}
arrays.update((name, t.values) for name, t in adapted.parameter_items())
arrays.update((key, np.array([e[key] for e in trace.to_dict()["epochs"]]))
              for key in ("loss", "score"))
# The selector may keep the fresh encoder; under a rising score it keeps the
# last epoch, so the trained weights are compared too.
rising = itertools.count()
ttgad.pipeline.early_stop_score = lambda values, centroids: float(next(rising))
trained, trained_trace = adapt_target(bundle, centroids, target, config)
assert trained_trace.chosen_epoch == config.ttt_max_epochs, trained_trace.chosen_epoch
arrays["trained.target_encoder.weight"] = trained.target_encoder.weight.values
np.savez(sys.argv[1], **arrays)
"""


def test_results_agree_within_1e_9_across_blas_thread_counts(tmp_path):
    # README's tolerance contract: a run is bitwise reproducible only at a
    # fixed BLAS thread count (criterion 10). Across thread counts, here 1
    # and 2 OpenBLAS threads on graphs large enough for it to thread, every
    # score and parameter agrees within 1e-9 of its array's largest magnitude,
    # the target encoder of a run that kept its last epoch included.
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"threads-{threads}.npz"
        subprocess.run([sys.executable, "-c", CONTRACT_RUN, str(out)], env=env, check=True,
                       timeout=300)
        with np.load(out) as arrays:
            runs.append(dict(arrays))
    one, two = runs
    assert one.keys() == two.keys() and one["loss"].shape == (2,)
    assert not np.array_equal(one["trained.target_encoder.weight"],
                              one["target_encoder.weight"])
    for name, values in one.items():
        scale = np.abs(values).max()
        assert np.abs(two[name] - values).max() <= 1e-9 * scale, name


class TestAdaptTarget:
    def test_requires_centroids(self):
        bundle, _, cfg = trained_pair()
        graph = generate_synthetic(small_spec(9))
        with pytest.raises(DataError, match="requires source centroids"):
            adapt_target(bundle, None, graph, cfg)

    def test_zero_epochs_returns_fresh_init_and_empty_trace(self):
        bundle, centroids, cfg = trained_pair()
        graph = generate_synthetic(small_spec(8, feature_dim=3))
        cfg.ttt_max_epochs = 0
        adapted, trace = adapt_target(bundle, centroids, graph, cfg)
        assert trace.epochs == [] and trace.stop_reason == "no_epochs"
        assert trace.chosen_epoch == 0
        assert trace.best_score == trace.initial_score
        expected = init_encoder(np.random.default_rng(cfg.seed),
                                cfg.hidden_dim, 3, "target")
        assert np.array_equal(adapted.target_encoder.weight.values,
                              expected.weight.values)

    def test_decoder_frozen_bitwise_and_input_untouched(self):
        bundle, centroids, cfg = trained_pair(seed=1)
        graph = generate_synthetic(small_spec(12, feature_dim=3))
        cfg.ttt_max_epochs = 6
        before = tensor_items(bundle)
        adapted, trace = adapt_target(bundle, centroids, graph, cfg)
        # input bundle completely untouched
        for (name, kept), (_, now) in zip(before, tensor_items(bundle)):
            assert np.array_equal(kept, now), name
        # every shared tensor of the adapted bundle is bitwise the original
        frozen = dict(tensor_items(adapted))
        for name, values in before:
            assert np.array_equal(frozen[name], values), name
        # the target encoder holds whichever snapshot scored best: the
        # fresh init when epoch 0 won, something else otherwise
        first = init_encoder(np.random.default_rng(cfg.seed),
                             cfg.hidden_dim, 3, "target")
        moved = not np.array_equal(adapted.target_encoder.weight.values,
                                   first.weight.values)
        assert trace.epochs
        assert moved == (trace.chosen_epoch > 0)

    def test_only_target_encoder_gets_gradients(self, monkeypatch):
        bundle, centroids, cfg = trained_pair(seed=3)
        graph = generate_synthetic(small_spec(14, feature_dim=3))
        cfg.ttt_max_epochs = 1
        seen = []
        real_step = dk.adam_step

        def spy(params, grads, state):
            seen.append(grads)
            return real_step(params, grads, state)

        monkeypatch.setattr(dk, "adam_step", spy)
        adapted, _ = adapt_target(bundle, centroids, graph, cfg)
        (grads,) = seen
        # The frozen weights stay off the gradient map entirely.
        assert [name for name, t in adapted.parameter_items() if t in grads] \
            == ["target_encoder.weight"]

        # An all-trainable replica of epoch 1 gives the encoder the same
        # gradient, bit for bit, and its layers gradients of their own.
        rng = np.random.default_rng(cfg.seed)
        ref = clone_bundle(bundle)
        ref.target_encoder = init_encoder(rng, bundle.layers[0].in_dim, 3, "target")
        with dk.Tape() as tape:
            h, _ = forward_embeddings(ref, graph, "target", training=True, rng=rng,
                                      dropout_rate=cfg.dropout_rate)
            loss = losses.ttt_loss(h, graph, cfg.weights, rng)
        expected = tape.backward(loss)
        assert ref.layers[0].W in expected
        assert np.array_equal(grads[adapted.target_encoder.weight],
                              expected[ref.target_encoder.weight])

    def test_returned_bundle_reproduces_best_recorded_score(self):
        bundle, centroids, cfg = trained_pair(seed=2)
        graph = generate_synthetic(small_spec(13, feature_dim=5))
        cfg.ttt_max_epochs = 8
        adapted, trace = adapt_target(bundle, centroids, graph, cfg)
        h, _ = forward_embeddings(adapted, graph, "target")
        assert early_stop_score(h.values, centroids) == trace.best_score
        recorded = [trace.initial_score] + [e["score"] for e in trace.epochs]
        assert trace.best_score == max(recorded)
        assert recorded[trace.chosen_epoch] == trace.best_score

    def test_deterministic_adaptation(self):
        bundle, centroids, cfg = trained_pair(seed=3)
        graph = generate_synthetic(small_spec(14, feature_dim=3))
        cfg.ttt_max_epochs = 5
        a1, t1 = adapt_target(bundle, centroids, graph, cfg)
        a2, t2 = adapt_target(bundle, centroids, graph, cfg)
        assert np.array_equal(a1.target_encoder.weight.values,
                              a2.target_encoder.weight.values)
        assert t1.to_dict() == t2.to_dict()

    def test_margin_recorded_only_for_labeled_targets(self):
        bundle, centroids, cfg = trained_pair(seed=4)
        graph = generate_synthetic(small_spec(15, feature_dim=3))
        cfg.ttt_max_epochs = 3
        _, labeled = adapt_target(bundle, centroids, graph, cfg)
        assert labeled.initial_margin is not None
        assert all("margin" in e for e in labeled.epochs)
        _, blind = adapt_target(bundle, centroids, graph.without_labels(), cfg)
        assert blind.initial_margin is None
        assert all("margin" not in e for e in blind.epochs)
        with pytest.raises(DataError, match="no margin data"):
            margin_trace_check(blind)

    def test_patience_stops_early(self):
        bundle, centroids, cfg = trained_pair(seed=5)
        graph = generate_synthetic(small_spec(16, feature_dim=3))
        cfg.ttt_max_epochs = 60
        cfg.patience = 2
        cfg.lr = 2.0  # deliberately unstable so the score stops improving
        _, trace = adapt_target(bundle, centroids, graph, cfg)
        assert trace.stop_reason == "patience"
        assert len(trace.epochs) < 60
        stale = len(trace.epochs) - trace.chosen_epoch
        assert stale >= cfg.patience

    def test_max_epochs_stop_reason(self):
        bundle, centroids, cfg = trained_pair(seed=6)
        graph = generate_synthetic(small_spec(17, feature_dim=3))
        cfg.ttt_max_epochs = 2
        cfg.patience = 50
        _, trace = adapt_target(bundle, centroids, graph, cfg)
        assert trace.stop_reason == "max_epochs"
        assert len(trace.epochs) == 2

    def test_source_init_copies_weights_and_checks_dims(self):
        bundle, centroids, cfg = trained_pair(seed=7, feature_dim=4)
        same_dim = generate_synthetic(small_spec(18, feature_dim=4))
        cfg.ttt_init = "source"
        cfg.ttt_max_epochs = 0
        adapted, trace = adapt_target(bundle, centroids, same_dim, cfg)
        assert np.array_equal(adapted.target_encoder.weight.values,
                              bundle.source_encoder.weight.values)
        assert trace.ttt_init == "source" and trace.homogeneous_dims
        other_dim = generate_synthetic(small_spec(19, feature_dim=3))
        with pytest.raises(ConfigError, match="ttt_init 'source'"):
            adapt_target(bundle, centroids, other_dim, cfg)

    def test_keep_init_requires_existing_target_encoder(self):
        bundle, centroids, cfg = trained_pair(seed=8)
        graph = generate_synthetic(small_spec(20, feature_dim=3))
        cfg.ttt_init = "keep"
        with pytest.raises(ConfigError, match="needs a bundle with a target"):
            adapt_target(bundle, centroids, graph, cfg)
        bundle.target_encoder = init_encoder(np.random.default_rng(99),
                                             cfg.hidden_dim, 3, "target")
        cfg.ttt_max_epochs = 0
        adapted, _ = adapt_target(bundle, centroids, graph, cfg)
        assert np.array_equal(adapted.target_encoder.weight.values,
                              bundle.target_encoder.weight.values)

    def test_identity_encoder_paths(self):
        graph = generate_synthetic(small_spec(21, feature_dim=6))
        cfg = quick_config(p=6, identity_encoder=True, source_epochs=2)
        bundle, centroids, _ = train_source(graph, cfg)
        target = generate_synthetic(small_spec(22, feature_dim=6))
        cfg.ttt_max_epochs = 0
        adapted, trace = adapt_target(bundle, centroids, target, cfg)
        assert adapted.target_encoder.weight is None
        assert trace.stop_reason == "no_epochs"
        cfg.ttt_max_epochs = 3
        with pytest.raises(DataError, match="nothing to adapt"):
            adapt_target(bundle, centroids, target, cfg)
        narrow = generate_synthetic(small_spec(23, feature_dim=3))
        with pytest.raises(DataError, match="feature dim mismatch"):
            adapt_target(bundle, centroids, narrow, cfg)


class TestMarginTraceCheck:
    @staticmethod
    def trace_with(margins, initial=0.05, lr=0.001, ttt_init="source",
                   homogeneous=True):
        epochs = [{"epoch": i + 1, "loss": 0.0, "score": 1.0, "margin": m}
                  for i, m in enumerate(margins)]
        return AdaptationTrace(epochs=epochs, initial_score=1.0,
                               initial_margin=initial, chosen_epoch=0,
                               best_score=1.0, stop_reason="max_epochs",
                               lr=lr, ttt_init=ttt_init,
                               homogeneous_dims=homogeneous)

    def test_strictly_increasing_fraction_one(self):
        report = margin_trace_check(self.trace_with([0.1, 0.2, 0.3]))
        assert report.fraction_increasing == 1.0
        assert report.num_steps == 3
        assert report.initial_margin == 0.05
        assert report.final_margin == 0.3
        assert report.monotone_claim_applicable

    def test_constant_fraction_zero(self):
        report = margin_trace_check(self.trace_with([0.05, 0.05], initial=0.05))
        assert report.fraction_increasing == 0.0

    def test_mixed_fraction(self):
        report = margin_trace_check(
            self.trace_with([0.1, 0.08, 0.12, 0.11], initial=0.05))
        assert report.fraction_increasing == 0.5

    def test_preconditions_reported_not_enforced(self):
        report = margin_trace_check(
            self.trace_with([0.1], lr=0.5, ttt_init="fresh", homogeneous=False))
        assert report.preconditions == {"homogeneous_dims": False,
                                        "small_lr": False,
                                        "init_from_source": False}
        assert not report.monotone_claim_applicable
        assert report.to_dict()["fraction_increasing"] == 1.0


# ---------------------------------------------------------------------------
# Checkpoints


def checkpoint_parts(path):
    raw = path.read_bytes()
    cut = raw.index(b"\n")
    return json.loads(raw[:cut]), raw[cut + 1:]


def rewrite(path, header, payload):
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(raw + b"\n" + payload)


class TestCheckpoints:
    def test_round_trip_bitwise_and_forward_identical(self, tmp_path):
        bundle, centroids, cfg = trained_pair(seed=10)
        graph = generate_synthetic(small_spec(30, feature_dim=3))
        cfg.ttt_max_epochs = 3
        adapted, _ = adapt_target(bundle, centroids, graph, cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(adapted, centroids, cfg, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert np.array_equal(loaded.centroids.normal, centroids.normal)
        assert np.array_equal(loaded.centroids.anomaly, centroids.anomaly)
        got = dict(tensor_items(loaded.bundle))
        for name, values in tensor_items(adapted):
            assert np.array_equal(got[name], values), name
        h_orig, _ = forward_embeddings(adapted, graph, "target")
        h_load, _ = forward_embeddings(loaded.bundle, graph, "target")
        assert np.array_equal(h_orig.values, h_load.values)

    def test_resave_is_byte_identical(self, tmp_path):
        bundle, centroids, cfg = trained_pair(seed=11)
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(bundle, centroids, cfg, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded.bundle, loaded.centroids, loaded.config, second)
        assert first.read_bytes() == second.read_bytes()

    def test_centroids_optional(self, tmp_path):
        bundle, _, cfg = trained_pair(seed=12)
        path = tmp_path / "bare.bin"
        save_checkpoint(bundle, None, cfg, path)
        assert load_checkpoint(path).centroids is None

    def test_no_temp_files_left_behind(self, tmp_path):
        bundle, centroids, cfg = trained_pair(seed=13)
        save_checkpoint(bundle, centroids, cfg, tmp_path / "m.bin")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.bin"]

    def test_truncated_payload_rejected(self, tmp_path):
        bundle, centroids, cfg = trained_pair(seed=14)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with pytest.raises(CheckpointError, match="corrupt tensor block"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        bundle, centroids, cfg = trained_pair(seed=15)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing byte"):
            load_checkpoint(path)

    # version 1 stored each U as (in, attn): a square one would load transposed
    @pytest.mark.parametrize("version", [1, 99])
    def test_version_mismatch_rejected(self, tmp_path, version):
        bundle, centroids, cfg = trained_pair(seed=16)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        header, payload = checkpoint_parts(path)
        header["version"] = version
        rewrite(path, header, payload)
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(path)
        path.write_bytes(b"not json\n\x00" * 3)
        with pytest.raises(CheckpointError, match="malformed checkpoint header"):
            load_checkpoint(path)

    def test_unknown_tensor_rejected(self, tmp_path):
        bundle, centroids, cfg = trained_pair(seed=17)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        header, payload = checkpoint_parts(path)
        renamed = [{**header["tensors"][0], "name": "mystery.weight"}, *header["tensors"][1:]]
        rewrite(path, {**header, "tensors": renamed}, payload)
        with pytest.raises(CheckpointError, match="missing tensor 'source_encoder.weight', "
                           "found 'mystery.weight' in its place"):
            load_checkpoint(path)
        extra = {"name": "mystery.weight", "rows": 1, "cols": 1, "byte_offset": len(payload)}
        header["tensors"].append(extra)
        rewrite(path, header, payload + bytes(8))
        with pytest.raises(CheckpointError, match="unexpected tensor 'mystery.weight'"):
            load_checkpoint(path)

    def test_missing_tensor_rejected(self, tmp_path):
        bundle, centroids, cfg = trained_pair(seed=18)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        header, payload = checkpoint_parts(path)
        dropped = header["tensors"].pop()
        rewrite(path, header, payload[:dropped["byte_offset"]])
        with pytest.raises(CheckpointError, match="missing tensor"):
            load_checkpoint(path)

    def test_aggregation_mode_guard(self, tmp_path):
        bundle, centroids, cfg = trained_pair(seed=19)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        with pytest.raises(CheckpointError,
                           match="nsaw aggregation but plain was requested"):
            load_checkpoint(path, expect_nsaw=False)
        assert load_checkpoint(path, expect_nsaw=True).config.nsaw_enabled

    def test_identity_encoder_checkpoint(self, tmp_path):
        graph = generate_synthetic(small_spec(31, feature_dim=6))
        cfg = quick_config(p=6, identity_encoder=True, source_epochs=2)
        bundle, centroids, _ = train_source(graph, cfg)
        path = tmp_path / "ident.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        header, _ = checkpoint_parts(path)
        names = [d["name"] for d in header["tensors"]]
        assert "source_encoder.weight" not in names
        loaded = load_checkpoint(path)
        assert loaded.bundle.source_encoder.weight is None
        h_a, _ = forward_embeddings(bundle, graph, "source")
        h_b, _ = forward_embeddings(loaded.bundle, graph, "source")
        assert np.array_equal(h_a.values, h_b.values)
        # the feature dims come from the stored weights by name, not by position
        bundle.target_encoder = init_encoder(np.random.default_rng(0), 6, 5, "target")
        save_checkpoint(bundle, centroids, cfg, path)
        loaded = load_checkpoint(path)
        got = dict(tensor_items(loaded.bundle))
        for name, values in tensor_items(bundle):
            assert np.array_equal(got[name], values), name
        assert len(got) == len(bundle.parameter_items())

    @pytest.mark.parametrize("edit,msg", [
        (lambda c: c.pop("anomaly"), "malformed checkpoint centroids: KeyError"),
        (lambda c: c["normal"].pop(), "'normal' must hold 6 finite values"),
        (lambda c: c["anomaly"].__setitem__(0, float("nan")),
         "'anomaly' must hold 6 finite values"),
    ], ids=["missing_key", "short", "nan"])
    def test_bad_centroids_rejected(self, tmp_path, edit, msg):
        bundle, centroids, cfg = trained_pair(seed=21)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        header, payload = checkpoint_parts(path)
        edit(header["centroids"])
        rewrite(path, header, payload)
        with pytest.raises(CheckpointError, match=msg):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,msg", [
        (lambda h: h.__setitem__("config", [["p", 6]]), "needs a 'config' object"),
        (lambda h: h.__setitem__("tensors", 5), "and a 'tensors' list"),
        (lambda h: h["tensors"][0].__setitem__("name", ["layers", 0]),
         "malformed tensor descriptor"),
        (lambda h: h["config"].__setitem__("attn_dim", 10 ** 12),
         "config sizes do not fit in memory"),
        # every header written while RunConfig had neighbor_cap stores it as null
        (lambda h: h["config"].__setitem__("neighbor_cap", None),
         "unknown config key 'neighbor_cap'"),
        # nested too deep for the JSON parser, which json.dumps cannot write either
        (lambda h: b"[" * 100_000, "malformed checkpoint header"),
    ], ids=["config_not_object", "tensors_not_list", "name_not_string",
            "config_too_large", "removed_config_key", "nested_too_deep"])
    def test_bad_header_rejected(self, tmp_path, edit, msg):
        bundle, centroids, cfg = trained_pair(seed=22)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        header, payload = checkpoint_parts(path)
        rewrite(path, edit(header) or header, payload)
        with pytest.raises(CheckpointError, match=msg):
            load_checkpoint(path)

    # Each edit keeps every descriptor's offset on its own block: only the
    # order or the back-to-back layout that save_checkpoint writes is broken.
    @pytest.mark.parametrize("edit,msg", [
        (lambda blocks: blocks.insert(1, blocks.pop(2)),
         r"missing tensor 'layers\.0\.W', found 'layers\.0\.b' in its place"),
        (lambda blocks: blocks.insert(2, blocks[1]),
         r"missing tensor 'layers\.0\.b', found 'layers\.0\.W' in its place"),
        (lambda blocks: blocks.insert(2, (None, bytes(8))),
         r"corrupt tensor block 'layers\.0\.b': it starts at byte 776, but earlier "
         r"blocks end at 768"),
    ], ids=["swapped", "duplicated", "gap"])
    def test_layout_other_than_the_written_one_rejected(self, tmp_path, edit, msg):
        bundle, centroids, cfg = trained_pair(seed=26)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        header, payload = checkpoint_parts(path)
        blocks = [(d, payload[d["byte_offset"]:d["byte_offset"] + 8 * d["rows"] * d["cols"]])
                  for d in header["tensors"]]
        assert [d["name"] for d, _ in blocks[:3]] == [
            "source_encoder.weight", "layers.0.W", "layers.0.b"]
        edit(blocks)
        header["tensors"], offset = [], 0
        for desc, block in blocks:
            if desc is not None:  # None stands for bytes no descriptor names
                header["tensors"].append({**desc, "byte_offset": offset})
            offset += len(block)
        rewrite(path, header, b"".join(block for _, block in blocks))
        with pytest.raises(CheckpointError, match=msg):
            load_checkpoint(path)

    def test_transposed_tensor_rejected(self, tmp_path):
        bundle, centroids, cfg = trained_pair(seed=23)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        header, payload = checkpoint_parts(path)
        (desc,) = [d for d in header["tensors"] if d["name"] == "layers.0.W"]
        assert (desc["rows"], desc["cols"]) == (6, 12)
        desc["rows"], desc["cols"] = 12, 6
        rewrite(path, header, payload)
        with pytest.raises(CheckpointError, match=r"tensor 'layers\.0\.W' has "
                           r"shape \(12, 6\), but the config needs \(6, 12\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_tensor_rejected(self, tmp_path, bad):
        bundle, centroids, cfg = trained_pair(seed=24)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        header, payload = checkpoint_parts(path)
        (desc,) = [d for d in header["tensors"] if d["name"] == "layers.0.W"]
        data = bytearray(payload)
        at = desc["byte_offset"] + 8 * 5
        data[at:at + 8] = np.array([bad], dtype="<f8").tobytes()
        rewrite(path, header, bytes(data))
        with pytest.raises(CheckpointError,
                           match=r"tensor 'layers\.0\.W' holds non-finite values"):
            load_checkpoint(path)

    def test_oversized_header_refused_before_allocating(self, tmp_path, monkeypatch):
        bundle, centroids, cfg = trained_pair(seed=25)
        path = tmp_path / "m.bin"
        save_checkpoint(bundle, centroids, cfg, path)
        header, payload = checkpoint_parts(path)
        header["config"]["hidden_dim"] = 3000
        rewrite(path, header, payload)

        def refuse(*args, **kwargs):
            raise AssertionError("assemble_bundle called before the shapes were checked")

        monkeypatch.setattr(pipeline, "assemble_bundle", refuse)
        with pytest.raises(CheckpointError, match=r"tensor 'layers\.0\.W' has shape "
                           r"\(6, 12\), but the config needs \(3000, 12\)"):
            load_checkpoint(path)

    def test_target_encoder_round_trips(self, tmp_path):
        bundle, centroids, cfg = trained_pair(seed=20)
        graph = generate_synthetic(small_spec(32, feature_dim=3))
        cfg.ttt_max_epochs = 2
        adapted, _ = adapt_target(bundle, centroids, graph, cfg)
        path = tmp_path / "adapted.bin"
        save_checkpoint(adapted, centroids, cfg, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.bundle.target_encoder.weight.values,
                              adapted.target_encoder.weight.values)


# ---------------------------------------------------------------------------
# Whole-model gradient check (small smoke; the acceptance suite runs it big)


def test_full_model_grad_check_smoke():
    result = full_model_grad_check(seed=1, num_points=1, num_nodes=8,
                                   feature_dim=3, width=4, num_layers=2)
    assert result.passed
    assert result.train_report.max_rel_error <= 1e-4
    assert result.ttt_report.max_rel_error <= 1e-4


def test_full_model_grad_check_skips_points_with_a_relu_dead_row(monkeypatch):
    # A zeroed last layer makes every embedding row zero, so every draw is
    # skipped, and once the draws run out the check refuses rather than
    # report the jump at the cosine guard.
    real = pipeline.init_bundle

    def dead(*args, **kwargs):
        bundle = real(*args, **kwargs)
        bundle.layers[-1].W.values[:] = 0.0
        return bundle

    monkeypatch.setattr(pipeline, "init_bundle", dead)
    with pytest.raises(NumericalError, match="relu-dead"):
        full_model_grad_check(seed=0, num_points=2)


def test_full_model_grad_check_gives_up_on_a_graph_no_draw_makes():
    # redrawing changes only the seed, so a spec refused in itself is
    # refused at every draw
    with pytest.raises(DataError, match="num_nodes"):
        full_model_grad_check(num_nodes=1)


# ---------------------------------------------------------------------------
# Fuzzing the loader: any corruption either loads or raises CheckpointError


@pytest.fixture(scope="module")
def adapted_checkpoint(tmp_path_factory):
    bundle, centroids, cfg = trained_pair(seed=24)
    cfg.ttt_max_epochs = 1
    graph = generate_synthetic(small_spec(33, feature_dim=3))
    adapted, _ = adapt_target(bundle, centroids, graph, cfg)
    path = tmp_path_factory.mktemp("fuzz") / "adapted.bin"
    save_checkpoint(adapted, centroids, cfg, path)
    return path


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_loads_or_raises_data_error(adapted_checkpoint, data):
    raw = adapted_checkpoint.read_bytes()
    if data.draw(st.booleans(), label="edit header"):
        header, payload = checkpoint_parts(adapted_checkpoint)
        edit_json(data, header)
        raw = json.dumps(header).encode() + b"\n" + payload
    else:
        raw = mutate_bytes(data, raw)
    path = adapted_checkpoint.with_name("fuzzed.bin")
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except DataError:
        pass
