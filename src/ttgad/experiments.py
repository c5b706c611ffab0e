"""Self-contained synthetic experiment harnesses.

Each harness generates its own graphs, runs the two-phase procedure, and
returns a JSON-ready report dict. They exist to make the package's three
behavioral claims checkable on a laptop: the margin between normal and
anomalous affinity rises during adaptation (under the stated
preconditions), adaptation helps versus a frozen random target encoder,
and ranking quality degrades gradually as target homophily drops.
"""

from dataclasses import replace

import numpy as np

from . import evaluation
from .errors import ConfigError, DataError
from .graphstore import (AttributedGraph, SyntheticSpec, compute_stats,
                         generate_synthetic, rewire_to_homophily)
from .pipeline import RunConfig, adapt_target, margin_trace_check, train_source

__all__ = ["margin_experiment", "homophily_sweep", "adaptation_benefit",
           "DEFAULT_LEVELS"]

DEFAULT_LEVELS = (0.9, 0.7, 0.5, 0.3, 0.1)


def _harness_config(seed, lr, dims, source_epochs, ttt_epochs, ttt_init,
                    patience=None, dropout=0.0):
    # dropout off: these runs are small and variance hides the trends
    return RunConfig(seed=seed, p=dims, hidden_dim=dims, attn_dim=dims,
                     num_layers=2, lr=lr, dropout_rate=dropout,
                     source_epochs=source_epochs, ttt_max_epochs=ttt_epochs,
                     patience=patience if patience is not None else ttt_epochs + 1,
                     ttt_init=ttt_init)


def margin_experiment(seeds=10, lr=0.001, homophily=0.9, num_nodes=300,
                      steps=30, feature_dim=12, anomaly_rate=0.1,
                      mean_degree=8.0, source_epochs=50, dims=16):
    """Margin-increase harness: homogeneous dims, target encoder from source.

    Trains on one synthetic graph and adapts to a target drawn from the same
    family under a new seed, with its features expressed in a randomly
    rotated basis. The rotation is the dimension-preserving domain shift:
    it leaves the class geometry intact but misaligns the copied encoder,
    which is the regime where adaptation has something to recover. Patience
    is disabled so every run traces exactly ``steps`` epochs. Every graph is
    generated before the first fit, and one the generator refuses (say
    ``num_nodes=1``) raises :class:`ConfigError`, since the arguments are
    the spec.
    """
    if seeds < 1 or steps < 1:  # no seeds has no median, no steps no margins
        raise ConfigError(f"seeds and steps must be at least 1, got {seeds} and {steps}")
    pairs = []
    for s in range(seeds):
        src = SyntheticSpec(num_nodes=num_nodes, feature_dim=feature_dim,
                            anomaly_rate=anomaly_rate, target_homophily=homophily,
                            mean_degree=mean_degree, seed=1000 + s,
                            name=f"margin-source-{s}")
        tgt = replace(src, seed=2000 + s, name=f"margin-target-{s}")
        try:
            pairs.append((generate_synthetic(src), generate_synthetic(tgt)))
        except DataError as e:  # every spec value is an argument
            raise ConfigError(f"margin experiment: {e}") from e
    per_seed = []
    for s, (graph_s, latent) in enumerate(pairs):
        basis = np.linalg.qr(np.random.default_rng(9000 + s).normal(
            size=(feature_dim, feature_dim)))[0]
        graph_t = AttributedGraph(latent.name, latent.num_nodes, latent.indptr,
                                  latent.indices, latent.features @ basis,
                                  latent.labels)
        config = _harness_config(seed=s, lr=lr, dims=dims,
                                 source_epochs=source_epochs,
                                 ttt_epochs=steps, ttt_init="source")
        bundle, centroids, _ = train_source(graph_s, config)
        _, trace = adapt_target(bundle, centroids, graph_t, config)
        per_seed.append({"seed": s, **margin_trace_check(trace).to_dict()})
    return {
        "seeds": seeds,
        "lr": lr,
        "homophily": homophily,
        "steps": steps,
        "per_seed": per_seed,
        "median_fraction_increasing": float(np.median(
            [r["fraction_increasing"] for r in per_seed])),
        "monotone_claim_applicable": all(r["monotone_claim_applicable"]
                                         for r in per_seed),
    }


def homophily_sweep(levels=DEFAULT_LEVELS, seeds=5, num_nodes=400,
                    feature_dim=12, source_homophily=0.9, source_rate=0.1,
                    target_base_homophily=0.15, target_rate=0.35,
                    mean_degree=8.0, source_epochs=50, ttt_epochs=30,
                    dims=16, lr=0.001, bundle=None, centroids=None):
    """Ranking quality as the target graph's homophily is rewired upward.

    Each seed trains its own source model (unless a shared ``bundle`` and
    ``centroids`` are supplied), generates one target graph, and rewires
    it to every requested level before adapting and scoring. Degree
    preservation conserves the gap between the two classes' same-label
    edge counts, which floors how low homophily can go; starting the base
    graph low keeps every requested level reachable. Each row records the
    homophily actually realized.
    """
    if seeds < 1:  # no seeds has no median
        raise ConfigError(f"seeds must be at least 1, got {seeds}")
    levels = [float(lv) for lv in levels]
    if not levels or not all(0.0 <= lv <= 1.0 for lv in levels):  # NaN lies in no range
        raise ConfigError(f"levels must be homophily values in [0, 1], got {levels}")
    if len(set(levels)) != len(levels):  # a repeat would count its runs twice
        raise ConfigError(f"levels must not repeat, got {levels}")
    shared = bundle is not None
    if shared and centroids is None:
        raise ConfigError("a shared bundle needs its centroids")
    rows = [{"requested_homophily": lv, "realized_homophily": [], "auroc": [],
             "auprc": []} for lv in levels]
    for s in range(seeds):
        config = _harness_config(seed=s, lr=lr, dims=dims,
                                 source_epochs=source_epochs,
                                 ttt_epochs=ttt_epochs, ttt_init="fresh")
        if shared:
            bundle_s, centroids_s = bundle, centroids
        else:
            src = SyntheticSpec(num_nodes=num_nodes, feature_dim=feature_dim,
                                anomaly_rate=source_rate,
                                target_homophily=source_homophily,
                                mean_degree=mean_degree, seed=3000 + s,
                                name=f"sweep-source-{s}")
            bundle_s, centroids_s, _ = train_source(generate_synthetic(src), config)
        base_spec = SyntheticSpec(num_nodes=num_nodes, feature_dim=feature_dim,
                                  anomaly_rate=target_rate,
                                  target_homophily=target_base_homophily,
                                  mean_degree=mean_degree, seed=4000 + s,
                                  name=f"sweep-target-{s}")
        base = generate_synthetic(base_spec)
        for idx, row in enumerate(rows):
            graph_l = rewire_to_homophily(base, row["requested_homophily"],
                                          seed=5000 + 131 * s + idx)
            adapted, _ = adapt_target(bundle_s, centroids_s, graph_l, config)
            ranking = evaluation.score_nodes(adapted, graph_l, mode="affinity")
            metrics = evaluation.metric_result(ranking.scores, graph_l.labels)
            row["realized_homophily"].append(compute_stats(graph_l).edge_label_homophily)
            row["auroc"].append(metrics.auroc)
            row["auprc"].append(metrics.auprc)

    for row in rows:
        row["median_auroc"] = float(np.median(row["auroc"]))
    high = [a for row in rows if row["requested_homophily"] >= 0.5 for a in row["auroc"]]
    low = [a for row in rows if row["requested_homophily"] <= 0.3 for a in row["auroc"]]
    return {
        "seeds": seeds,
        "levels": rows,
        "median_auroc_high_homophily": float(np.median(high)) if high else None,
        "median_auroc_low_homophily": float(np.median(low)) if low else None,
    }


def adaptation_benefit(seeds=10, num_nodes=400, feature_dim=12, target_dim=18,
                       homophily=0.9, anomaly_rate=0.1, mean_degree=8.0,
                       source_epochs=50, ttt_epochs=60, dims=16, lr=0.001,
                       ttt_lr=0.003, transform_scale=4.0, patience=15):
    """Adapted versus unadapted target encoder on a cross-domain pair.

    The target graph comes from the same generator family under a new seed,
    with features pushed through a scaled random linear map into a different
    dimensionality, so the source encoder cannot be reused directly. The
    anomaly center points along its own direction rather than sitting at the
    origin, which keeps class geometry visible through relu stacks. The
    baseline scores with the freshly initialized target encoder (zero
    adaptation epochs); the paired run adapts from the identical
    initialization. Because epoch selection restores the initialization
    whenever no epoch improves the centroid separation score, adaptation
    never scores below the baseline by construction; ``strict_wins`` counts
    the runs where it engaged and strictly helped.
    """
    if seeds < 1:  # no seeds has no median
        raise ConfigError(f"seeds must be at least 1, got {seeds}")
    normal_center = np.ones(feature_dim)
    anomaly_center = np.zeros(feature_dim)
    anomaly_center[::2] = 2.0
    per_seed = []
    wins = strict = 0
    for s in range(seeds):
        src = SyntheticSpec(num_nodes=num_nodes, feature_dim=feature_dim,
                            anomaly_rate=anomaly_rate, target_homophily=homophily,
                            mean_degree=mean_degree, seed=6000 + s,
                            name=f"benefit-source-{s}",
                            normal_center=normal_center,
                            anomaly_center=anomaly_center)
        config = _harness_config(seed=s, lr=lr, dims=dims,
                                 source_epochs=source_epochs,
                                 ttt_epochs=ttt_epochs, ttt_init="fresh",
                                 patience=patience)
        bundle, centroids, _ = train_source(generate_synthetic(src), config)

        latent = generate_synthetic(replace(src, seed=7000 + s,
                                            name=f"benefit-target-{s}"))
        mix = np.random.default_rng(8000 + s).normal(
            size=(feature_dim, target_dim)) * transform_scale / np.sqrt(feature_dim)
        graph_t = AttributedGraph(latent.name, latent.num_nodes, latent.indptr,
                                  latent.indices, latent.features @ mix,
                                  latent.labels)

        # same config seed both times, so both runs draw the same fresh encoder
        adapt_cfg = replace(config, lr=ttt_lr)
        frozen, _ = adapt_target(bundle, centroids, graph_t,
                                 replace(adapt_cfg, ttt_max_epochs=0))
        adapted, trace = adapt_target(bundle, centroids, graph_t, adapt_cfg)
        before = evaluation.auroc(
            evaluation.score_nodes(frozen, graph_t).scores, graph_t.labels)
        after = evaluation.auroc(
            evaluation.score_nodes(adapted, graph_t).scores, graph_t.labels)
        wins += after >= before
        strict += after > before
        per_seed.append({"seed": s, "auroc_before": before,
                         "auroc_after": after,
                         "chosen_epoch": trace.chosen_epoch})
    return {"seeds": seeds, "wins": int(wins), "strict_wins": int(strict),
            "per_seed": per_seed}
