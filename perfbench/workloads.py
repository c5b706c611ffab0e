"""Workloads of the ttgad benchmark and the metrics they report.

Every workload walks the life of a detector: fit a source model on a labeled
graph, save it, load it with an unlabeled target graph, adapt it, save it
again, load it with graphs to score and score them in both modes. The
workloads differ in which step is large and timed for ``--seconds``:

- ``train``: the source fit on a 5k-node graph (Adam over every parameter,
  the supervised loss, a per-epoch AUROC). Loading, adapting and scoring a
  3k-node target follow it, outside the timed window.
- ``adapt``: test-time training on a 10k-node, 120k-slot target (gather and
  scatter, backward through the frozen stack, the selector's eval pass). The
  1k-node source fit is set-up.
- ``score``: loading three 50k-node, dim-128 graphs in turn with the adapted
  checkpoint and scoring each in both modes: the data layer and the
  eval-mode forward, with no tape and no backward. Fit and adaptation on
  1k- and 2k-node graphs are set-up.

Each timed round repeats the same deterministic work (the config seed fixes
every draw), so rounds differ only by machine noise. Every operation is
counted; a raised ``TtgadError`` or a failed output check counts as failed.
"""

import gc
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ttgad import evaluation, graphstore, pipeline
from ttgad.errors import TtgadError
from ttgad.graphstore import AttributedGraph, SyntheticSpec
from ttgad.pipeline import RunConfig

from tracer import MB, Tracer

ANOMALY_RATE = 0.05
HOMOPHILY = 0.9
MAP_SCALE = 4.0        # random linear feature map, as in experiments.adaptation_benefit
SETUP_REPEATS = 3      # set-up runs per benchmark run; setup_s is their median
POST_REPEATS = 6       # load/adapt/score passes after the timed source fit on train
SCORING_MODES = ("affinity", "predictor")


@dataclass(frozen=True)
class GraphSize:
    nodes: int
    degree: float
    dim: int
    map_from: int | None = None   # generate at this dim, then map linearly to ``dim``

    @property
    def slots(self):
        return 2 * int(round(self.degree * self.nodes / 2.0))


@dataclass(frozen=True)
class Workload:
    name: str
    focus: str                  # the timed step: "train", "adapt" or "score"
    source: GraphSize           # labeled graph the source model is fit on
    target: GraphSize           # unlabeled graph the model is adapted to
    fit_epochs: int
    adapt_epochs: int
    scored: GraphSize | None = None   # graphs scored from disk; None: the target
    num_scored: int = 1


WORKLOADS = {
    "train": Workload("train", "train", source=GraphSize(5000, 10, 32),
                      target=GraphSize(3000, 10, 64, map_from=32),
                      fit_epochs=2, adapt_epochs=2),
    "adapt": Workload("adapt", "adapt", source=GraphSize(1000, 10, 32),
                      target=GraphSize(10000, 12, 64, map_from=32),
                      fit_epochs=10, adapt_epochs=3),
    "score": Workload("score", "score", source=GraphSize(1000, 10, 32),
                      target=GraphSize(2000, 6, 128),
                      fit_epochs=5, adapt_epochs=5,
                      scored=GraphSize(50000, 6, 128), num_scored=3),
}

END_TO_END = {
    "setup_s": "s",
    "train_epoch_s": "s/epoch",
    "adapt_epoch_s": "s/epoch",
    "score_s": "s/graph",
    "load_s": "s/graph",
    "peak_rss_mb": "MB",
    "auroc": "ratio",
    "error_rate": "ratio",
}

# Per-layer metrics of the traced run. A ".s" metric is the inclusive time of
# the span of that name per focus unit (epoch; graph on score), except the
# set-up layers, which are per set-up. Counters are per focus unit too; the
# tape peak is a maximum, and adapt_target's epochs are per call.
SETUP_LAYERS = ("graphstore.generate_synthetic", "graphstore.save_graph",
                "pipeline.save_checkpoint")
TIMED_LAYERS = (
    "graphstore.load_graph", "graphstore.build_graph",
    "gnn.forward_embeddings.train", "gnn.forward_embeddings.eval",
    "gnn.project", "gnn.compute_attention", "gnn.symmetrize_attention",
    "gnn.nsaw_layer_forward", "gnn.predict",
    "diffkernel.gather_rows", "diffkernel.cosine_rows", "diffkernel.segment_sum",
    "diffkernel.segment_softmax", "diffkernel.segment_mean", "diffkernel.matmul",
    "diffkernel.backward", "diffkernel.adam_step",
    "losses.affinity_scores", "losses.sample_nonneighbors", "losses.ttt_loss",
    "losses.train_loss_parts",
    "pipeline.early_stop_score", "pipeline.clone_bundle", "pipeline.load_checkpoint",
    "evaluation.score_nodes", "evaluation.auroc", "evaluation.auprc",
)
PER_UNIT_COUNTS = {
    "graphstore.load_graph.edges": ("graphstore.load_graph.edges", 1.0, "count"),
    "diffkernel.gather_rows.calls": ("diffkernel.gather_rows.calls", 1.0, "count"),
    "diffkernel.gather_rows.out_mb": ("diffkernel.gather_rows.out_bytes", MB, "MB"),
    "diffkernel.cosine_rows.out_mb": ("diffkernel.cosine_rows.out_bytes", MB, "MB"),
    "diffkernel.tape.ops": ("diffkernel.tape.ops", 1.0, "count"),
    "diffkernel.tape.out_mb": ("diffkernel.tape.out_bytes", MB, "MB"),
    "losses.sample_nonneighbors.pairs": ("losses.sample_nonneighbors.pairs", 1.0, "count"),
}
PER_LAYER = {
    **{f"{name}.s": "s" for name in SETUP_LAYERS + TIMED_LAYERS},
    **{name: unit for name, (_, _, unit) in PER_UNIT_COUNTS.items()},
    "diffkernel.tape.peak_mb": "MB",
    "diffkernel.backward.useful_grad_frac": "ratio",
    "pipeline.adapt_target.epochs": "count",
    "pipeline.adapt_target.improving_frac": "ratio",
    "bench.trace_overhead": "ratio",
}


def config_for(workload, seed):
    # patience above the epoch cap: every adaptation runs every epoch
    return RunConfig(seed=seed, source_epochs=workload.fit_epochs,
                     ttt_max_epochs=workload.adapt_epochs,
                     patience=workload.adapt_epochs + 1, ttt_init="fresh")


class OpFailed(Exception):
    """An operation raised a TtgadError; the steps that need its output stop."""


class Ledger:
    """Samples per metric, plus operations attempted and failed.

    Timings collect per pass (a set-up, a timed round, a pass after the
    fit); :meth:`end_pass` turns each metric's timings into one sample, their
    mean, so a pass that scores in two modes yields one sample rather than
    two from different populations. Short passes and medians keep the brief
    CPU stalls of a shared machine out of the result.
    """

    def __init__(self):
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._pass = defaultdict(list)

    def end_pass(self):
        for metric, values in self._pass.items():
            self.samples[metric].append(statistics.fmean(values))
        self._pass.clear()

    def op(self, what, fn, *args, metric=None, per=None, check=None):
        """Run one operation; time it into ``metric`` and check its output.

        ``per`` maps the result to the unit count the time is divided by;
        ``check`` maps it to a problem string, or None when it is correct.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except TtgadError as e:
            self._fail(f"{what}: {type(e).__name__}: {e}")
            raise OpFailed(what) from e
        elapsed = time.perf_counter() - start
        if metric is not None:
            self._pass[metric].append(elapsed / (per(result) if per else 1))
        problem = check(result) if check is not None else None
        if problem:
            self._fail(f"{what}: {problem}")
        return result

    def check(self, what, problem):
        """Count a check of its own as an operation."""
        self.attempted += 1
        if problem:
            self._fail(f"{what}: {problem}")

    def _fail(self, message):
        self.failed += 1
        self.failures.append(message)


# ---------------------------------------------------------------------------
# Output checks: each returns a problem string, or None.


def _bitwise(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def bundle_mismatch(a, b, prefixes=None):
    items_a, items_b = dict(a.parameter_items()), dict(b.parameter_items())
    if prefixes is None and items_a.keys() != items_b.keys():
        return f"tensor names differ: {sorted(items_a)} vs {sorted(items_b)}"
    for name, tensor in items_a.items():
        if prefixes is not None and not name.startswith(prefixes):
            continue
        if name not in items_b or not _bitwise(tensor.values, items_b[name].values):
            return f"tensor {name} differs"
    return None


def checkpoint_mismatch(loaded, bundle, centroids):
    problem = bundle_mismatch(loaded.bundle, bundle)
    if problem:
        return problem
    if not (_bitwise(loaded.centroids.normal, centroids.normal)
            and _bitwise(loaded.centroids.anomaly, centroids.anomaly)):
        return "centroids differ"
    return None


def graph_mismatch(loaded, original):
    return None if graphstore.graphs_equal(loaded, original) else "graph differs after round trip"


def fit_problem(result, epochs):
    _, _, log = result
    if len(log) != epochs:
        return f"{len(log)} log entries for {epochs} epochs"
    if not all(np.isfinite(e["loss"]) and 0.0 <= e["auroc"] <= 1.0 for e in log):
        return "non-finite loss or AUROC out of range"
    return None


def adapt_problem(result, source_bundle):
    adapted, trace = result
    problem = bundle_mismatch(source_bundle, adapted, prefixes=("layers.", "predictor."))
    if problem:
        return f"frozen {problem}"
    if not trace.best_score >= trace.initial_score:
        return f"best score {trace.best_score} below initial {trace.initial_score}"
    return None


def score_problem(result, num_nodes):
    ranking, metrics = result
    if not np.all(np.isfinite(ranking.scores)):
        return "non-finite score"
    if metrics.positives + metrics.negatives != num_nodes:
        return f"{metrics.positives} + {metrics.negatives} nodes ranked of {num_nodes}"
    return None


# ---------------------------------------------------------------------------
# Steps


def make_graph(size, seed, name):
    """A labeled synthetic graph of ``size``; mapped features if asked."""
    spec = SyntheticSpec(num_nodes=size.nodes, feature_dim=size.map_from or size.dim,
                         anomaly_rate=ANOMALY_RATE, target_homophily=HOMOPHILY,
                         mean_degree=size.degree, seed=seed, name=name)
    graph = graphstore.generate_synthetic(spec)
    if size.map_from is None:
        return graph
    mix = np.random.default_rng(seed).normal(size=(size.map_from, size.dim))
    mix *= MAP_SCALE / np.sqrt(size.map_from)
    # quantized to the disk precision so the graph round-trips exactly
    features = (graph.features @ mix).astype(np.float32).astype(np.float64)
    return AttributedGraph(name, graph.num_nodes, graph.indptr, graph.indices,
                           features, graph.labels)


def fresh():
    """Start a step as a new command-line run would, with no garbage pending.

    Tapes are reference cycles (each output points back at its tape) that
    only the cyclic collector frees. Left to it, the tapes of one step are
    freed wherever a later step happens to trigger a full collection, which
    lands hundreds of milliseconds in a short load or score, and the peak
    memory climbs with the number of rounds.
    """
    gc.collect()


def score(ledger, bundle, graph, labels, mode):
    """One scoring pass plus its ranking metrics; returns the AUROC."""
    def run():
        ranking = evaluation.score_nodes(bundle, graph, mode=mode)
        return ranking, evaluation.metric_result(ranking.scores, labels)

    _, metrics = ledger.op(f"score {graph.name} ({mode})", run, metric="score_s",
                           check=lambda r: score_problem(r, graph.num_nodes))
    return metrics.auroc


def load(ledger, graph_dir, ckpt_path, graph, bundle, centroids):
    """The ingest path of ``ttgad eval``: a graph directory and a checkpoint."""
    def run():
        return graphstore.load_graph(graph_dir), pipeline.load_checkpoint(ckpt_path)

    def problem(result):
        return graph_mismatch(result[0], graph) or checkpoint_mismatch(result[1], bundle,
                                                                       centroids)

    return ledger.op(f"load {graph_dir.name}", run, metric="load_s", check=problem)


def adapt(ledger, bundle, centroids, graph, config):
    return ledger.op(f"adapt {graph.name}", pipeline.adapt_target, bundle, centroids,
                     graph, config, metric="adapt_epoch_s",
                     per=lambda r: max(len(r[1].epochs), 1),
                     check=lambda r: adapt_problem(r, bundle))


def save_checkpoint(ledger, bundle, centroids, config, path):
    ledger.op(f"save {path.name}", pipeline.save_checkpoint, bundle, centroids, config, path)


@dataclass
class Inputs:
    """Everything set-up leaves for the timed rounds."""

    workdir: Path
    config: RunConfig
    source: AttributedGraph
    target: AttributedGraph          # unlabeled, as adapted
    target_labels: np.ndarray
    target_dir: Path
    scored: list                     # (graph, directory) pairs
    bundle: object = None            # source fit (adapt, score)
    centroids: object = None
    source_ckpt: Path | None = None
    adapted: object = None           # adapted model (score)
    adapted_ckpt: Path | None = None
    rounds: int = 0


def setup(ledger, workload, seed, root):
    """Generate, round-trip through disk, fit or adapt, warm up."""
    work = Path(tempfile.mkdtemp(dir=root, prefix="setup-"))
    config = config_for(workload, seed)

    def round_trip(graph, name):
        path = work / name
        ledger.op(f"save {name}", graphstore.save_graph, graph, path)
        loaded = ledger.op(f"load {name}", graphstore.load_graph, path,
                           check=lambda g: graph_mismatch(g, graph))
        return loaded, path

    source, _ = round_trip(ledger.op("generate source", make_graph, workload.source,
                                     seed, "source"), "source")
    target_full = ledger.op("generate target", make_graph, workload.target, seed + 1,
                            "target")
    target, target_dir = round_trip(target_full.without_labels(), "target")
    inputs = Inputs(work, config, source, target, target_full.labels, target_dir, [])
    if workload.scored is not None:
        for i in range(workload.num_scored):
            graph = ledger.op(f"generate scored-{i}", make_graph, workload.scored,
                              seed + 2 + i, f"scored-{i}")
            path = work / graph.name
            ledger.op(f"save {graph.name}", graphstore.save_graph, graph, path)
            inputs.scored.append((graph, path))

    if workload.focus == "train":
        ledger.op("warm-up fit", pipeline.train_source, source,
                  replace(config, source_epochs=1))
        return inputs

    bundle, centroids, _ = ledger.op(
        "fit source", pipeline.train_source, source, config, metric="train_epoch_s",
        per=lambda r: max(len(r[2]), 1), check=lambda r: fit_problem(r, config.source_epochs))
    inputs.bundle, inputs.centroids = bundle, centroids
    inputs.source_ckpt = work / "source.ckpt"
    save_checkpoint(ledger, bundle, centroids, config, inputs.source_ckpt)
    ledger.op("load source.ckpt", pipeline.load_checkpoint, inputs.source_ckpt,
              check=lambda c: checkpoint_mismatch(c, bundle, centroids))

    if workload.focus == "adapt":
        ledger.op("warm-up adapt", pipeline.adapt_target, bundle, centroids, target,
                  replace(config, ttt_max_epochs=1))
        return inputs

    fresh()
    adapted, _ = adapt(ledger, bundle, centroids, target, config)
    inputs.adapted = adapted
    inputs.adapted_ckpt = work / "adapted.ckpt"
    save_checkpoint(ledger, adapted, centroids, config, inputs.adapted_ckpt)
    ledger.op("warm-up score", evaluation.score_nodes, adapted, target)
    return inputs


def timed_round(ledger, workload, inputs, aurocs):
    """One round of the workload's focus step; returns the units it ran.

    ``aurocs`` maps each ranked graph's name to its AUROC.
    """
    config = inputs.config
    if workload.focus == "train":
        bundle, centroids, log = ledger.op(
            "fit source", pipeline.train_source, inputs.source, config,
            metric="train_epoch_s", per=lambda r: max(len(r[2]), 1),
            check=lambda r: fit_problem(r, config.source_epochs))
        inputs.bundle, inputs.centroids = bundle, centroids
        # The predictor's AUROC after a few epochs still depends on the
        # initialisation (0.1 to 0.85 after one epoch across seeds); the
        # affinity ranking of the same log entry is steady.
        aurocs[inputs.source.name] = log[-1]["auroc_affinity"]
        return len(log)
    if workload.focus == "adapt":
        graph, loaded = load(ledger, inputs.target_dir, inputs.source_ckpt, inputs.target,
                             inputs.bundle, inputs.centroids)
        adapted, trace = adapt(ledger, loaded.bundle, loaded.centroids, graph, config)
        fresh()
        aurocs[graph.name] = score(ledger, adapted, graph, inputs.target_labels, "affinity")
        return len(trace.epochs)
    # one scored graph per round, in turn
    graph, path = inputs.scored[inputs.rounds % len(inputs.scored)]
    inputs.rounds += 1
    loaded_graph, loaded = load(ledger, path, inputs.adapted_ckpt, graph,
                                inputs.adapted, inputs.centroids)
    for mode in SCORING_MODES:
        auroc = score(ledger, loaded.bundle, loaded_graph, graph.labels, mode)
        # The predictor of a briefly fit model ranks anywhere from 0.2 to
        # 1.0 across seeds; the affinity ranking is the steady one.
        if mode == "affinity":
            aurocs[graph.name] = auroc
    return 1


def after_fit(ledger, inputs):
    """On train: what a user does next with the model just fit."""
    ckpt = inputs.workdir / "source.ckpt"
    save_checkpoint(ledger, inputs.bundle, inputs.centroids, inputs.config, ckpt)
    for _ in range(POST_REPEATS):
        fresh()
        graph, loaded = load(ledger, inputs.target_dir, ckpt, inputs.target,
                             inputs.bundle, inputs.centroids)
        adapted, _ = adapt(ledger, loaded.bundle, loaded.centroids, graph, inputs.config)
        fresh()
        for mode in SCORING_MODES:
            score(ledger, adapted, graph, inputs.target_labels, mode)
        ledger.end_pass()


# ---------------------------------------------------------------------------
# Runs


def summary(values):
    """Median, sample count and the highest percentile with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) > 10:
        pct = int(100 * (len(values) - 10) / len(values))
        out[f"p{pct}"] = float(np.percentile(values, pct))
    return out


def run_rounds(ledger, workload, inputs, seconds, aurocs):
    """Rounds of the focus step for ``seconds`` (at least one); wall time per unit."""
    units = 0
    start = time.perf_counter()
    while True:
        fresh()
        units += timed_round(ledger, workload, inputs, aurocs)
        ledger.end_pass()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / max(units, 1), units


def run_untraced(workload, seed, seconds, root):
    """End-to-end metrics with no tracing installed; returns (ledger, metrics).

    ``error_rate`` is left to the caller, which may still count checks.
    """
    ledger = Ledger()
    aurocs = {}
    inputs = None
    try:
        for _ in range(SETUP_REPEATS):
            if inputs is not None:
                # a set-up starts from nothing, as on a fresh command line
                shutil.rmtree(inputs.workdir)
                inputs = None
            fresh()
            start = time.perf_counter()
            inputs = setup(ledger, workload, seed, root)
            ledger.samples["setup_s"].append(time.perf_counter() - start)
            ledger.end_pass()
        run_rounds(ledger, workload, inputs, seconds, aurocs)
        if workload.focus == "train":
            after_fit(ledger, inputs)
    except OpFailed:
        pass
    metrics = {name: summary(ledger.samples[name]) for name in END_TO_END
               if ledger.samples.get(name)}
    if aurocs:
        metrics["auroc"] = {"median": statistics.fmean(aurocs.values()), "n": len(aurocs)}
    metrics["peak_rss_mb"] = {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024.0, "n": 1}
    return ledger, metrics


def run_traced(workload, seed, seconds, root, spans_path):
    """Per-layer metrics: traced set-up, then untraced and traced rounds.

    Half of ``seconds`` goes to untraced rounds and half to traced rounds;
    their wall time per unit gives the tracing overhead. Returns (ledger,
    metrics, self seconds per span name of the traced rounds).
    """
    ledger = Ledger()
    tracer = Tracer()
    metrics = {}
    self_times = {}
    try:
        tracer.install()
        try:
            with tracer.phase("setup"):
                inputs = setup(ledger, workload, seed, root)
        finally:
            ledger.check("tracer restores every attribute", _restore_problem(tracer))
        plain, _ = run_rounds(ledger, workload, inputs, seconds / 2.0, {})
        tracer.install()
        try:
            with tracer.phase("round"):
                traced, units = run_rounds(ledger, workload, inputs, seconds / 2.0, {})
        finally:
            ledger.check("tracer restores every attribute", _restore_problem(tracer))
        metrics = layer_metrics(tracer, units, traced / plain - 1.0)
        self_times = tracer.span_times("round")[1]
    except OpFailed:
        pass
    tracer.dump(spans_path)
    return ledger, metrics, self_times


def _restore_problem(tracer):
    wrong = tracer.uninstall()
    return f"left wrapped: {', '.join(wrong)}" if wrong else None


def layer_metrics(tracer, units, overhead):
    setup_time, _ = tracer.span_times("setup")
    round_time, _ = tracer.span_times("round")
    counts = tracer.counts["round"]
    out = {}
    for name in SETUP_LAYERS:
        out[f"{name}.s"] = setup_time.get(name, 0.0)
    for name in TIMED_LAYERS:
        out[f"{name}.s"] = round_time.get(name, 0.0) / units
    for metric, (key, scale, _) in PER_UNIT_COUNTS.items():
        out[metric] = counts.get(key, 0.0) / scale / units
    out["diffkernel.tape.peak_mb"] = counts.get("diffkernel.tape.peak_bytes", 0.0) / MB
    grad_bytes = counts.get("diffkernel.backward.grad_bytes", 0.0)
    out["diffkernel.backward.useful_grad_frac"] = (
        counts.get("diffkernel.backward.useful_grad_bytes", 0.0) / grad_bytes
        if grad_bytes else 0.0)
    calls = counts.get("pipeline.adapt_target.calls", 0.0)
    epochs = counts.get("pipeline.adapt_target.epochs", 0.0)
    out["pipeline.adapt_target.epochs"] = epochs / calls if calls else 0.0
    out["pipeline.adapt_target.improving_frac"] = (
        counts.get("pipeline.adapt_target.improving", 0.0) / epochs if epochs else 0.0)
    out["bench.trace_overhead"] = overhead
    return out
