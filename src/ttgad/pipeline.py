"""Two-phase training: supervised source fit, then label-free adaptation.

Source training runs full-batch Adam on the combined supervised and
self-supervised objective and finishes by recording per-class centroids of
the final embeddings. Adaptation trains only the target-domain encoder on
the self-supervised objective, scoring each epoch with a label-free
centroid distance ratio and keeping the best-scoring snapshot. Everything
is deterministic given (data, config, seed).
"""

import copy
import itertools
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import diffkernel as dk
from . import evaluation, losses
from .errors import (CheckpointError, ConfigError, DataError, NumericalError,
                     _check_field_types)
from .gnn import (ModelBundle, ProjectionEncoder, assemble_bundle,
                  forward_embeddings, init_bundle, init_encoder,
                  parameter_shapes, predict)
from .graphstore import SyntheticSpec, generate_synthetic
from .losses import LossWeights

__all__ = [
    "RunConfig", "ClassCentroids", "PatienceTracker", "AdaptationTrace",
    "MarginReport", "LoadedCheckpoint", "FullModelGradCheck",
    "train_source", "adapt_target", "early_stop_score", "margin_trace_check",
    "clone_bundle", "save_checkpoint", "load_checkpoint",
    "full_model_grad_check",
]

TTT_INITS = ("fresh", "source", "keep")
CHECKPOINT_VERSION = 2


@dataclass
class RunConfig:
    """Every knob of a run; serializes to a flat JSON object.

    ``ttt_init`` picks how the target encoder starts: "fresh" (random),
    "source" (copy the source encoder; needs matching feature dims), or
    "keep" (reuse the bundle's existing target encoder).
    """

    seed: int = 0
    p: int = 40
    hidden_dim: int = 40
    attn_dim: int = 40
    num_layers: int = 2
    lr: float = 0.001
    dropout_rate: float = 0.7
    source_epochs: int = 100
    ttt_max_epochs: int = 100
    patience: int = 10
    ttt_init: str = "fresh"
    scoring_mode: str = "affinity"
    nsaw_enabled: bool = True
    identity_encoder: bool = False
    weights: LossWeights = field(default_factory=LossWeights)

    def validate(self):
        _check_field_types(self)
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.source_epochs < 1:
            raise ConfigError("source_epochs ≥ 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if self.ttt_max_epochs < 0:
            raise ConfigError("ttt_max_epochs must be non-negative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        for name in ("p", "hidden_dim", "attn_dim", "num_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.ttt_init not in TTT_INITS:
            raise ConfigError(f"ttt_init must be one of {TTT_INITS}")
        if self.scoring_mode not in evaluation.SCORING_MODES:
            raise ConfigError(f"scoring_mode must be one of {evaluation.SCORING_MODES}")
        self.weights.validate()
        return self

    def to_dict(self):
        d = asdict(self)
        d.update(d.pop("weights"))
        return d

    @classmethod
    def from_dict(cls, data):
        own = {f.name for f in fields(cls)} - {"weights"}
        weight_names = {f.name for f in fields(LossWeights)}
        kwargs, wkwargs = {}, {}
        for key, value in data.items():
            if key in own:
                kwargs[key] = value
            elif key in weight_names:
                wkwargs[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r}")
        return cls(weights=LossWeights(**wkwargs), **kwargs)


@dataclass
class ClassCentroids:
    """Per-class means of final-layer source embeddings (eval mode)."""

    normal: np.ndarray
    anomaly: np.ndarray

    @classmethod
    def from_embeddings(cls, values, labels):
        values = np.asarray(values, dtype=np.float64)
        labels = np.asarray(labels)
        if not (labels == 0).any() or not (labels == 1).any():
            raise DataError("centroids need at least one node of each class")
        normal = values[labels == 0].mean(axis=0)
        anomaly = values[labels == 1].mean(axis=0)
        if not (np.all(np.isfinite(normal)) and np.all(np.isfinite(anomaly))):
            raise DataError("centroids must be finite")
        return cls(normal=normal, anomaly=anomaly)


def early_stop_score(embedding_values, centroids):
    """Mean per-node ratio of the larger to the smaller centroid distance.

    Always ≥ 1; higher means nodes sit decisively closer to one centroid,
    which is the label-free signal that embeddings are separating. The
    smaller distance is clamped at 1e-12.
    """
    values = np.asarray(embedding_values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] == 0:
        raise DataError("empty target")
    d_normal = np.linalg.norm(values - centroids.normal, axis=1)
    d_anomaly = np.linalg.norm(values - centroids.anomaly, axis=1)
    hi = np.maximum(d_normal, d_anomaly)
    lo = np.maximum(np.minimum(d_normal, d_anomaly), 1e-12)
    return float(np.mean(hi / lo))


class PatienceTracker:
    """Best-so-far tracking with strict-improvement patience.

    ``update`` is called once per epoch (1-indexed); it returns whether the
    score strictly improved on the best seen. An ``initial_score`` counts
    as epoch 0, so a run that never improves keeps its starting state.
    """

    def __init__(self, patience, initial_score=None):
        if patience < 1:
            raise ConfigError("patience must be at least 1")
        self.patience = int(patience)
        self.best_score = -math.inf if initial_score is None else float(initial_score)
        self.best_epoch = 0
        self.epoch = 0
        self.stale = 0

    def update(self, score):
        self.epoch += 1
        if score > self.best_score:
            self.best_score = float(score)
            self.best_epoch = self.epoch
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self):
        return self.stale >= self.patience


@dataclass
class AdaptationTrace:
    """Per-epoch record of one adaptation run.

    ``epochs`` holds dicts with keys epoch, loss, score and, when the
    target graph carried labels, margin (mean affinity of normal minus
    anomalous nodes). ``chosen_epoch`` 0 means the initialization won.
    """

    epochs: list
    initial_score: float
    initial_margin: float | None
    chosen_epoch: int
    best_score: float
    stop_reason: str
    lr: float
    ttt_init: str
    homogeneous_dims: bool

    def to_dict(self):
        return asdict(self)


def train_source(graph, config, rng=None):
    """Fit the model on a labeled source graph.

    Returns (bundle, centroids, log): the trained parameters, per-class
    embedding centroids for later early stopping, and a per-epoch list of
    loss components and ranking quality on the training graph.
    """
    config.validate()
    if graph.labels is None:
        raise DataError("source training requires labels")
    labels = graph.labels
    if not (labels == 0).any() or not (labels == 1).any():
        raise DataError("source training requires both classes")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    bundle = init_bundle(rng, graph.feature_dim, config.p, config.hidden_dim,
                         config.attn_dim, config.num_layers,
                         nsaw_enabled=config.nsaw_enabled,
                         identity_encoder=config.identity_encoder)
    params = [t for _, t in bundle.parameter_items() if t.requires_grad]
    state = dk.AdamState(params, lr=config.lr)
    log = []
    for epoch in range(1, config.source_epochs + 1):
        with dk.Tape() as tape:
            h, _ = forward_embeddings(bundle, graph, "source", training=True,
                                      rng=rng, dropout_rate=config.dropout_rate)
            probs = predict(bundle, h)
            total, parts = losses.train_loss_parts(probs, h, graph,
                                                   config.weights, rng)
        grads = tape.backward(total)
        dk.adam_step(params, grads, state)

        h_eval, _ = forward_embeddings(bundle, graph, "source")
        probs_eval = predict(bundle, h_eval)
        aff = losses.affinity_scores(h_eval, graph)
        entry = {"epoch": epoch}
        entry.update(parts)
        entry["auroc"] = evaluation.auroc(probs_eval.values[:, 0], labels)
        entry["auroc_affinity"] = evaluation.auroc(-aff.values(), labels)
        log.append(entry)

    # the last epoch's eval forward already ran on the final parameters
    centroids = ClassCentroids.from_embeddings(h_eval.values, labels)
    return bundle, centroids, log


def clone_bundle(bundle):
    """Deep copy; the clone shares no tensors with the original."""
    return copy.deepcopy(bundle)


def _init_target_encoder(work, graph, config, rng):
    """Install the target encoder per config.ttt_init."""
    shared_width = work.layers[0].in_dim
    source_weight = work.source_encoder.weight
    if source_weight is None:
        if graph.feature_dim != shared_width:
            raise DataError(
                f"feature dim mismatch without encoder: graph has "
                f"{graph.feature_dim}, model expects {shared_width}")
        work.target_encoder = ProjectionEncoder(None, "target")
    elif config.ttt_init == "keep":
        if work.target_encoder is None or work.target_encoder.weight is None:
            raise ConfigError("ttt_init 'keep' needs a bundle with a target encoder")
    elif config.ttt_init == "source":
        if source_weight.shape[1] != graph.feature_dim:
            raise ConfigError(
                "ttt_init 'source' needs the target feature dimension to "
                f"match the source ({source_weight.shape[1]}), got {graph.feature_dim}")
        work.target_encoder = ProjectionEncoder(
            dk.Tensor(source_weight.values, requires_grad=True), "target")
    else:
        work.target_encoder = init_encoder(rng, shared_width,
                                           graph.feature_dim, "target")


def adapt_target(bundle, centroids, graph, config, rng=None):
    """Adapt the target encoder to an unlabeled graph; decoder stays frozen.

    Every tensor of the working copy except the target encoder is frozen
    (``requires_grad=False``): gradients reach the target encoder alone, and
    ops on frozen weights alone never enter the tape. After each epoch the
    centroid distance ratio is evaluated in eval mode; the best-scoring
    encoder snapshot (the initialization counts) is restored before
    returning. If the graph carries labels (evaluation only; the objective
    never sees them) the per-epoch affinity margin is recorded in the trace.

    Returns (adapted bundle, AdaptationTrace). The input bundle is not
    modified.
    """
    config.validate()
    if centroids is None:
        raise DataError("adaptation requires source centroids")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    work = clone_bundle(bundle)
    _init_target_encoder(work, graph, config, rng)
    for name, tensor in work.parameter_items():
        tensor.requires_grad = name == "target_encoder.weight"
    params = [t for _, t in work.parameter_items() if t.requires_grad]
    if config.ttt_max_epochs > 0 and not params:
        raise DataError("identity encoder leaves nothing to adapt")

    source_weight = work.source_encoder.weight
    source_in = source_weight.shape[1] if source_weight is not None \
        else work.layers[0].in_dim
    homogeneous = graph.feature_dim == source_in

    track_margin = False
    if graph.labels is not None:
        valid = graph.degrees > 0
        track_margin = bool((valid & (graph.labels == 0)).any()
                            and (valid & (graph.labels == 1)).any())

    def eval_pass():
        h, _ = forward_embeddings(work, graph, "target")
        score = early_stop_score(h.values, centroids)
        margin = None
        if track_margin:
            aff = losses.affinity_scores(h, graph)
            margin = losses.affinity_margin(aff.values(), aff.valid, graph.labels)
        return score, margin

    initial_score, initial_margin = eval_pass()
    tracker = PatienceTracker(config.patience, initial_score=initial_score)
    best_values = [p.values.copy() for p in params]

    state = dk.AdamState(params, lr=config.lr)
    epochs = []
    stop_reason = "no_epochs" if config.ttt_max_epochs == 0 else "max_epochs"
    for epoch in range(1, config.ttt_max_epochs + 1):
        with dk.Tape() as tape:
            h, _ = forward_embeddings(work, graph, "target", training=True,
                                      rng=rng, dropout_rate=config.dropout_rate)
            loss = losses.ttt_loss(h, graph, config.weights, rng)
        grads = tape.backward(loss)
        dk.adam_step(params, grads, state)

        score, margin = eval_pass()
        entry = {"epoch": epoch, "loss": loss.item(), "score": score}
        if track_margin:
            entry["margin"] = margin
        epochs.append(entry)
        if tracker.update(score):
            best_values = [p.values.copy() for p in params]
        if tracker.should_stop:
            stop_reason = "patience"
            break

    for param, values in zip(params, best_values):
        param.values[...] = values

    trace = AdaptationTrace(epochs=epochs, initial_score=initial_score,
                            initial_margin=initial_margin,
                            chosen_epoch=tracker.best_epoch,
                            best_score=tracker.best_score,
                            stop_reason=stop_reason, lr=config.lr,
                            ttt_init=config.ttt_init,
                            homogeneous_dims=homogeneous)
    return work, trace


@dataclass
class MarginReport:
    """Margin behavior of one adaptation run, plus precondition bookkeeping."""

    fraction_increasing: float
    initial_margin: float
    final_margin: float
    num_steps: int
    preconditions: dict
    monotone_claim_applicable: bool

    def to_dict(self):
        return asdict(self)


def margin_trace_check(trace):
    """How often the affinity margin rose from one epoch to the next.

    The monotone-increase claim is only expected to hold when the run
    satisfied the checkable preconditions: equal feature dimensions, a
    small learning rate, and a target encoder started from the source
    encoder. The report states the preconditions rather than enforcing
    them.
    """
    margins = [e["margin"] for e in trace.epochs if e.get("margin") is not None]
    if trace.initial_margin is None or not margins:
        raise DataError("trace has no margin data; adapt with a labeled target")
    chain = np.array([trace.initial_margin] + margins)
    diffs = np.diff(chain)
    preconditions = {
        "homogeneous_dims": bool(trace.homogeneous_dims),
        "small_lr": trace.lr <= 0.01,
        "init_from_source": trace.ttt_init == "source",
    }
    return MarginReport(
        fraction_increasing=float(np.mean(diffs > 0)),
        initial_margin=float(chain[0]),
        final_margin=float(chain[-1]),
        num_steps=int(diffs.size),
        preconditions=preconditions,
        monotone_claim_applicable=all(preconditions.values()),
    )


# ---------------------------------------------------------------------------
# Checkpoints: one header line of JSON, then raw little-endian float64 blocks.


def save_checkpoint(bundle, centroids, config, path):
    """Write a self-describing single-file checkpoint, atomically.

    Layout: a JSON header line {"version", "config", "centroids",
    "tensors": [{name, rows, cols, byte_offset}]} followed by the tensors'
    row-major little-endian float64 payloads; byte offsets are relative to
    the first byte after the header's newline.
    """
    descriptors = []
    blobs = []
    offset = 0
    for name, tensor in bundle.parameter_items():
        arr = np.ascontiguousarray(tensor.values, dtype="<f8")
        blob = arr.tobytes()
        descriptors.append({"name": name, "rows": int(arr.shape[0]),
                            "cols": int(arr.shape[1]), "byte_offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "centroids": None if centroids is None else {
            "normal": centroids.normal.tolist(),
            "anomaly": centroids.anomaly.tolist(),
        },
        "tensors": descriptors,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + b"".join(blobs)

    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass
class LoadedCheckpoint:
    bundle: ModelBundle
    config: RunConfig
    centroids: ClassCentroids | None


def load_checkpoint(path, expect_nsaw=None):
    """Read a checkpoint back; inverse of :func:`save_checkpoint`.

    The descriptors are checked in one pass against the stored config's
    layout as ``save_checkpoint`` writes it, blocks back to back in
    ``parameter_items()`` order. Any departure, a wrong shape, or a tensor
    holding NaN or inf raises :class:`CheckpointError` here, before any of
    the bundle is allocated.
    ``expect_nsaw`` asserts the stored attention mode: loading a checkpoint
    whose mode differs is an error, never a silent fallback.
    """
    with open(os.fspath(path), "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError("malformed checkpoint: no header line")
    try:
        header = json.loads(raw[:newline])
    except (ValueError, RecursionError) as e:  # invalid JSON, invalid UTF-8, or too deep
        raise CheckpointError(f"malformed checkpoint header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError("malformed checkpoint header: not an object")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    if not (isinstance(header.get("config"), dict)
            and isinstance(header.get("tensors"), list)):
        raise CheckpointError("malformed checkpoint header: needs a 'config' "
                              "object and a 'tensors' list")
    try:
        config = RunConfig.from_dict(header["config"]).validate()
    except (ConfigError, TypeError) as e:
        raise CheckpointError(f"invalid checkpoint config: {e}") from e
    if expect_nsaw is not None and config.nsaw_enabled != bool(expect_nsaw):
        stored = "nsaw" if config.nsaw_enabled else "plain"
        wanted = "nsaw" if expect_nsaw else "plain"
        raise CheckpointError(
            f"checkpoint uses {stored} aggregation but {wanted} was requested")

    payload = raw[newline + 1:]
    descs = header["tensors"]
    for desc in descs:
        entry = desc if isinstance(desc, dict) else {}
        sizes = [entry.get(k) for k in ("rows", "cols", "byte_offset")]
        # Sizes are JSON integers (bools and floats are refused), and a tensor is not empty.
        if (not isinstance(entry.get("name"), str) or any(type(v) is not int for v in sizes)
                or min(sizes[:2]) < 1):
            raise CheckpointError(f"malformed tensor descriptor: {desc!r}")

    # The config records no feature dim, so the stored weights give it; if
    # one is missing, the in-order pass below names it.
    cols = {desc["name"]: desc["cols"] for desc in descs}
    feature_dim = (cols.get("layers.0.W", 1) // 2 if config.identity_encoder
                   else cols.get("source_encoder.weight", 1))
    try:
        layout = parameter_shapes(feature_dim, config.p, config.hidden_dim,
                                  config.attn_dim, config.num_layers,
                                  config.identity_encoder, cols.get("target_encoder.weight"))
    except ConfigError as e:
        raise CheckpointError(f"checkpoint {e}") from e
    # The layout is listed only one entry past the descriptors, so a header
    # claiming far more layers than it stores is refused at once.
    arrays = {}
    offset = 0
    for desc, entry in itertools.zip_longest(descs, layout):
        if entry is None:
            raise CheckpointError(f"unexpected tensor {desc['name']!r}")
        name, shape = entry
        if desc is None or desc["name"] != name:
            found = "" if desc is None else f", found {desc['name']!r} in its place"
            raise CheckpointError(f"missing tensor {name!r}{found}")
        if (desc["rows"], desc["cols"]) != shape:
            raise CheckpointError(f"tensor {name!r} has shape {(desc['rows'], desc['cols'])}, "
                                  f"but the config needs {shape}")
        if desc["byte_offset"] != offset:
            raise CheckpointError(f"corrupt tensor block {name!r}: it starts at byte "
                                  f"{desc['byte_offset']}, but earlier blocks end at {offset}")
        count = shape[0] * shape[1]
        if offset + 8 * count > len(payload):
            raise CheckpointError(f"corrupt tensor block {name!r}: the payload ends inside it")
        block = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        if not np.all(np.isfinite(block)):
            raise CheckpointError(f"tensor {name!r} holds non-finite values")
        arrays[name] = block.reshape(shape)
        offset += 8 * count
    if offset != len(payload):
        raise CheckpointError(f"corrupt tensor block: {len(payload) - offset} trailing byte(s)")

    bundle = assemble_bundle(arrays, config.nsaw_enabled)

    centroids = None
    stored = header.get("centroids")
    if stored is not None:
        try:
            arrays = {key: np.asarray(stored[key], dtype=np.float64)
                      for key in ("normal", "anomaly")}
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"malformed checkpoint centroids: {e!r}") from e
        for key, arr in arrays.items():
            if arr.shape != (config.hidden_dim,) or not np.all(np.isfinite(arr)):
                raise CheckpointError(f"checkpoint centroid {key!r} must hold "
                                      f"{config.hidden_dim} finite values")
        centroids = ClassCentroids(**arrays)
    return LoadedCheckpoint(bundle=bundle, config=config, centroids=centroids)


# ---------------------------------------------------------------------------
# Whole-model gradient checking


@dataclass
class FullModelGradCheck:
    train_report: dk.GradCheckReport
    ttt_report: dk.GradCheckReport
    passed: bool


# Draws the gradient check makes, per graph and per parameter point it
# needs, before it gives up.
_GRADCHECK_DRAWS = 20


def full_model_grad_check(seed=0, num_points=5, num_nodes=9, feature_dim=4,
                          width=5, num_layers=2, step=1e-5, tol=1e-4):
    """Finite-difference check of both composite objectives, end to end.

    At each of ``num_points`` random parameter points, every coordinate of
    every tensor is compared against central differences: the adaptation
    objective over the target encoder, the supervised objective over every
    other tensor. Forward passes run in eval mode so the function is smooth
    except at relu kinks. A point whose source or target embeddings hold an
    all-zero (relu-dead) row is skipped for the next draw: that row's cosine
    pairs sit on the 1e-12 guard, where the objective jumps, so no step can
    check it. A graph the generator refuses (at 9 nodes, a label draw of a
    single class) is drawn again at ``seed + 2**32``, then ``seed + 2 *
    2**32`` and so on. When the graph draws run out the last refusal is
    raised, and when the point draws do, NumericalError.
    """
    spec = SyntheticSpec(num_nodes=num_nodes, feature_dim=feature_dim,
                         anomaly_rate=0.25, target_homophily=0.7,
                         mean_degree=4.0, seed=seed, name="gradcheck")
    for attempt in range(_GRADCHECK_DRAWS):
        try:
            graph = generate_synthetic(replace(spec, seed=seed + attempt * 2 ** 32))
            break
        except DataError as e:
            refusal = e
    else:
        raise refusal
    weights = LossWeights()
    reports = {"train": [], "ttt": []}
    checked = 0
    for draw in range(_GRADCHECK_DRAWS * num_points):
        if checked == num_points:
            break
        rng = np.random.default_rng(seed * 7919 + draw + 1)
        bundle = init_bundle(rng, feature_dim, width, width, width, num_layers)
        bundle.target_encoder = init_encoder(rng, width, feature_dim, "target")
        if not all(forward_embeddings(bundle, graph, domain)[0].values.any(axis=1).all()
                   for domain in ("source", "target")):
            continue
        checked += 1
        sample_seed = seed * 104729 + draw

        def train_objective(_):
            h, _ = forward_embeddings(bundle, graph, "source")
            probs = predict(bundle, h)
            return losses.train_loss_parts(probs, h, graph, weights,
                                           np.random.default_rng(sample_seed))[0]

        def ttt_objective(_):
            h, _ = forward_embeddings(bundle, graph, "target")
            return losses.ttt_loss(h, graph, weights,
                                   np.random.default_rng(sample_seed))

        for name, param in bundle.parameter_items():
            if name == "target_encoder.weight":
                reports["ttt"].append(dk.grad_check(ttt_objective, param, step, tol))
            else:
                reports["train"].append(dk.grad_check(train_objective, param, step, tol))
    if checked < num_points:
        raise NumericalError(f"gradient check: {_GRADCHECK_DRAWS * num_points} parameter "
                             f"draws left fewer than {num_points} points without a "
                             "relu-dead embedding row")

    train_report, ttt_report = (
        dk.GradCheckReport(max_rel_error=max((r.max_rel_error for r in found), default=0.0),
                           max_abs_error=max((r.max_abs_error for r in found), default=0.0),
                           tol=tol, passed=all(r.passed for r in found))
        for found in (reports["train"], reports["ttt"]))
    return FullModelGradCheck(train_report=train_report, ttt_report=ttt_report,
                              passed=train_report.passed and ttt_report.passed)
