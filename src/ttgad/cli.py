"""Command-line front end.

Subcommands: gen, train, adapt, eval, exp-margin, exp-homophily, gradcheck.
Runs are driven by a JSON config file (flat run settings plus the paths
source_graph / target_graph / output_dir); command-line flags override the
file. Exit codes: 0 success, 1 usage, config or other package error,
2 data error (including mismatched shapes) or OS error, 3 numerical failure.
"""

import argparse
import json
import os
import sys

from . import evaluation, experiments
from .errors import ConfigError, DataError, NumericalError, ShapeError, TtgadError
from .graphstore import SyntheticSpec, compute_stats, generate_synthetic, \
    load_graph, save_graph
from .pipeline import (TTT_INITS, RunConfig, adapt_target, full_model_grad_check,
                       load_checkpoint, save_checkpoint, train_source)

PATH_KEYS = ("source_graph", "target_graph", "output_dir")

# architecture must come from the checkpoint, not be overridden at adapt time
STRUCTURAL_KEYS = ("p", "hidden_dim", "attn_dim", "num_layers",
                   "nsaw_enabled", "identity_encoder")

# process exit code per error kind; the first matching entry wins
EXIT_CODES = ((ConfigError, 1), ((DataError, ShapeError, OSError), 2),
              (NumericalError, 3), (TtgadError, 1))


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no prefixes: `exp-margin --seed` is not `--seeds`
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except (ValueError, RecursionError) as e:  # not JSON, not UTF-8 text, or nested too deep
        raise ConfigError(f"config file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _pop_paths(data):
    """Take the path keys out of a config dict; each must be a non-empty string."""
    paths = {key: data.pop(key) for key in PATH_KEYS if key in data}
    for key, value in paths.items():
        if not isinstance(value, str) or not value:
            raise ConfigError(f"config key {key!r} must be a non-empty path string, "
                              f"got {value!r}")
    return paths


def _load_run_config(args, overrides=None, base=None):
    """Merge config file, checkpoint base, and flag overrides; validate."""
    data = _read_config_file(args.config) if args.config else {}
    paths = _pop_paths(data)
    if base is not None:
        stored = base.to_dict()
        for key in STRUCTURAL_KEYS:
            if key in data and data[key] != stored[key]:
                raise ConfigError(
                    f"config key {key!r} conflicts with the checkpoint "
                    f"({data[key]!r} vs {stored[key]!r})")
        stored.update(data)
        data = stored
    if args.seed is not None:
        data["seed"] = args.seed
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    return RunConfig.from_dict(data).validate(), paths


def _out_dir(args, paths):
    out = args.out or paths.get("output_dir")
    if not out:
        raise ConfigError("an output directory is required (--out or output_dir)")
    return out


def _json_text(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(data))


def _emit_report(report, args, filename):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, filename)
        _write_json(path, report)
        _say(args, f"wrote {path}")
    else:
        sys.stdout.write(_json_text(report))


def _say(args, message):
    if not args.quiet:
        print(message)


# ---------------------------------------------------------------------------
# Handlers


def _cmd_gen(args):
    if args.out is None:
        raise ConfigError("gen requires --out")
    if args.mean_degree <= 0:
        raise ConfigError("--mean-degree must be positive")
    spec = SyntheticSpec(num_nodes=args.nodes, feature_dim=args.dim,
                         anomaly_rate=args.rate, target_homophily=args.homophily,
                         mean_degree=args.mean_degree, noise_scale=args.noise,
                         seed=args.seed if args.seed is not None else 0,
                         name=args.name)
    try:
        graph = generate_synthetic(spec)
    except DataError as e:  # every spec value comes from a flag
        raise ConfigError(f"gen: {e}") from e
    save_graph(graph, args.out)
    if not args.quiet:
        sys.stdout.write(_json_text(compute_stats(graph).to_dict()))
    return 0


def _cmd_train(args):
    config, paths = _load_run_config(args)
    if "source_graph" not in paths:
        raise ConfigError("config must set source_graph")
    out = _out_dir(args, paths)
    graph = load_graph(paths["source_graph"])
    bundle, centroids, log = train_source(graph, config)

    os.makedirs(out, exist_ok=True)
    ckpt = os.path.join(out, "checkpoint.bin")
    save_checkpoint(bundle, centroids, config, ckpt)
    _write_json(os.path.join(out, "train_log.json"), {"epochs": log})
    final = log[-1]
    _say(args, f"trained {len(log)} epochs; auroc {final['auroc']:.4f}; "
               f"checkpoint {ckpt}")
    return 0


def _cmd_adapt(args):
    loaded = load_checkpoint(args.checkpoint)
    overrides = {"ttt_max_epochs": args.ttt_max_epochs, "ttt_init": args.ttt_init}
    config, paths = _load_run_config(args, overrides=overrides,
                                     base=loaded.config)
    graph_path = args.graph or paths.get("target_graph")
    if not graph_path:
        raise ConfigError("a target graph is required (--graph or target_graph)")
    out = _out_dir(args, paths)
    if loaded.centroids is None:
        raise DataError("checkpoint has no centroids; train a source model first")
    graph = load_graph(graph_path)
    if graph.labels is not None and not args.eval_labels:
        graph = graph.without_labels()

    adapted, trace = adapt_target(loaded.bundle, loaded.centroids, graph, config)

    os.makedirs(out, exist_ok=True)
    ckpt = os.path.join(out, "adapted.bin")
    save_checkpoint(adapted, loaded.centroids, config, ckpt)
    _write_json(os.path.join(out, "adapt_trace.json"), trace.to_dict())
    _say(args, f"adapted for {len(trace.epochs)} epochs "
               f"(kept epoch {trace.chosen_epoch}, {trace.stop_reason}); "
               f"checkpoint {ckpt}")
    return 0


def _cmd_eval(args):
    expect_nsaw = None if args.attention is None else args.attention == "nsaw"
    loaded = load_checkpoint(args.checkpoint, expect_nsaw=expect_nsaw)
    paths = _pop_paths(_read_config_file(args.config)) if args.config else {}
    graph_path = args.graph or paths.get("target_graph")
    if not graph_path:
        raise ConfigError("a graph is required (--graph or target_graph)")
    graph = load_graph(graph_path)
    if graph.labels is None:
        raise DataError("labels required for eval")
    mode = args.mode or loaded.config.scoring_mode
    ranking = evaluation.score_nodes(loaded.bundle, graph, mode=mode)
    metrics = evaluation.metric_result(ranking.scores, graph.labels)
    report = metrics.to_dict()
    report["scoring_mode"] = mode
    if args.dump_ranking:
        with open(args.dump_ranking, "w", encoding="utf-8") as fh:
            for node in ranking.order:
                fh.write(f"{node}\t{float(ranking.scores[node])!r}\n")
    _emit_report(report, args, "metrics.json")
    return 0


def _cmd_exp_margin(args):
    report = experiments.margin_experiment(seeds=args.seeds, lr=args.lr,
                                           homophily=args.homophily,
                                           num_nodes=args.nodes,
                                           steps=args.steps)
    _emit_report(report, args, "margin_report.json")
    return 0


def _cmd_exp_homophily(args):
    if (args.checkpoint is None) == (not args.auto_train):
        raise ConfigError("exp-homophily needs exactly one of --checkpoint "
                          "or --auto-train")
    try:
        levels = [float(part) for part in args.levels.split(",") if part.strip()]
    except ValueError as e:
        raise ConfigError(f"invalid --levels: {e}") from e
    bundle = centroids = None
    if args.checkpoint is not None:
        loaded = load_checkpoint(args.checkpoint)
        if loaded.centroids is None:
            raise DataError("checkpoint has no centroids; train a source model first")
        bundle, centroids = loaded.bundle, loaded.centroids
    report = experiments.homophily_sweep(levels=levels, seeds=args.seeds,
                                         bundle=bundle, centroids=centroids)
    _emit_report(report, args, "homophily_report.json")
    return 0


def _cmd_gradcheck(args):
    result = full_model_grad_check(seed=args.seed if args.seed is not None else 0)
    print(f"train loss max relative error: {result.train_report.max_rel_error:.3e}")
    print(f"ttt loss max relative error: {result.ttt_report.max_rel_error:.3e}")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 3


# ---------------------------------------------------------------------------
# Parser assembly


def _seed(text):
    """A --seed value: numpy takes only non-negative integer seeds."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser():
    # each subcommand takes only the shared flags its handler reads
    io = _Parser(add_help=False)
    io.add_argument("--out", help="output directory")
    io.add_argument("--quiet", action="store_true", help="suppress status lines")
    config = _Parser(add_help=False)
    config.add_argument("--config", help="JSON config file")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=_seed, help="override the run seed")

    parser = _Parser(prog="ttgad",
                     description="cross-domain graph anomaly detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[io, seed],
                       help="generate a synthetic labeled graph")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--dim", type=int, default=32, help="feature dimension")
    p.add_argument("--rate", type=float, default=0.05, help="anomaly rate")
    p.add_argument("--homophily", type=float, default=0.9,
                   help="target fraction of same-label edges")
    p.add_argument("--mean-degree", type=float, default=10.0)
    p.add_argument("--noise", type=float, default=0.5,
                   help="feature noise scale")
    p.add_argument("--name", default="synthetic")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("train", parents=[io, config, seed],
                       help="train on the configured source graph")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("adapt", parents=[io, config, seed],
                       help="adapt a trained model to a target graph")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", help="target graph directory")
    p.add_argument("--ttt-max-epochs", type=int, default=None)
    p.add_argument("--ttt-init", choices=TTT_INITS, default=None)
    p.add_argument("--eval-labels", action="store_true",
                   help="use target labels to record per-epoch margins")
    p.set_defaults(handler=_cmd_adapt)

    p = sub.add_parser("eval", parents=[io, config],
                       help="score a labeled graph with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", help="graph directory")
    p.add_argument("--mode", choices=evaluation.SCORING_MODES, default=None)
    p.add_argument("--attention", choices=("nsaw", "plain"), default=None,
                   help="require the checkpoint to use this aggregation")
    p.add_argument("--dump-ranking", metavar="PATH",
                   help="write the ranked node list as TSV")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("exp-margin", parents=[io],
                       help="margin-increase experiment on synthetic pairs")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--homophily", type=float, default=0.9)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--nodes", type=int, default=300)
    p.set_defaults(handler=_cmd_exp_margin)

    p = sub.add_parser("exp-homophily", parents=[io],
                       help="ranking quality under decreasing target homophily")
    p.add_argument("--levels", default=",".join(map(str, experiments.DEFAULT_LEVELS)))
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--checkpoint", help="reuse one trained source model")
    p.add_argument("--auto-train", action="store_true",
                   help="train a fresh source model per seed")
    p.set_defaults(handler=_cmd_exp_homophily)

    p = sub.add_parser("gradcheck", parents=[seed],
                       help="finite-difference check of the full model")
    p.set_defaults(handler=_cmd_gradcheck)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except (TtgadError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(e, kinds))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
