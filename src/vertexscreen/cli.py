"""Command-line interface.

Subcommands: ``simulate`` (write a generator draw as CSV), ``screen``
(one-shot or iterative vertex screening of a dataset), ``classify``
(cross-validated screening + prediction), ``replicate`` (seeded experiment
replication with report CSVs).

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import classify, corr, evaluate, screen
from .graph import load_dataset, save_dataset


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def build_parser():
    parser = _Parser(prog="vertexscreen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file; explicit flags win")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("simulate", help="write a generator draw as graphs.csv/labels.csv")
    p.add_argument("experiment", choices=("exp1", "exp2"))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    add_common(p)

    def add_dataset(p):
        p.add_argument("--graphs", default=None)
        p.add_argument("--labels", default=None)
        p.add_argument("--n", type=int, default=None)

    def add_screening(p):
        p.add_argument("--stat", choices=corr.STATISTICS, default=None)
        p.add_argument("--iterative", action="store_true", default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--size", type=int, default=None)
        p.add_argument("--size-rule", choices=screen.SIZE_RULES, default=None)

    p = sub.add_parser("screen", help="score and select vertices")
    add_dataset(p)
    add_screening(p)
    add_common(p)

    p = sub.add_parser("classify", help="cross-validated screening + prediction")
    add_dataset(p)
    add_screening(p)
    p.add_argument("--classifier", choices=(*evaluate.CLASSIFIERS, "bayes"), default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--group", choices=("none", "subject"), default=None)
    p.add_argument("--experiment", choices=("exp1", "exp2"), default=None,
                   help="generator supplying the true parameters for --classifier bayes")
    add_common(p)

    p = sub.add_parser("replicate", help="replicate a simulation experiment")
    p.add_argument("experiment", choices=("exp1", "exp2"))
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--m-grid", default=None, help="comma-separated training sizes (exp2)")
    p.add_argument("--test-draws", type=int, default=None)
    p.add_argument("--methods", default=None, help="comma-separated method names")
    p.add_argument("--seed", type=int, default=None)
    add_common(p)

    return parser


def _parse_switch(text):
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a switch value: {text!r}")
    return text.lower() in ("1", "true", "yes")


def _config_keys(parser, command):
    """Config-file keys and their value parsers: the long flags of the
    ``command`` subcommand without their dashes, except --config and --help."""
    (subparsers,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    keys = {}
    for action in subparsers.choices[command]._actions:
        for flag in action.option_strings:
            key = flag[2:]
            if flag.startswith("--") and key not in ("config", "help"):
                # store_true flags take no value on the command line
                keys[key] = _parse_switch if action.nargs == 0 else action.type or str
    return keys


def _apply_config(args, parser):
    """Fill unset options from the --config key=value file."""
    if not getattr(args, "config", None):
        return args
    converters = _config_keys(parser, args.command)
    values = {}
    seen = {}
    with open(args.config) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{args.config}:{line_no}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in converters:
                raise CliError(
                    f"{args.config}:{line_no}: unknown option {key!r} for {args.command}"
                )
            if key in seen:
                raise CliError(
                    f"{args.config}:{line_no}: option {key!r} is already set on line {seen[key]}"
                )
            seen[key] = line_no
            try:
                values[key] = converters[key](raw.strip())
            except ValueError:
                raise CliError(f"{args.config}:{line_no}: bad value for {key!r}") from None
    for key, value in values.items():
        attr = key.replace("-", "_")
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    return args


def _default(value, fallback):
    return fallback if value is None else value


def _given(**values):
    """The options the user set; the library's defaults fill in the rest."""
    return {key: value for key, value in values.items() if value is not None}


def _refuse(args, flags, reason):
    """Reject the set options among ``flags`` (without dashes) that the
    command would otherwise ignore."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is not None:
            raise CliError(f"--{flag} {reason}")


def _require(value, name):
    if value is None:
        raise CliError(f"--{name} is required")
    return value


def _screening_options(args):
    """The screening flags the user set, as ScreeningConfig keywords; --size
    alone means the fixed rule. The config refuses a flag the run would ignore."""
    rule = "fixed" if args.size_rule is None and args.size is not None else args.size_rule
    return _given(statistic=args.stat, iterative=args.iterative, delta=args.delta,
                  threshold=args.threshold, size_rule=rule, size=args.size)


def _load(args):
    return load_dataset(
        _require(args.graphs, "graphs"), _require(args.labels, "labels"), n=args.n
    )


def _out_dir(args):
    out = _default(args.out, ".")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args):
    seed = _default(args.seed, 0)
    dataset, _ = evaluate.sample_experiment(args.experiment, _require(args.m, "m"), seed)
    out = _out_dir(args)
    graphs_path = os.path.join(out, "graphs.csv")
    labels_path = os.path.join(out, "labels.csv")
    save_dataset(dataset, graphs_path, labels_path)
    print(f"wrote {graphs_path} and {labels_path} "
          f"({dataset.m} graphs, {dataset.n} vertices, seed {seed})")
    return 0


def cmd_screen(args):
    config = screen.ScreeningConfig(**_screening_options(args))
    dataset = _load(args)
    _, [(result, selected)] = next(screen.run(dataset, [config], [np.arange(dataset.m)]))
    ranks = screen.rank_positions(result)
    chosen = np.isin(np.arange(dataset.n), selected)
    out = _out_dir(args)
    path = os.path.join(out, "screening.csv")
    evaluate.write_csv(
        path,
        ["vertex", "score", "rank", "elimination_level", "selected"],
        (
            (v, float(result.scores[v]), int(ranks[v]),
             None if np.isinf(level) else int(level), int(chosen[v]))
            for v, level in enumerate(result.elimination_order)
        ),
    )
    print(f"selected {selected.size} vertices: " + " ".join(str(v) for v in selected))
    print(f"wrote {path}")
    return 0


def cmd_classify(args):
    if args.classifier == "bayes":
        _refuse(args, ("stat", "iterative", "delta", "threshold", "size", "size-rule", "k",
                       "group"), "does not apply to --classifier bayes")
        if args.experiment is None:
            raise CliError("--classifier bayes needs --experiment for the true parameters")
    else:
        _refuse(args, ("experiment",), "applies to --classifier bayes only")
        pipeline = evaluate.PipelineConfig(
            **_screening_options(args), **_given(classifier=args.classifier, k=args.k)
        )
    dataset = _load(args)
    out = _out_dir(args)
    path = os.path.join(out, "loss.csv")

    if args.classifier == "bayes":
        params, priors, _ = evaluate.experiment_parameters(args.experiment)
        if params[0].shape[0] != dataset.n:
            raise CliError(
                f"dataset has {dataset.n} vertices but {args.experiment} expects {params[0].shape[0]}"
            )
        predictions = classify.bayes_predict_many(priors, params, dataset.graphs)
        loss = classify.loss_from_predictions(predictions, dataset.labels)
        rows = [[i, gid, dataset.labels[i], predictions[i], 0]
                for i, gid in enumerate(dataset.graph_ids)]
        summary = (f"classifier=bayes error={loss.error:.4f} se={loss.standard_error:.4f} "
                   f"({loss.count} instances)")
    else:
        report = evaluate.cross_validate(dataset, pipeline, **_given(grouping=args.group))
        rows = [
            [fold.fold, dataset.graph_ids[i], truth, pred, int(fold.unseen_class)]
            for fold in report.folds
            for i, truth, pred in zip(fold.test_indices, fold.truths, fold.predictions)
        ]
        summary = (f"classifier={pipeline.classifier} folds={len(report.folds)} "
                   f"error={report.loss.error:.4f} se={report.loss.standard_error:.4f}")
    evaluate.write_csv(path, ["fold", "graph_id", "label", "prediction", "unseen_class"], rows)
    print(summary)
    print(f"wrote {path}")
    return 0


def cmd_replicate(args):
    m_grid = None
    if args.m_grid is not None:
        try:
            m_grid = tuple(int(x) for x in args.m_grid.split(","))
        except ValueError:
            raise CliError("--m-grid expects comma-separated integers") from None
    methods = None if args.methods is None else tuple(args.methods.split(","))
    report = evaluate.run_experiment(
        args.experiment,
        repeats=_default(args.repeats, 50),
        **_given(seed=args.seed, m=args.m, m_grid=m_grid, methods=methods,
                 test_draws=args.test_draws),
    )
    out = _out_dir(args)
    written = evaluate.write_report(report, out)
    print(evaluate.summary_text(report))
    print(f"wrote {', '.join(written)} to {out}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "screen": cmd_screen,
    "classify": cmd_classify,
    "replicate": cmd_replicate,
}


def main(argv=None):
    try:
        parser = build_parser()
        args = _apply_config(parser.parse_args(argv), parser)
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # CliError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
