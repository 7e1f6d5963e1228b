"""Evaluation harnesses.

ROC/AUC of vertex rankings against a ground-truth signal set, false
positive rates at a fixed selection size, leave-one-out / leave-one-subject-
out pipelines, and seeded replication of the two simulation experiments
(two-class and three-class planted-block populations).
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import classify, corr, screen
from .graph import LabeledGraphDataset, sample_ier_dataset, vertex_set

# planted-block population: n vertices, the first SIGNAL_SIZE of which carry
# a class-dependent edge probability; everything else is class-independent
GRAPH_SIZE = 200
SIGNAL_SIZE = 20
BACKGROUND_P = 0.3
CROSS_P = 0.2
EXPERIMENT_CLASS_P = {
    "exp1": (0.3, 0.4),
    "exp2": (0.3, 0.4, 0.5),
}

DEFAULT_EXP1_M = 100
DEFAULT_EXP2_M_GRID = (60, 150, 300, 600)
DEFAULT_EXP2_TEST_DRAWS = 500
DEFAULT_K = 11
DEFAULT_EXP1_METHODS = ("dcorr", "itdcorr-0.5", "rv", "cca")
DEFAULT_EXP2_METHODS = ("bayes", "full", "true-signal", "dcorr", "itdcorr-0.5")
CLASSIFIERS = ("plugin", "knn")


@dataclass(frozen=True)
class RocCurve:
    """Prefix-sweep operating points; starts at (0, 0), ends at (1, 1)."""

    fpr: np.ndarray
    tpr: np.ndarray


@dataclass(frozen=True)
class PipelineConfig(screen.ScreeningConfig):
    """Screening + classifier configuration for cross-validated runs.

    ``fixed_vertices`` bypasses screening entirely, so every screening field
    must keep its default next to it; ``k`` is the knn neighbour count
    (``DEFAULT_K`` when unset), refused with any other classifier.
    """

    fixed_vertices: tuple | None = None
    classifier: str = "plugin"
    k: int | None = None

    def __post_init__(self):
        if self.fixed_vertices is not None:
            changed = [f.name for f in fields(screen.ScreeningConfig)
                       if getattr(self, f.name) != f.default]
            if changed:
                raise ValueError(f"fixed_vertices replace screening; drop {', '.join(changed)}")
        super().__post_init__()
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}; expected one of {CLASSIFIERS}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be at least 1")
        if self.classifier != "knn" and self.k is not None:
            raise ValueError("k applies to classifier knn only")


@dataclass(frozen=True)
class FoldRecord:
    fold: int
    test_indices: tuple
    selected: tuple
    predictions: tuple
    truths: tuple
    unseen_class: bool


@dataclass(frozen=True)
class CrossValReport:
    folds: tuple
    loss: classify.LossEstimate


@dataclass
class EvalReport:
    """Per-repeat records of one experiment replication.

    Record layouts: auc (method, repeat, auc); loss (method, m, repeat,
    error); fpr (method, m, repeat, fpr); roc (method, fpr, tpr) from the
    first repeat; screening (vertex, score, rank, selected) from the first
    method's first repeat.
    """

    methods: tuple
    auc_records: list = field(default_factory=list)
    loss_records: list = field(default_factory=list)
    fpr_records: list = field(default_factory=list)
    roc_points: list = field(default_factory=list)
    screening_rows: list = field(default_factory=list)


def roc_auc(ranking, true_set, n, keys=None):
    """ROC curve and area from a total vertex ranking.

    Sweeps prefixes of the ranking; TPR counts recovered signal vertices,
    FPR counts selected noise vertices. ``keys`` (a per-vertex array or a
    sequence of them, such as ``screen.ranking_keys``) marks ties: a run of
    ranking positions equal in every key is one threshold step, a single
    diagonal segment of the curve. The trapezoid area then equals the
    Mann-Whitney statistic, which counts a tied signal/noise pair as one
    half. Without ties the curve is the plain prefix sweep.
    """
    ranking = np.asarray(ranking, dtype=int)
    if ranking.shape != (n,) or not np.array_equal(np.sort(ranking), np.arange(n)):
        raise ValueError("ranking must be a permutation of range(n)")
    true = _signal_set(true_set, n)
    member = np.zeros(n, dtype=bool)
    member[true] = True
    hits = member[ranking]
    tp = np.concatenate(([0], np.cumsum(hits)))
    fp = np.concatenate(([0], np.cumsum(~hits)))
    if keys is not None:
        ordered = np.atleast_2d(np.asarray(keys, dtype=float))[:, ranking]
        tied = np.all(ordered[:, 1:] == ordered[:, :-1], axis=0)
        step = np.concatenate(([True], ~tied, [True]))
        tp, fp = tp[step], fp[step]
    curve = RocCurve(fpr=fp / (n - true.size), tpr=tp / true.size)
    # trapezoid rule on the integer counts, normalized once: exact at the
    # endpoints and identical to the Mann-Whitney statistic
    area = float(np.trapezoid(tp, fp))
    return curve, area / (true.size * (n - true.size))


def fpr_at_size(selected, true_set, n):
    """Fraction of non-signal vertices inside a selected set."""
    true = _signal_set(true_set, n)
    selected = np.asarray(selected, dtype=int)
    if selected.size == 0:
        return 0.0
    selected = vertex_set(selected, n)
    false_positives = np.setdiff1d(selected, true).size
    return false_positives / (n - true.size)


def _signal_set(true_set, n):
    true = vertex_set(true_set, n)
    if true.size >= n:
        raise ValueError("true signal set must be a proper subset of the vertices")
    return true


def _folds(dataset, grouping):
    if grouping == "none":
        return [np.array([i]) for i in range(dataset.m)]
    if grouping == "subject":
        if dataset.subject_ids is None:
            raise ValueError("grouping by subject needs subject ids")
        order = {}
        for i, subject in enumerate(dataset.subject_ids):
            order.setdefault(subject, []).append(i)
        return [np.asarray(v) for v in order.values()]
    raise ValueError(f"unknown grouping {grouping!r}")


def _neighbours(pipeline):
    return DEFAULT_K if pipeline.k is None else pipeline.k


def _fit(train, pipeline, selected):
    """The pipeline's classifier fitted on ``train`` restricted to the
    ``selected`` vertices, as a function that predicts each adjacency of a
    stack. The plug-in keeps its model alone, knn keeps ``train``."""
    if selected.size == 0:
        raise ValueError("screening selected no vertices; lower the threshold")
    if pipeline.classifier == "plugin":
        model = classify.fit_plugin(train, restrict=selected)
        return functools.partial(classify.plugin_predict_many, model)
    k = _neighbours(pipeline)
    return lambda graphs: np.asarray([classify.knn_predict(train, a, k, selected) for a in graphs])


def cross_validate(dataset, pipeline, grouping="none"):
    """Leave-one-graph-out or leave-one-subject-out screening + prediction.

    Screening and fitting see only the training remainder of each fold, so
    held-out labels can never leak into vertex selection. The folds are
    screened by one ``screen.run`` call, and each is fitted and predicted
    on the training subset it screened. Folds whose true class is
    absent from training are flagged; their predictions count as errors by
    construction. A knn k above the smallest training remainder is refused
    before the first fold is screened.
    """
    folds = _folds(dataset, grouping)
    # folds are disjoint: the largest leaves the smallest training remainder
    smallest = dataset.m - max(test_idx.size for test_idx in folds)
    if pipeline.classifier == "knn" and _neighbours(pipeline) > smallest:
        raise ValueError(f"k must lie in [1, {smallest}]")
    train_indices = [np.setdiff1d(np.arange(dataset.m), test_idx) for test_idx in folds]
    if pipeline.fixed_vertices is None:
        screened = screen.run(dataset, (pipeline,), train_indices)
    else:
        selected = vertex_set(pipeline.fixed_vertices, dataset.n)
        screened = ((dataset.subset(rows), [(None, selected)]) for rows in train_indices)
    records = []
    all_predictions = []
    all_truths = []
    for fold_id, test_idx in enumerate(folds):
        # drawn here, not through zip or enumerate, whose reused result tuple
        # would hold the last fold's training stack while this one is built
        train, [(_, selected)] = next(screened)
        predictions = _fit(train, pipeline, selected)(dataset.graphs[test_idx]).tolist()
        train_classes = set(np.unique(train.labels).tolist())
        unseen = any(
            dataset.labels[i].item() not in train_classes for i in test_idx
        )
        truths = [dataset.labels[i].item() for i in test_idx]
        records.append(
            FoldRecord(
                fold=fold_id,
                test_indices=tuple(int(i) for i in test_idx),
                selected=tuple(int(v) for v in selected),
                predictions=tuple(predictions),
                truths=tuple(truths),
                unseen_class=unseen,
            )
        )
        all_predictions.extend(predictions)
        all_truths.extend(truths)
        del train  # free this fold's training stack before the next fold's is built
    loss = classify.loss_from_predictions(all_predictions, np.asarray(all_truths))
    return CrossValReport(folds=tuple(records), loss=loss)


def experiment_parameters(name):
    """Per-class edge-probability matrices, class priors, and the signal set."""
    if name not in EXPERIMENT_CLASS_P:
        raise ValueError(f"unknown experiment {name!r}; expected one of {tuple(EXPERIMENT_CLASS_P)}")
    mats = []
    for p_signal in EXPERIMENT_CLASS_P[name]:
        p = np.full((GRAPH_SIZE, GRAPH_SIZE), BACKGROUND_P)
        p[:SIGNAL_SIZE, :] = CROSS_P
        p[:, :SIGNAL_SIZE] = CROSS_P
        p[:SIGNAL_SIZE, :SIGNAL_SIZE] = p_signal
        np.fill_diagonal(p, 0.0)
        mats.append(p)
    priors = np.full(len(mats), 1.0 / len(mats))
    return mats, priors, np.arange(SIGNAL_SIZE)


def sample_experiment(name, m, rng):
    """One dataset draw from a named generator plus its true signal set."""
    mats, priors, signal = experiment_parameters(name)
    return sample_ier_dataset(mats, priors, m, rng), signal


def parse_method(name):
    """Screening method names: a statistic for one-shot, it<stat>-<delta>
    for iterative (e.g. itdcorr-0.5)."""
    statistic, iterative, delta = name, False, None
    if name.startswith("it"):
        statistic, _, tail = name[2:].partition("-")
        iterative = True
        try:
            delta = float(tail) if tail else screen.DEFAULT_DELTA
        except ValueError:
            raise ValueError(f"screening method {name!r} has a malformed delta {tail!r}") from None
    if statistic not in corr.STATISTICS:
        raise ValueError(f"unknown screening method {name!r}")
    return statistic, iterative, delta


def _repeat_seed(base, index):
    # one stream per (base, index) pair: distinct base seeds never share draws
    return np.random.SeedSequence([int(base), int(index)])


def _method_pipeline(name, method, signal):
    """The pipeline a named method runs: for exp2's ``bayes`` (the true-parameter
    Bayes rule) None, for ``full``/``true-signal`` the plug-in on all vertices or
    the planted ``signal``; otherwise screening at threshold 0 (one-shot) or its
    delta (iterative) down to the planted size, then the plug-in there."""
    if name == "exp2" and method == "bayes":
        return None
    if name == "exp2" and method in ("full", "true-signal"):
        vertices = range(GRAPH_SIZE) if method == "full" else signal.tolist()
        return PipelineConfig(fixed_vertices=tuple(vertices))
    statistic, iterative, delta = parse_method(method)
    return PipelineConfig(statistic=statistic, iterative=iterative, delta=delta,
                          size_rule="fixed", size=SIGNAL_SIZE)


def run_experiment(name, repeats, seed=0, m=None, m_grid=None, methods=None, test_draws=None):
    """Replicate a simulation experiment over seeded repeats.

    exp1 scores vertex rankings (AUC against the planted signal set) for
    each screening method at a single m. exp2 trains the classifiers at
    each m in the grid, records Monte-Carlo 0-1 losses on fresh test draws,
    and the screening false positive rate at the planted size. exp2 trains
    at ``m`` or at each m of ``m_grid`` (default 60, 150, 300 and 600) and
    tests on ``test_draws`` graphs (default 500); exp1 refuses ``m_grid``
    and ``test_draws``. The repeat with index i draws (for exp2 the training
    graphs, then the test graphs) from one generator seeded with
    ``numpy.random.SeedSequence([seed, i])`` (i counts repeats across the
    whole m grid), so reports are reproducible and no two base seeds share
    a draw. exp2 fits every method before it draws the test graphs, so it
    holds one graph stack at a time. Every setting, the whole m grid and
    every method name included, is checked before the first draw.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if m_grid is not None:
        if m is not None:
            raise ValueError("m and m_grid exclude each other")
        if len(m_grid) == 0:
            raise ValueError("m_grid must hold at least one m")
    m_key = "m_grid" if m is None else "m"
    if name == "exp1":
        for key, value in (("m_grid", m_grid), ("test_draws", test_draws)):
            if value is not None:
                raise ValueError(f"{key} applies to exp2 only")
        methods = DEFAULT_EXP1_METHODS if methods is None else tuple(methods)
        m_grid = (DEFAULT_EXP1_M if m is None else m,)
    elif name == "exp2":
        methods = DEFAULT_EXP2_METHODS if methods is None else tuple(methods)
        if m_grid is None:
            m_grid = DEFAULT_EXP2_M_GRID if m is None else (m,)
        test_draws = DEFAULT_EXP2_TEST_DRAWS if test_draws is None else test_draws
        if test_draws < 2:
            raise ValueError(f"test_draws needs at least 2 graphs, not {test_draws}")
    else:
        raise ValueError(f"unknown experiment {name!r}")
    if not methods:
        raise ValueError("methods must name at least one method")
    for what, values in (("method", methods), ("m", m_grid)):
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if repeated:
            raise ValueError(f"{what} {repeated[0]!r} is named more than once")
    params, priors, signal = experiment_parameters(name)
    for m_value in m_grid:
        if m_value < len(priors):
            raise ValueError(f"m too small to cover every class: {m_key} needs at least "
                             f"{len(priors)} graphs, not {m_value}")
    pipelines = {method: _method_pipeline(name, method, signal) for method in methods}
    bayes = functools.partial(classify.bayes_predict_many, priors, params)
    screened = [method for method, pipeline in pipelines.items()
                if pipeline is not None and pipeline.fixed_vertices is None]
    report = EvalReport(methods)
    for m_index, m_value in enumerate(m_grid):
        for repeat in range(repeats):
            rng = np.random.default_rng(_repeat_seed(seed, m_index * repeats + repeat))
            train, _ = sample_experiment(name, m_value, rng)
            # one batch per draw: each statistic scores every vertex once
            runs = next(screen.run(train, [pipelines[method] for method in screened],
                                   [np.arange(m_value)]))[1]
            screenings = dict(zip(screened, runs))
            if name == "exp1":
                for method, (result, selected) in screenings.items():
                    _record_ranking(report, method, repeat, result, selected, signal)
                continue
            predictors = {}
            for method, pipeline in pipelines.items():
                if method in screenings:
                    selected = screenings[method][1]
                    fpr = fpr_at_size(selected, signal, train.n)
                    report.fpr_records.append((method, m_value, repeat, fpr))
                elif pipeline is not None:
                    selected = vertex_set(pipeline.fixed_vertices, train.n)
                predictors[method] = bayes if pipeline is None else _fit(train, pipeline, selected)
            # every model is fitted: free the training stack before the test draw
            del train
            test, _ = sample_experiment(name, test_draws, rng)
            for method, predict in predictors.items():
                error = classify.loss_from_predictions(predict(test.graphs), test.labels).error
                report.loss_records.append((method, m_value, repeat, error))
            del test  # and the test stack before the next training draw
    return report


def _record_ranking(report, method, repeat, result, selected, signal):
    """exp1: the AUC of a screening run's vertex ranking; the first repeat
    also keeps its ROC curve, and the first method's screening table."""
    n = result.scores.size
    ranking, keys = screen.vertex_ranking(result), screen.ranking_keys(result)
    curve, auc = roc_auc(ranking, signal, n, keys=keys)
    report.auc_records.append((method, repeat, auc))
    if repeat == 0:
        report.roc_points.extend((method, float(f), float(t)) for f, t in zip(curve.fpr, curve.tpr))
    if repeat == 0 and method == report.methods[0]:
        ranks = screen.rank_positions(result)
        chosen = np.isin(np.arange(n), selected)
        report.screening_rows.extend(
            (v, float(result.scores[v]), int(ranks[v]), int(chosen[v])) for v in range(n)
        )


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else None
    return mean, se


def summarize(methods, records):
    """Mean and standard error per method, and per m when records carry one.

    ``records`` are (method, repeat, value) or (method, m, repeat, value);
    rows are (method, mean, se) or (method, m, mean, se), in method order
    then ascending m.
    """
    rows = []
    groups = sorted({r[1:-2] for r in records})
    for method in methods:
        for group in groups:
            values = [r[-1] for r in records if r[0] == method and r[1:-2] == group]
            if values:
                rows.append((method, *group, *_mean_se(values)))
    return rows


def write_csv(path, header, rows):
    """One header row, then the rows; floats (numpy's included) as the
    Python float repr, None as empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(x) for x in row])


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return value


def write_report(report, out_dir):
    """Write the report CSVs (auc.csv, loss.csv, roc.csv, screening.csv,
    fpr.csv, summary.csv) for whatever records the experiment produced."""
    os.makedirs(out_dir, exist_ok=True)
    tables = [
        ("auc.csv", ["method", "repeat", "auc"], report.auc_records),
        ("summary.csv", ["method", "mean_auc", "se"],
         summarize(report.methods, report.auc_records)),
        ("loss.csv", ["method", "m", "repeat", "error"], report.loss_records),
        ("summary.csv", ["method", "m", "mean_error", "se"],
         summarize(report.methods, report.loss_records)),
        ("fpr.csv", ["method", "m", "repeat", "fpr"], report.fpr_records),
        ("roc.csv", ["method", "fpr", "tpr"], report.roc_points),
        ("screening.csv", ["vertex", "score", "rank", "selected"], report.screening_rows),
    ]
    written = []
    for name, header, rows in tables:
        if rows:
            write_csv(os.path.join(out_dir, name), header, rows)
            written.append(name)
    return written


def summary_text(report):
    """Aligned text summary, one row per method (and per m for exp2); a blank
    line separates the record kinds."""
    blocks = []
    for title, records in (("mean AUC", report.auc_records), ("mean error", report.loss_records),
                           ("mean FPR", report.fpr_records)):
        rows = summarize(report.methods, records)
        if rows:
            m_column = f"{'m':>6}" if len(rows[0]) == 4 else ""
            lines = [f"{'method':<16}{m_column}{title:>12}{'se':>12}"]
            for method, *group, mean, se in rows:
                m_cell = "".join(f"{m:>6}" for m in group)
                lines.append(f"{method:<16}{m_cell}{mean:>12.4f}{_fmt_se(se):>12}")
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _fmt_se(se):
    return "-" if se is None else f"{se:.4f}"
