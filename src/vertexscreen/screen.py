"""One-shot and iterative vertex screening.

Each vertex is scored by the dependence between its adjacency-row feature
(within the current induced subgraph) and the labels. One-shot screening
thresholds the scores once; iterative screening repeatedly keeps the top
(1 - delta) share of the current vertices and keeps the level whose
whole-subgraph statistic with the labels is largest; dcorr takes a level's
scores and that statistic from one build of its distances. ``run`` builds
the first level, every vertex's scores, once per fold and statistic.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import corr
from .graph import _graph_positions, induced_subgraph, upper_pairs, vertex_set

# elimination_order entry for vertices that were never eliminated
SURVIVOR = np.inf

SIZE_RULES = ("maxcorr", "gap", "fixed")

DEFAULT_DELTA = 0.5
DEFAULT_THRESHOLD = 0.0


@dataclass(frozen=True)
class ScreeningResult:
    """Outcome of a screening run over the full vertex set.

    ``scores`` holds the last-computed statistic per vertex (at elimination
    time for dropped vertices). ``levels`` pairs each nested vertex set with
    its whole-subgraph correlation; one-shot results carry a single level
    with NaN correlation since no level comparison happens.
    """

    scores: np.ndarray
    elimination_order: np.ndarray
    levels: tuple
    selected: np.ndarray


def _check_delta(delta):
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class ScreeningConfig:
    """How ``run`` screens a dataset and sizes the selection.

    Iterative screening drops a ``delta`` share of each level (default 0.5);
    one-shot keeps scores above ``threshold`` (default 0). ``size_rule`` is
    one of maxcorr (the screening's own selection), gap, or fixed (top
    ``size`` of the vertex ranking). Names and ranges are checked here,
    before any screening runs, and so is every setting the run would
    ignore: a delta with one-shot screening, a threshold with iterative
    screening or a rule other than maxcorr, a size with a rule other than
    fixed. The fields keep what the caller set, so ``dataclasses.replace``
    works across modes; ``run`` reads the default of an unset delta or
    threshold.
    """

    statistic: str = "dcorr"
    iterative: bool = False
    delta: float | None = None
    threshold: float | None = None
    size_rule: str = "maxcorr"
    size: int | None = None

    def __post_init__(self):
        corr.check_statistic(self.statistic)
        if self.size_rule not in SIZE_RULES:
            raise ValueError(f"unknown size rule {self.size_rule!r}; expected one of {SIZE_RULES}")
        if self.delta is not None:
            _check_delta(self.delta)
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.size_rule == "fixed" and (self.size is None or self.size < 1):
            raise ValueError("size rule fixed needs a size of at least 1")
        if self.size_rule != "fixed" and self.size is not None:
            raise ValueError(f"a size applies to size rule fixed only, not {self.size_rule}")
        if self.iterative:
            if self.threshold is not None:
                raise ValueError("threshold applies to one-shot screening only")
        else:
            if self.delta is not None:
                raise ValueError("delta applies to iterative screening only")
            if self.threshold is not None and self.size_rule != "maxcorr":
                raise ValueError(
                    f"threshold applies to size rule maxcorr only, not {self.size_rule}"
                )


def _row_features(dataset, restrict):
    """The (k, m, k) features of ``score_vertices``: the (n, m, n) view of
    the stack for every vertex, or of the induced subgraph's one copy for a
    subset, which ``induced_subgraph`` fills one chunk of graphs at a time."""
    graphs = dataset.graphs
    if restrict is not None:
        graphs = induced_subgraph(graphs, restrict)
    return graphs.transpose(1, 0, 2)


def score_vertices(dataset, restrict=None, statistic="dcorr"):
    """Per-vertex statistic between adjacency-row features and the labels.

    Features are rows of the induced subgraph on ``restrict`` (the full
    vertex set when omitted); scores align with the sorted restrict indices.
    """
    return corr.feature_label_correlation(_row_features(dataset, restrict), dataset.labels,
                                          statistic)


def subgraph_correlation(dataset, vertices, statistic="dcorr"):
    """Statistic between flattened upper-triangle adjacencies and the labels.

    This is the whole-subgraph signal used to pick the best iterative level.
    """
    features = upper_pairs(dataset.graphs, vertex_set(vertices, dataset.n))
    if features.shape[1] == 0:
        return 0.0
    return corr.feature_label_correlation(features, dataset.labels, statistic)


class _LevelRows:
    """A level's ``_row_features``, each slice of blocks gathered from the
    stack as ``corr._label_dcorr_level`` reads it; its max is the stack's."""

    def __init__(self, graphs, vertices, top):
        self.graphs, self.vertices, self.max, self.dtype = graphs, vertices, top, graphs.dtype
        self.shape = (vertices.size, graphs.shape[0], vertices.size)

    def __getitem__(self, chunk):
        return self.graphs[:, self.vertices[chunk]].take(self.vertices, axis=2).transpose(1, 0, 2)


def _score_level(dataset, vertices, statistic, top):
    """A level's per-vertex scores, aligned with the sorted ``vertices``,
    and its whole-subgraph correlation. dcorr takes both from one build of
    the level's distances; the other statistics score and correlate apart."""
    if statistic != "dcorr":
        return (score_vertices(dataset, vertices, statistic),
                subgraph_correlation(dataset, vertices, statistic))
    level = corr._label_dcorr_level(_LevelRows(dataset.graphs, vertices, top), dataset.labels)
    return level[:-1], float(level[-1])


def _one_shot(scores, threshold):
    """One-shot result of every vertex's scores; those above ``threshold`` are selected."""
    return ScreeningResult(
        scores=scores,
        elimination_order=np.full(scores.size, SURVIVOR),
        levels=((np.arange(scores.size), float("nan")),),
        selected=np.flatnonzero(scores > threshold),
    )


def screen_iterative(dataset, delta, statistic="dcorr", *, first_level=None):
    """Iterative screening on shrinking induced subgraphs.

    A level of k vertices keeps its top min(ceil((1-delta) * k), k - 1)
    scorers, ties toward the smaller vertex index, so levels are strictly
    nested. The selected set is the level with the largest whole-subgraph
    correlation (ties go to the larger subgraph); the last level, of one
    vertex, has correlation 0. ``first_level``, when given, is the first
    level's every-vertex scores and whole-subgraph correlation.
    """
    _check_delta(delta)
    n = dataset.n
    current = np.arange(n)
    top = functools.cache(dataset.graphs.max)  # the stack's max, read once by dcorr levels
    first_level = _score_level(dataset, current, statistic, top) if first_level is None else first_level
    level_scores, level_corr = first_level
    if np.shape(level_scores) != (n,):
        raise ValueError(f"scores must hold one value per vertex, {n} in all")
    # this result's own copy: each later level overwrites its vertices' scores
    scores = np.array(level_scores, dtype=float)
    elimination = np.full(n, SURVIVOR)
    levels = []
    while current.size > 1:
        if levels:
            level_scores, level_corr = _score_level(dataset, current, statistic, top)
            scores[current] = level_scores
        levels.append((current, level_corr))
        target = min(int(np.ceil((1.0 - delta) * current.size)), current.size - 1)
        order = np.lexsort((current, -level_scores))
        elimination[current[order[target:]]] = len(levels)
        current = np.sort(current[order[:target]])
    levels.append((current, 0.0))
    best = int(np.argmax([level_corr for _, level_corr in levels]))
    return ScreeningResult(
        scores=scores,
        elimination_order=elimination,
        levels=tuple(levels),
        selected=levels[best][0],
    )


def ranking_keys(result):
    """The sort keys of ``vertex_ranking``, primary key last (lexsort order).

    Vertices equal in every key are tied; the ranking breaks such ties by
    index only because fixed-size selection needs a total order. A one-shot
    result's elimination order is all ``SURVIVOR``, so it ranks by score.
    """
    return (-result.scores, -result.elimination_order)


def vertex_ranking(result):
    """Total vertex order, best first.

    One-shot: by score, ties by index. Iterative: by elimination depth
    (survivors first), then by the score at elimination time, then index.
    """
    idx = np.arange(result.scores.shape[0])
    return np.lexsort((idx, *ranking_keys(result)))


def rank_positions(result):
    """1-based position of every vertex in ``vertex_ranking``."""
    ranking = vertex_ranking(result)
    positions = np.empty_like(ranking)
    positions[ranking] = np.arange(1, ranking.size + 1)
    return positions


def select_vertices(result, rule="maxcorr", size=None):
    """Apply a size-selection rule to a screening result.

    Every rule returns a prefix of ``vertex_ranking`` (sorted by index):
    ``maxcorr`` the screening's own selection, ``gap`` the ranking cut at
    its largest consecutive score drop, ``fixed`` the top ``size``.
    Iterative scores come from different subgraphs, so the gap rule cuts
    the ranking rather than re-sorting the raw scores.
    """
    if rule == "maxcorr":
        return result.selected
    ranking = vertex_ranking(result)
    if rule == "gap":
        if ranking.size < 2:
            raise ValueError("need at least 2 scores")
        ordered = result.scores[ranking]
        gaps = ordered[:-1] - ordered[1:]
        if not np.any(gaps > 0):
            warnings.warn("scores never drop; gap selection keeps every vertex")
            return np.sort(ranking)
        # argmax takes the first maximum: equal drops resolve to the earliest cut
        return np.sort(ranking[: int(np.argmax(gaps)) + 1])
    if rule == "fixed":
        if size is None or not 1 <= size <= ranking.size:
            raise ValueError("fixed-size selection needs a size in [1, n]")
        return np.sort(ranking[:size])
    raise ValueError(f"unknown size rule {rule!r}")


def run(dataset, configs, train_indices):
    """Screen each training fold of ``dataset`` as each config says.

    Returns an iterator, in the order of ``train_indices``, of one ``(train,
    pairs)`` per row-index array: ``train`` is ``dataset.subset(rows)``,
    the dataset itself for the whole-dataset fold ``np.arange(dataset.m)``,
    and ``pairs`` holds one ``(result, selected)`` per config, in order,
    with its size rule applied. A fold is subset and screened only when it
    is drawn.

    Each fold scores every vertex once per statistic, and the configs of
    that statistic share those read-only scores. For dcorr, every fold's
    scores and whole-subgraph correlation are slices of one build of the
    dataset's distance matrices made by this call: a distance depends on
    its two graphs alone, so no held-out graph or label enters a fold's
    first level. rv standardises its features over the fold's own graphs,
    and cca runs per sample, so they score each fold's subset. A
    fixed size above the vertex count, a row index outside the dataset or
    not an integer, or a fold of fewer than 2 graphs is refused by this
    call, before any scoring.
    """
    configs = tuple(configs)
    for config in configs:
        if config.size_rule == "fixed" and config.size > dataset.n:
            raise ValueError(f"size {config.size} exceeds the {dataset.n} vertices of the dataset")
    train_indices = [_graph_positions(rows, dataset.m) for rows in train_indices]
    if any(rows.size < 2 for rows in train_indices):
        raise ValueError("every fold needs at least 2 training graphs")
    dcorr_levels = [None] * len(train_indices)
    if train_indices and any(config.statistic == "dcorr" for config in configs):
        levels = corr._label_dcorr_level(_row_features(dataset, None), dataset.labels,
                                         train_indices)
        levels.setflags(write=False)
        dcorr_levels = [(level[:-1], float(level[-1])) for level in levels]

    def screen_fold(rows, dcorr_level):
        train = dataset.subset(rows)
        # a first level is every vertex's scores and, once an iterative
        # config reads it, their whole-subgraph correlation
        first_levels = {} if dcorr_level is None else {"dcorr": dcorr_level}
        pairs = []
        for config in configs:
            statistic = config.statistic
            if statistic not in first_levels:
                every_vertex = score_vertices(train, None, statistic)
                every_vertex.setflags(write=False)
                first_levels[statistic] = (every_vertex, None)
            scores, first_corr = first_levels[statistic]
            if config.iterative:
                if first_corr is None:
                    first_corr = subgraph_correlation(train, np.arange(train.n), statistic)
                    first_levels[statistic] = (scores, first_corr)
                delta = DEFAULT_DELTA if config.delta is None else config.delta
                result = screen_iterative(train, delta, statistic, first_level=(scores, first_corr))
            else:
                threshold = DEFAULT_THRESHOLD if config.threshold is None else config.threshold
                result = _one_shot(scores, threshold)
            pairs.append((result, select_vertices(result, config.size_rule, config.size)))
        return train, pairs

    # map keeps no fold's subset: only the returned pair holds it
    return map(screen_fold, train_indices, dcorr_levels)
