"""One-shot and iterative vertex screening.

Each vertex is scored by the dependence between its adjacency-row feature
(within the current induced subgraph) and the labels. One-shot screening
thresholds the scores once; iterative screening repeatedly drops the
delta-quantile tail and keeps the level whose whole-subgraph statistic with
the labels is largest.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import corr
from .graph import induced_subgraph, vertex_set

# elimination_order entry for vertices that were never eliminated
SURVIVOR = np.inf

SIZE_RULES = ("maxcorr", "gap", "fixed")


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


def _check_threshold(threshold):
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")


@dataclass(frozen=True)
class ScreeningConfig:
    """How ``run`` screens a dataset and sizes the selection.

    Iterative screening drops the ``delta`` tail per level (default 0.5);
    one-shot keeps scores above ``threshold`` (default 0). ``size_rule`` is
    one of maxcorr (the screening's own selection), gap, or fixed (top
    ``size`` of the vertex ranking). Names and ranges are checked here,
    before any screening runs, and so is every setting the run would
    ignore: a delta with one-shot screening, a threshold with iterative
    screening or a rule other than maxcorr, a size with a rule other than
    fixed. Then the mode's own setting, if unset, takes its default; the
    other mode's stays None.
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
        if self.threshold is not None:
            _check_threshold(self.threshold)
        if self.size_rule == "fixed" and (self.size is None or self.size < 1):
            raise ValueError("size rule fixed needs a size of at least 1")
        if self.size_rule != "fixed" and self.size is not None:
            raise ValueError(f"a size applies to size rule fixed only, not {self.size_rule}")
        if self.iterative:
            if self.threshold is not None:
                raise ValueError("threshold applies to one-shot screening only")
            if self.delta is None:
                object.__setattr__(self, "delta", 0.5)
        else:
            if self.delta is not None:
                raise ValueError("delta applies to iterative screening only")
            if self.threshold is not None and self.size_rule != "maxcorr":
                raise ValueError(
                    f"threshold applies to size rule maxcorr only, not {self.size_rule}"
                )
            if self.threshold is None:
                object.__setattr__(self, "threshold", 0.0)


def _features_tensor(dataset, restrict):
    # feature of the i-th restricted vertex is row i of each induced adjacency
    return induced_subgraph(dataset.graphs, restrict).transpose(1, 0, 2)


def score_vertices(dataset, restrict=None, statistic="dcorr"):
    """Per-vertex statistic between adjacency-row features and the labels.

    Features are rows of the induced subgraph on ``restrict`` (the full
    vertex set when omitted); scores align with the sorted restrict indices.
    """
    if restrict is None:
        restrict = np.arange(dataset.n)
    restrict = vertex_set(restrict, dataset.n)
    features = _features_tensor(dataset, restrict)
    return corr.feature_label_correlation(features, dataset.labels, statistic)


def subgraph_correlation(dataset, vertices, statistic="dcorr"):
    """Statistic between flattened upper-triangle adjacencies and the labels.

    This is the whole-subgraph signal used to pick the best iterative level.
    """
    idx = vertex_set(vertices, dataset.n)
    iu = np.triu_indices(idx.size, 1)
    if iu[0].size == 0:
        return 0.0
    # take on the (m, n*n) view returns the pairs C-ordered, as the kernel needs
    pairs = idx[iu[0]] * dataset.n + idx[iu[1]]
    features = np.take(dataset.graphs.reshape(dataset.m, -1), pairs, axis=1)
    return corr.feature_label_correlation(features, dataset.labels, statistic)


def screen_once(dataset, threshold, statistic="dcorr"):
    """Keep the vertices whose score strictly exceeds the threshold."""
    _check_threshold(threshold)
    scores = score_vertices(dataset, None, statistic)
    selected = np.flatnonzero(scores > threshold)
    return ScreeningResult(
        scores=scores,
        elimination_order=np.full(dataset.n, SURVIVOR),
        levels=((np.arange(dataset.n), float("nan")),),
        selected=selected,
    )


def screen_iterative(dataset, delta, statistic="dcorr"):
    """Iterative screening on shrinking induced subgraphs.

    At each level the delta-quantile of the scores is the cut: vertices
    scoring strictly above it survive. When ties or quantile rounding would
    keep everything, nothing, or fewer than ceil((1-delta) * size) vertices,
    the level instead keeps that many top scorers (ties toward the smaller
    vertex index), which guarantees strictly nested levels. The selected set
    is the level with the largest whole-subgraph correlation (ties go to the
    larger subgraph).
    """
    _check_delta(delta)
    n = dataset.n
    scores = np.zeros(n)
    elimination = np.full(n, SURVIVOR)
    current = np.arange(n)
    level_sets = [current]
    iteration = 1
    while current.size > 1:
        level_scores = score_vertices(dataset, current, statistic)
        scores[current] = level_scores
        cut = float(np.quantile(level_scores, delta))
        keep = level_scores > cut
        kept = int(keep.sum())
        target = min(int(np.ceil((1.0 - delta) * current.size)), current.size - 1)
        if kept == 0 or kept >= current.size or kept < target:
            order = np.lexsort((current, -level_scores))
            keep = np.zeros(current.size, dtype=bool)
            keep[order[:target]] = True
        elimination[current[~keep]] = iteration
        current = current[keep]
        level_sets.append(current)
        iteration += 1
    if len(level_sets) == 1:
        scores[current] = score_vertices(dataset, current, statistic)
    level_corrs = [subgraph_correlation(dataset, vs, statistic) for vs in level_sets]
    best = int(np.argmax(level_corrs))
    return ScreeningResult(
        scores=scores,
        elimination_order=elimination,
        levels=tuple(zip(level_sets, level_corrs)),
        selected=level_sets[best],
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


def run(dataset, config):
    """Screen a dataset as ``config`` says and apply its size rule.

    Returns ``(result, selected)``; a one-shot threshold that no score
    clears selects nothing.
    """
    if config.iterative:
        result = screen_iterative(dataset, config.delta, config.statistic)
    else:
        result = screen_once(dataset, config.threshold, config.statistic)
    return result, select_vertices(result, config.size_rule, config.size)
