"""Graph classifiers: Bayes rule with true or estimated parameters, and
nearest neighbors on induced adjacencies, plus 0-1 loss estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    LabeledGraphDataset,
    induced_subgraph,
    validate_probability_matrix,
    vertex_set,
)


@dataclass(frozen=True)
class PluginModel:
    """Class priors and per-class edge-probability estimates on a vertex set."""

    class_labels: tuple
    priors: np.ndarray
    edge_probabilities: tuple
    vertices: np.ndarray


@dataclass(frozen=True)
class LossEstimate:
    """Empirical 0-1 loss with its binomial standard error."""

    error: float
    count: int
    standard_error: float


def fit_plugin(dataset, restrict=None, clamp=None):
    """Maximum-likelihood priors and per-class edge means, one class per
    distinct label.

    Off-diagonal probability estimates are clamped into [clamp, 1 - clamp]
    (default clamp 1/(2m)) so later log-likelihoods stay finite; the
    diagonal stays 0.
    """
    if np.any((dataset.graphs != 0.0) & (dataset.graphs != 1.0)):
        raise ValueError("plug-in fitting needs binary adjacency matrices")
    vertices = vertex_set(
        restrict if restrict is not None else np.arange(dataset.n), dataset.n
    )
    class_labels = tuple(np.unique(dataset.labels).tolist())
    if clamp is None:
        clamp = 1.0 / (2.0 * dataset.m)
    sub = induced_subgraph(dataset.graphs, vertices)
    priors = np.empty(len(class_labels))
    edge_probabilities = []
    for i, label in enumerate(class_labels):
        mask = dataset.labels == label
        priors[i] = mask.sum() / dataset.m
        p_hat = np.clip(sub[mask].mean(axis=0), clamp, 1.0 - clamp)
        np.fill_diagonal(p_hat, 0.0)
        edge_probabilities.append(p_hat)
    return PluginModel(
        class_labels=class_labels,
        priors=priors,
        edge_probabilities=tuple(edge_probabilities),
        vertices=vertices,
    )


def _log_posteriors(priors, probabilities, graphs, vertices):
    """(N, classes) unnormalized log posteriors of an (N, n, n) adjacency stack.

    ``probabilities`` are per-class matrices on the sorted ``vertices``; the
    graphs are read on the pairs u < v of that induced subgraph. A pair at
    probability exactly 0 or 1 adds nothing to the matmul over finite logs;
    a graph contradicting it (an edge where p = 0, a non-edge where p = 1)
    gets log posterior -inf for that class.
    """
    iu = np.triu_indices(vertices.size, 1)
    flat = graphs[:, vertices[iu[0]], vertices[iu[1]]]
    # checked on the gathered pairs, so the (N, n, n) stack is never copied
    if np.count_nonzero(flat) != np.count_nonzero(flat == 1.0):
        raise ValueError("adjacency must be binary for likelihood operations")
    p = np.stack([q[iu] for q in probabilities])
    with np.errstate(divide="ignore"):
        log_prior, log_p, log_1p = np.log(priors), np.log(p), np.log1p(-p)
    scores = (
        log_prior
        + flat @ np.where(p > 0.0, log_p, 0.0).T
        + (1.0 - flat) @ np.where(p < 1.0, log_1p, 0.0).T
    )
    zero, one = p == 0.0, p == 1.0
    if zero.any() or one.any():
        scores[flat @ zero.T + (1.0 - flat) @ one.T > 0.0] = -np.inf
    return scores


def _decide(class_labels, scores):
    # argmax takes the first maximum, i.e. ties go to the smaller label
    return np.asarray([class_labels[i] for i in np.argmax(scores, axis=1)])


def _stack(graphs):
    graphs = np.asarray(graphs, dtype=float)
    if graphs.ndim != 3 or graphs.shape[1] != graphs.shape[2]:
        raise ValueError("graphs must form an (N, n, n) stack of square adjacencies")
    return graphs


def plugin_predict_many(model, graphs):
    """Most probable class for each adjacency of an (N, n, n) stack under the
    fitted model, read on the model's vertex set.

    Exact ties resolve toward the smaller class label.
    """
    graphs = _stack(graphs)
    vertices = vertex_set(model.vertices, graphs.shape[1])
    scores = _log_posteriors(model.priors, model.edge_probabilities, graphs, vertices)
    return _decide(model.class_labels, scores)


def plugin_predict(model, a):
    """plugin_predict_many for one adjacency matrix."""
    return plugin_predict_many(model, np.asarray(a)[None])[0]


def bayes_predict_many(priors, edge_probabilities, graphs, class_labels=None):
    """Bayes rule with the true generating parameters (simulation only) over
    an (N, n, n) stack; probabilities may sit exactly at 0 or 1.

    Only the pairs u < v enter the likelihood, so only they must be binary.
    """
    graphs = _stack(graphs)
    priors = np.asarray(priors, dtype=float)
    mats = [validate_probability_matrix(p) for p in edge_probabilities]
    if priors.shape != (len(mats),):
        raise ValueError("need one prior per class")
    if any(p.shape != graphs.shape[1:] for p in mats):
        raise ValueError("probability matrices must match the adjacency shape")
    if class_labels is None:
        class_labels = tuple(range(len(mats)))
    scores = _log_posteriors(priors, mats, graphs, np.arange(graphs.shape[1]))
    return _decide(tuple(class_labels), scores)


def bayes_predict(priors, edge_probabilities, a, class_labels=None):
    """bayes_predict_many for one adjacency matrix."""
    return bayes_predict_many(priors, edge_probabilities, np.asarray(a)[None], class_labels)[0]


def knn_predict(train, a, k, restrict=None):
    """Majority vote among the k nearest training graphs.

    Distance is the Frobenius norm between induced adjacencies; distance
    ties resolve by training position, vote ties by the smaller label.
    """
    if not isinstance(train, LabeledGraphDataset):
        raise ValueError("train must be a LabeledGraphDataset")
    if not 1 <= k <= train.m:
        raise ValueError(f"k must lie in [1, {train.m}]")
    vertices = vertex_set(
        restrict if restrict is not None else np.arange(train.n), train.n
    )
    target = induced_subgraph(a, vertices)
    pool = induced_subgraph(train.graphs, vertices)
    dists = np.sqrt(((pool - target) ** 2).sum(axis=(1, 2)))
    nearest = np.argsort(dists, kind="stable")[:k]
    votes = train.labels[nearest]
    candidates = np.unique(votes)
    counts = np.asarray([(votes == c).sum() for c in candidates])
    return candidates[int(np.argmax(counts))].item()


def loss_from_predictions(predictions, truths):
    """Misclassification rate with binomial standard error."""
    predictions = list(predictions)
    truths = np.asarray(truths)
    if len(predictions) != truths.shape[0] or not predictions:
        raise ValueError("need one prediction per evaluation instance")
    wrong = sum(1 for p, t in zip(predictions, truths) if p != t)
    n = len(predictions)
    error = wrong / n
    return LossEstimate(
        error=error,
        count=n,
        standard_error=float(np.sqrt(error * (1.0 - error) / n)),
    )
