"""Graph classifiers: Bayes rule with true or estimated parameters, and
nearest neighbors on induced adjacencies, plus 0-1 loss estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    LabeledGraphDataset,
    _chunks,
    _graph_chunks,
    induced_subgraph,
    upper_pairs,
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


def fit_plugin(dataset, restrict=None):
    """Maximum-likelihood priors and per-class edge means, one class per
    distinct label.

    Off-diagonal probability estimates are clamped into [1/(2m), 1 - 1/(2m)]
    for m training graphs, so later log-likelihoods stay finite; the
    diagonal stays 0. The adjacency entries among the ``restrict`` vertices
    must be 0 or 1; entries outside them are never read.
    """
    vertices = vertex_set(
        restrict if restrict is not None else np.arange(dataset.n), dataset.n
    )
    class_labels = tuple(np.unique(dataset.labels).tolist())
    masks = [dataset.labels == label for label in class_labels]
    # per-class edge counts, one chunk of graphs at a time: whole numbers,
    # so count / class size has the bits of the class mean
    counts = np.zeros((len(class_labels), vertices.size, vertices.size))
    for rows in _graph_chunks(dataset.graphs):
        sub = induced_subgraph(dataset.graphs[rows], vertices)
        if np.count_nonzero(sub) != np.count_nonzero(sub == 1):
            raise ValueError("plug-in fitting needs binary adjacency matrices")
        for count, mask in zip(counts, masks):
            count += sub[mask[rows]].sum(axis=0)
    clamp = 1.0 / (2.0 * dataset.m)
    priors = np.empty(len(class_labels))
    edge_probabilities = []
    for i, (count, mask) in enumerate(zip(counts, masks)):
        priors[i] = mask.sum() / dataset.m
        p_hat = np.clip(count / mask.sum(), clamp, 1.0 - clamp)
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

    The graphs are read in row chunks of about ``graph._CHUNK_CELLS`` pairs,
    each gathered and cast to float64 on its own, so neither the (N, n, n)
    stack nor its dense (N, pairs) pairs are ever copied whole. BLAS picks
    its kernel by shape, so a row's sums can differ from those of the whole
    product in the last bit; a uint8 stack gives a float64 one's bits.
    """
    p = upper_pairs(np.stack(probabilities), np.arange(vertices.size))
    with np.errstate(divide="ignore"):
        log_prior, log_p, log_1p = np.log(priors), np.log(p), np.log1p(-p)
    log_p, log_1p = np.where(p > 0.0, log_p, 0.0).T, np.where(p < 1.0, log_1p, 0.0).T
    zero, one = p == 0.0, p == 1.0
    scores = np.empty((graphs.shape[0], p.shape[0]))
    for rows in _chunks(graphs.shape[0], p.shape[1]):
        flat = upper_pairs(graphs[rows], vertices)
        if np.count_nonzero(flat) != np.count_nonzero(flat == 1):
            raise ValueError("adjacency must be binary for likelihood operations")
        flat = np.asarray(flat, dtype=float)
        chunk = scores[rows]
        chunk[...] = log_prior + flat @ log_p + (1.0 - flat) @ log_1p
        if zero.any() or one.any():
            chunk[flat @ zero.T + (1.0 - flat) @ one.T > 0.0] = -np.inf
    return scores


def _decide(class_labels, scores):
    # argmax takes the first maximum, i.e. ties go to the smaller label
    return np.asarray([class_labels[i] for i in np.argmax(scores, axis=1)])


def _stack(graphs):
    # not cast: _log_posteriors casts one chunk at a time to float64
    graphs = np.asarray(graphs)
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


def bayes_predict_many(priors, edge_probabilities, graphs):
    """Bayes rule with the true generating parameters (simulation only) over
    an (N, n, n) stack; probabilities may sit exactly at 0 or 1.

    Class c is the c-th prior and matrix, the label ``sample_ier_dataset``
    draws; exact ties resolve toward the smaller class. Only the pairs u < v
    enter the likelihood, so only they must be binary.
    """
    graphs = _stack(graphs)
    priors = np.asarray(priors, dtype=float)
    mats = [validate_probability_matrix(p) for p in edge_probabilities]
    if priors.shape != (len(mats),):
        raise ValueError("need one prior per class")
    if any(p.shape != graphs.shape[1:] for p in mats):
        raise ValueError("probability matrices must match the adjacency shape")
    scores = _log_posteriors(priors, mats, graphs, np.arange(graphs.shape[1]))
    return _decide(range(len(mats)), scores)


def bayes_predict(priors, edge_probabilities, a):
    """bayes_predict_many for one adjacency matrix."""
    return bayes_predict_many(priors, edge_probabilities, np.asarray(a)[None])[0]


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
    nearest = np.argsort(_distances(train.graphs, a, vertices), kind="stable")[:k]
    votes = train.labels[nearest]
    candidates = np.unique(votes)
    counts = np.asarray([(votes == c).sum() for c in candidates])
    return candidates[int(np.argmax(counts))].item()


def _distances(graphs, a, vertices):
    """Frobenius distance from adjacency ``a`` to each graph of an (m, n, n)
    stack on the sorted ``vertices``, one chunk of graphs at a time; each
    graph's squares are summed over its own k x k cells, as in one pass."""
    target = induced_subgraph(a, vertices)
    dists = np.empty(graphs.shape[0])
    for rows in _graph_chunks(graphs):
        # in float: a uint8 difference would wrap around
        diff = np.subtract(induced_subgraph(graphs[rows], vertices), target, dtype=float)
        dists[rows] = np.sqrt(np.square(diff, out=diff).sum(axis=(1, 2)))
    return dists


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
