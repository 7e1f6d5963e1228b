"""Reference implementations the tests hold the library to.

Each oracle computes one concept the slow, literal way: a per-graph
independent-edge draw, a per-pair log-likelihood, a per-vertex feature row,
the symmetrised pairwise distances, the triple-loop distance covariance,
the pairwise Mann-Whitney AUC, the per-graph likelihood argmax, the
unclamped class means, the one-shot screening result, the per-block
canonical correlation with no saturation certificate and the
``csv.writer`` save of a dataset. The library has one batched
implementation of each; nothing under ``src`` imports this module.
``double_center`` has no library twin: the dependence kernel reaches the
centred inner products from the matrices and their row means alone.
``rv_coefficient`` instead runs the library's own rv kernel on a general y,
which the library itself scores only against one-hot labels.
``exp2_records`` replays exp2 in the order that draws both graph stacks
before any fit, which the harness no longer does.
"""

import csv
import itertools

import numpy as np

from vertexscreen import classify, corr, evaluate, screen
from vertexscreen.graph import induced_subgraph, validate_probability_matrix, vertex_set


def sample_ier(p, rng):
    """One undirected independent-edge draw.

    Entries above the diagonal are independent Bernoulli(p[u, v]), mirrored
    below; the diagonal stays 0. ``rng`` is a seed or a Generator, so the
    draw is reproducible. ``graph.sample_ier_dataset`` draws each graph of
    its stack in this rng order.
    """
    p = validate_probability_matrix(p)
    rng = np.random.default_rng(rng)
    u = rng.random(p.shape)
    upper = np.triu((u < p).astype(float), 1)
    return upper + upper.T


def _check_binary(a):
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError("adjacency must be binary for likelihood operations")


def ier_log_likelihood(a, p):
    """Log-likelihood of a binary undirected adjacency, summed over pairs u < v.

    Entries where p is exactly 0 or 1 contribute -inf only when the
    observation contradicts them.
    """
    a = np.asarray(a, dtype=float)
    p = validate_probability_matrix(p)
    if a.shape != p.shape:
        raise ValueError(f"shape mismatch: adjacency {a.shape} vs probabilities {p.shape}")
    _check_binary(a)
    iu = np.triu_indices(a.shape[0], 1)
    au = a[iu]
    pu = p[iu]
    with np.errstate(divide="ignore"):
        terms = np.where(au == 1.0, np.log(pu), np.log1p(-pu))
    return float(terms.sum())


def vertex_feature(a, u, restrict):
    """Row of the restricted adjacency for vertex u (sorted restrict order).

    The structural-zero self entry is kept, so the feature length is always
    the size of the restriction.
    """
    a = np.asarray(a)
    idx = vertex_set(restrict, a.shape[0])
    pos = np.searchsorted(idx, u)
    if pos >= idx.size or idx[pos] != u:
        raise ValueError(f"vertex {u} is not in the restriction")
    return a[u, idx]


def pairwise_distances_oracle(x):
    """Euclidean distances between the rows of each (m, d) sample of a stack:
    d^2 = sq_i + sq_j - 2G from separate temporaries, symmetrised as
    (d^2 + d^2') / 2, clamped at 0, square-rooted, with a zero diagonal."""
    x = np.asarray(x, dtype=float)
    sq = np.einsum("...ij,...ij->...i", x, x)
    d2 = sq[..., :, None] + sq[..., None, :] - 2.0 * (x @ np.swapaxes(x, -1, -2))
    d2 = 0.5 * (d2 + np.swapaxes(d2, -1, -2))
    d = np.sqrt(np.maximum(d2, 0.0))
    diag = np.arange(d.shape[-1])
    d[..., diag, diag] = 0.0
    return d


def double_center(d):
    """Subtract row and column means and add back the grand mean.

    Works on the last two axes, so a (..., m, m) stack is centred matrix by
    matrix. Every row and column of the result sums to zero, which makes
    the mean of an entrywise product of two centered matrices a
    covariance-like quantity.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim < 2 or d.shape[-1] != d.shape[-2]:
        raise ValueError("distance matrix must be square")
    rows, cols = d.mean(axis=-1, keepdims=True), d.mean(axis=-2, keepdims=True)
    return d - rows - cols + d.mean(axis=(-2, -1), keepdims=True)


def triple_loop_dcov(x, y):
    """The three-expectation form of the squared-scale distance covariance
    evaluated literally over all index triples."""
    dx = corr.pairwise_distances(x)
    dy = corr.pairwise_distances(y)
    m = dx.shape[0]
    s1 = float(np.mean(dx * dy))
    s2 = float(dx.mean()) * float(dy.mean())
    s3 = 0.0
    for i in range(m):
        for j in range(m):
            for k in range(m):
                s3 += dx[i, j] * dy[i, k]
    s3 /= m**3
    return s1 + s2 - 2.0 * s3


def rv_coefficient(x, y):
    """RV coefficient between standardized sample matrices.

    trace(Sxy Syx) / sqrt(trace(Sxx^2) trace(Syy^2)) on column-centered,
    unit-variance columns, computed by the dependence kernel as the same
    ratio of the m x m Grams XX' and YY'; 0 when either side is degenerate.
    """
    x = np.asarray(corr._samples(x), dtype=float)
    return float(corr._dependence_terms(x[None], corr._gram(y), corr._gram)[1][0])


def one_shot_screen(dataset, threshold, statistic="dcorr"):
    """The one-shot ``ScreeningResult`` built by hand from every vertex's
    ``score_vertices``: an all-``SURVIVOR`` elimination order, one level of
    every vertex with a NaN correlation, and the vertices scoring strictly
    above ``threshold`` selected."""
    scores = screen.score_vertices(dataset, None, statistic)
    return screen.ScreeningResult(
        scores=scores,
        elimination_order=np.full(scores.size, screen.SURVIVOR),
        levels=((np.arange(scores.size), float("nan")),),
        selected=np.flatnonzero(scores > threshold),
    )


def mann_whitney_auc(ranking, true_set, n, keys=None):
    """Pairwise-comparison AUC: fraction of (signal, noise) pairs where
    the signal vertex is ranked strictly better, a pair tied in every key
    counting one half."""
    rank_of = {v: i for i, v in enumerate(ranking)}
    key_of = (
        {v: v for v in range(n)}
        if keys is None
        else {v: tuple(np.atleast_2d(keys)[:, v]) for v in range(n)}
    )
    signal = set(int(v) for v in true_set)
    noise = [v for v in range(n) if v not in signal]
    wins = sum(
        0.5 if key_of[s] == key_of[u] else float(rank_of[s] < rank_of[u])
        for s in signal
        for u in noise
    )
    return wins / (len(signal) * len(noise))


def exp2_records(repeats, m_grid, test_draws, seed=0):
    """The loss and fpr records of ``evaluate.run_experiment("exp2", ...)``
    with its default methods, in the order that holds both stacks at once:
    per repeat, draw the training graphs, screen them, draw the test graphs,
    then fit and predict each method in turn."""
    params, priors, signal = evaluate.experiment_parameters("exp2")
    configs = {method: screen.ScreeningConfig(iterative=iterative, delta=delta, size_rule="fixed",
                                              size=evaluate.SIGNAL_SIZE)
               for method, iterative, delta in (("dcorr", False, None),
                                                ("itdcorr-0.5", True, 0.5))}
    loss, fpr = [], []
    for m_index, m in enumerate(m_grid):
        for repeat in range(repeats):
            rng = np.random.default_rng(np.random.SeedSequence([seed, m_index * repeats + repeat]))
            train, _ = evaluate.sample_experiment("exp2", m, rng)
            (_, pairs), = screen.run(train, list(configs.values()), [np.arange(m)])
            vertices = dict(zip(configs, (selected for _, selected in pairs)))
            test, _ = evaluate.sample_experiment("exp2", test_draws, rng)
            vertices.update({"full": np.arange(train.n), "true-signal": signal})
            for method in evaluate.DEFAULT_EXP2_METHODS:
                if method == "bayes":
                    predictions = classify.bayes_predict_many(priors, params, test.graphs)
                else:
                    model = classify.fit_plugin(train, restrict=vertices[method])
                    predictions = classify.plugin_predict_many(model, test.graphs)
                if method in configs:
                    noise = np.setdiff1d(vertices[method], signal).size
                    fpr.append((method, m, repeat, noise / (train.n - signal.size)))
                loss.append((method, m, repeat, float(np.mean(predictions != test.labels))))
    return loss, fpr


def likelihood_oracle(priors, mats, graphs, class_labels):
    """Per graph, the argmax of log prior + ier_log_likelihood."""
    with np.errstate(divide="ignore"):
        log_priors = np.log(np.asarray(priors, dtype=float))
    picks = [
        np.argmax([lp + ier_log_likelihood(a, p) for lp, p in zip(log_priors, mats)])
        for a in graphs
    ]
    return [class_labels[int(i)] for i in picks]


def class_means(dataset, vertices=None):
    """Unclamped per-class mean adjacency on ``vertices`` (all when omitted),
    classes in sorted label order as ``classify.fit_plugin`` orders them."""
    vertices = np.arange(dataset.n) if vertices is None else vertex_set(vertices, dataset.n)
    sub = induced_subgraph(dataset.graphs, vertices)
    return tuple(sub[dataset.labels == label].mean(axis=0) for label in np.unique(dataset.labels))


def save_dataset_rows(dataset, graphs_path, labels_path):
    """The CSV pair of ``graph.save_dataset``, written one ``csv.writer`` row
    per edge and per graph: nonzero upper-triangle entries in (u, v) order,
    a whole number written as an int (1.0 as 1), ids from ``graph_ids`` or
    the dataset positions."""
    def cell(value):
        return int(value) if isinstance(value, float) and value.is_integer() else value

    ids = range(dataset.m) if dataset.graph_ids is None else dataset.graph_ids
    iu = np.triu_indices(dataset.n, 1)
    with open(graphs_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["graph_id", "u", "v", "weight"])
        for gid, a in zip(ids, dataset.graphs):
            weights = a[iu]
            edges = np.flatnonzero(weights)
            us, vs = iu[0][edges].tolist(), iu[1][edges].tolist()
            cells = map(cell, weights[edges].tolist())
            writer.writerows(zip(itertools.repeat(gid), us, vs, cells))
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        labels = map(cell, dataset.labels.tolist())
        if dataset.subject_ids is not None:
            writer.writerow(["graph_id", "label", "subject_id"])
            writer.writerows(zip(ids, labels, dataset.subject_ids))
        else:
            writer.writerow(["graph_id", "label"])
            writer.writerows(zip(ids, labels))


def _numerical_rank(x, xc, r):
    """Rank of ``xc``, the centred sample ``x``, from the R of its pivoted
    QR: the diagonal entries above numpy.linalg.matrix_rank's relative
    tolerance, max(m, d) * eps times the larger of the largest one and x's
    largest column norm, so that centring noise far from the origin does
    not count."""
    diag = np.abs(np.diag(r))
    scale = max(diag[0], np.linalg.norm(x, axis=0).max())
    return int(np.sum(diag > scale * max(xc.shape) * np.finfo(float).eps))


def _column_basis(x, xc):
    """Orthonormal basis of the column span of ``xc``, the centred sample
    ``x``, from pivoted QR."""
    from scipy import linalg

    q, r, _ = linalg.qr(xc, mode="economic", pivoting=True)
    return q[:, :_numerical_rank(x, xc, r)]


def cca_corr(x, y):
    """Largest canonical correlation between one (m, d) sample x and y,
    one block at a time with no certificate: 0 for a degenerate x, then
    for a degenerate y; exactly 1 when the pivoted-QR ranks of centred x
    and y add up to more than m - 1; else the largest singular value of
    Qx'Qy from the orthonormal bases of both, 0 when either has none."""
    from scipy import linalg

    x = np.asarray(corr._samples(x), dtype=float)
    y = np.asarray(corr._samples(y), dtype=float)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"sample counts differ: {x.shape[0]} vs {y.shape[0]}")
    m = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    if np.sum(xc * xc) / m <= corr.DEGENERATE_TOL or np.sum(yc * yc) / m <= corr.DEGENERATE_TOL:
        return 0.0
    if min(xc.shape) + min(yc.shape) > m - 1:
        rank = sum(_numerical_rank(a, c, linalg.qr(c, mode="r", pivoting=True)[0])
                   for a, c in ((x, xc), (y, yc)))
        if rank > m - 1:
            return 1.0
    qx = _column_basis(x, xc)
    qy = _column_basis(y, yc)
    sigma = np.linalg.svd(qx.T @ qy, compute_uv=False)
    return float(np.clip(sigma.max(initial=0.0), 0.0, 1.0))
