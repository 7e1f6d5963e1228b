"""Graph data model and generative machinery.

Labeled populations of adjacency matrices on a shared vertex set,
independent-edge (inhomogeneous Erdos-Renyi) sampling and likelihoods,
induced subgraphs and adjacency-row features, and the on-disk CSV dataset
format (graphs.csv / labels.csv).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


def vertex_set(indices, n):
    """Normalize to a sorted array of distinct vertex indices in [0, n)."""
    idx = np.unique(np.asarray(indices, dtype=int))
    if idx.size == 0:
        raise ValueError("vertex set is empty")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"vertex index out of range for n={n}")
    return idx


@dataclass(frozen=True)
class LabeledGraphDataset:
    """m adjacency matrices on a shared vertex set with per-graph labels.

    Graphs are undirected: hollow (no self-loops) and symmetric. Arrays are
    frozen after construction so datasets can be shared safely.
    """

    graphs: np.ndarray
    labels: np.ndarray
    subject_ids: tuple | None = None

    def __post_init__(self):
        graphs = np.asarray(self.graphs, dtype=float)
        labels = np.asarray(self.labels)
        if graphs.ndim != 3 or graphs.shape[1] != graphs.shape[2]:
            raise ValueError("graphs must form an (m, n, n) array")
        if labels.ndim != 1 or labels.shape[0] != graphs.shape[0]:
            raise ValueError("need one label per graph")
        if graphs.shape[0] < 2:
            raise ValueError("need at least 2 graphs")
        if not np.all(np.isfinite(graphs)):
            raise ValueError("adjacency entries must be finite")
        if np.any(np.diagonal(graphs, axis1=1, axis2=2) != 0):
            raise ValueError("self-loops are not supported")
        if not np.array_equal(graphs, np.swapaxes(graphs, 1, 2)):
            raise ValueError("undirected graphs must have symmetric adjacency")
        if self.subject_ids is not None:
            subject_ids = tuple(str(s) for s in self.subject_ids)
            if len(subject_ids) != graphs.shape[0]:
                raise ValueError("need one subject id per graph")
            object.__setattr__(self, "subject_ids", subject_ids)
        graphs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "labels", labels)

    @property
    def m(self):
        return self.graphs.shape[0]

    @property
    def n(self):
        return self.graphs.shape[1]

    def subset(self, graph_indices) -> "LabeledGraphDataset":
        """Dataset restricted to the given graph positions (order kept)."""
        idx = np.asarray(graph_indices, dtype=int)
        subjects = None
        if self.subject_ids is not None:
            subjects = tuple(self.subject_ids[i] for i in idx)
        return LabeledGraphDataset(
            self.graphs[idx], self.labels[idx], subject_ids=subjects
        )


def validate_probability_matrix(p):
    """Check an edge-probability matrix: square, symmetric, entries in [0, 1]."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("edge-probability matrix must be square")
    if not np.all(np.isfinite(p)):
        raise ValueError("edge probabilities must be finite")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    if not np.array_equal(p, p.T):
        raise ValueError("edge-probability matrix must be symmetric")
    return p


def sample_ier(p, rng):
    """One undirected independent-edge draw.

    Entries above the diagonal are independent Bernoulli(p[u, v]), mirrored
    below; the diagonal stays 0. ``rng`` is a seed or a Generator, so the
    draw is reproducible.
    """
    p = validate_probability_matrix(p)
    rng = np.random.default_rng(rng)
    u = rng.random(p.shape)
    upper = np.triu((u < p).astype(float), 1)
    return upper + upper.T


def sample_ier_dataset(p_by_class, priors, m, rng):
    """m labeled draws: a class index from ``priors`` (the label), then one
    graph from its edge-probability matrix."""
    if m < 2:
        raise ValueError(f"a draw needs at least 2 graphs, not {m}")
    mats = [validate_probability_matrix(p) for p in p_by_class]
    if len({p.shape for p in mats}) != 1:
        raise ValueError("per-class matrices must share one vertex set")
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (len(mats),) or np.any(priors < 0) or not np.isclose(priors.sum(), 1.0):
        raise ValueError("priors must be a distribution over the classes")
    rng = np.random.default_rng(rng)
    which = rng.choice(len(mats), size=m, p=priors / priors.sum())
    graphs = np.stack([sample_ier(mats[c], rng) for c in which])
    return LabeledGraphDataset(graphs, which)


def _check_binary(a):
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError("adjacency must be binary for likelihood operations")


def ier_log_likelihood(a, p):
    """Log-likelihood of a binary undirected adjacency, summed over pairs u < v.

    Entries where p is exactly 0 or 1 contribute -inf only when the
    observation contradicts them; callers normally clamp p away from the
    boundary first (see classify.fit_plugin).
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


def induced_subgraph(a, vertices):
    """Adjacency of the induced subgraph, rows/cols in sorted vertex order.

    ``a`` is one (n, n) adjacency or a (..., n, n) stack; every matrix of a
    stack is restricted to the same vertices.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("adjacency matrix must be square")
    idx = vertex_set(vertices, a.shape[-1])
    # np.ix_ over every axis keeps the copy C-ordered
    return a[np.ix_(*map(np.arange, a.shape[:-2]), idx, idx)]


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


def _parse_label(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_dataset(graphs_path, labels_path, n=None):
    """Read a dataset from the long-form CSV pair.

    graphs.csv rows are ``graph_id,u,v,weight`` with undirected edges listed
    once (a pair repeated in either orientation is an error) and absent
    pairs implicitly 0; labels.csv rows are ``graph_id,label[,subject_id]``
    with a finite numeric label. Vertex count is ``n`` if given, otherwise
    1 + the largest vertex index seen.
    """
    ids = []
    labels = []
    subjects = []
    with open(labels_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0] != "graph_id" or header[1] != "label":
            raise ValueError(f"{labels_path}:1: expected header graph_id,label[,subject_id]")
        has_subject = len(header) >= 3 and header[2] == "subject_id"
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ids.append(int(row[0]))
                labels.append(_parse_label(row[1]))
                if has_subject:
                    subjects.append(row[2])
            except (ValueError, IndexError):
                raise ValueError(f"{labels_path}:{line_no}: malformed label row {row!r}") from None
            if isinstance(labels[-1], float) and not math.isfinite(labels[-1]):
                raise ValueError(f"{labels_path}:{line_no}: label {row[1]!r} is not finite")
    if len(ids) != len(set(ids)):
        raise ValueError(f"{labels_path}: duplicate graph ids")
    if not ids:
        raise ValueError(f"{labels_path}: no graphs listed")

    order = np.argsort(ids, kind="stable")
    position = {ids[i]: rank for rank, i in enumerate(order)}

    # one entry per edge row, in file order
    lines, gpos, us, vs, weights = [], [], [], [], []
    with open(graphs_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["graph_id", "u", "v", "weight"]:
            raise ValueError(f"{graphs_path}:1: expected header graph_id,u,v,weight")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                gid, u, v = int(row[0]), int(row[1]), int(row[2])
                w = float(row[3])
            except (ValueError, IndexError):
                raise ValueError(f"{graphs_path}:{line_no}: malformed edge row {row!r}") from None
            if gid not in position:
                raise ValueError(f"{graphs_path}:{line_no}: unknown graph id {gid}")
            if u < 0 or v < 0:
                raise ValueError(f"{graphs_path}:{line_no}: negative vertex index")
            if u == v and w != 0.0:
                raise ValueError(f"{graphs_path}:{line_no}: self-loops are not supported")
            lines.append(line_no)
            gpos.append(position[gid])
            us.append(u)
            vs.append(v)
            weights.append(w)

    gpos, us, vs = (np.asarray(x, dtype=int) for x in (gpos, us, vs))
    max_vertex = int(max(us.max(), vs.max())) if lines else -1
    if n is None:
        if max_vertex < 0:
            raise ValueError(f"{graphs_path}: no edges; pass the vertex count explicitly")
        n = max_vertex + 1
    elif max_vertex >= n:
        raise ValueError(f"{graphs_path}: vertex index {max_vertex} exceeds n={n}")

    m = len(ids)
    pair = (gpos * n + np.minimum(us, vs)) * n + np.maximum(us, vs)
    unique_pairs, first = np.unique(pair, return_index=True)
    if first.size < pair.size:
        again = int(np.setdiff1d(np.arange(pair.size), first)[0])
        earlier = first[np.searchsorted(unique_pairs, pair[again])]
        raise ValueError(
            f"{graphs_path}:{lines[again]}: pair {us[again]},{vs[again]} of graph "
            f"{ids[order[gpos[again]]]} is already listed on line {lines[earlier]}"
        )
    graphs = np.zeros((m, n, n))
    graphs[gpos, us, vs] = weights
    graphs[gpos, vs, us] = weights

    labels_arr = np.asarray([labels[i] for i in order])
    subject_ids = tuple(subjects[i] for i in order) if subjects else None
    return LabeledGraphDataset(graphs, labels_arr, subject_ids=subject_ids)


def save_dataset(dataset, graphs_path, labels_path):
    """Write the CSV pair read back by load_dataset.

    Graph ids are the dataset positions; only nonzero upper-triangle entries
    are listed.
    """
    iu = np.triu_indices(dataset.n, 1)
    with open(graphs_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["graph_id", "u", "v", "weight"])
        for gid in range(dataset.m):
            weights = dataset.graphs[gid][iu]
            for u, v, w in zip(iu[0][weights != 0], iu[1][weights != 0], weights[weights != 0]):
                writer.writerow([gid, int(u), int(v), _format_number(w)])
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if dataset.subject_ids is not None:
            writer.writerow(["graph_id", "label", "subject_id"])
            for gid in range(dataset.m):
                writer.writerow([gid, _format_number(dataset.labels[gid]), dataset.subject_ids[gid]])
        else:
            writer.writerow(["graph_id", "label"])
            for gid in range(dataset.m):
                writer.writerow([gid, _format_number(dataset.labels[gid])])


def _format_number(value):
    value = value.item() if hasattr(value, "item") else value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value
