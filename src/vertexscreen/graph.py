"""Graph data model and generative machinery.

Labeled populations of adjacency matrices on a shared vertex set,
independent-edge (inhomogeneous Erdos-Renyi) sampling, induced subgraphs
and their vertex pairs, and the on-disk CSV dataset format (graphs.csv /
labels.csv).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Cells of one chunk of any pass over a stack, read only by ``_chunks`` and
# ``_newlines``: 2**18 float64 cells are 2 MiB, so a chunk's passes stay in cache.
_CHUNK_CELLS = 2**18


def _chunks(count, cells_each):
    """Slices of ``count`` consecutive items, in order, each of
    ``_CHUNK_CELLS // cells_each`` items (at least one)."""
    step = max(1, _CHUNK_CELLS // max(1, cells_each))
    return [slice(start, start + step) for start in range(0, count, step)]


def _integers(values, what):
    """``values`` as an int array; a boolean mask or float values are refused,
    not read as positions."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, not {values.dtype}")
    return values.astype(int)


def vertex_set(indices, n):
    """Normalize to a sorted array of distinct vertex indices in [0, n)."""
    idx = np.unique(_integers(indices, "vertex indices"))
    if idx.size == 0:
        raise ValueError("vertex set is empty")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValueError(f"vertex index out of range for n={n}")
    return idx


def _graph_positions(rows, m):
    """Positions in [0, m) of integer row indices; a negative one counts from the end."""
    return np.arange(m)[_integers(rows, "graph row indices")]


def _graph_chunks(graphs):
    """``_chunks`` of the graphs of an (m, n, n) stack, so a pass over the
    stack allocates per chunk, never per stack."""
    return _chunks(graphs.shape[0], graphs.shape[1] * graphs.shape[2])


@dataclass(frozen=True)
class LabeledGraphDataset:
    """m adjacency matrices on a shared vertex set with per-graph labels.

    Graphs are undirected: hollow (no self-loops) and symmetric. A stack
    whose entries are all 0 or 1 is stored as uint8, any other as float64;
    consumers cast one chunk at a time to float64, so no score depends on
    the storage. Arrays are frozen after construction so datasets can be
    shared safely.
    ``graph_ids`` are the ids a file gave the graphs, one distinct id per
    graph; None means the dataset positions.
    """

    graphs: np.ndarray
    labels: np.ndarray
    subject_ids: tuple | None = None
    graph_ids: tuple | None = None

    def __post_init__(self):
        self._settle(check_entries=True)

    def _settle(self, check_entries):
        """Check the fields and freeze them. ``check_entries`` runs the
        finite, hollow and symmetric checks of the adjacency stack, which
        rows of an already checked stack pass, and settles its storage:
        uint8 when every entry is 0 or 1, float64 otherwise. Without them
        the stack keeps its dtype. Each check is one pass over the stack's
        chunks, in this order, so its temporaries are chunk-sized."""
        graphs = np.asarray(self.graphs)
        labels = np.asarray(self.labels)
        if graphs.ndim != 3 or graphs.shape[1] != graphs.shape[2]:
            raise ValueError("graphs must form an (m, n, n) array")
        if labels.ndim != 1 or labels.shape[0] != graphs.shape[0]:
            raise ValueError("need one label per graph")
        if graphs.shape[0] < 2:
            raise ValueError("need at least 2 graphs")
        if graphs.shape[1] < 1:
            raise ValueError("need at least 1 vertex")
        if check_entries:
            # an integer stack is finite by its dtype
            integer = graphs.dtype.kind in "biu"
            if not integer:
                graphs = np.asarray(graphs, dtype=float)
            chunks = [graphs[rows] for rows in _graph_chunks(graphs)]
            if not integer and not all(np.isfinite(c).all() for c in chunks):
                raise ValueError("adjacency entries must be finite")
            if np.any(np.diagonal(graphs, axis1=1, axis2=2) != 0):
                raise ValueError("self-loops are not supported")
            if not all(np.array_equal(c, np.swapaxes(c, 1, 2)) for c in chunks):
                raise ValueError("undirected graphs must have symmetric adjacency")
            binary = all(np.count_nonzero(c) == np.count_nonzero(c == 1) for c in chunks)
            graphs = np.asarray(graphs, dtype=np.uint8 if binary else float)
        if self.subject_ids is not None:
            subject_ids = tuple(str(s) for s in self.subject_ids)
            if len(subject_ids) != graphs.shape[0]:
                raise ValueError("need one subject id per graph")
            object.__setattr__(self, "subject_ids", subject_ids)
        if self.graph_ids is not None:
            graph_ids = tuple(int(g) for g in self.graph_ids)
            if len(graph_ids) != graphs.shape[0] or len(set(graph_ids)) != len(graph_ids):
                raise ValueError("need one distinct graph id per graph")
            object.__setattr__(self, "graph_ids", graph_ids)
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
        """Dataset restricted to the given graph positions (order kept).

        Every position in order returns this dataset itself, not a copy.
        Otherwise every check but those of the adjacency entries runs again;
        the entries are rows of this checked stack, in its dtype.
        """
        idx = _graph_positions(graph_indices, self.m)
        if np.array_equal(idx, np.arange(self.m)):
            return self

        def pick(ids):
            return None if ids is None else tuple(ids[i] for i in idx)

        subset = object.__new__(LabeledGraphDataset)
        for name, value in (("graphs", self.graphs[idx]), ("labels", self.labels[idx]),
                            ("subject_ids", pick(self.subject_ids)),
                            ("graph_ids", pick(self.graph_ids))):
            object.__setattr__(subset, name, value)
        subset._settle(check_entries=False)
        return subset


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


def _adjacency_stack(m, n, dtype, where=""):
    """A zero (m, n, n) stack, or a ValueError naming its size when it
    cannot be allocated (numpy raises ValueError past the largest array)."""
    try:
        return np.zeros((m, n, n), dtype=dtype)
    except (MemoryError, ValueError):
        gib = m * n * n * np.dtype(dtype).itemsize / 2**30
        raise ValueError(f"{where}cannot allocate the ({m}, {n}, {n}) {np.dtype(dtype)} "
                         f"adjacency stack, {gib:.1f} GiB") from None


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
    n = mats[0].shape[0]
    graphs = _adjacency_stack(m, n, np.uint8)
    rng = np.random.default_rng(rng)
    which = rng.choice(len(mats), size=m, p=priors / priors.sum())
    # per graph, one (n, n) uniform block; the pairs u < v below p are edges
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    for graph, c in zip(graphs, which):
        edges = (rng.random((n, n)) < mats[c]) & upper
        graph[...] = edges | edges.T
    return LabeledGraphDataset(graphs, which)


def induced_subgraph(a, vertices):
    """Adjacency of the induced subgraph, rows/cols in sorted vertex order.

    ``a`` is one (n, n) adjacency or a (..., n, n) stack; every matrix of a
    stack is restricted to the same vertices. Every vertex returns ``a``
    itself, not a copy, so callers must not write into the result; a subset
    is a C-ordered copy, filled one ``_graph_chunks`` chunk at a time.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("adjacency matrix must be square")
    idx = vertex_set(vertices, a.shape[-1])
    if idx.size == a.shape[-1]:
        return a
    flat = a.reshape(-1, *a.shape[-2:])
    sub = np.empty((len(flat), idx.size, idx.size), a.dtype)
    for rows in _graph_chunks(flat):
        # two takes, rows then columns, beat one np.ix_ gather several times over
        sub[rows] = flat[rows].take(idx, axis=1).take(idx, axis=2)
    return sub.reshape(*a.shape[:-2], idx.size, idx.size)


def upper_pairs(graphs, vertices):
    """(N, k(k-1)/2) entries u < v of an (N, n, n) stack on the k sorted
    ``vertices``, pairs in ``np.triu_indices`` order."""
    n = graphs.shape[-1]
    iu = np.triu_indices(vertices.size, 1)
    # take on the (N, n*n) view returns the pairs C-ordered, as the kernels need
    pairs = vertices[iu[0]] * n + vertices[iu[1]]
    return np.take(graphs.reshape(graphs.shape[0], n * n), pairs, axis=1)


def _parse_label(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_dataset(graphs_path, labels_path, n=None):
    """Read a dataset from the long-form CSV pair.

    graphs.csv rows are ``graph_id,u,v,weight`` with undirected edges listed
    once (a pair repeated in either orientation is an error), a finite
    weight, and absent pairs implicitly 0; labels.csv rows are
    ``graph_id,label[,subject_id]`` with a finite numeric label. Blank lines
    are skipped. Vertex count is ``n`` if given, otherwise 1 + the largest
    vertex index seen.

    A clean graphs.csv is parsed in one ``np.loadtxt`` call; any other file
    is read row by row, which accepts the same rows with the same values and
    names the line of the first bad one.
    """
    if n is not None and n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
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
    sorted_ids = sorted(ids)
    # one entry per edge row, in file order; a graph's position is its id's rank
    edges = _read_edges_bulk(graphs_path, sorted_ids)
    if edges is None:
        edges = _read_edges(graphs_path, {gid: rank for rank, gid in enumerate(sorted_ids)})
    lines, gpos, us, vs, weights = edges

    gpos, us, vs = (np.asarray(x, dtype=np.int64) for x in (gpos, us, vs))
    weights = np.asarray(weights, dtype=float)
    largest = int(np.argmax(np.maximum(us, vs))) if len(lines) else None
    max_vertex = -1 if largest is None else int(max(us[largest], vs[largest]))
    if n is None:
        if max_vertex < 0:
            raise ValueError(f"{graphs_path}: no edges; pass the vertex count explicitly")
        n = max_vertex + 1
    elif max_vertex >= n:
        raise ValueError(f"{graphs_path}: vertex index {max_vertex} exceeds n={n}")

    m = len(ids)
    # Python ints: every cell must have an int64 pair key below
    if m * n * n > _INT64_MAX:
        where = f"{graphs_path}:{lines[largest]}" if max_vertex + 1 == n else str(graphs_path)
        raise ValueError(f"{where}: {m} graphs on {n} vertices have more than 2**63 - 1 cells")
    pair = (gpos * n + np.minimum(us, vs)) * n + np.maximum(us, vs)
    unique_pairs, first = np.unique(pair, return_index=True)
    if first.size < pair.size:
        again = int(np.setdiff1d(np.arange(pair.size), first)[0])
        earlier = first[np.searchsorted(unique_pairs, pair[again])]
        raise ValueError(
            f"{graphs_path}:{lines[again]}: pair {us[again]},{vs[again]} of graph "
            f"{sorted_ids[gpos[again]]} is already listed on line {lines[earlier]}"
        )
    # 0/1 weights are stored as uint8 from the start, never cast from float64
    dtype = np.uint8 if np.all((weights == 0.0) | (weights == 1.0)) else np.float64
    graphs = _adjacency_stack(m, n, dtype, f"{graphs_path}: ")
    graphs[gpos, us, vs] = weights
    graphs[gpos, vs, us] = weights

    labels_arr = np.asarray([labels[i] for i in order])
    subject_ids = tuple(subjects[i] for i in order) if subjects else None
    return LabeledGraphDataset(
        graphs, labels_arr, subject_ids=subject_ids, graph_ids=sorted_ids
    )


_INT64_MAX = np.iinfo(np.int64).max
_EDGE_ROW = np.dtype([("gid", np.int64), ("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _read_edges_bulk(graphs_path, sorted_ids):
    """``(lines, gpos, us, vs, weights)`` of a graphs.csv that passes every
    check of ``_read_edges``, from one ``np.loadtxt`` call on the open file;
    None when the row parser must decide. loadtxt raises or warns on an
    empty body, ids beyond int64 and every integer spelling but signed
    digits (``1.0``, ``"1"``, ``1_0``); a blank line it skips would shift the
    line numbers.
    """
    try:
        with open(graphs_path, newline="") as fh:
            # readline splits lines as loadtxt does, at "\r" too; the header
            # must end in "\n", so the body is everything after the first "\n"
            if fh.readline() not in ("graph_id,u,v,weight\n", "graph_id,u,v,weight\r\n"):
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(fh, dtype=_EDGE_ROW, delimiter=",", comments=None, ndmin=1)
        newlines, last = _newlines(graphs_path)
        known = np.asarray(sorted_ids, dtype=np.int64)
    except Exception:
        return None
    gid, us, vs, weights = (rows[name] for name in _EDGE_ROW.names)
    # an id is listed where it is the id at its position; ids are searched and
    # gathered _CHUNK_CELLS bytes at a time, so no temporary holds them all
    gpos = np.empty(rows.size, dtype=np.intp)
    listed = True
    for block in _chunks(rows.size, known.itemsize):
        gpos[block] = np.searchsorted(known, gid[block])
        listed = listed and np.array_equal(known.take(gpos[block], mode="clip"), gid[block])
    clean = (
        listed
        # one row per line of the body, the last one with or without its newline
        and rows.size == newlines - 1 + (last != b"\n")
        and np.all((us >= 0) & (vs >= 0) & ((us != vs) | (weights == 0.0)) & np.isfinite(weights))
    )
    return (range(2, rows.size + 2), gpos, us, vs, weights) if clean else None


def _newlines(path):
    """How many newline bytes a file holds, and its last byte; read
    ``_CHUNK_CELLS`` bytes at a time."""
    count, last = 0, b""
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_CHUNK_CELLS), b""):
            count, last = count + block.count(b"\n"), block[-1:]
    return count, last


def _read_edges(graphs_path, position):
    """``(lines, gpos, us, vs, weights)`` of graphs.csv, one row at a time;
    the first bad row raises a ValueError that names its line."""
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
                gid, u, v, w = row
                gid, u, v, w = int(gid), int(u), int(v), float(w)
            except ValueError:
                raise ValueError(f"{graphs_path}:{line_no}: malformed edge row {row!r}") from None
            if not math.isfinite(w):
                raise ValueError(f"{graphs_path}:{line_no}: weight {row[3]!r} is not finite")
            if gid not in position:
                raise ValueError(f"{graphs_path}:{line_no}: unknown graph id {gid}")
            if u < 0 or v < 0:
                raise ValueError(f"{graphs_path}:{line_no}: negative vertex index")
            if max(u, v) > _INT64_MAX:
                raise ValueError(f"{graphs_path}:{line_no}: vertex index {max(u, v)} "
                                 "is beyond int64")
            if u == v and w != 0.0:
                raise ValueError(f"{graphs_path}:{line_no}: self-loops are not supported")
            lines.append(line_no)
            gpos.append(position[gid])
            us.append(u)
            vs.append(v)
            weights.append(w)
    return lines, gpos, us, vs, weights


def save_dataset(dataset, graphs_path, labels_path):
    """Write the CSV pair read back by load_dataset.

    Graph ids are ``dataset.graph_ids``, or the dataset positions when it
    has none; only nonzero upper-triangle entries are listed. Each graph's
    rows are joined as one string, with each distinct weight formatted once;
    the bytes are those ``csv.writer`` writes.
    """
    ids = range(dataset.m) if dataset.graph_ids is None else dataset.graph_ids
    iu = np.triu_indices(dataset.n, 1)
    # the "u,v," text of every pair, built once per call
    pair_text = np.array([f"{u},{v}," for u, v in zip(*(x.tolist() for x in iu))], dtype=object)
    with open(graphs_path, "w", newline="") as fh:
        fh.write("graph_id,u,v,weight\r\n")
        # one graph's edge rows at a time, so memory stays bounded by one graph
        for gid, a in zip(ids, dataset.graphs):
            weights = a[iu]
            edges = np.flatnonzero(weights)
            if edges.size:
                values, which = np.unique(weights[edges], return_inverse=True)
                cells = np.array([f"{_format_number(w)}\r\n" for w in values.tolist()],
                                 dtype=object)
                prefix = f"{gid},"
                fh.write(prefix + prefix.join(pair_text[edges] + cells[which]))
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        labels = map(_format_number, dataset.labels.tolist())
        if dataset.subject_ids is not None:
            writer.writerow(["graph_id", "label", "subject_id"])
            writer.writerows(zip(ids, labels, dataset.subject_ids))
        else:
            writer.writerow(["graph_id", "label"])
            writer.writerows(zip(ids, labels))


def _format_number(value):
    # a whole float is written as an int (1.0 as 1); numpy scalars arrive as
    # Python numbers through tolist()
    return int(value) if isinstance(value, float) and value.is_integer() else value
