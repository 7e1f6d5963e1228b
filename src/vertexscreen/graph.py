"""Graph data model and generative machinery.

Labeled populations of adjacency matrices on a shared vertex set,
independent-edge (inhomogeneous Erdos-Renyi) sampling, induced subgraphs
and their vertex pairs, and the on-disk CSV dataset format (graphs.csv /
labels.csv).
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Cells of one chunk of any pass over a stack (``_chunks``), and characters of
# one text chunk of graphs.csv: 2**18 float64 cells are 2 MiB, so a chunk's
# passes stay in cache.
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
    """m adjacency matrices on a shared vertex set with finite per-graph labels.

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
        if labels.dtype.kind in "fc" and not np.all(np.isfinite(labels)):
            raise ValueError("labels must be finite")
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

    graphs.csv is read in one pass, in text chunks of about 2**18
    characters cut at line ends, one ``np.loadtxt`` call each; a file that
    fails a check on the way is read again row by row, which accepts the
    same rows with the same values and names the line of the first bad one.
    Either source hands its edges to one builder chunk by chunk, each
    column in the smallest dtype that holds it (4 bytes an edge for 0/1
    weights on fewer than 256 graphs and vertices). The stack is allocated
    once, after the last chunk, and is the seen mask of the listed pairs
    before it takes the weights (one byte a cell when they are 0 or 1), so
    no sort of the edges finds a repeated pair. The load holds the compact
    edges, one text chunk and the stack: 4.4 MiB traced for the 4.1 MiB
    file ``simulate exp2 --m 60`` writes.
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
    # a graph's position is its id's rank
    chunks = _read_edges_bulk(graphs_path, sorted_ids)
    if chunks is None:
        chunks = _read_edges(graphs_path, {gid: rank for rank, gid in enumerate(sorted_ids)})
    graphs = _edge_stack(graphs_path, chunks, sorted_ids, n)

    labels_arr = np.asarray([labels[i] for i in order])
    subject_ids = tuple(subjects[i] for i in order) if subjects else None
    return LabeledGraphDataset(
        graphs, labels_arr, subject_ids=subject_ids, graph_ids=sorted_ids
    )


_INT64_MAX = np.iinfo(np.int64).max
_EDGE_ROW = np.dtype([("gid", np.int64), ("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _smallest(values):
    """Non-negative integers in the smallest unsigned dtype that holds them."""
    return values.astype(np.min_scalar_type(int(values.max(initial=0))))


def _edge_chunk(lines, gpos, us, vs, weights):
    """``(lines, gpos, us, vs, weights)`` of a chunk of edge rows, as
    ``_edge_stack`` reads them: graph positions and vertex indices in
    ``_smallest`` dtype, weights as uint8 when each is 0 or 1 (-0.0 is
    kept, as a float64 stack holds it), else as float64."""
    weights = np.asarray(weights, dtype=float)
    if np.all((weights == 1.0) | ((weights == 0.0) & ~np.signbit(weights))):
        weights = weights.astype(np.uint8)
    return lines, _smallest(gpos), _smallest(us), _smallest(vs), weights


def _read_edges_bulk(graphs_path, sorted_ids):
    """The ``_edge_chunk``s of a graphs.csv that passes every check of
    ``_read_edges``, one ``np.loadtxt`` call per text chunk of about
    ``_CHUNK_CELLS`` characters cut after a newline; None as soon as a check
    fails, for the row parser to decide. loadtxt raises or warns on an empty
    chunk, ids beyond int64 and every integer spelling but signed digits
    (``1.0``, ``"1"``, ``1_0``); a blank line it skips would shift the line
    numbers, so the rows must number the newlines of the body.
    """
    chunks, rows, newlines, unterminated = [], 0, 0, False
    try:
        known = np.asarray(sorted_ids, dtype=np.int64)
        with open(graphs_path, newline="") as fh:
            # readline splits lines as loadtxt does, at "\r" too; the header
            # must end in "\n", so the body is everything after the first "\n"
            if fh.readline() not in ("graph_id,u,v,weight\n", "graph_id,u,v,weight\r\n"):
                return None
            while text := fh.read(_CHUNK_CELLS):
                while not text.endswith("\n") and (line := fh.readline()):
                    text += line
                newlines += text.count("\n")
                unterminated = not text.endswith("\n")
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    edges = np.loadtxt(io.StringIO(text), dtype=_EDGE_ROW, delimiter=",",
                                       comments=None, ndmin=1)
                gid, us, vs, weights = (edges[name] for name in _EDGE_ROW.names)
                # an id is listed where it is the id at its position
                gpos = np.searchsorted(known, gid)
                if not (np.array_equal(known.take(gpos, mode="clip"), gid)
                        and np.all((us >= 0) & (vs >= 0) & ((us != vs) | (weights == 0.0))
                                   & np.isfinite(weights))):
                    return None
                lines = range(rows + 2, rows + 2 + edges.size)
                chunks.append(_edge_chunk(lines, gpos, us, vs, weights))
                rows += edges.size
    except Exception:
        return None
    # one row per line of the body, the last one with or without its newline
    return chunks if 0 < rows == newlines + unterminated else None


def _read_edges(graphs_path, position):
    """The ``_edge_chunk``s of graphs.csv, read one row at a time, a chunk
    per ``_CHUNK_CELLS // _EDGE_ROW.itemsize`` rows; the first bad row
    raises a ValueError that names its line."""
    chunks, lines, gpos, us, vs, weights = [], [], [], [], [], []
    per_chunk = max(1, _CHUNK_CELLS // _EDGE_ROW.itemsize)

    def chunk():
        edges = _edge_chunk(_smallest(np.array(lines)), *map(np.array, (gpos, us, vs, weights)))
        for column in (lines, gpos, us, vs, weights):
            column.clear()
        return edges

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
            if len(lines) == per_chunk:
                chunks.append(chunk())
    if lines:
        chunks.append(chunk())
    return chunks


def _upper_cells(gpos, us, vs):
    """The stack cells (graph, min(u, v), max(u, v)) of edge rows."""
    return gpos, np.minimum(us, vs), np.maximum(us, vs)


def _edge_stack(graphs_path, chunks, sorted_ids, n):
    """The (m, n, n) adjacency stack of the ``_edge_chunk``s of the m graphs
    of ``sorted_ids``; ``n`` None is 1 + the largest vertex index. It is
    allocated once, after the last chunk: uint8 when every weight is 0 or 1,
    float64 otherwise. Before the weights it is the seen mask of the
    ``_upper_cells``: fewer marked cells than rows means a repeated pair.
    The weights then overwrite every mark, as each lands on (u, v) and
    (v, u)."""
    m = len(sorted_ids)
    max_vertex, top_line = -1, None
    for lines, _, us, vs, _ in chunks:
        top = np.maximum(us, vs)
        largest = int(np.argmax(top))
        if top[largest] > max_vertex:
            # the first row holding the largest index
            max_vertex, top_line = int(top[largest]), lines[largest]
    if n is None:
        if max_vertex < 0:
            raise ValueError(f"{graphs_path}: no edges; pass the vertex count explicitly")
        n = max_vertex + 1
    elif max_vertex >= n:
        raise ValueError(f"{graphs_path}: vertex index {max_vertex} exceeds n={n}")
    # Python ints: no cell of the stack may lie past an int64 offset
    if m * n * n > _INT64_MAX:
        where = f"{graphs_path}:{top_line}" if max_vertex + 1 == n else str(graphs_path)
        raise ValueError(f"{where}: {m} graphs on {n} vertices have more than 2**63 - 1 cells")
    binary = all(w.dtype == np.uint8 or np.all((w == 0.0) | (w == 1.0)) for *_, w in chunks)
    graphs = _adjacency_stack(m, n, np.uint8 if binary else np.float64, f"{graphs_path}: ")
    for _, gpos, us, vs, _ in chunks:
        graphs[_upper_cells(gpos, us, vs)] = 1
    if np.count_nonzero(graphs) < sum(len(lines) for lines, *_ in chunks):
        raise _repeated_pair(graphs_path, chunks, sorted_ids, graphs)
    for _, gpos, us, vs, weights in chunks:
        graphs[gpos, us, vs] = weights
        graphs[gpos, vs, us] = weights
    return graphs


def _repeated_pair(graphs_path, chunks, sorted_ids, seen):
    """The ValueError naming the first row whose pair an earlier row lists,
    and the line of the first: a second scan of the chunks in file order,
    marking the zeroed ``seen`` stack as it goes."""
    flat = seen.reshape(-1)
    flat[:] = 0

    def keys(gpos, us, vs):
        return np.ravel_multi_index(_upper_cells(gpos, us, vs), seen.shape)

    for lines, gpos, us, vs, _ in chunks:
        key = keys(gpos, us, vs)
        # rows whose pair an earlier row of this chunk or an earlier chunk lists
        again = np.ones(key.size, dtype=bool)
        again[np.unique(key, return_index=True)[1]] = False
        again |= flat[key] != 0
        if again.any():
            i = int(np.argmax(again))
            for previous, *columns, _ in chunks:
                first = np.flatnonzero(keys(*columns) == key[i])
                if first.size:
                    return ValueError(
                        f"{graphs_path}:{lines[i]}: pair {us[i]},{vs[i]} of graph "
                        f"{sorted_ids[gpos[i]]} is already listed on line {previous[first[0]]}")
        flat[key] = 1


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
