"""Dependence statistics between multivariate samples.

Distance correlation plus the RV and canonical-correlation baselines.
Conventions shared by every statistic: samples are (m, d) matrices with
rows as observations (1-d inputs are read as a single column), returned
values lie in [0, 1] after clamping, and degenerate inputs (a constant X
or Y) yield 0.
"""

from __future__ import annotations

import functools

import numpy as np

from .graph import _chunks

# scipy loads only when cca first takes its exact path, inside _column_basis.

STATISTICS = ("dcorr", "rv", "cca")

# Denominators at or below this are treated as degenerate (constant input).
DEGENERATE_TOL = 1e-14


def check_statistic(statistic):
    """Raise ValueError unless ``statistic`` is one of STATISTICS."""
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of {STATISTICS}")


def _samples(x, stack=False):
    """(m, d) samples, or a (B, m, d) stack of them when ``stack`` is set;
    1-d input is one column. An integer array keeps its dtype, from which
    the distance kernel picks its precision; anything else, lists included,
    becomes float64 and must be finite."""
    integers = isinstance(x, np.ndarray) and x.dtype.kind in "biu"
    x = np.asarray(x, dtype=None if integers else float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 and not (stack and x.ndim == 3):
        raise ValueError(f"expected a 1-d or 2-d sample array, got shape {x.shape}")
    if x.shape[-2] < 2:
        raise ValueError("need at least 2 samples")
    if not integers and not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite entries")
    return x


def _float32_exact(x, terms=2):
    """Whether float32 holds exactly every Gram entry, squared norm and
    squared distance of the rows of samples ``x``, and every sum of up to
    ``terms`` of them: so for integer entries in [0, M] with
    terms * d * M^2 < 2^24, as each is an integer of at most d M^2. Float
    samples, float32 included, never qualify."""
    if x.dtype.kind not in "biu" or 0 in x.shape or (x.dtype.kind == "i" and x.min() < 0):
        return False
    return terms * x.shape[-1] * int(x.max()) ** 2 < 2**24


def _squared_distances(samples):
    """m x m squared euclidean distances between the rows of an (m, d)
    sample matrix, or of each matrix of a (B, m, d) stack: float32 when
    ``_float32_exact`` holds for the samples, float64 otherwise."""
    x = _samples(samples, stack=True)
    x = np.asarray(x, dtype=np.float32 if _float32_exact(x) else float, order="C")
    sq = np.einsum("...ij,...ij->...i", x, x)
    # d^2 = sq_i + sq_j - 2G in the Gram's own buffer
    d = x @ np.swapaxes(x, -1, -2)
    d *= -2.0
    if d.dtype == np.float32:
        # every step is exact: d^2 is symmetric, never below 0, and 0 on
        # the diagonal, with no m x m temporary
        d += sq[..., :, None]
        d += sq[..., None, :]
        return d
    # the Gram is exactly symmetric and sq_i + sq_j is added as one term, so
    # d^2 is symmetric without a transpose pass; clamped, as roundoff can go < 0
    d += sq[..., :, None] + sq[..., None, :]
    np.maximum(d, 0.0, out=d)
    diag = np.arange(d.shape[-1])
    d[..., diag, diag] = 0.0
    return d


def _distance_matrix(total=None):
    """The dcorr ``matrix`` of ``_dependence_terms``: a chunk's float64
    pairwise distances, once its squared distances are added into ``total``
    when one is given. The roots of float32 squared distances go into one
    float64 buffer that every chunk reuses, as the kernel is done with a
    chunk's matrices before it builds the next chunk's."""
    buffer = None

    def matrix(chunk):
        nonlocal buffer
        d = _squared_distances(chunk)
        if total is not None:
            for block in d:  # in place: a summed copy would cost a pass per chunk
                np.add(total, block, out=total)
        if d.dtype == np.float64:
            return np.sqrt(d, out=d)
        if buffer is None:
            buffer = np.empty(d.shape)  # the first chunk is the largest
        # dtype=float roots each exact integer in float64, as the float64
        # path does; np.sqrt(float32, out=float64) alone takes the float32 loop
        return np.sqrt(d, out=buffer[:len(d)], dtype=float)

    return matrix


def pairwise_distances(samples, metric="euclidean"):
    """m x m matrix of pairwise distances between rows.

    ``euclidean`` accepts an (m, d) sample matrix or a (B, m, d) stack of
    them and works on the last two axes; integer samples that float32 holds
    exactly (``_float32_exact``) get their squared distances in float32 and
    the same float64 distances as their float64 cast. ``discrete`` is the
    0/1 mismatch indicator and only applies to 1-d label vectors.
    """
    if metric == "euclidean":
        return _distance_matrix()(samples)
    if metric == "discrete":
        y = np.asarray(samples)
        if y.ndim != 1:
            raise ValueError("discrete metric expects a 1-d label vector")
        if y.shape[0] < 2:
            raise ValueError("need at least 2 samples")
        if y.dtype.kind in "fc" and not np.all(np.isfinite(y)):
            raise ValueError("labels contain non-finite entries")
        return (y[:, None] != y[None, :]).astype(float)
    raise ValueError(f"unknown metric {metric!r}")


def _gram(x):
    """Gram matrices XsXs' of column-standardised samples (last two axes)."""
    # C order: the column means of a transposed view may sum in another order
    x = np.asarray(_samples(x, stack=True), dtype=float, order="C")
    x = x - x.mean(axis=-2, keepdims=True)
    scale = x.std(axis=-2, keepdims=True)
    x /= np.where(scale > 0.0, scale, 1.0)
    return x @ np.swapaxes(x, -1, -2)


def _shift_to_zero_mean(mats):
    """Shift each m x m matrix of a (c, m, m) stack to grand mean 0 (H(A -
    g)H = HAH, and the smaller entries keep the inner products below
    accurate); return them flat, (c, m * m) in C order, with their (c, m)
    row means. A C-ordered stack is shifted in place."""
    c, m, _ = mats.shape
    flat = mats.reshape(c, m * m)
    flat -= flat.mean(axis=1, keepdims=True)
    return flat, flat.reshape(c, m, m).mean(axis=2)


def _centred_inner(a, row_a, b, row_b):
    """<HAH, HBH> / m^2 = (<A, B> - 2m <r_A, r_B>) / m^2 from flat matrices
    and their row means r, one value per matrix of a stacked ``a``; H is the
    m x m centring matrix."""
    m = row_a.shape[-1]
    return (np.vecdot(a, b) - 2.0 * m * np.vecdot(row_a, row_b)) / (m * m)


def _zero_mean_terms(y_matrix):
    """A copy of one m x m matrix shifted to grand mean 0, as a flat vector,
    with its row means and its centred square mean(HBH * HBH)."""
    b, row_b = _shift_to_zero_mean(np.array(y_matrix, dtype=float)[None])
    return b[0], row_b[0], float(_centred_inner(b, row_b, b, row_b)[0])


def _dependence_terms(blocks, y_matrix, matrix, samples=None):
    """Cross terms mean(HAH * HBH) and clamped ratios mean(HAH * HBH) /
    sqrt(mean(HAH * HAH) mean(HBH * HBH)) of every block of a (B, m, d)
    stack, where A = matrix(block) and B is y's m x m matrix: pairwise
    distances for dcorr, the standardised Gram for rv. No matrix is
    double-centred; each term needs only the matrices and their row means.
    ``matrix`` gets each chunk of blocks as a view and casts it once, so a
    stack of another dtype (uint8 0/1 rows) is never cast whole: dcorr
    builds an exactly-integer chunk's squared distances in float32 and
    roots them in float64, rv's Gram casts to float64. A chunk has at most
    ``graph._CHUNK_CELLS`` cells in its input copy and in each m x m matrix,
    and its matrices are reduced in one batched pass; a degenerate block or
    y has ratio 0.

    ``samples``, when given, is a sequence of arrays of row indices in
    [0, m) (each builds flat cell indices), and the terms come back as
    (len(samples), B) arrays: row s holds every block's terms on the rows
    ``samples[s]`` alone. None is the one sample of every row, and the
    terms come back as (B,) arrays. A chunk's matrices are built once on
    all m rows, and each sample reduces their slice on its rows and
    columns, with the same slice of y's matrix. That is the sample's own
    matrix only when an entry depends on its two rows alone, as a distance
    does and a standardised Gram does not.
    """
    if len(blocks.shape) != 3:
        raise ValueError(f"expected a (B, m, d) stack of samples, got shape {blocks.shape}")
    n_blocks, m, d = blocks.shape
    if y_matrix.shape != (m, m):
        raise ValueError(f"y must be one sample of {m} observations, not {y_matrix.shape}")
    every_row = np.arange(m)
    subsets = [every_row] if samples is None else [np.asarray(rows, dtype=int) for rows in samples]
    # a sample of every row, in order, reads y's matrix, not a copy; the last
    # one reduces (and shifts) a chunk's matrices in place: no later one reads them
    whole = [np.array_equal(rows, every_row) for rows in subsets]

    # one sample's y terms at a time: a single sample's are built once per
    # call, and memory holds one sample's y matrix however many there are
    @functools.lru_cache(maxsize=1)
    def y_terms(s):
        return _zero_mean_terms(y_matrix if whole[s] else y_matrix[np.ix_(subsets[s], subsets[s])])

    vxy = np.empty((len(subsets), n_blocks))
    vx = np.empty((len(subsets), n_blocks))
    vy = np.empty(len(subsets))
    for chunk in _chunks(n_blocks, m * max(m, d)):
        mats = matrix(blocks[chunk])
        for s, rows in enumerate(subsets):
            b, row_b, vy[s] = y_terms(s)
            if s == len(subsets) - 1 and whole[s]:
                sliced = mats
            else:
                cells = (rows[:, None] * m + rows).ravel()
                sliced = mats.reshape(len(mats), m * m).take(cells, axis=1)
                sliced = sliced.reshape(len(mats), rows.size, rows.size)
            a, row_a = _shift_to_zero_mean(sliced)
            vxy[s, chunk] = _centred_inner(a, row_a, b, row_b)
            vx[s, chunk] = _centred_inner(a, row_a, a, row_a)
            del sliced, a  # free this sample's slice before the next one's
        del mats  # free this chunk's matrices before the next chunk's
    ratios = np.zeros_like(vxy)
    ok = (vx > DEGENERATE_TOL) & (vy[:, None] > DEGENERATE_TOL)
    ratios[ok] = np.clip(np.maximum(vxy[ok], 0.0) / np.sqrt((vx * vy[:, None])[ok]), 0.0, 1.0)
    if samples is None:
        return vxy[0], ratios[0]
    return vxy, ratios


def dcorr_many(blocks, y, y_metric="euclidean"):
    """Distance correlation of every block of a (B, m, d) stack with y.

    ``dcorr`` is a batch of one. A degenerate (constant) block or y
    scores 0.
    """
    return _dependence_terms(np.asarray(blocks), pairwise_distances(y, y_metric),
                             _distance_matrix())[1]


def _label_dcorr_level(blocks, labels, samples=None):
    """dcorr with the labels (0/1 mismatch metric) of each block of a
    level's (k, m, k) stack of vertex rows, then of the whole level
    subgraph: k + 1 values per row sample, ``samples`` as in
    ``_dependence_terms``. Each vertex pair u < v lies in row u and row v,
    so the subgraph's squared distances are half the sum of the blocks';
    on 0/1 entries that sum is exact, and bit for bit the upper-pair one.
    The sum is float32 while float32 holds it exactly (a 0/1 level's
    entries are at most k(k - 1)), and then each block's squared distances
    are float32 too; any max at least the level's keeps the bits, as the
    sums are exact integers in either dtype. ``blocks`` is an array or, as
    ``screen._LevelRows``, has its dtype, shape and max and gives slices.
    """
    y = pairwise_distances(labels, "discrete")
    k, m = blocks.shape[:2]
    total = np.zeros((m, m), np.float32 if _float32_exact(blocks, max(k, 2)) else float)
    scores = _dependence_terms(blocks, y, _distance_matrix(total), samples)[1]
    # total / 2 is exact in either dtype; its root is taken in float64
    level = np.sqrt(total / 2.0, dtype=float)
    level = _dependence_terms(level[None], y, lambda mats: mats, samples)[1]
    return np.concatenate([scores, level], axis=-1)


def dcov_sq(x, y, y_metric="euclidean"):
    """Squared-scale distance covariance between two samples.

    Mean of the entrywise product of the double-centered distance matrices
    (the plain V-statistic). Mathematically nonnegative; tiny negative
    roundoff is clamped to 0. Symmetric in its arguments.
    """
    dy = pairwise_distances(y, y_metric)
    vxy, _ = _dependence_terms(_samples(x)[None], dy, _distance_matrix())
    return max(float(vxy[0]), 0.0)


def dcorr(x, y, y_metric="euclidean"):
    """Distance correlation: dcov_sq(x, y) / sqrt(dcov_sq(x, x) * dcov_sq(y, y)).

    Lies in [0, 1]; a degenerate (constant) x or y gives 0 by convention.
    """
    return float(dcorr_many(_samples(x)[None], y, y_metric)[0])


def _column_basis(x, xc):
    """Orthonormal basis of the column span of ``xc``, the centred sample
    ``x``, and its numerical rank from one pivoted QR: the diagonal entries
    of R above max(m, d) eps times the larger of the largest one and x's
    largest column norm. The second term keeps centring's rounding noise
    (about eps times x's entries) from counting as rank far from the origin."""
    from scipy import linalg

    q, r, _ = linalg.qr(xc, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    scale = max(diag[0], np.linalg.norm(x, axis=0).max())
    rank = int(np.sum(diag > scale * max(xc.shape) * np.finfo(float).eps))
    return q[:, :rank], rank


def _saturates(x):
    """Whether each (m, d) sample of a (c, m, d) stack surely has a cca of
    exactly 1 with any y that is not degenerate, decided with no QR: its
    squared centred norm clears the degenerate bound twice over, and its
    shifted centred Gram has a Cholesky factor.

    The centred Gram is M = XcXc' = -H D^2 H / 2 for squared row distances
    D^2, t = tr M, and K = M + (t / m) 11' - 1e-8 t I. Cholesky completes
    only on a matrix whose smallest eigenvalue is at least about
    -m^2 eps tr K (Higham 2002, Thm 10.7), so a factor of K proves
    sigma_{m-1}(Xc) >= about 1e-4 |Xc|_F. Pivoted QR, backward stable
    (Thm 19.4), then has |R_kk| >= sigma_k / sqrt(d - k + 1) for k <= m - 1
    (Businger & Golub 1965). ``_column_basis``'s rank tolerance, max(m, d)
    eps c for c the larger of |R_00| and X's largest column norm, is ten
    times below that where d (1e5 max(m, d) eps c)^2 < t, so that rule finds
    rank m - 1 too. Integer samples float32 holds exactly meet this (t >=
    1/2, c^2 < m 2^23 / d) for m, d below about 4e4; a float sample is
    checked, and fails some 1e8 spreads from the origin. A sample the test
    cannot settle is False.
    """
    m, d = x.shape[-2:]
    tolerance = 0.0
    if not _float32_exact(x):
        columns = np.einsum("...ij,...ij->...j", x, x).max(axis=-1)
        tolerance = d * (1e5 * max(m, d) * np.finfo(float).eps) ** 2 * columns
        # centred first: the squared distances of rows far from the origin
        # would lose the centred Gram's low bits to cancellation
        x = x - x.mean(axis=1, keepdims=True)
    d2 = _squared_distances(x)
    # with r the row means of D^2, t = m mean(r) / 2 and the grand means
    # cancel: 2K = r_i + r_j - D^2_ij - 2e-8 t I, factored in its place
    rows = d2.mean(axis=-1, dtype=float)
    trace = m * rows.mean(axis=-1) / 2.0
    twice = rows[:, :, None] + rows[:, None, :]
    twice -= d2
    diag = np.arange(m)
    twice[:, diag, diag] -= 2e-8 * trace[:, None]

    def factors(mats):
        try:
            np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            return False
        return True

    if factors(twice):
        full = np.ones(len(twice), dtype=bool)
    else:
        # one failure fails the batch: settle its samples one at a time
        full = np.array([factors(mat) for mat in twice])
    return full & (trace / m > 2.0 * DEGENERATE_TOL) & (trace > tolerance)


def _cca_many(blocks, y):
    """Largest canonical correlation of every block of a (B, m, d) stack
    with the (m, k) sample y (``cca_corr``).

    y's centring, degenerate check, rank and basis are worked out once. A
    block with d >= m - 1 that ``_saturates`` settles scores 1.0 with no QR
    when y is not degenerate; the test runs on whole chunks of
    ``graph._chunks``. Every other block takes the exact path: 0 when it
    or y is degenerate, exactly 1 when the pivoted-QR ranks of centred x
    and y add up to more than m - 1, else the largest singular value of
    Qx'Qy. y's QR runs only when a block takes that path, and scipy loads
    with it.
    """
    blocks = np.asarray(blocks)
    y = np.asarray(_samples(y), dtype=float)
    n_blocks, m, d = blocks.shape
    if m != y.shape[0]:
        raise ValueError(f"sample counts differ: {m} vs {y.shape[0]}")
    yc = y - y.mean(axis=0)
    y_degenerate = np.sum(yc * yc) / m <= DEGENERATE_TOL
    y_basis = functools.cache(lambda: _column_basis(y, yc))

    def exact(block):
        x = np.asarray(block, dtype=float)
        xc = x - x.mean(axis=0)
        if np.sum(xc * xc) / m <= DEGENERATE_TOL:
            return 0.0
        (qx, rank_x), (qy, rank_y) = _column_basis(x, xc), y_basis()
        # the centred spans lie in the (m - 1)-dimensional complement of
        # the ones vector: ranks adding up to more share a direction
        if rank_x + rank_y > m - 1:
            return 1.0
        # a side of numerical rank 0 has no direction, and scores 0
        sigma = np.linalg.svd(qx.T @ qy, compute_uv=False)
        return np.clip(sigma.max(initial=0.0), 0.0, 1.0)

    scores = np.zeros(n_blocks)
    for chunk in _chunks(n_blocks, m * max(m, d)):
        # validates the chunk: finite float samples of at least 2 rows
        stack = _samples(blocks[chunk], stack=True)
        if y_degenerate:
            continue
        settled = _saturates(stack) if d >= m - 1 else np.zeros(len(stack), dtype=bool)
        scores[chunk][settled] = 1.0
        for i in chunk.start + np.flatnonzero(~settled):
            scores[i] = exact(blocks[i])
    return scores


def cca_corr(x, y):
    """Largest canonical correlation between x and y.

    The cosine of the smallest principal angle between the column spans of
    centered x and centered y, from orthonormal bases of both. The centered
    spans lie in the (m-1)-dimensional complement of the all-ones vector,
    so when their ranks add up to more than m - 1 they share a direction
    and the value is exactly 1: with d >= m - 1 generic features the
    statistic saturates and carries no ranking information. A batch of one
    of ``_cca_many``.
    """
    return float(_cca_many(_samples(x)[None], y)[0])


def one_hot(labels):
    """Indicator column per distinct label, in sorted label order."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    return (labels[:, None] == classes[None, :]).astype(float)


def feature_label_correlation(features, labels, statistic):
    """Dependence between numeric feature samples and a label vector.

    ``features`` is one (m, d) sample, which gives a float, or a (B, m, d)
    stack, which gives B scores. dcorr uses the 0/1 mismatch metric on the
    labels; rv and cca see the labels as one-hot columns.
    """
    check_statistic(statistic)
    single = np.ndim(features) < 3
    # a stack keeps its dtype: each statistic casts one block or chunk at a time
    blocks = _samples(features)[None] if single else np.asarray(features)
    if statistic == "dcorr":
        scores = dcorr_many(blocks, labels, y_metric="discrete")
    elif statistic == "rv":
        scores = _dependence_terms(blocks, _gram(one_hot(labels)), _gram)[1]
    else:
        scores = _cca_many(blocks, one_hot(labels))
    return float(scores[0]) if single else scores
