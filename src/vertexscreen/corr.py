"""Dependence statistics between multivariate samples.

Distance-based correlation (global and multiscale/local) plus the RV and
canonical-correlation baselines. Conventions shared by every statistic:
samples are (m, d) matrices with rows as observations (1-d inputs are read
as a single column), returned values lie in [0, 1] after clamping, and
degenerate inputs (a constant X or Y) yield 0.
"""

from __future__ import annotations

import functools

import numpy as np

# scipy is imported inside the cca and mgc functions that use it, so a dcorr
# or rv run never loads it. Cold set-up (interpreter, import, a first BLAS and
# LAPACK call; one BLAS thread, numpy 2.4, scipy 1.17, 2-core x86-64) is
# 0.14 s and 40 MiB peak RSS with numpy alone, 0.36 s with scipy.linalg, and
# 0.85 s and 106 MiB with scipy.linalg, .ndimage and .stats imported too.

STATISTICS = ("dcorr", "mgc", "rv", "cca")

# Denominators at or below this are treated as degenerate (constant input).
DEGENERATE_TOL = 1e-14

# Fraction of the (k, l) scale grid a region must exceed before the smoothed
# local maximum replaces the global statistic.
MGC_REGION_FRACTION = 0.02


# Cells of one intermediate of a dependence kernel chunk: blocks per chunk are
# _CHUNK_CELLS // (m * max(m, d)), so a chunk's input copy (m d cells a block)
# and each of its m x m matrices stay below it. 2**18 float64 cells are 2 MiB,
# so a chunk's elementwise passes, shift, row means and dots stay in cache
# instead of streaming through DRAM, as each 64 MiB intermediate of 2**23 did.
# dcorr of 0/1 blocks, best-of CPU-s, one BLAS thread, 2**23 -> 2**18: 200
# blocks at m = 600 (one block per chunk from 2**19 down) 1.37 -> 1.08, 400 at
# m = 100 0.132 -> 0.088, 400 at m = 59 0.055 -> 0.046.
# The same budget sizes every other pass over a stack: graph._graph_chunks
# (the dataset's entry checks, classify.fit_plugin and knn distances),
# classify._log_posteriors' pair rows, and graph._read_edges_bulk's id blocks
# and file reads.
_CHUNK_CELLS = 2**18


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


def _as_sample_matrix(x, stack=False):
    """``_samples`` in float64; a stack comes back C-ordered."""
    return np.asarray(_samples(x, stack), dtype=float, order="C" if stack else "K")


def _float32_exact(x, terms=2):
    """Whether float32 holds exactly every Gram entry, squared norm and
    squared distance of the rows of samples ``x``, and every sum of up to
    ``terms`` of them: so for integer entries in [0, M] with
    terms * d * M^2 < 2^24, as each is an integer of at most d M^2. Float
    samples, float32 included, never qualify."""
    if x.dtype.kind not in "biu" or x.size == 0 or (x.dtype.kind == "i" and x.min() < 0):
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


def _gram(x):
    """Gram matrices XsXs' of column-standardised samples (last two axes)."""
    x = _as_sample_matrix(x, stack=True)
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
    ``_CHUNK_CELLS`` cells in its input copy and in each m x m matrix, and
    its matrices are reduced in one batched pass; a degenerate block or y
    has ratio 0.

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
    blocks = np.asarray(blocks)
    if blocks.ndim != 3:
        raise ValueError(f"expected a (B, m, d) stack of samples, got shape {blocks.shape}")
    n_blocks, m, d = blocks.shape
    if y_matrix.shape != (m, m):
        raise ValueError(f"y must be one sample of {m} observations, not {y_matrix.shape}")
    every_row = np.arange(m)
    subsets = [every_row] if samples is None else [np.asarray(rows, dtype=int) for rows in samples]
    # every row, in order, last: reduced (and shifted) in place, as no later
    # sample reads a chunk's matrices
    last_in_place = np.array_equal(subsets[-1], every_row)

    # one sample's y terms at a time: a single sample's are built once per
    # call, and memory holds one sample's y matrix however many there are
    @functools.lru_cache(maxsize=1)
    def y_terms(s):
        return _zero_mean_terms(y_matrix[np.ix_(subsets[s], subsets[s])])

    vxy = np.empty((len(subsets), n_blocks))
    vx = np.empty((len(subsets), n_blocks))
    vy = np.empty(len(subsets))
    chunk = max(1, _CHUNK_CELLS // (m * max(m, d)))
    for start in range(0, n_blocks, chunk):
        stop = start + chunk
        mats = matrix(blocks[start:stop])
        for s, rows in enumerate(subsets):
            b, row_b, vy[s] = y_terms(s)
            if s == len(subsets) - 1 and last_in_place:
                sliced = mats
            else:
                cells = (rows[:, None] * m + rows).ravel()
                sliced = mats.reshape(len(mats), m * m).take(cells, axis=1)
                sliced = sliced.reshape(len(mats), rows.size, rows.size)
            a, row_a = _shift_to_zero_mean(sliced)
            vxy[s, start:stop] = _centred_inner(a, row_a, b, row_b)
            vx[s, start:stop] = _centred_inner(a, row_a, a, row_a)
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
    return _dependence_terms(blocks, pairwise_distances(y, y_metric), _distance_matrix())[1]


def _label_dcorr_level(blocks, labels, samples=None):
    """dcorr with the labels (0/1 mismatch metric) of each block of a
    level's (k, m, k) stack of vertex rows, then of the whole level
    subgraph: k + 1 values per row sample, ``samples`` as in
    ``_dependence_terms``. Each vertex pair u < v lies in row u and row v,
    so the subgraph's squared distances are half the sum of the blocks';
    on 0/1 entries that sum is exact, and bit for bit the upper-pair one.
    The sum is float32 while float32 holds it exactly (a 0/1 level's
    entries are at most k(k - 1)), and then each block's squared distances
    are float32 too.
    """
    y = pairwise_distances(labels, "discrete")
    blocks = np.asarray(blocks)
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


def local_correlation_grid(x, y, y_metric="euclidean"):
    """Local distance correlations at every neighborhood scale.

    Entry [k-1, l-1] restricts the centered-product sums to sample pairs
    whose distance rank within their row is at most k in x and at most l in
    y (average ranks on ties). The [m-1, m-1] entry uses every pair and
    equals the global dcorr. Cells whose local variances are degenerate are
    set to 0.
    """
    from scipy.stats import rankdata

    dx = pairwise_distances(_as_sample_matrix(x))
    dy = pairwise_distances(y, y_metric)
    if dx.shape != dy.shape:
        raise ValueError(f"sample counts differ: {dx.shape[0]} vs {dy.shape[0]}")
    m = dx.shape[0]
    cx = double_center(dx)
    cy = double_center(dy)

    # 1{rank <= k} for integer k is 1{ceil(rank) <= k}, so each pair lands
    # in one bucket of a cumulative-sum grid.
    bx = np.ceil(rankdata(dx, method="average", axis=1)).astype(int) - 1
    by = np.ceil(rankdata(dy, method="average", axis=1)).astype(int) - 1

    cov = np.zeros((m, m))
    np.add.at(cov, (bx, by), cx * cy)
    varx = np.zeros(m)
    np.add.at(varx, bx, cx * cx)
    vary = np.zeros(m)
    np.add.at(vary, by, cy * cy)

    cov = np.cumsum(np.cumsum(cov, axis=0), axis=1)
    varx = np.cumsum(varx)
    vary = np.cumsum(vary)

    grid = np.zeros((m, m))
    ok = (varx[:, None] > DEGENERATE_TOL) & (vary[None, :] > DEGENERATE_TOL)
    denom = np.sqrt(np.outer(np.maximum(varx, 0.0), np.maximum(vary, 0.0)))
    np.divide(cov, denom, out=grid, where=ok)
    return grid


def mgc(x, y, y_metric="euclidean"):
    """Smoothed maximum of the local distance correlations.

    Among the cells of the scale grid that strictly exceed the global
    statistic, take connected regions (4-connectivity); if the biggest
    region covers more than MGC_REGION_FRACTION of the grid, return its
    largest value, otherwise fall back to the global statistic (= dcorr).
    """
    from scipy import ndimage

    grid = local_correlation_grid(x, y, y_metric)
    m = grid.shape[0]
    if m < 4:
        raise ValueError("mgc needs at least 4 samples")
    global_stat = grid[-1, -1]
    value = global_stat
    mask = grid > global_stat
    if mask.any():
        labeled, _ = ndimage.label(mask)
        sizes = np.bincount(labeled.ravel())[1:]
        biggest = int(np.argmax(sizes)) + 1
        if sizes[biggest - 1] > MGC_REGION_FRACTION * m * m:
            value = float(grid[labeled == biggest].max())
    return float(np.clip(value, 0.0, 1.0))


def _numerical_rank(xc, r):
    """Rank of ``xc`` from the R of its pivoted QR: the diagonal entries
    above numpy.linalg.matrix_rank's relative tolerance, max(m, d) * eps
    times the largest one."""
    diag = np.abs(np.diag(r))
    return int(np.sum(diag > diag[0] * max(xc.shape) * np.finfo(float).eps))


def _column_basis(xc):
    """Orthonormal basis of the column span of ``xc``, from pivoted QR."""
    from scipy import linalg

    q, r, _ = linalg.qr(xc, mode="economic", pivoting=True)
    return q[:, :_numerical_rank(xc, r)]


def cca_corr(x, y):
    """Largest canonical correlation between x and y.

    The cosine of the smallest principal angle between the column spans of
    centered x and centered y, from orthonormal bases of both. The centered
    spans lie in the (m-1)-dimensional complement of the all-ones vector,
    so when their ranks add up to more than m - 1 they share a direction
    and the value is exactly 1: with d >= m - 1 generic features the
    statistic saturates and carries no ranking information.
    """
    from scipy import linalg

    x = _as_sample_matrix(x)
    y = _as_sample_matrix(y)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"sample counts differ: {x.shape[0]} vs {y.shape[0]}")
    m = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    if np.sum(xc * xc) / m <= DEGENERATE_TOL or np.sum(yc * yc) / m <= DEGENERATE_TOL:
        return 0.0
    if min(xc.shape) + min(yc.shape) > m - 1:
        # the ranks may saturate: R alone decides (the same R the bases
        # below factor), and Q is formed only when they do not
        rank = sum(_numerical_rank(c, linalg.qr(c, mode="r", pivoting=True)[0]) for c in (xc, yc))
        if rank > m - 1:
            return 1.0
    qx = _column_basis(xc)
    qy = _column_basis(yc)
    sigma = np.linalg.svd(qx.T @ qy, compute_uv=False)
    return float(np.clip(sigma[0], 0.0, 1.0))


def one_hot(labels):
    """Indicator column per distinct label, in sorted label order."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    return (labels[:, None] == classes[None, :]).astype(float)


def feature_label_correlation(features, labels, statistic):
    """Dependence between numeric feature samples and a label vector.

    ``features`` is one (m, d) sample, which gives a float, or a (B, m, d)
    stack, which gives B scores. dcorr and mgc use the 0/1 mismatch metric
    on the labels; rv and cca see the labels as one-hot columns.
    """
    check_statistic(statistic)
    single = np.ndim(features) < 3
    # a stack keeps its dtype: each statistic casts one block or chunk at a time
    blocks = _samples(features)[None] if single else np.asarray(features)
    if statistic == "dcorr":
        scores = dcorr_many(blocks, labels, y_metric="discrete")
    elif statistic == "rv":
        scores = _dependence_terms(blocks, _gram(one_hot(labels)), _gram)[1]
    elif statistic == "mgc":
        scores = np.array([mgc(block, labels, y_metric="discrete") for block in blocks])
    else:
        y = one_hot(labels)
        scores = np.array([cca_corr(block, y) for block in blocks])
    return float(scores[0]) if single else scores
