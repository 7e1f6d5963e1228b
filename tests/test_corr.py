"""Tests for the dependence statistics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import subspace_angles

import oracles
from conftest import traced_peak
from oracles import double_center, pairwise_distances_oracle, rv_coefficient, triple_loop_dcov
from vertexscreen import corr, evaluate, graph, screen
from vertexscreen.graph import upper_pairs


finite_matrix = arrays(
    np.float64,
    st.tuples(st.integers(3, 8), st.integers(1, 3)),
    elements=st.floats(-50, 50, allow_nan=False),
)

stack_shapes = st.tuples(st.integers(1, 4), st.integers(2, 12), st.integers(1, 8))
real_stacks = arrays(np.float64, stack_shapes, elements=st.floats(-1e3, 1e3, allow_nan=False))
binary_stacks = arrays(np.float64, stack_shapes, elements=st.sampled_from([0.0, 1.0]))


class TestPairwiseDistances:
    def test_scalar_euclidean(self):
        d = corr.pairwise_distances([[0], [3], [4]])
        assert np.array_equal(d, [[0, 3, 4], [3, 0, 1], [4, 1, 0]])

    def test_discrete_labels(self):
        d = corr.pairwise_distances(np.array([0, 0, 1]), metric="discrete")
        assert np.array_equal(d, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 3))
        d = corr.pairwise_distances(x)
        naive = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                naive[i, j] = np.sqrt(np.sum((x[i] - x[j]) ** 2))
        assert np.max(np.abs(d - naive)) <= 1e-12

    @given(real_stacks, binary_stacks)
    @settings(max_examples=60, deadline=None)
    def test_equals_symmetrised_oracle(self, real, binary):
        # built in the Gram's buffer with no symmetrising pass, the distances
        # still equal the symmetrised formula bit for bit and are symmetric
        for x in (real, binary):
            assert np.array_equal(corr.pairwise_distances(x), pairwise_distances_oracle(x))
        d = corr.pairwise_distances(real)
        assert np.array_equal(d, d.swapaxes(-1, -2))

    def test_near_duplicate_rows_clamped_before_sqrt(self):
        # each row beside itself plus 1e-9, scaled by 1e6: some d^2 cancel to
        # small negatives, which must be clamped to 0 before the sqrt
        rng = np.random.default_rng(0)
        r = rng.normal(size=(4, 6))
        x = np.concatenate([r, r + 1e-9]) * 1e6
        sq = np.einsum("ij,ij->i", x, x)
        assert np.any(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T) < 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = corr.pairwise_distances(np.stack([x, x[::-1]]))
        assert np.all(np.isfinite(d)) and np.all(d >= 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            corr.pairwise_distances([[0.0], [np.nan]])
        with pytest.raises(ValueError):
            corr.pairwise_distances(np.array([0.0, np.inf]), metric="discrete")

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            corr.pairwise_distances([[1.0]])

    def test_discrete_needs_vector(self):
        with pytest.raises(ValueError):
            corr.pairwise_distances([[0], [1]], metric="discrete")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            corr.pairwise_distances([[0], [1]], metric="chebyshev")


class TestDoubleCenter:
    def test_zeros(self):
        assert np.array_equal(double_center(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_hand_2x2(self):
        c = double_center([[0, 2], [2, 0]])
        assert np.allclose(c, [[-1, 1], [1, -1]], atol=1e-15)

    def test_row_col_sums_vanish(self):
        rng = np.random.default_rng(6)
        d = rng.random((6, 6))
        d = d + d.T
        c = double_center(d)
        assert np.max(np.abs(c.sum(axis=0))) <= 1e-10
        assert np.max(np.abs(c.sum(axis=1))) <= 1e-10

    @given(arrays(np.float64, st.tuples(st.integers(2, 7)), elements=st.floats(0, 100)))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, diag_free):
        m = diag_free.shape[0]
        d = np.abs(diag_free[:, None] - diag_free[None, :])
        c = double_center(d)
        assert np.max(np.abs(double_center(c) - c)) <= 1e-10


class TestDcov:
    def test_constant_y_is_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 2))
        assert corr.dcov_sq(x, np.full(10, 3.0)) == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 2))
        y = rng.normal(size=(12, 3))
        assert corr.dcov_sq(x, y) == corr.dcov_sq(y, x)

    def test_self_consistency(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(9, 2))
        assert corr.dcov_sq(x, x) == corr.dcov_sq(x, x.copy())

    def test_triple_loop_oracle_small(self):
        x = np.array([0.0, 1.0, 2.0])
        assert abs(corr.dcov_sq(x, x) - triple_loop_dcov(x, x)) <= 1e-10

    def test_triple_loop_oracle_random(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            m = int(rng.integers(3, 20))
            x = rng.normal(size=(m, 2))
            y = rng.normal(size=(m, 1))
            assert abs(corr.dcov_sq(x, y) - triple_loop_dcov(x, y)) <= 1e-10

    def test_mismatched_counts(self):
        with pytest.raises(ValueError):
            corr.dcov_sq(np.zeros((4, 1)), np.zeros((5, 1)))


class TestDcorr:
    def test_identical_is_one(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(15, 2))
        assert corr.dcorr(x, x) == 1.0

    def test_constant_is_zero(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(15, 2))
        assert corr.dcorr(x, np.zeros(15)) == 0.0

    def test_noise_dims_reduce_value(self):
        # appending independent coordinates can only dilute the dependence
        rng = np.random.default_rng(13)
        m = 500
        x = rng.normal(size=m)
        noisy = np.column_stack([x[:, None], rng.normal(size=(m, 64))])
        assert corr.dcorr(noisy, x) < corr.dcorr(x, x)

    def test_discrete_label_metric(self):
        labels = np.array([0, 1, 0, 1, 2, 2])
        x = labels.astype(float)
        assert corr.dcorr(x, labels, y_metric="discrete") > 0.5


class TestStackedKernel:
    """The (B, m, d) kernel paths against the one-sample ones, bit for bit."""

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(2, 9), st.integers(1, 4)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_each_slice(self, stack):
        d = corr.pairwise_distances(stack)
        c = double_center(d)
        for b in range(stack.shape[0]):
            assert np.array_equal(d[b], corr.pairwise_distances(stack[b]))
            assert np.array_equal(c[b], double_center(d[b]))

    @pytest.mark.parametrize("y_metric", ["euclidean", "discrete"])
    @pytest.mark.parametrize("chunk_cells", [None, 3 * 12 * 12, 1])
    def test_many_equals_per_block_dcorr(self, monkeypatch, y_metric, chunk_cells):
        # 3 * 12 * 12: 7 blocks span 3 chunks of 3; 1: every block is its own chunk
        if chunk_cells is not None:
            monkeypatch.setattr(graph, "_CHUNK_CELLS", chunk_cells)
        rng = np.random.default_rng(20)
        labels = rng.integers(0, 3, size=12)
        blocks = rng.normal(size=(7, 12, 4)) + labels[None, :, None] * np.arange(7)[:, None, None]
        blocks[3] = 1.5  # a constant block scores 0
        y = labels if y_metric == "discrete" else labels + rng.normal(size=12)
        many = corr.dcorr_many(blocks, y, y_metric)
        single = [corr.dcorr(block, y, y_metric=y_metric) for block in blocks]
        assert np.array_equal(many, single)
        assert many[3] == 0.0 and np.all(many[[0, 1, 2, 4, 5, 6]] > 0.0)

    @pytest.mark.parametrize("chunk_cells", [None, 3 * 12 * 12, 1])
    def test_sub_samples_equal_the_kernel_on_each_sliced_stack(self, monkeypatch, chunk_cells):
        # 0/1 entries keep every distance exact, so a slice of the full
        # sample's matrix is the sub-sample's own matrix bit for bit
        if chunk_cells is not None:
            monkeypatch.setattr(graph, "_CHUNK_CELLS", chunk_cells)
        rng = np.random.default_rng(21)
        labels = rng.integers(0, 3, size=12)
        # a level of 7 vertices: block i holds row i of every graph
        graphs = np.triu(rng.integers(0, 2, size=(12, 7, 7)), 1).astype(float)
        graphs += graphs.transpose(0, 2, 1)
        graphs[:, 3] = graphs[:, :, 3] = 0.0  # vertex 3 has no edge: a constant block scores 0
        blocks = graphs.transpose(1, 0, 2)
        # every row first: later samples must still see the chunk's matrices unshifted
        samples = [np.arange(12)] + [np.setdiff1d(np.arange(12), [i]) for i in range(12)]
        samples += [np.arange(0, 12, 2), np.array([1, 4, 5, 9, 10]),
                    np.flatnonzero(labels == labels[0])]  # the last has one label: y scores 0
        got = corr._label_dcorr_level(blocks, labels, samples)
        assert got.shape == (len(samples), 8)
        for scores, rows in zip(got, samples):
            sliced = corr.dcorr_many(blocks[:, rows], labels[rows], "discrete")
            assert np.array_equal(scores[:-1], sliced)
            # the last column is the whole subgraph's, from its vertex pairs
            pairs = upper_pairs(graphs[rows], np.arange(7))
            assert scores[-1] == corr.dcorr(pairs, labels[rows], "discrete")
        assert np.all(got[:, 3] == 0.0) and np.all(got[-1] == 0.0)

    def test_many_rejects_mismatched_samples(self):
        with pytest.raises(ValueError):
            corr.dcorr_many(np.zeros((2, 5, 1)), np.arange(6.0))
        with pytest.raises(ValueError):
            corr.dcorr_many(np.zeros((5, 1)), np.arange(5.0))


class TestFloat32Distances:
    """An integer stack whose rows' Gram entries, squared norms and squared
    distances float32 holds exactly builds its squared distances in float32;
    every other stack in float64. Either way the results are its float64
    cast's, bit for bit."""

    @staticmethod
    def integer_stack(entries, rng):
        if entries == "binary":
            return rng.integers(0, 2, size=(4, 30, 300), dtype=np.uint8)
        if entries == "uint8-240-255":
            # 2 d M^2 = 2 * 300 * 255^2 is above 2^24: float32 would round
            return rng.integers(240, 256, size=(4, 30, 300), dtype=np.uint8)
        # |entries| <= 181 at d = 250 keep 2 d M^2 below 2^24, but rows of
        # opposite signs lie farther apart than 2^24
        signs = rng.choice(np.array([-1, 1], np.int16), size=(4, 30, 1))
        return rng.integers(150, 182, size=(4, 30, 250), dtype=np.int16) * signs

    @pytest.mark.parametrize("entries", ["binary", "uint8-240-255", "signed-int16"])
    def test_integer_stacks_give_their_float64_cast_bits(self, entries):
        rng = np.random.default_rng(30)
        stack = self.integer_stack(entries, rng)
        floats = stack.astype(float)
        y = rng.integers(0, 2, size=30)
        assert np.array_equal(corr.pairwise_distances(stack), corr.pairwise_distances(floats))
        assert np.array_equal(corr.dcorr_many(stack, y, "discrete"),
                              corr.dcorr_many(floats, y, "discrete"))
        for block, cast in zip(stack, floats):
            assert corr.dcov_sq(block, y, "discrete") == corr.dcov_sq(cast, y, "discrete")

    def test_float32_and_list_input_give_their_float64_cast_bits(self):
        rng = np.random.default_rng(31)
        stack = rng.normal(size=(3, 20, 5)).astype(np.float32)
        cast = stack.astype(float)
        y = rng.integers(0, 2, size=20)
        assert np.array_equal(corr.pairwise_distances(stack), corr.pairwise_distances(cast))
        assert np.array_equal(corr.dcorr_many(stack, y, "discrete"),
                              corr.dcorr_many(cast, y, "discrete"))
        for block, floats in zip(stack, cast):
            assert corr.dcov_sq(block, y) == corr.dcov_sq(floats, y)
            assert corr.dcorr(block.tolist(), y, "discrete") == corr.dcorr(floats, y, "discrete")
        rows = rng.integers(0, 2, size=(20, 6))
        assert np.array_equal(corr.pairwise_distances(rows.tolist()),
                              corr.pairwise_distances(rows.astype(float)))
        stack[1, 4, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            corr.pairwise_distances(stack)
        with pytest.raises(ValueError, match="non-finite"):
            corr.dcorr_many(stack, y, "discrete")

    def test_binary_uint8_stacks_reach_the_gram_as_float32(self, monkeypatch):
        built = []
        squared_distances = corr._squared_distances

        def recorder(samples):
            d = squared_distances(samples)
            built.append(d.dtype)
            return d

        monkeypatch.setattr(corr, "_squared_distances", recorder)
        rng = np.random.default_rng(32)
        stack = rng.integers(0, 2, size=(6, 15, 6), dtype=np.uint8)
        labels = rng.integers(0, 2, size=15)
        corr.feature_label_correlation(stack, labels, "dcorr")
        corr._label_dcorr_level(stack, labels, [np.arange(15), np.arange(1, 15)])
        corr.pairwise_distances(stack[0])
        assert built and set(built) == {np.dtype(np.float32)}
        built.clear()
        corr.feature_label_correlation(stack.astype(float), labels, "dcorr")
        assert built and set(built) == {np.dtype(np.float64)}


class TestLargeMAccuracy:
    """The kernel never double-centres a block: it takes <HAH, HBH> from the
    raw matrices, shifted to grand mean 0, and their row means. At m=600
    that must still agree with the explicit double-centred products."""

    @staticmethod
    def ratio(cx, cy):
        return np.mean(cx * cy) / np.sqrt(np.mean(cx * cx) * np.mean(cy * cy))

    @staticmethod
    def standardised_gram(x):
        x = x - x.mean(axis=0)
        scale = x.std(axis=0)
        x = x / np.where(scale > 0.0, scale, 1.0)
        return x @ x.T

    def test_exp2_m600_blocks_match_the_double_centred_reference(self):
        ds, signal = evaluate.sample_experiment("exp2", 600, np.random.default_rng(0))
        noise = np.setdiff1d(np.arange(ds.n), signal)
        blocks = ds.graphs[:, np.concatenate([signal[:3], noise[:3]])].transpose(1, 0, 2)
        cy = double_center(corr.pairwise_distances(ds.labels, "discrete"))
        expected = [self.ratio(double_center(corr.pairwise_distances(b)), cy)
                    for b in blocks]
        # without the grand-mean shift the scores here drift by about 5e-13
        assert np.max(np.abs(corr.dcorr_many(blocks, ds.labels, "discrete") - expected)) <= 1e-13
        gy = double_center(self.standardised_gram(corr.one_hot(ds.labels)))
        expected = [self.ratio(double_center(self.standardised_gram(b)), gy) for b in blocks]
        rv = corr.feature_label_correlation(blocks, ds.labels, "rv")
        assert np.max(np.abs(rv - expected)) <= 1e-13


class TestRv:
    def test_identical_is_one(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(10, 3))
        assert rv_coefficient(x, x) == 1.0

    def test_constant_is_zero(self):
        rng = np.random.default_rng(19)
        assert rv_coefficient(rng.normal(size=(10, 3)), np.ones((10, 1))) == 0.0

    def test_trace_formula_oracle(self):
        def std(a):
            c = a - a.mean(axis=0)
            s = c.std(axis=0)
            return c / np.where(s > 0, s, 1.0)

        def oracle(x, y):
            # the d x d covariance form the m x m Gram form must equal
            xs, ys = std(x), std(y)
            sxy = xs.T @ ys
            num = np.trace(sxy @ sxy.T)
            den = np.sqrt(np.trace((xs.T @ xs) @ (xs.T @ xs)) * np.trace((ys.T @ ys) @ (ys.T @ ys)))
            return num / den

        x = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0], [1.0, 2.0]])
        y = np.array([[2.0], [0.0], [1.0], [1.0]])
        assert abs(rv_coefficient(x, y) - oracle(x, y)) <= 1e-10
        rng = np.random.default_rng(26)
        for m, d, k in [(5, 40, 1), (12, 3, 2), (9, 9, 4), (30, 200, 3), (50, 2, 60)]:
            x = rng.normal(size=(m, d))
            y = rng.normal(size=(m, k)) + x[:, :1]
            assert abs(rv_coefficient(x, y) - oracle(x, y)) <= 1e-10

    def test_memory_stays_m_by_m_when_d_is_large(self):
        # a d x d covariance at d = 4000 would take 122 MiB per matrix
        rng = np.random.default_rng(27)
        x = rng.normal(size=(30, 4000))
        y = corr.one_hot(rng.integers(0, 2, size=30))
        assert traced_peak(lambda: rv_coefficient(x, y)) < 8 * 2**20
        assert 0.0 <= rv_coefficient(x, y) <= 1.0


class TestCca:
    def test_perfect_linear(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=40)
        assert corr.cca_corr(x, 2.0 * x + 1.0) >= 1.0 - 1e-6

    def test_independent_null(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=1000)
        y = rng.permutation(x)
        assert corr.cca_corr(x, y) <= 0.15

    def test_duplicate_columns_finite(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=20)
        dup = np.column_stack([x, x])
        value = corr.cca_corr(dup, rng.normal(size=20))
        assert np.isfinite(value) and 0.0 <= value <= 1.0

    def test_constant_is_zero(self):
        rng = np.random.default_rng(23)
        assert corr.cca_corr(np.full(10, 2.0), rng.normal(size=10)) == 0.0

    @pytest.mark.parametrize("d", [29, 30, 60])
    def test_saturates_when_d_reaches_m_minus_1(self, d):
        # centered spans of rank d and 1 inside the 29-dim complement of the
        # ones vector must intersect
        rng = np.random.default_rng(24)
        x = rng.normal(size=(30, d))
        y = corr.one_hot(rng.integers(0, 2, size=30))
        assert corr.cca_corr(x, y) == 1.0

    def test_matches_subspace_angle_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            m = int(rng.integers(8, 40))
            d = int(rng.integers(1, m // 2))
            k = int(rng.integers(1, m // 2 - 1))
            x = rng.normal(size=(m, d))
            y = rng.normal(size=(m, k)) + x[:, :1] * rng.normal()
            angles = subspace_angles(x - x.mean(axis=0), y - y.mean(axis=0))
            assert abs(corr.cca_corr(x, y) - np.cos(angles.min())) <= 1e-12


def _check_cca_stack(stack, y):
    """The batched cca of a (B, m, d) stack against the per-block oracle
    with no certificate: the same bits on every block, and, for a y that
    is not constant, no block certified that the oracle does not score
    exactly 1. Returns the scores and which blocks the certificate settles
    (None when d < m - 1)."""
    stack = np.asarray(stack)
    scores = corr._cca_many(stack, y)
    expected = np.array([oracles.cca_corr(block, y) for block in stack])
    assert np.array_equal(scores, expected)
    certified = None
    if stack.shape[2] >= stack.shape[1] - 1:
        certified = corr._saturates(corr._samples(stack, stack=True))
        if np.ptp(y, axis=0).any():
            assert np.all(expected[certified] == 1.0)
    return scores, certified


def _near_duplicates(rng, m, d, eps, offset=0.0):
    """One (m, d) normal sample whose row 1 is row 0 plus eps noise, and
    whose last row repeats row 2 up to eps, shifted by ``offset``."""
    x = rng.normal(size=(m, d))
    x[1] = x[0] + eps * rng.normal(size=d)
    x[-1] = x[2] + eps * rng.normal(size=d)
    return x + offset


class TestCcaCertificate:
    @pytest.mark.parametrize("name", ["exp1", "exp2"])
    @pytest.mark.parametrize("m", [2, 3, 12, 40, 100])
    def test_experiment_draws_match_the_oracle(self, name, m):
        for seed in (0, 1):
            dataset, _ = evaluate.sample_experiment(name, m, seed)
            stack = screen._row_features(dataset, None)
            scores, certified = _check_cca_stack(stack, corr.one_hot(dataset.labels))
            assert np.array_equal(corr.feature_label_correlation(stack, dataset.labels, "cca"),
                                  scores)
            if m >= 12:
                # 200 generic 0/1 features on m graphs: every block saturates
                # and the certificate settles every one
                assert certified.all()

    @pytest.mark.parametrize("k", [10, 14, 30, 200])
    def test_whole_subgraph_matches_the_oracle(self, k):
        dataset, _ = evaluate.sample_experiment("exp1", 40, 2)
        features = upper_pairs(dataset.graphs, np.arange(k))
        value = corr.feature_label_correlation(features, dataset.labels, "cca")
        assert value == oracles.cca_corr(features, corr.one_hot(dataset.labels))

    @pytest.mark.parametrize("m", [3, 12, 40])
    def test_weighted_stacks_match_the_oracle(self, m):
        rng = np.random.default_rng(m)
        labels = corr.one_hot(rng.integers(0, 2, size=m))
        for d in (m - 2, m - 1, m, 3 * m):
            if d < 1:
                continue
            counts = rng.integers(0, 6, size=(6, m, d))
            # integer weights 0-5: exact in float32 as uint8, float64 otherwise
            _check_cca_stack(counts.astype(np.uint8), labels)
            _check_cca_stack(counts.astype(float), labels)
            _check_cca_stack(counts * rng.uniform(0.5, 1.5, size=counts.shape), labels)
            _check_cca_stack(rng.normal(size=(6, m, d)), labels)

    @pytest.mark.parametrize("exponent", range(6, 16))
    def test_scaled_blocks_match_the_oracle(self, exponent):
        dataset, _ = evaluate.sample_experiment("exp1", 40, 3)
        stack = screen._row_features(dataset, None)[:20] * 10.0 ** -exponent
        scores, _ = _check_cca_stack(stack, corr.one_hot(dataset.labels))
        if exponent >= 8:
            # a squared centred norm of at most 1e-14 per graph is degenerate
            assert np.all(scores == 0.0)

    def test_one_class_labels_score_zero(self):
        dataset, _ = evaluate.sample_experiment("exp1", 12, 4)
        stack = screen._row_features(dataset, None)
        scores, _ = _check_cca_stack(stack, corr.one_hot(np.zeros(12, dtype=int)))
        assert np.all(scores == 0.0)

    @pytest.mark.parametrize("m", [3, 12, 40])
    def test_rank_deficient_blocks_are_never_certified(self, m):
        rng = np.random.default_rng(40 + m)
        labels = corr.one_hot(np.arange(m) % 2)
        # d = m - 2: too few features to reach rank m - 1
        _check_cca_stack(rng.normal(size=(4, m, m - 2)), labels)
        for d in (m - 1, m, 3 * m):
            # a duplicated row leaves the centred rank at most m - 2
            stack = rng.normal(size=(4, m, d))
            stack[:, 1] = stack[:, 0]
            scores, certified = _check_cca_stack(stack, labels)
            assert not certified.any()
            binary = rng.integers(0, 2, size=(4, m, d)).astype(np.uint8)
            binary[:, -1] = binary[:, 0]
            _, certified = _check_cca_stack(binary, labels)
            assert not certified.any()

    def test_one_uncertified_block_leaves_the_rest_of_its_chunk_certified(self):
        dataset, _ = evaluate.sample_experiment("exp1", 40, 5)
        stack = np.array(screen._row_features(dataset, None)[:10])
        stack[3, 1] = stack[3, 0]
        _, certified = _check_cca_stack(stack, corr.one_hot(dataset.labels))
        assert np.array_equal(certified, np.arange(10) != 3)

    @pytest.mark.parametrize("m", [4, 8])
    def test_duplicate_rows_far_from_the_origin_are_never_certified(self, m):
        # small integers shifted by 2**26 centre exactly over a power-of-two
        # m, so the oracle sees the duplicate; squared distances of the raw
        # rows (norms near d 2**52) would bury the centred Gram in rounding
        rng = np.random.default_rng(m)
        labels = corr.one_hot(np.arange(m) % 2)
        for d in (m - 1, 40):
            stack = rng.integers(-8, 9, size=(50, m, d)) + 2.0**26
            stack[:, 1] = stack[:, 0]
            _, certified = _check_cca_stack(stack, labels)
            assert not certified.any()

    def test_duplicate_row_scores_are_shift_invariant(self):
        # a duplicated row leaves the centred rank at m - 2 = 10, short of
        # saturation; centring a shifted copy in float64 leaves noise of
        # about eps times the shift, which must not count as rank
        rng = np.random.default_rng(12)
        labels = corr.one_hot(np.arange(12) % 2)
        stack = rng.normal(size=(10, 12, 11))
        stack[:, 1] = stack[:, 0]
        base, _ = _check_cca_stack(stack, labels)
        assert np.all(base < 1.0)
        for shift in (100.0, 1e3, 1e6):
            scores, _ = _check_cca_stack(stack + shift, labels)
            assert np.max(np.abs(scores - base)) <= 1e-9

    @pytest.mark.parametrize("exponent", [13, 16])
    def test_blocks_far_from_the_origin_match_the_oracle(self, exponent):
        # the exact path's rank tolerance grows with the shift, so past
        # about 1e9 spreads the certificate leaves every block to it; at
        # 1e16 a centred block has numerical rank 0 and scores 0
        rng = np.random.default_rng(exponent)
        labels = corr.one_hot(np.arange(12) % 2)
        for d in (11, 40):
            _check_cca_stack(rng.normal(size=(20, 12, d)) + 10.0**exponent, labels)

    @pytest.mark.parametrize("exponent", range(1, 16))
    def test_near_duplicate_rows_are_certified_only_when_saturated(self, exponent):
        rng = np.random.default_rng(exponent)
        for m, d in ((3, 2), (12, 11), (12, 40), (40, 39), (40, 80)):
            labels = corr.one_hot(np.arange(m) % 3)
            for offset in (0.0, 1e6):
                stack = [_near_duplicates(rng, m, d, 10.0 ** -exponent, offset)
                         for _ in range(3)]
                _check_cca_stack(stack, labels)


class TestRangeProperties:
    @given(finite_matrix, finite_matrix)
    @settings(max_examples=40, deadline=None)
    def test_statistics_stay_in_unit_interval(self, x, y):
        m = min(x.shape[0], y.shape[0])
        x, y = x[:m], y[:m]
        assert 0.0 <= corr.dcorr(x, y) <= 1.0
        assert 0.0 <= rv_coefficient(x, y) <= 1.0
        assert 0.0 <= corr.cca_corr(x, y) <= 1.0

    @given(finite_matrix, finite_matrix)
    @settings(max_examples=40, deadline=None)
    def test_dcov_nonnegative_and_symmetric(self, x, y):
        m = min(x.shape[0], y.shape[0])
        x, y = x[:m], y[:m]
        assert corr.dcov_sq(x, y) >= 0.0
        assert corr.dcov_sq(x, y) == corr.dcov_sq(y, x)


def test_permutation_null_quantile():
    """Under independence the statistic concentrates near zero."""
    rng = np.random.default_rng(24)
    draws = [
        corr.dcorr(rng.normal(size=200), rng.normal(size=200)) for _ in range(200)
    ]
    assert np.quantile(draws, 0.95) < 0.1


def test_one_hot_sorted_classes():
    enc = corr.one_hot(np.array([2, 0, 2, 1]))
    assert enc.shape == (4, 3)
    assert np.array_equal(enc.argmax(axis=1), [2, 0, 2, 1])


@pytest.mark.parametrize("statistic", corr.STATISTICS)
@pytest.mark.parametrize("chunk_cells", [None, 3 * 12 * 12, 1])
def test_feature_label_correlation_stack_equals_each_sample(monkeypatch, statistic, chunk_cells):
    # 3 * 12 * 12: 7 blocks span 3 chunks of 3; 1: every block is its own chunk
    if chunk_cells is not None:
        monkeypatch.setattr(graph, "_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(28)
    labels = rng.integers(0, 3, size=12)
    blocks = rng.normal(size=(7, 12, 4)) + labels[None, :, None] * np.arange(7)[:, None, None]
    blocks[3] = 1.5  # a constant block scores 0
    # a transposed view, as screening passes its per-vertex features
    stack = np.ascontiguousarray(blocks.transpose(1, 0, 2)).transpose(1, 0, 2)
    scores = corr.feature_label_correlation(stack, labels, statistic)
    single = [corr.feature_label_correlation(block, labels, statistic) for block in blocks]
    assert scores.shape == (7,) and all(isinstance(value, float) for value in single)
    assert np.array_equal(scores, single)
    assert scores[3] == 0.0


def test_feature_label_correlation_dispatch():
    rng = np.random.default_rng(25)
    x = rng.normal(size=(12, 3))
    labels = np.array([0, 1] * 6)
    for statistic in corr.STATISTICS:
        value = corr.feature_label_correlation(x, labels, statistic)
        assert 0.0 <= value <= 1.0
    with pytest.raises(ValueError):
        corr.feature_label_correlation(x, labels, "pearson")
