"""Tests for the plug-in, Bayes, and nearest-neighbor classifiers."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import traced_peak
from oracles import class_means, likelihood_oracle, sample_ier
from vertexscreen import classify, evaluate, graph
from vertexscreen.graph import LabeledGraphDataset, induced_subgraph, sample_ier_dataset


def block_parameters(n=12, signal=4, p=(0.2, 0.7)):
    """Small two-class analog of the planted-block generator."""
    mats = []
    for p_sig in p:
        mat = np.full((n, n), 0.4)
        mat[:signal, :signal] = p_sig
        np.fill_diagonal(mat, 0.0)
        mats.append(mat)
    return mats


def block_dataset(m, seed, n=12, signal=4, p=(0.2, 0.7)):
    mats = block_parameters(n, signal, p)
    return sample_ier_dataset(mats, [0.5, 0.5], m, seed)


def saturated_parameters(rng, n=6, classes=3):
    """Random symmetric probability matrices with about a quarter of the
    pairs at exactly 0 or 1."""
    mats = []
    for _ in range(classes):
        p = rng.uniform(0.05, 0.95, size=(n, n))
        p[rng.random((n, n)) < 0.25] = 0.0
        p[rng.random((n, n)) < 0.1] = 1.0
        p = np.triu(p, 1)
        mats.append(p + p.T)
    return mats


class TestFitPlugin:
    def test_priors_by_frequency(self):
        ds = block_dataset(8, 0)
        ds = LabeledGraphDataset(ds.graphs, np.array([0, 0, 1, 1, 0, 0, 1, 1]))
        model = classify.fit_plugin(ds)
        assert np.allclose(model.priors, [0.5, 0.5])

    def test_edge_mean(self):
        graphs = np.zeros((2, 3, 3))
        graphs[0, 0, 1] = graphs[0, 1, 0] = 1.0
        ds = LabeledGraphDataset(graphs, np.array([0, 0]))
        # the mean 0.5 lies inside the clamp [1/4, 3/4] of m = 2
        model = classify.fit_plugin(ds)
        assert model.edge_probabilities[0][0, 1] == 0.5

    def test_clamp_bounds(self):
        ds = block_dataset(10, 1)
        model = classify.fit_plugin(ds)
        eps = 1.0 / (2 * ds.m)
        for p_hat in model.edge_probabilities:
            off = p_hat[~np.eye(p_hat.shape[0], dtype=bool)]
            assert np.all(off >= eps) and np.all(off <= 1 - eps)
            assert np.all(np.diag(p_hat) == 0.0)

    def test_clamp_value(self):
        # class 0 has edge (0, 1) in every graph, class 1 in none; m = 6
        graphs = np.zeros((6, 3, 3))
        graphs[:3, 0, 1] = graphs[:3, 1, 0] = 1.0
        ds = LabeledGraphDataset(graphs, np.array([0, 0, 0, 1, 1, 1]))
        model = classify.fit_plugin(ds)
        assert model.edge_probabilities[0][0, 1] == 1 - 1 / (2 * 6)
        assert model.edge_probabilities[1][0, 1] == 1 / (2 * 6)

    def test_rejects_weighted_graphs(self):
        graphs = np.zeros((2, 3, 3))
        graphs[0, 0, 1] = graphs[0, 1, 0] = 0.5
        ds = LabeledGraphDataset(graphs, np.array([0, 1]))
        with pytest.raises(ValueError):
            classify.fit_plugin(ds)

    def test_checks_only_the_fitted_block(self):
        # an entry outside restrict is never read, so it may be non-binary
        graphs = np.zeros((4, 5, 5))
        graphs[:, 0, 1] = graphs[:, 1, 0] = [0, 1, 1, 0]
        graphs[0, 3, 4] = graphs[0, 4, 3] = 0.5
        ds = LabeledGraphDataset(graphs, np.array([0, 1, 1, 0]))
        model = classify.fit_plugin(ds, restrict=[0, 1, 2])
        assert model.edge_probabilities[1][0, 1] == 1.0 - 1.0 / 8
        with pytest.raises(ValueError, match="binary adjacency"):
            classify.fit_plugin(ds, restrict=[0, 3, 4])

    def test_estimates_concentrate(self):
        # binomial union bound computed from the class counts: every entry of
        # the estimate stays within z-sigma of the truth, with z covering all
        # off-diagonal entries of all classes at the 5% level
        mats, priors, _ = evaluate.experiment_parameters("exp2")
        ds = sample_ier_dataset(mats, priors, 500, 99)
        model = classify.fit_plugin(ds)
        # the clamp binds nowhere, so these are the raw class means
        means = class_means(ds)
        assert all(np.array_equal(p, q) for p, q in zip(model.edge_probabilities, means))
        from scipy.stats import norm

        entries = 3 * 199 * 200 / 2
        z = norm.ppf(1 - 0.05 / (2 * entries))
        off = ~np.eye(200, dtype=bool)
        for label, p_hat in zip(model.class_labels, model.edge_probabilities):
            count = int(np.sum(ds.labels == label))
            truth = mats[int(label)]
            sigma = np.sqrt(np.maximum(truth * (1 - truth), 1e-12) / count)
            assert np.all(np.abs(p_hat - truth)[off] <= (z * sigma)[off])


class TestPluginPredict:
    def test_tie_goes_to_smaller_label(self):
        graphs = np.zeros((4, 3, 3))
        ds = LabeledGraphDataset(graphs, np.array([0, 0, 1, 1]))
        model = classify.fit_plugin(ds)
        assert classify.plugin_predict(model, np.zeros((3, 3))) == 0

    def test_single_vertex_uses_priors(self):
        ds = block_dataset(9, 3)
        ds = LabeledGraphDataset(ds.graphs, np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]))
        model = classify.fit_plugin(ds, restrict=[2])
        assert classify.plugin_predict(model, ds.graphs[0]) == 0

    def test_training_order_invariance(self):
        ds = block_dataset(12, 4)
        perm = np.random.default_rng(4).permutation(12)
        shuffled = ds.subset(perm)
        a = sample_ier(block_parameters()[1], 50)
        m1 = classify.fit_plugin(ds)
        m2 = classify.fit_plugin(shuffled)
        assert classify.plugin_predict(m1, a) == classify.plugin_predict(m2, a)

    def test_log_domain_matches_linear_oracle(self):
        # on tiny graphs the product-form posterior is representable, so the
        # decisions must agree exactly
        rng = np.random.default_rng(6)
        for trial in range(20):
            ds = block_dataset(10, 100 + trial, n=5, signal=2)
            model = classify.fit_plugin(ds)
            a = sample_ier(block_parameters(n=5, signal=2)[trial % 2], 200 + trial)
            scores = []
            for prior, p_hat in zip(model.priors, model.edge_probabilities):
                product = prior
                for u in range(5):
                    for v in range(u + 1, 5):
                        product *= p_hat[u, v] if a[u, v] else 1 - p_hat[u, v]
                scores.append(product)
            expected = model.class_labels[int(np.argmax(scores))]
            assert classify.plugin_predict(model, a) == expected

    def test_batched_matches_scalar(self):
        ds = block_dataset(16, 7)
        model = classify.fit_plugin(ds)
        test = block_dataset(20, 8)
        batched = classify.plugin_predict_many(model, test.graphs)
        scalar = [classify.plugin_predict(model, a) for a in test.graphs]
        assert list(batched) == scalar
        sub = test.graphs[:, model.vertices][:, :, model.vertices]
        oracle = likelihood_oracle(
            model.priors, model.edge_probabilities, sub, model.class_labels
        )
        assert list(batched) == oracle

    def test_unclamped_saturated_model_matches_oracle(self):
        # unclamped, a small training set leaves estimates at exactly 0 and 1
        ds = block_dataset(6, 30, n=8, signal=3)
        model = classify.fit_plugin(ds, restrict=[0, 1, 2, 5])
        model = replace(model, edge_probabilities=class_means(ds, model.vertices))
        off = ~np.eye(4, dtype=bool)
        assert any(np.any((p[off] == 0) | (p[off] == 1)) for p in model.edge_probabilities)
        test = block_dataset(40, 31, n=8, signal=3)
        sub = test.graphs[:, model.vertices][:, :, model.vertices]
        oracle = likelihood_oracle(
            model.priors, model.edge_probabilities, sub, model.class_labels
        )
        assert list(classify.plugin_predict_many(model, test.graphs)) == oracle

    def test_rejects_weighted_adjacency(self):
        ds = block_dataset(10, 32)
        model = classify.fit_plugin(ds)
        with pytest.raises(ValueError, match="binary"):
            classify.plugin_predict_many(model, 3.0 * ds.graphs)
        with pytest.raises(ValueError, match="binary"):
            classify.plugin_predict(model, 3.0 * ds.graphs[0])

    def test_class_recovery_with_training(self):
        mats = block_parameters(p=(0.2, 0.8))
        train = sample_ier_dataset(mats, [0.5, 0.5], 200, 9)
        model = classify.fit_plugin(train)
        hits = sum(
            classify.plugin_predict(model, sample_ier(mats[1], 1000 + i)) == 1
            for i in range(40)
        )
        assert hits >= 36


class TestBayesPredict:
    def test_degenerate_prior(self):
        mats = block_parameters()
        a = sample_ier(mats[1], 10)
        assert classify.bayes_predict([1.0, 0.0], mats, a) == 0

    def test_identical_classes_tie_to_zero(self):
        mats = [block_parameters()[0]] * 2
        rng = np.random.default_rng(11)
        predictions = [
            classify.bayes_predict([0.5, 0.5], mats, sample_ier(mats[0], rng))
            for _ in range(30)
        ]
        assert predictions == [0] * 30

    def test_batched_matches_scalar(self):
        mats, priors, _ = evaluate.experiment_parameters("exp2")
        ds = sample_ier_dataset(mats, priors, 15, 12)
        batched = classify.bayes_predict_many(priors, mats, ds.graphs)
        scalar = [classify.bayes_predict(priors, mats, a) for a in ds.graphs]
        assert list(batched) == scalar
        assert scalar == likelihood_oracle(priors, mats, ds.graphs, (0, 1, 2))

    def test_saturated_probabilities_and_zero_prior_match_oracle(self):
        rng = np.random.default_rng(33)
        for trial in range(30):
            mats = saturated_parameters(rng)
            priors = [0.0, 0.4, 0.6] if trial % 2 else [0.5, 0.0, 0.5]
            # draws from each class, so every class explains some graphs
            graphs = np.stack([sample_ier(mats[i % 3], rng) for i in range(12)])
            batched = classify.bayes_predict_many(priors, mats, graphs)
            oracle = likelihood_oracle(priors, mats, graphs, (0, 1, 2))
            assert list(batched) == oracle

    def test_one_row_chunks_agree_with_the_whole_stack(self, monkeypatch):
        # BLAS picks its kernel by shape (gemv for one row, a small-matrix
        # kernel for small products), so a chunk's sums may differ from the
        # whole product's in the last bit; the -inf contradictions and the
        # decisions do not, and a uint8 stack gives the float64 stack's bits
        rng = np.random.default_rng(43)
        mats = saturated_parameters(rng)
        priors = np.array([0.5, 0.3, 0.2])
        graphs = np.concatenate([sample_ier_dataset(mats, priors, 9, rng).graphs,
                                 sample_ier_dataset([mats[0]], [1.0], 4, rng).graphs])
        vertices = np.arange(graphs.shape[1])
        assert graphs.dtype == np.uint8
        monkeypatch.setattr(graph, "_CHUNK_CELLS", 2**40)
        whole = classify._log_posteriors(priors, mats, graphs, vertices)
        assert np.isneginf(whole).any() and np.isfinite(whole).any()
        monkeypatch.setattr(graph, "_CHUNK_CELLS", 1)
        chunked = classify._log_posteriors(priors, mats, graphs, vertices)
        assert np.array_equal(np.isneginf(chunked), np.isneginf(whole))
        np.testing.assert_allclose(chunked, whole, rtol=1e-13, atol=0.0)
        assert np.array_equal(np.argmax(chunked, axis=1), np.argmax(whole, axis=1))
        floats = classify._log_posteriors(priors, mats, graphs.astype(float), vertices)
        assert np.array_equal(floats, chunked)

    def test_rejects_wrong_prior_count(self):
        mats, _, _ = evaluate.experiment_parameters("exp2")
        graphs = sample_ier_dataset(mats, [1 / 3] * 3, 5, 34).graphs
        with pytest.raises(ValueError, match="one prior per class"):
            classify.bayes_predict_many([1.0], mats, graphs)
        with pytest.raises(ValueError, match="one prior per class"):
            classify.bayes_predict([1.0], mats, graphs[0])

    def test_rejects_weighted_adjacency(self):
        mats, priors, _ = evaluate.experiment_parameters("exp2")
        graphs = sample_ier_dataset(mats, priors, 5, 35).graphs
        with pytest.raises(ValueError, match="binary"):
            classify.bayes_predict_many(priors, mats, 3.0 * graphs)

    def test_rejects_shape_mismatch(self):
        mats, priors, _ = evaluate.experiment_parameters("exp2")
        with pytest.raises(ValueError, match="shape"):
            classify.bayes_predict_many(priors, mats, np.zeros((2, 10, 10)))

    def test_bayes_not_worse_than_plugin(self):
        mats = block_parameters(p=(0.3, 0.6))
        train = sample_ier_dataset(mats, [0.5, 0.5], 60, 13)
        test = sample_ier_dataset(mats, [0.5, 0.5], 400, 14)
        model = classify.fit_plugin(train)
        bayes_loss = classify.loss_from_predictions(
            classify.bayes_predict_many([0.5, 0.5], mats, test.graphs), test.labels
        )
        plugin_loss = classify.loss_from_predictions(
            classify.plugin_predict_many(model, test.graphs), test.labels
        )
        spread = 2 * np.sqrt(bayes_loss.standard_error**2 + plugin_loss.standard_error**2)
        assert bayes_loss.error <= plugin_loss.error + spread


class TestKnn:
    def test_exact_duplicate_wins_at_k1(self):
        ds = block_dataset(6, 15)
        for i in range(ds.m):
            assert classify.knn_predict(ds, ds.graphs[i], 1) == ds.labels[i]

    def test_unanimous_vote(self):
        ds = block_dataset(6, 16)
        ds = LabeledGraphDataset(ds.graphs, np.full(6, 7))
        a = sample_ier(block_parameters()[0], 17)
        assert classify.knn_predict(ds, a, ds.m) == 7

    def test_distance_tie_breaks_by_training_index(self):
        graphs = np.zeros((3, 3, 3))
        graphs[0, 0, 1] = graphs[0, 1, 0] = 1.0
        graphs[1, 0, 1] = graphs[1, 1, 0] = 1.0
        ds = LabeledGraphDataset(graphs, np.array([5, 3, 3]))
        probe = np.zeros((3, 3))
        probe[0, 1] = probe[1, 0] = 1.0
        # graphs 0 and 1 are both at distance 0; index order keeps graph 0 first
        assert classify.knn_predict(ds, probe, 1) == 5

    def test_vote_tie_breaks_to_smaller_label(self):
        graphs = np.zeros((2, 3, 3))
        ds = LabeledGraphDataset(graphs, np.array([4, 2]))
        assert classify.knn_predict(ds, np.zeros((3, 3)), 2) == 2

    def test_separated_blocks_low_error(self):
        mats = block_parameters(n=20, signal=8, p=(0.15, 0.85))
        train = sample_ier_dataset(mats, [0.5, 0.5], 100, 18)
        test = sample_ier_dataset(mats, [0.5, 0.5], 60, 19)
        predictions = [
            classify.knn_predict(train, a, 11, restrict=range(8)) for a in test.graphs
        ]
        loss = classify.loss_from_predictions(predictions, test.labels)
        assert loss.error < 0.1

    def test_k_validation(self):
        ds = block_dataset(6, 20)
        with pytest.raises(ValueError):
            classify.knn_predict(ds, ds.graphs[0], 0)
        with pytest.raises(ValueError):
            classify.knn_predict(ds, ds.graphs[0], 7)


CHUNK_CELLS = pytest.mark.parametrize("chunk_cells", [1, 5000, None],
                                      ids=["one-graph", "a-few-graphs", "default"])


class TestChunkedPasses:
    """fit_plugin and the knn distances read the stack one chunk of graphs at
    a time; no bit depends on the chunk size."""

    @CHUNK_CELLS
    def test_fit_gives_the_clamped_class_means(self, monkeypatch, chunk_cells):
        ds = block_dataset(40, 27, n=30)
        if chunk_cells is not None:
            monkeypatch.setattr(graph, "_CHUNK_CELLS", chunk_cells)
        clamp = 1.0 / (2.0 * ds.m)
        for restrict in (None, [0, 3, 4, 9, 20]):
            model = classify.fit_plugin(ds, restrict)
            for p_hat, mean in zip(model.edge_probabilities, class_means(ds, restrict)):
                expected = np.clip(mean, clamp, 1.0 - clamp)
                np.fill_diagonal(expected, 0.0)
                assert np.array_equal(p_hat, expected)

    @CHUNK_CELLS
    def test_fit_refuses_a_weight_in_the_last_graph(self, monkeypatch, chunk_cells):
        graphs = block_dataset(40, 28, n=30).graphs.astype(float)
        graphs[-1, 0, 1] = graphs[-1, 1, 0] = 0.5
        ds = LabeledGraphDataset(graphs, np.arange(40) % 2)
        if chunk_cells is not None:
            monkeypatch.setattr(graph, "_CHUNK_CELLS", chunk_cells)
        with pytest.raises(ValueError, match="binary adjacency"):
            classify.fit_plugin(ds)

    @CHUNK_CELLS
    def test_knn_distances_match_one_pass_over_the_pool(self, monkeypatch, chunk_cells):
        # weights over six orders of magnitude, so a sum in another order
        # would round differently
        rng = np.random.default_rng(29)
        w = np.triu(rng.normal(size=(31, 40, 40)) * 10.0 ** rng.uniform(-3, 3, (31, 40, 40)), 1)
        graphs, a = (w + np.swapaxes(w, 1, 2))[:30], (w + np.swapaxes(w, 1, 2))[30]
        if chunk_cells is not None:
            monkeypatch.setattr(graph, "_CHUNK_CELLS", chunk_cells)
        for vertices in (np.arange(40), np.array([0, 2, 3, 7, 11, 30, 39])):
            pool, target = induced_subgraph(graphs, vertices), induced_subgraph(a, vertices)
            expected = np.sqrt((np.subtract(pool, target, dtype=float) ** 2).sum(axis=(1, 2)))
            assert np.array_equal(classify._distances(graphs, a, vertices), expected)


class TestMemory:
    """A pass over the (300, 60, 60) uint8 stack allocates chunk-sized
    temporaries, not copies of the stack."""

    @pytest.fixture(scope="class")
    def ds(self):
        mats = [np.full((60, 60), p) for p in (0.3, 0.5)]
        ds = sample_ier_dataset(mats, [0.5, 0.5], 300, np.random.default_rng(30))
        assert ds.graphs.dtype == np.uint8
        return ds

    @staticmethod
    def warm_peak(call):
        call()  # untraced: a first call may import modules (np.unique loads numpy.ma)
        return traced_peak(call)

    def test_fit_plugin_allocates_no_bool_copy_of_the_stack(self, ds):
        assert self.warm_peak(lambda: classify.fit_plugin(ds)) < ds.graphs.size

    def test_knn_allocates_no_float64_copy_of_the_pool(self, ds):
        # every vertex: the pool is the whole stack
        peak = self.warm_peak(lambda: classify.knn_predict(ds, ds.graphs[0], 11))
        assert peak < ds.graphs.size * 8


class TestEstimateLoss:
    def test_perfect_classifier(self):
        ds = block_dataset(10, 21)
        loss = classify.loss_from_predictions(list(ds.labels), ds.labels)
        assert loss.error == 0.0 and loss.standard_error == 0.0
        assert loss.count == 10

    def test_constant_classifier_on_balanced_data(self):
        ds = block_dataset(12, 22)
        ds = LabeledGraphDataset(ds.graphs, np.array([0, 1] * 6))
        loss = classify.loss_from_predictions([0] * ds.m, ds.labels)
        assert loss.error == 0.5
        assert np.isclose(loss.standard_error, np.sqrt(0.25 / 12))

    def test_empty_predictions_rejected(self):
        with pytest.raises(ValueError):
            classify.loss_from_predictions([], np.array([]))


def test_clamp_neutrality_at_moderate_m():
    """When no estimated probability saturates, clamped and unclamped models
    make identical predictions."""
    mats, priors, _ = evaluate.experiment_parameters("exp2")
    train = sample_ier_dataset(mats, priors, 300, 23)
    clamped = classify.fit_plugin(train)
    raw = replace(clamped, edge_probabilities=class_means(train))
    saturated = any(
        np.any((p[~np.eye(200, dtype=bool)] == 0) | (p[~np.eye(200, dtype=bool)] == 1))
        for p in raw.edge_probabilities
    )
    assert not saturated
    test = sample_ier_dataset(mats, priors, 50, 24)
    for a in test.graphs:
        assert classify.plugin_predict(clamped, a) == classify.plugin_predict(raw, a)
