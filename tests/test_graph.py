"""Tests for the graph data model, IER sampling, and CSV I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexscreen import graph


def make_dataset(m=4, n=5, seed=0, subject_ids=None):
    rng = np.random.default_rng(seed)
    graphs = np.stack([graph.sample_ier(np.full((n, n), 0.5), rng) for _ in range(m)])
    labels = rng.integers(0, 2, size=m)
    return graph.LabeledGraphDataset(graphs, labels, subject_ids=subject_ids)


class TestSampleIer:
    def test_zero_matrix(self):
        assert np.array_equal(graph.sample_ier(np.zeros((4, 4)), 0), np.zeros((4, 4)))

    def test_all_ones(self):
        a = graph.sample_ier(np.ones((4, 4)), 0)
        expected = np.ones((4, 4)) - np.eye(4)
        assert np.array_equal(a, expected)

    def test_edge_frequency_concentration(self):
        # 100 draws at p=0.3 on 200 vertices: the pooled edge frequency
        # stays within 4 binomial standard deviations of p
        n, draws, p = 200, 100, 0.3
        rng = np.random.default_rng(1)
        pmat = np.full((n, n), p)
        total_edges = sum(
            graph.sample_ier(pmat, rng)[np.triu_indices(n, 1)].sum() for _ in range(draws)
        )
        trials = draws * n * (n - 1) / 2
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(total_edges / trials - p) <= 4 * sigma

    def test_seed_reproducibility(self):
        p = np.full((10, 10), 0.4)
        assert np.array_equal(graph.sample_ier(p, 123), graph.sample_ier(p, 123))

    def test_symmetric_and_hollow(self):
        a = graph.sample_ier(np.full((8, 8), 0.5), 3)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            graph.sample_ier(np.full((3, 3), 1.5), 0)
        with pytest.raises(ValueError):
            graph.sample_ier(np.array([[0.0, 0.2], [0.3, 0.0]]), 0)


class TestLogLikelihood:
    def test_degenerate_match_is_zero(self):
        p = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        a = graph.sample_ier(p, 0)
        assert graph.ier_log_likelihood(a, p) == 0.0

    def test_closed_form_half(self):
        p = np.full((3, 3), 0.5)
        np.fill_diagonal(p, 0.0)
        a = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert np.isclose(graph.ier_log_likelihood(a, p), 3 * np.log(0.5))

    def test_matches_linear_domain_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 0.9, size=(4, 4))
        p = (p + p.T) / 2
        np.fill_diagonal(p, 0.0)
        a = graph.sample_ier(p, 5)
        product = 1.0
        for u in range(4):
            for v in range(u + 1, 4):
                product *= p[u, v] if a[u, v] else 1 - p[u, v]
        assert abs(graph.ier_log_likelihood(a, p) - np.log(product)) <= 1e-12

    def test_contradiction_is_minus_inf(self):
        p = np.zeros((3, 3))
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        assert graph.ier_log_likelihood(a, p) == -np.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            graph.ier_log_likelihood(np.zeros((3, 3)), np.zeros((4, 4)))

    def test_rejects_weighted(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 0.5
        with pytest.raises(ValueError):
            graph.ier_log_likelihood(a, np.full((3, 3), 0.5) - 0.5 * np.eye(3))


class TestInducedSubgraph:
    def test_full_set_identity(self):
        a = graph.sample_ier(np.full((5, 5), 0.5), 7)
        assert np.array_equal(graph.induced_subgraph(a, range(5)), a)

    def test_singleton(self):
        a = graph.sample_ier(np.full((5, 5), 0.5), 8)
        assert np.array_equal(graph.induced_subgraph(a, [2]), [[0.0]])

    def test_hand_selection(self):
        a = np.arange(16.0).reshape(4, 4)
        np.fill_diagonal(a, 0.0)
        sub = graph.induced_subgraph(a, [0, 2])
        assert np.array_equal(sub, [[0.0, a[0, 2]], [a[2, 0], 0.0]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            graph.induced_subgraph(np.zeros((3, 3)), [0, 3])

    def test_stack_restricts_every_matrix(self):
        stack = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
        sub = graph.induced_subgraph(stack, [4, 1, 3])
        assert sub.shape == (2, 3, 3, 3) and sub.flags.c_contiguous
        for i in range(2):
            for j in range(3):
                assert np.array_equal(sub[i, j], graph.induced_subgraph(stack[i, j], [1, 3, 4]))

    @given(st.sets(st.integers(0, 7), min_size=2, max_size=8).map(sorted))
    @settings(max_examples=30, deadline=None)
    def test_nested_composition(self, outer):
        a = graph.sample_ier(np.full((8, 8), 0.5), 9)
        outer = np.asarray(outer)
        inner_positions = np.arange(0, outer.size, 2)
        once = graph.induced_subgraph(graph.induced_subgraph(a, outer), inner_positions)
        direct = graph.induced_subgraph(a, outer[inner_positions])
        assert np.array_equal(once, direct)


class TestVertexFeature:
    def test_full_restriction_is_row(self):
        a = graph.sample_ier(np.full((5, 5), 0.5), 10)
        assert np.array_equal(graph.vertex_feature(a, 3, range(5)), a[3])

    def test_singleton_is_zero(self):
        a = graph.sample_ier(np.full((5, 5), 0.5), 11)
        assert np.array_equal(graph.vertex_feature(a, 2, [2]), [0.0])

    def test_restricted_entries(self):
        a = graph.sample_ier(np.full((5, 5), 0.5), 12)
        feat = graph.vertex_feature(a, 3, [1, 3, 4])
        assert np.array_equal(feat, [a[3, 1], 0.0, a[3, 4]])

    def test_vertex_outside_restriction(self):
        a = graph.sample_ier(np.full((5, 5), 0.5), 13)
        with pytest.raises(ValueError):
            graph.vertex_feature(a, 0, [1, 2])


class TestDataset:
    def test_rejects_asymmetric_undirected(self):
        graphs = np.zeros((2, 3, 3))
        graphs[0, 0, 1] = 1.0
        labels = np.array([0, 1])
        with pytest.raises(ValueError):
            graph.LabeledGraphDataset(graphs, labels)

    def test_directed_option_removed(self):
        graphs = np.zeros((2, 3, 3))
        with pytest.raises(TypeError):
            graph.LabeledGraphDataset(graphs, np.array([0, 1]), directed=False)

    def test_rejects_self_loops(self):
        graphs = np.zeros((2, 3, 3))
        graphs[0, 1, 1] = 1.0
        with pytest.raises(ValueError):
            graph.LabeledGraphDataset(graphs, np.array([0, 1]))

    def test_needs_two_graphs(self):
        with pytest.raises(ValueError):
            graph.LabeledGraphDataset(np.zeros((1, 3, 3)), np.array([0]))

    def test_arrays_frozen(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.graphs[0, 0, 1] = 1.0

    def test_subset_keeps_subjects(self):
        ds = make_dataset(m=4, subject_ids=["a", "a", "b", "b"])
        sub = ds.subset([0, 2])
        assert sub.subject_ids == ("a", "b")
        assert sub.m == 2


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = make_dataset(m=5, n=6, seed=3)
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        graph.save_dataset(ds, gp, lp)
        loaded = graph.load_dataset(gp, lp, n=6)
        assert np.array_equal(loaded.graphs, ds.graphs)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_round_trip_with_subjects(self, tmp_path):
        ds = make_dataset(m=4, subject_ids=["s1", "s1", "s2", "s2"])
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        graph.save_dataset(ds, gp, lp)
        loaded = graph.load_dataset(gp, lp, n=ds.n)
        assert loaded.subject_ids == ds.subject_ids

    def test_vertex_count_inferred(self, tmp_path):
        ds = make_dataset(m=4, n=7, seed=8)
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        graph.save_dataset(ds, gp, lp)
        loaded = graph.load_dataset(gp, lp)
        # inference sees 1 + the largest index that carries an edge
        assert loaded.n <= 7
        assert np.array_equal(loaded.graphs[:, : loaded.n, : loaded.n], ds.graphs[:, : loaded.n, : loaded.n])

    def test_malformed_row_reports_line(self, tmp_path):
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text("graph_id,label\n0,0\n1,1\n")
        gp.write_text("graph_id,u,v,weight\n0,0,1,1\n1,zero,1,1\n")
        with pytest.raises(ValueError, match="graphs.csv:3"):
            graph.load_dataset(gp, lp, n=3)

    @pytest.mark.parametrize("label", ["nan", "inf", "-Infinity"])
    def test_non_finite_label_reports_line(self, tmp_path, label):
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text(f"graph_id,label\n0,0\n1,{label}\n2,1\n")
        gp.write_text("graph_id,u,v,weight\n0,0,1,1\n")
        with pytest.raises(ValueError, match=f"labels.csv:3: label '{label}' is not finite"):
            graph.load_dataset(gp, lp, n=3)

    def test_unknown_graph_id(self, tmp_path):
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text("graph_id,label\n0,0\n1,1\n")
        gp.write_text("graph_id,u,v,weight\n7,0,1,1\n")
        with pytest.raises(ValueError, match="unknown graph id"):
            graph.load_dataset(gp, lp, n=3)

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("0,0,1,1\n0,2,1,1\n0,0,1,5\n", 4),
            ("0,0,1,1\n1,0,1,1\n0,1,0,5\n", 4),
        ],
        ids=["same-row", "both-orientations"],
    )
    def test_repeated_pair_rejected(self, tmp_path, rows, line):
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text("graph_id,label\n0,0\n1,1\n")
        gp.write_text("graph_id,u,v,weight\n" + rows)
        with pytest.raises(ValueError, match=f"graphs.csv:{line}: .* line 2"):
            graph.load_dataset(gp, lp, n=3)

    def test_bad_header(self, tmp_path):
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text("id,label\n0,0\n")
        gp.write_text("graph_id,u,v,weight\n")
        with pytest.raises(ValueError, match="labels.csv:1"):
            graph.load_dataset(gp, lp, n=3)


def test_vertex_set_normalizes():
    assert np.array_equal(graph.vertex_set([3, 1, 3], 5), [1, 3])
    with pytest.raises(ValueError):
        graph.vertex_set([], 5)
    with pytest.raises(ValueError):
        graph.vertex_set([5], 5)


@pytest.mark.parametrize("m", [-1, 0, 1])
def test_sample_dataset_needs_two_graphs(m):
    with pytest.raises(ValueError, match="a draw needs at least 2 graphs"):
        graph.sample_ier_dataset([np.full((3, 3), 0.5)], [1.0], m, 0)


def test_sample_dataset_prior_counts():
    mats = [np.full((6, 6), 0.2), np.full((6, 6), 0.8)]
    ds = graph.sample_ier_dataset(mats, [0.5, 0.5], 400, 4)
    counts = np.bincount(ds.labels.astype(int))
    assert abs(counts[0] / 400 - 0.5) <= 4 * np.sqrt(0.25 / 400)
