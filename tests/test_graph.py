"""Tests for the graph data model, IER sampling, and CSV I/O, and for the
sampling, likelihood and feature-row oracles."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import traced_peak
from vertexscreen import graph
from vertexscreen.cli import main


def make_dataset(m=4, n=5, seed=0, subject_ids=None):
    rng = np.random.default_rng(seed)
    graphs = np.stack([oracles.sample_ier(np.full((n, n), 0.5), rng) for _ in range(m)])
    labels = rng.integers(0, 2, size=m)
    return graph.LabeledGraphDataset(graphs, labels, subject_ids=subject_ids)


class TestSampleIer:
    def test_zero_matrix(self):
        ds = graph.sample_ier_dataset([np.zeros((4, 4))], [1.0], 3, 0)
        assert np.array_equal(ds.graphs, np.zeros((3, 4, 4)))

    def test_all_ones(self):
        ds = graph.sample_ier_dataset([np.ones((4, 4))], [1.0], 3, 0)
        expected = np.ones((4, 4)) - np.eye(4)
        assert all(np.array_equal(a, expected) for a in ds.graphs)

    def test_edge_frequency_concentration(self):
        # 100 draws at p=0.3 on 200 vertices: the pooled edge frequency
        # stays within 4 binomial standard deviations of p
        n, draws, p = 200, 100, 0.3
        ds = graph.sample_ier_dataset([np.full((n, n), p)], [1.0], draws, 1)
        total_edges = ds.graphs[:, np.triu(np.ones((n, n), dtype=bool), 1)].sum()
        trials = draws * n * (n - 1) / 2
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(total_edges / trials - p) <= 4 * sigma

    def test_seed_reproducibility(self):
        mats = [np.full((10, 10), 0.4), np.full((10, 10), 0.6)]
        a = graph.sample_ier_dataset(mats, [0.5, 0.5], 4, 123)
        b = graph.sample_ier_dataset(mats, [0.5, 0.5], 4, 123)
        assert np.array_equal(a.graphs, b.graphs) and np.array_equal(a.labels, b.labels)

    def test_symmetric_and_hollow(self):
        ds = graph.sample_ier_dataset([np.full((8, 8), 0.5)], [1.0], 3, 3)
        for a in ds.graphs:
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            graph.sample_ier_dataset([np.full((3, 3), 1.5)], [1.0], 2, 0)
        with pytest.raises(ValueError):
            graph.sample_ier_dataset([np.array([[0.0, 0.2], [0.3, 0.0]])], [1.0], 2, 0)

    def test_dataset_stack_equals_per_graph_draws(self):
        # the dataset sampler fills one stack with the oracle's draws, in rng order
        rng = np.random.default_rng(4)
        mats = [rng.random((6, 6)) for _ in range(3)]
        mats = [(p + p.T) / 2 for p in mats]
        priors = [0.2, 0.5, 0.3]
        ds = graph.sample_ier_dataset(mats, priors, 9, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        which = rng.choice(3, size=9, p=np.asarray(priors) / np.sum(priors))
        expected = np.stack([oracles.sample_ier(mats[c], rng) for c in which])
        assert np.all(ds.labels == which)
        assert ds.graphs.dtype == np.uint8 and np.all(ds.graphs == expected)


class TestLogLikelihood:
    def test_degenerate_match_is_zero(self):
        p = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        a = oracles.sample_ier(p, 0)
        assert oracles.ier_log_likelihood(a, p) == 0.0

    def test_closed_form_half(self):
        p = np.full((3, 3), 0.5)
        np.fill_diagonal(p, 0.0)
        a = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert np.isclose(oracles.ier_log_likelihood(a, p), 3 * np.log(0.5))

    def test_matches_linear_domain_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 0.9, size=(4, 4))
        p = (p + p.T) / 2
        np.fill_diagonal(p, 0.0)
        a = oracles.sample_ier(p, 5)
        product = 1.0
        for u in range(4):
            for v in range(u + 1, 4):
                product *= p[u, v] if a[u, v] else 1 - p[u, v]
        assert abs(oracles.ier_log_likelihood(a, p) - np.log(product)) <= 1e-12

    def test_contradiction_is_minus_inf(self):
        p = np.zeros((3, 3))
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        assert oracles.ier_log_likelihood(a, p) == -np.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracles.ier_log_likelihood(np.zeros((3, 3)), np.zeros((4, 4)))

    def test_rejects_weighted(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 0.5
        with pytest.raises(ValueError):
            oracles.ier_log_likelihood(a, np.full((3, 3), 0.5) - 0.5 * np.eye(3))


class TestInducedSubgraph:
    def test_full_set_identity(self):
        a = oracles.sample_ier(np.full((5, 5), 0.5), 7)
        assert np.array_equal(graph.induced_subgraph(a, range(5)), a)

    def test_full_set_returns_the_input_uncopied(self):
        stack = np.stack([oracles.sample_ier(np.full((5, 5), 0.5), seed) for seed in (3, 4)])
        for a in (stack, stack[0]):
            sub = graph.induced_subgraph(a, [4, 0, 2, 1, 3])
            assert np.shares_memory(sub, a)
            assert np.array_equal(sub, a)

    def test_singleton(self):
        a = oracles.sample_ier(np.full((5, 5), 0.5), 8)
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
        a = oracles.sample_ier(np.full((8, 8), 0.5), 9)
        outer = np.asarray(outer)
        inner_positions = np.arange(0, outer.size, 2)
        once = graph.induced_subgraph(graph.induced_subgraph(a, outer), inner_positions)
        direct = graph.induced_subgraph(a, outer[inner_positions])
        assert np.array_equal(once, direct)


class TestVertexFeature:
    def test_full_restriction_is_row(self):
        a = oracles.sample_ier(np.full((5, 5), 0.5), 10)
        assert np.array_equal(oracles.vertex_feature(a, 3, range(5)), a[3])

    def test_singleton_is_zero(self):
        a = oracles.sample_ier(np.full((5, 5), 0.5), 11)
        assert np.array_equal(oracles.vertex_feature(a, 2, [2]), [0.0])

    def test_restricted_entries(self):
        a = oracles.sample_ier(np.full((5, 5), 0.5), 12)
        feat = oracles.vertex_feature(a, 3, [1, 3, 4])
        assert np.array_equal(feat, [a[3, 1], 0.0, a[3, 4]])

    def test_vertex_outside_restriction(self):
        a = oracles.sample_ier(np.full((5, 5), 0.5), 13)
        with pytest.raises(ValueError):
            oracles.vertex_feature(a, 0, [1, 2])


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_labels(self, bad):
        # as load_dataset does: a NaN label would become a class of its own
        with pytest.raises(ValueError, match="labels must be finite"):
            graph.LabeledGraphDataset(np.zeros((4, 3, 3)), [0.0, bad, 1.0, 1.0])

    def test_needs_one_vertex(self):
        with pytest.raises(ValueError, match="need at least 1 vertex"):
            graph.LabeledGraphDataset(np.zeros((2, 0, 0)), np.array([0, 1]))
        with pytest.raises(ValueError, match="need at least 1 vertex"):
            graph.sample_ier_dataset([np.zeros((0, 0))], [1.0], 3, 0)

    def test_arrays_frozen(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.graphs[0, 0, 1] = 1.0

    def test_subset_keeps_subjects(self):
        ds = make_dataset(m=4, subject_ids=["a", "a", "b", "b"])
        sub = ds.subset([0, 2])
        assert sub.subject_ids == ("a", "b")
        assert sub.m == 2

    def test_subset_keeps_graph_ids(self):
        ds = make_dataset(m=4)
        ds = graph.LabeledGraphDataset(ds.graphs, ds.labels, graph_ids=[30, 10, 20, 40])
        assert ds.subset([3, 1]).graph_ids == (40, 10)
        assert make_dataset(m=4).subset([3, 1]).graph_ids is None

    def test_subset_equals_a_fresh_construction(self):
        base = make_dataset(m=5)
        ds = graph.LabeledGraphDataset(base.graphs, base.labels, subject_ids="aabbc",
                                       graph_ids=[50, 10, 40, 20, 30])
        idx = [4, 0, 2]
        sub = ds.subset(idx)
        fresh = graph.LabeledGraphDataset(
            ds.graphs[idx], ds.labels[idx], subject_ids=[ds.subject_ids[i] for i in idx],
            graph_ids=[ds.graph_ids[i] for i in idx])
        for name in ("graphs", "labels"):
            got, want = getattr(sub, name), getattr(fresh, name)
            assert np.array_equal(got, want) and got.dtype == want.dtype
            assert not got.flags.writeable and not want.flags.writeable
        assert sub.subject_ids == fresh.subject_ids == ("c", "a", "b")
        assert sub.graph_ids == fresh.graph_ids == (30, 50, 40)
        with pytest.raises(ValueError, match="at least 2 graphs"):
            ds.subset([1])
        with pytest.raises(ValueError, match="one distinct graph id per graph"):
            ds.subset([1, 1])

    def test_subset_of_every_row_in_order_is_the_dataset(self):
        ds = make_dataset(m=5)
        assert ds.subset(range(5)) is ds and ds.subset(np.arange(5)) is ds
        for idx in ([4, 3, 2, 1, 0], [0, 0, 1, 2, 3], [0, 1, 2, 3]):
            sub = ds.subset(idx)
            assert sub is not ds
            for name in ("graphs", "labels"):
                got = getattr(sub, name)
                assert np.array_equal(got, getattr(ds, name)[idx])
                assert not got.flags.writeable

    @pytest.mark.parametrize("rows", [np.arange(12) < 8, [0.9, 1.9, 2.9]],
                             ids=["mask", "float"])
    def test_subset_refuses_rows_that_are_not_integers(self, rows):
        # numpy would read a mask or floats as positions 0 and 1 or 0, 1, 2
        with pytest.raises(ValueError, match="graph row indices must be integers"):
            make_dataset(m=12).subset(rows)

    @pytest.mark.parametrize("defect, message", [
        ("non-finite", "must be finite"), ("self-loop", "self-loops"),
        ("asymmetric", "symmetric adjacency")])
    def test_constructor_checks_the_entries(self, defect, message):
        ds = make_dataset(m=4)
        # float, so a NaN written below stays a NaN (uint8 would store 0)
        graphs = ds.graphs.astype(float)
        if defect == "non-finite":
            graphs[1, 0, 1] = graphs[1, 1, 0] = np.nan
        elif defect == "self-loop":
            graphs[2, 3, 3] = 1.0
        else:
            graphs[3, 0, 1] = 1.0 - graphs[3, 1, 0]
        with pytest.raises(ValueError, match=message):
            graph.LabeledGraphDataset(graphs, ds.labels)

    @pytest.mark.parametrize("chunk_cells", [1, None], ids=["one-graph-chunks", "default-chunks"])
    @pytest.mark.parametrize("defects, message", [
        # a late non-finite entry is found before an early asymmetry
        ((("asymmetric", 0), ("non-finite", 11)), "must be finite"),
        ((("asymmetric", 0), ("self-loop", 11)), "self-loops"),
        ((("self-loop", 5), ("asymmetric", 5)), "self-loops"),
    ], ids=["finite-first", "self-loops-before-symmetry", "self-loop-and-asymmetry"])
    def test_first_failing_check_wins(self, monkeypatch, chunk_cells, defects, message):
        # each check is its own pass over the chunks: with one graph a chunk,
        # checking every property of a chunk before the next would name
        # graph 0's asymmetry
        if chunk_cells is not None:
            monkeypatch.setattr(graph, "_CHUNK_CELLS", chunk_cells)
        ds = make_dataset(m=12, n=6, seed=4)
        graphs = ds.graphs.astype(float)
        for defect, g in defects:
            if defect == "non-finite":
                graphs[g, 0, 1] = graphs[g, 1, 0] = np.inf
            elif defect == "self-loop":
                graphs[g, 3, 3] = 1.0
            else:
                graphs[g, 0, 1] = 1.0 - graphs[g, 1, 0]
        with pytest.raises(ValueError, match=message):
            graph.LabeledGraphDataset(graphs, ds.labels)

    def test_checks_allocate_no_copy_of_the_stack(self):
        # a bool copy of the (300, 60, 60) uint8 stack is as large as the
        # stack; each check walks it in chunks of about 2**18 cells
        stack = make_dataset(m=300, n=60, seed=5).graphs.copy()
        labels = np.arange(300) % 2
        graph.LabeledGraphDataset(stack.copy(), labels)  # untraced: a first call may import
        assert traced_peak(lambda: graph.LabeledGraphDataset(stack, labels)) < stack.size
        assert graph.LabeledGraphDataset(stack, labels).graphs.dtype == np.uint8

    @pytest.mark.parametrize("source, stored", [
        ("bool", np.uint8), ("int64", np.uint8), ("float64", np.uint8),
        ("int-with-a-2", np.float64), ("float-with-a-half", np.float64),
        ("binary-csv", np.uint8), ("weighted-csv", np.float64)])
    def test_storage_rule(self, tmp_path, source, stored):
        # a stack of 0/1 entries is stored as uint8 whatever its input dtype;
        # any other as float64, holding the values the float64 input did
        base = make_dataset(m=4, n=5, seed=2)
        values = base.graphs.astype(float)
        if source.endswith("csv"):
            if source == "weighted-csv":
                values[0, 0, 1] = values[0, 1, 0] = 2.5
            graph.save_dataset(graph.LabeledGraphDataset(values, base.labels),
                               tmp_path / "graphs.csv", tmp_path / "labels.csv")
            ds = graph.load_dataset(tmp_path / "graphs.csv", tmp_path / "labels.csv", n=5)
        else:
            dtype = source.partition("-")[0]
            if source == "int-with-a-2":
                values[0, 0, 1] = values[0, 1, 0] = 2
            elif source == "float-with-a-half":
                values[0, 0, 1] = values[0, 1, 0] = 0.5
            ds = graph.LabeledGraphDataset(values.astype(dtype), base.labels)
        assert ds.graphs.dtype == stored
        assert np.array_equal(ds.graphs.astype(float), values)
        assert ds.subset([3, 1]).graphs.dtype == stored

    @pytest.mark.parametrize("ids", [[1, 2, 3], [1, 2, 3, 3]], ids=["short", "repeated"])
    def test_rejects_graph_ids_not_one_per_graph(self, ids):
        ds = make_dataset(m=4)
        with pytest.raises(ValueError, match="one distinct graph id per graph"):
            graph.LabeledGraphDataset(ds.graphs, ds.labels, graph_ids=ids)


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

    def test_round_trip_keeps_graph_ids(self, tmp_path):
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text("graph_id,label\n30,1\n10,0\n20,1\n")
        gp.write_text("graph_id,u,v,weight\n10,0,1,1\n30,1,2,1\n")
        loaded = graph.load_dataset(gp, lp, n=3)
        assert loaded.graph_ids == (10, 20, 30)
        assert loaded.labels.tolist() == [0, 1, 1]
        graph.save_dataset(loaded, gp, lp)
        assert lp.read_text().splitlines()[1:] == ["10,0", "20,1", "30,1"]
        again = graph.load_dataset(gp, lp, n=3)
        assert again.graph_ids == loaded.graph_ids
        assert np.array_equal(again.graphs, loaded.graphs)
        assert np.array_equal(again.labels, loaded.labels)

    def test_weighted_dataset_bytes(self, tmp_path):
        a = np.zeros((2, 3, 3))
        for g, u, v, w in ((0, 0, 1, 1.0), (0, 1, 2, 0.25), (1, 0, 2, 2.0), (1, 1, 2, 0.1)):
            a[g, u, v] = a[g, v, u] = w
        ds = graph.LabeledGraphDataset(a, np.array([0.0, 1.5]), graph_ids=(10, 20))
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        graph.save_dataset(ds, gp, lp)
        assert gp.read_bytes() == (
            b"graph_id,u,v,weight\r\n10,0,1,1\r\n10,1,2,0.25\r\n20,0,2,2\r\n20,1,2,0.1\r\n"
        )
        assert lp.read_bytes() == b"graph_id,label\r\n10,0\r\n20,1.5\r\n"

    def test_positions_written_without_graph_ids(self, tmp_path):
        ds = make_dataset(m=3)
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        graph.save_dataset(ds, gp, lp)
        assert [row.split(",")[0] for row in lp.read_text().splitlines()[1:]] == ["0", "1", "2"]
        assert graph.load_dataset(gp, lp, n=ds.n).graph_ids == (0, 1, 2)

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

    @pytest.mark.parametrize("weight", ["nan", "inf", "-Infinity"])
    def test_non_finite_weight_reports_line(self, tmp_path, weight):
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text("graph_id,label\n0,0\n1,1\n")
        gp.write_text(f"graph_id,u,v,weight\n0,0,1,1\n1,0,2,{weight}\n")
        with pytest.raises(ValueError, match=f"graphs.csv:3: weight '{weight}' is not finite"):
            graph.load_dataset(gp, lp, n=3)

    def test_edge_row_with_a_fifth_field_reports_line(self, tmp_path):
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text("graph_id,label\n0,0\n1,1\n")
        gp.write_text("graph_id,u,v,weight\n0,0,1,1\n0,1,2,1,zzz\n")
        with pytest.raises(ValueError, match="graphs.csv:3: malformed edge row"):
            graph.load_dataset(gp, lp, n=3)

    def test_vertex_index_beyond_int64_reports_line(self, tmp_path):
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text("graph_id,label\n0,0\n1,1\n")
        gp.write_text("graph_id,u,v,weight\n0,0,1,1\n0,0,99999999999999999999,1\n")
        with pytest.raises(ValueError, match="graphs.csv:3: vertex index 99999999999999999999 "
                                             "is beyond int64"):
            graph.load_dataset(gp, lp)

    def test_stack_beyond_int64_cells_reports_line(self, tmp_path):
        # 2 * 3037000501**2 cells overflow the int64 pair key of a duplicate check
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text("graph_id,label\n0,0\n1,1\n")
        gp.write_text("graph_id,u,v,weight\n0,0,3037000500,1\n1,0,1,1\n")
        with pytest.raises(ValueError, match=r"graphs.csv:2: 2 graphs on 3037000501 vertices"):
            graph.load_dataset(gp, lp)

    def test_stack_too_large_to_allocate_is_refused(self, tmp_path):
        # 2 * 30000001**2 uint8 cells (1.6 PiB) lie beyond any 64-bit
        # address space, so the allocation fails on every machine
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        lp.write_text("graph_id,label\n0,0\n1,1\n")
        gp.write_text("graph_id,u,v,weight\n0,0,30000000,1\n")
        with pytest.raises(ValueError, match=r"graphs.csv: cannot allocate the "
                                             r"\(2, 30000001, 30000001\) uint8 adjacency stack, "
                                             r"1676380.7 GiB"):
            graph.load_dataset(gp, lp)


LABELS = "graph_id,label\n0,0\n1,1\n"
HUGE_ID = "99999999999999999999"
CHUNK = graph._CHUNK_CELLS


def padded(row, width):
    """An edge row spread to ``width`` characters by spaces after its
    fields, each field within the csv module's 131072-character limit."""
    gid, u, v, w = row.split(",")
    gap = " " * ((width - len(row)) // 3)
    return f"{gid}{gap},{u}{gap},{v}{gap},{w}".ljust(width)


# (graphs.csv body after its header line, labels.csv, whether the bulk parse
# takes it, the error the load raises or None)
SPELLINGS = {
    "lf": ("0,0,1,1\n1,1,2,0.5\n", LABELS, True, None),
    "crlf": ("0,0,1,1\r\n1,1,2,0.5\r\n", LABELS, True, None),
    "no-trailing-newline": ("0,0,1,1\n1,1,2,0.5", LABELS, True, None),
    # loadtxt splits lines at a lone "\r" as csv does, so the newline count decides
    "cr-only": ("0,0,1,1\r1,1,2,0.5\r", LABELS, False, None),
    "header-only": ("", LABELS, False, None),
    "blank-lines": ("\n0,0,1,1\n\n1,1,2,0.5\n\n", LABELS, False, None),
    "blank-crlf-line": ("0,0,1,1\r\n\r\n1,1,2,0.5\r\n", LABELS, False, None),
    "spaces-around-fields": (" 0 , 0 , 1 , 1 \n1,1,2,0.5\n", LABELS, True, None),
    "plus-signs": ("+0,+0,+1,+1\n", LABELS, True, None),
    "float-vertex": ("0,1.0,2,1\n", LABELS, False, r"graphs.csv:2: malformed edge row"),
    "quoted-vertex": ('0,"1",2,1\n', LABELS, False, None),
    "underscore-vertex": ("0,1_0,2,1\n", LABELS, False, r"vertex index 10 exceeds n=3"),
    "exponent-weight": ("0,0,1,1e0\n", LABELS, True, None),
    "fractional-weight": ("0,0,1,0.25\n", LABELS, True, None),
    "underflowing-weight": ("0,0,1,1e-400\n", LABELS, True, None),
    "three-fields": ("0,0,1,1\n0,1,2\n", LABELS, False, r"graphs.csv:3: malformed edge row"),
    "five-fields": ("0,0,1,1\n0,1,2,1,zzz\n", LABELS, False, r"graphs.csv:3: malformed edge row"),
    "id-beyond-int64": (f"0,0,1,1\n{HUGE_ID},1,2,1\n", LABELS + f"{HUGE_ID},1\n", False, None),
    "unlisted-id-beyond-int64": (f"{HUGE_ID},1,2,1\n", LABELS, False,
                                 rf"graphs.csv:2: unknown graph id {HUGE_ID}"),
    "comment-row": ("0,0,1,1\n#1,1,2,1\n", LABELS, False, r"graphs.csv:3: malformed edge row"),
    "unknown-id": ("0,0,1,1\n7,1,2,1\n", LABELS, False, r"graphs.csv:3: unknown graph id 7"),
    "negative-index": ("0,0,-1,1\n", LABELS, False, r"graphs.csv:2: negative vertex index"),
    "self-loop": ("0,0,1,1\n1,2,2,1\n", LABELS, False, r"graphs.csv:3: self-loops are not supported"),
    "zero-weight-self-loop": ("0,2,2,0\n", LABELS, True, None),
    "non-finite-weight": ("0,0,1,inf\n", LABELS, False, r"graphs.csv:2: weight 'inf' is not finite"),
    "repeated-pair": ("0,0,1,1\n1,0,1,1\n0,1,0,1\n", LABELS, True,
                      r"graphs.csv:4: pair 1,0 of graph 0 is already listed on line 2"),
    "repeated-pair-after-blank-line": ("0,0,1,1\n\n0,1,0,1\n", LABELS, False,
                                       r"graphs.csv:4: pair 1,0 of graph 0 is already listed on line 2"),
    # a float64 stack keeps the sign of a zero weight
    "negative-zero-weight": ("0,0,1,-0\n1,1,2,0.5\n", LABELS, True, None),
    # the padded first row fills a text chunk, so later rows land in the next
    "repeated-pair-across-chunks": (
        padded("0,0,1,1", CHUNK) + "\n1,0,1,1\n0,1,0,1\n", LABELS, True,
        r"graphs.csv:4: pair 1,0 of graph 0 is already listed on line 2"),
    "unknown-id-in-the-last-chunk": (padded("0,0,1,1", CHUNK) + "\n7,1,2,1\n", LABELS, False,
                                     r"graphs.csv:3: unknown graph id 7"),
    # two default chunks: the first ends in its newline, the second at the end
    # of the file, with no newline
    "no-trailing-newline-at-a-chunk-edge": (
        padded("0,0,1,1", CHUNK - 1) + "\n" + padded("1,1,2,0.5", CHUNK), LABELS, True, None),
}


def load_outcome(gp, lp):
    """What ``load_dataset(n=3)`` gives: the dataset's bytes, dtype, labels,
    ids and n, or its error."""
    try:
        ds = graph.load_dataset(gp, lp, n=3)
    except ValueError as exc:
        return str(exc)
    return ds.graphs.tobytes(), ds.graphs.dtype, ds.labels.tolist(), ds.graph_ids, ds.n


def spelling_files(tmp_path, body, labels):
    """The graphs.csv and labels.csv of a SPELLINGS case."""
    gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
    lp.write_text(labels)
    gp.write_bytes(("graph_id,u,v,weight\n" + body).encode())
    return gp, lp


def logged_row_parses(monkeypatch):
    """The list each call of the row parser appends its arguments to."""
    row_parses = []
    read_edges = graph._read_edges

    def row_parser(*args):
        row_parses.append(args)
        return read_edges(*args)

    monkeypatch.setattr(graph, "_read_edges", row_parser)
    return row_parses


class TestCsvBulkPath:
    @pytest.mark.parametrize("body, labels, bulk, error", SPELLINGS.values(), ids=SPELLINGS.keys())
    def test_bulk_load_equals_the_row_parser(self, tmp_path, monkeypatch, body, labels, bulk, error):
        gp, lp = spelling_files(tmp_path, body, labels)
        row_parses = logged_row_parses(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = load_outcome(gp, lp)
        assert not caught, [str(w.message) for w in caught]
        assert bool(row_parses) is not bulk
        if error is None:
            assert not isinstance(outcome, str), outcome
        else:
            assert re.search(error, outcome), outcome
        monkeypatch.setattr(graph, "_read_edges_bulk", lambda *args: None)
        assert load_outcome(gp, lp) == outcome

    @pytest.mark.parametrize("chunk_cells", [1, 7, 64])
    @pytest.mark.parametrize("body, labels, bulk, error", SPELLINGS.values(), ids=SPELLINGS.keys())
    def test_chunk_size_changes_no_outcome(self, tmp_path, monkeypatch, chunk_cells,
                                           body, labels, bulk, error):
        # text chunks of a line or a few, row chunks of one or two rows
        gp, lp = spelling_files(tmp_path, body, labels)
        expected = load_outcome(gp, lp)
        monkeypatch.setattr(graph, "_CHUNK_CELLS", chunk_cells)
        row_parses = logged_row_parses(monkeypatch)
        assert load_outcome(gp, lp) == expected
        assert bool(row_parses) is not bulk

    @pytest.mark.parametrize("source", ["save_dataset", "simulate"])
    def test_clean_files_take_the_bulk_path(self, tmp_path, monkeypatch, source):
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        if source == "simulate":
            assert main(["simulate", "exp2", "--m", "60", "--seed", "7", "--out", str(tmp_path)]) == 0
        else:
            ds = make_dataset(m=5, n=6, seed=3)
            weights = np.triu(np.random.default_rng(3).uniform(0.5, 1.5, ds.graphs.shape), 1)
            ds = graph.LabeledGraphDataset(ds.graphs * (weights + np.swapaxes(weights, 1, 2)),
                                           ds.labels, graph_ids=(40, 10, 30, 20, 50))
            graph.save_dataset(ds, gp, lp)
        monkeypatch.setattr(graph, "_read_edges_bulk", lambda *args: None)
        expected = graph.load_dataset(gp, lp)
        monkeypatch.undo()

        def refuse(*args):
            raise AssertionError("a clean graphs.csv fell back to the row parser")

        monkeypatch.setattr(graph, "_read_edges", refuse)
        loaded = graph.load_dataset(gp, lp)
        assert np.array_equal(loaded.graphs, expected.graphs)
        assert loaded.graph_ids == expected.graph_ids
        assert np.array_equal(loaded.labels, expected.labels)
        if source == "save_dataset":
            # a load lists the graphs in ascending id
            assert np.array_equal(loaded.graphs, ds.subset(np.argsort(ds.graph_ids)).graphs)

    @pytest.mark.parametrize("source, mib", [("bulk", 6), ("rows", 7)], ids=["bulk", "rows"])
    def test_load_peak_is_bounded(self, tmp_path, source, mib):
        # the 4.1 MiB file holds 337221 edges of a 2.3 MiB uint8 stack. The
        # load holds each edge in 4 bytes, one text or row chunk, and the
        # stack: traced peaks of 4.4 MiB in bulk and 5.0 MiB through the row
        # parser, where one blank line sends the file. A parse of the whole
        # file into 32-byte rows peaked at 28.7 and 56.8 MiB.
        assert main(["simulate", "exp2", "--m", "60", "--seed", "7", "--out", str(tmp_path)]) == 0
        gp, lp = tmp_path / "graphs.csv", tmp_path / "labels.csv"
        if source == "rows":
            header, body = gp.read_bytes().split(b"\n", 1)
            gp.write_bytes(header + b"\n\n" + body)
        graph.load_dataset(gp, lp)  # untraced warm-up
        assert traced_peak(lambda: graph.load_dataset(gp, lp)) < mib * 2**20

    @pytest.mark.parametrize("weights, graph_ids", [
        ((0.0, 0.0, 0.0, 1.0, 1.0, 0.0), (0, 1)),
        ((-2.0, 1e16, 0.1 + 0.2, 1e-300, 0.3, -0.5), (7, 3)),
        ((0.25, 0.25, 1.0, 0.0, 2.0, 0.25), (20, 10)),
    ], ids=["edgeless-graph", "awkward-weights", "out-of-order-ids"])
    def test_save_writes_the_csv_writer_bytes(self, tmp_path, weights, graph_ids):
        ds = two_graphs(weights, graph_ids)
        graph.save_dataset(ds, tmp_path / "g.csv", tmp_path / "l.csv")
        oracles.save_dataset_rows(ds, tmp_path / "g_rows.csv", tmp_path / "l_rows.csv")
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "g_rows.csv").read_bytes()
        assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "l_rows.csv").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6))
    def test_save_writes_the_csv_writer_bytes_for_any_finite_weights(self, tmp_path_factory, weights):
        out = tmp_path_factory.mktemp("bytes")
        ds = two_graphs(weights, None)
        graph.save_dataset(ds, out / "g.csv", out / "l.csv")
        oracles.save_dataset_rows(ds, out / "g_rows.csv", out / "l_rows.csv")
        assert (out / "g.csv").read_bytes() == (out / "g_rows.csv").read_bytes()


def two_graphs(weights, graph_ids):
    """Two graphs on 3 vertices: weights 0-2 on graph 0's pairs 01, 02, 12,
    weights 3-5 on graph 1's."""
    a = np.zeros((2, 3, 3))
    iu = np.triu_indices(3, 1)
    a[:, iu[0], iu[1]] = np.reshape(weights, (2, 3))
    a += np.swapaxes(a, 1, 2)
    return graph.LabeledGraphDataset(a, np.array([1.0, 0.5]), graph_ids=graph_ids)

def test_vertex_set_normalizes():
    assert np.array_equal(graph.vertex_set([3, 1, 3], 5), [1, 3])
    with pytest.raises(ValueError, match="vertex set is empty"):
        graph.vertex_set([], 5)
    with pytest.raises(ValueError):
        graph.vertex_set([5], 5)


@pytest.mark.parametrize("indices", [np.array([True, False, True, True]), [0.9, 2.5]],
                         ids=["mask", "floats"])
def test_vertex_set_refuses_indices_that_are_not_integers(indices):
    with pytest.raises(ValueError, match="vertex indices must be integers"):
        graph.vertex_set(indices, 4)


@pytest.mark.parametrize("m", [-1, 0, 1])
def test_sample_dataset_needs_two_graphs(m):
    with pytest.raises(ValueError, match="a draw needs at least 2 graphs"):
        graph.sample_ier_dataset([np.full((3, 3), 0.5)], [1.0], m, 0)


def test_sample_dataset_refuses_a_stack_it_cannot_allocate():
    # 2**45 * 200**2 uint8 cells (1.2 EiB) lie beyond any 64-bit address space
    p = np.full((200, 200), 0.5)
    np.fill_diagonal(p, 0.0)
    with pytest.raises(ValueError, match=r"^cannot allocate the \(35184372088832, 200, 200\) "
                                         r"uint8 adjacency stack, 1310720000.0 GiB$"):
        graph.sample_ier_dataset([p], [1.0], 2**45, 0)


def test_sample_dataset_prior_counts():
    mats = [np.full((6, 6), 0.2), np.full((6, 6), 0.8)]
    ds = graph.sample_ier_dataset(mats, [0.5, 0.5], 400, 4)
    counts = np.bincount(ds.labels.astype(int))
    assert abs(counts[0] / 400 - 0.5) <= 4 * np.sqrt(0.25 / 400)
