"""Tests for ROC/AUC, cross-validation, and the experiment harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexscreen import classify, evaluate
from vertexscreen.graph import LabeledGraphDataset, sample_ier_dataset


def mann_whitney_auc(ranking, true_set, n, keys=None):
    """Pairwise-comparison oracle: fraction of (signal, noise) pairs where
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


class TestRocAuc:
    def test_perfect_ranking(self):
        ranking = np.arange(10)
        _, auc = evaluate.roc_auc(ranking, [0, 1, 2], 10)
        assert auc == 1.0

    def test_reversed_ranking(self):
        ranking = np.arange(10)[::-1]
        _, auc = evaluate.roc_auc(ranking, [0, 1, 2], 10)
        assert auc == 0.0

    def test_matches_mann_whitney_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(5, 21))
            ranking = rng.permutation(n)
            k = int(rng.integers(1, n))
            true_set = rng.choice(n, size=k, replace=False)
            _, auc = evaluate.roc_auc(ranking, true_set, n)
            assert abs(auc - mann_whitney_auc(ranking, true_set, n)) <= 1e-12
        for _ in range(10):
            n = int(rng.integers(5, 21))
            k = int(rng.integers(1, n))
            true_set = rng.choice(n, size=k, replace=False)
            # few distinct values, so the keys tie; the ranking sorts by them
            keys = (rng.integers(0, 3, size=n), rng.integers(0, 2, size=n))
            ranking = np.lexsort((np.arange(n), *keys))
            _, auc = evaluate.roc_auc(ranking, true_set, n, keys=keys)
            assert abs(auc - mann_whitney_auc(ranking, true_set, n, keys)) <= 1e-12

    def test_all_tied_is_chance(self):
        # the index tie-break puts the signal first; ties still count one half
        keys = np.ones(10)
        curve, auc = evaluate.roc_auc(np.arange(10), [0, 1, 2], 10, keys=keys)
        assert auc == 0.5
        assert curve.fpr.tolist() == [0.0, 1.0] and curve.tpr.tolist() == [0.0, 1.0]

    def test_untied_keys_leave_curve_unchanged(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=15)
        ranking = np.argsort(-scores)
        plain_curve, plain = evaluate.roc_auc(ranking, [0, 4, 7], 15)
        keyed_curve, keyed = evaluate.roc_auc(ranking, [0, 4, 7], 15, keys=-scores)
        assert keyed == plain
        assert np.array_equal(keyed_curve.fpr, plain_curve.fpr)
        assert np.array_equal(keyed_curve.tpr, plain_curve.tpr)

    @given(st.integers(3, 25), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_curve_endpoints_and_monotone(self, n, rnd):
        ranking = list(range(n))
        rnd.shuffle(ranking)
        k = rnd.randint(1, n - 1)
        true_set = sorted(rnd.sample(range(n), k))
        curve, auc = evaluate.roc_auc(np.asarray(ranking), true_set, n)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert 0.0 <= auc <= 1.0

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            evaluate.roc_auc(np.array([0, 0, 1]), [0], 3)

    def test_rejects_full_true_set(self):
        with pytest.raises(ValueError):
            evaluate.roc_auc(np.arange(4), [0, 1, 2, 3], 4)
        with pytest.raises(ValueError):
            evaluate.roc_auc(np.arange(4), [], 4)


class TestFprAtSize:
    def test_exact_recovery(self):
        assert evaluate.fpr_at_size([0, 1], [0, 1], 10) == 0.0

    def test_complement(self):
        assert evaluate.fpr_at_size(range(2, 10), [0, 1], 10) == 1.0

    def test_partial(self):
        assert evaluate.fpr_at_size([0, 5], [0, 1], 10) == 1 / 8

    def test_empty_selection(self):
        assert evaluate.fpr_at_size([], [0, 1], 10) == 0.0


def two_block_dataset(m, seed, n=14, subject_ids=None):
    mats = []
    for p_sig in (0.15, 0.85):
        mat = np.full((n, n), 0.4)
        mat[:5, :5] = p_sig
        np.fill_diagonal(mat, 0.0)
        mats.append(mat)
    ds = sample_ier_dataset(mats, [0.5, 0.5], m, seed)
    if subject_ids is not None:
        ds = LabeledGraphDataset(ds.graphs, ds.labels, subject_ids=subject_ids)
    return ds


class TestCrossValidate:
    def test_duplicated_twin_has_zero_error(self):
        base = two_block_dataset(6, 1)
        graphs = np.concatenate([base.graphs, base.graphs])
        labels = np.concatenate([base.labels, base.labels])
        ds = LabeledGraphDataset(graphs, labels)
        pipeline = evaluate.PipelineConfig(
            fixed_vertices=tuple(range(ds.n)), classifier="knn", k=1
        )
        report = evaluate.cross_validate(ds, pipeline)
        assert report.loss.error == 0.0

    def test_subject_grouping_fold_count(self):
        subjects = [f"s{i // 2}" for i in range(12)]
        ds = two_block_dataset(12, 2, subject_ids=subjects)
        pipeline = evaluate.PipelineConfig(
            fixed_vertices=(0, 1, 2, 3, 4), classifier="knn", k=3
        )
        report = evaluate.cross_validate(ds, pipeline, grouping="subject")
        assert len(report.folds) == 6
        assert all(len(f.test_indices) == 2 for f in report.folds)

    def test_subject_grouping_requires_ids(self):
        ds = two_block_dataset(6, 3)
        pipeline = evaluate.PipelineConfig(fixed_vertices=(0, 1), classifier="knn", k=1)
        with pytest.raises(ValueError):
            evaluate.cross_validate(ds, pipeline, grouping="subject")

    def test_leakage_guard_metamorphic(self):
        # flipping a held-out label must not change the fold's selection or
        # its predictions, only the recorded truth
        ds = two_block_dataset(10, 4)
        flipped_labels = ds.labels.copy()
        flipped_labels[3] = 1 - flipped_labels[3]
        flipped = LabeledGraphDataset(ds.graphs, flipped_labels)
        pipeline = evaluate.PipelineConfig(
            statistic="dcorr", iterative=True, delta=0.5, classifier="plugin"
        )
        fold = 3  # leave-one-out fold holding exactly graph 3 out
        r1 = evaluate.cross_validate(ds, pipeline)
        r2 = evaluate.cross_validate(flipped, pipeline)
        assert r1.folds[fold].selected == r2.folds[fold].selected
        assert r1.folds[fold].predictions == r2.folds[fold].predictions

    def test_unseen_class_flagged_and_counted_as_error(self):
        graphs = two_block_dataset(6, 5).graphs
        labels = np.array([9, 0, 0, 1, 1, 0])  # label 9 appears once
        ds = LabeledGraphDataset(graphs, labels)
        pipeline = evaluate.PipelineConfig(
            fixed_vertices=tuple(range(ds.n)), classifier="plugin"
        )
        report = evaluate.cross_validate(ds, pipeline)
        assert report.folds[0].unseen_class
        assert report.folds[0].predictions[0] != 9
        assert not report.folds[1].unseen_class


class TestExperimentParameters:
    def test_exp1_block_structure(self):
        mats, priors, signal = evaluate.experiment_parameters("exp1")
        assert len(mats) == 2 and np.allclose(priors, [0.5, 0.5])
        assert np.array_equal(signal, np.arange(20))
        p0 = mats[0]
        assert p0[0, 1] == 0.3 and p0[0, 30] == 0.2 and p0[30, 60] == 0.3
        p1 = mats[1]
        assert p1[0, 1] == 0.4 and p1[0, 30] == 0.2 and p1[30, 60] == 0.3

    def test_exp2_class_probabilities(self):
        mats, priors, _ = evaluate.experiment_parameters("exp2")
        assert [m[0, 1] for m in mats] == [0.3, 0.4, 0.5]
        assert np.allclose(priors, 1 / 3)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            evaluate.experiment_parameters("exp3")


class TestRunExperiment:
    def test_exp1_report_shape(self):
        report = evaluate.run_experiment(
            "exp1", repeats=2, seed=5, m=30, methods=("dcorr", "rv")
        )
        assert len(report.auc_records) == 4
        assert {r[0] for r in report.auc_records} == {"dcorr", "rv"}
        assert all(0.0 <= r[2] <= 1.0 for r in report.auc_records)
        assert len(report.screening_rows) == 200

    def test_exp1_determinism(self):
        a = evaluate.run_experiment("exp1", repeats=1, seed=6, m=30, methods=("dcorr",))
        b = evaluate.run_experiment("exp1", repeats=1, seed=6, m=30, methods=("dcorr",))
        assert a.auc_records == b.auc_records
        assert a.roc_points == b.roc_points

    def test_base_seeds_draw_different_datasets(self):
        aucs = [
            sorted(auc for _, _, auc in evaluate.run_experiment(
                "exp1", repeats=2, seed=seed, m=30, methods=("dcorr",)
            ).auc_records)
            for seed in (0, 1)
        ]
        assert aucs[0] != aucs[1]

    def test_exp2_records(self):
        report = evaluate.run_experiment(
            "exp2",
            repeats=1,
            seed=7,
            m_grid=(40,),
            test_draws=30,
            methods=("bayes", "itdcorr-0.5"),
        )
        assert {r[0] for r in report.loss_records} == {"bayes", "itdcorr-0.5"}
        assert {r[0] for r in report.fpr_records} == {"itdcorr-0.5"}

    def test_csv_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            report = evaluate.run_experiment(
                "exp1", repeats=2, seed=8, m=30, methods=("dcorr",)
            )
            evaluate.write_report(report, out)
        for name in ("auc.csv", "roc.csv", "screening.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_single_repeat_has_no_se(self):
        report = evaluate.run_experiment("exp1", repeats=1, seed=9, m=30, methods=("dcorr",))
        rows = evaluate.summarize(report.methods, report.auc_records)
        assert rows[0][2] is None
        assert "-" in evaluate.summary_text(report)

    def test_exp2_fixed_vertex_methods_fit_the_plugin_on_their_vertices(self):
        # full and true-signal skip screening; the repeat's draw is rebuilt
        # from its seed stream and fitted by hand
        report = evaluate.run_experiment(
            "exp2", repeats=1, seed=3, m_grid=(30,), test_draws=40,
            methods=("full", "true-signal"),
        )
        rng = np.random.default_rng(np.random.SeedSequence([3, 0]))
        train, signal = evaluate.sample_experiment("exp2", 30, rng)
        test, _ = evaluate.sample_experiment("exp2", 40, rng)
        expected = [
            ("full", 30, 0, float(np.mean(classify.plugin_predict_many(
                classify.fit_plugin(train), test.graphs) != test.labels))),
            ("true-signal", 30, 0, float(np.mean(classify.plugin_predict_many(
                classify.fit_plugin(train, restrict=signal), test.graphs) != test.labels))),
        ]
        assert report.loss_records == expected
        assert report.fpr_records == []

    @pytest.mark.parametrize("name, message", [("exp1", "at least 2 graphs, not 0"),
                                               ("exp2", "m too small")])
    def test_m_zero_is_rejected_not_defaulted(self, name, message):
        with pytest.raises(ValueError, match=message):
            evaluate.run_experiment(name, repeats=1, m=0, methods=("dcorr",))

    @pytest.mark.parametrize(
        "name, options, message",
        [
            ("exp1", {"m_grid": (30,)}, "m_grid applies to exp2 only"),
            ("exp1", {"test_draws": 7}, "test_draws applies to exp2 only"),
            ("exp2", {"m": 90, "m_grid": (12,)}, "m and m_grid exclude each other"),
            ("exp1", {"methods": ()}, "methods must name at least one method"),
            ("exp2", {"methods": []}, "methods must name at least one method"),
            ("exp2", {"m_grid": ()}, "m_grid must hold at least one m"),
        ],
    )
    def test_refuses_settings_the_run_ignores(self, name, options, message):
        with pytest.raises(ValueError, match=message):
            evaluate.run_experiment(name, repeats=1, **options)

    def test_exp2_tests_on_500_graphs_by_default(self, monkeypatch):
        sizes = []
        real_sample = evaluate.sample_experiment

        def recording_sample(name, m, rng):
            sizes.append(m)
            return real_sample(name, m, rng)

        monkeypatch.setattr(evaluate, "sample_experiment", recording_sample)
        evaluate.run_experiment("exp2", repeats=1, m=12, methods=("bayes",))
        assert sizes == [12, 500]

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            evaluate.run_experiment("exp1", repeats=0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            evaluate.run_experiment("exp1", repeats=1, m=30, methods=("itfoo-0.5",))


def test_pipeline_config_rejects_k_below_one():
    with pytest.raises(ValueError, match="k must be at least 1"):
        evaluate.PipelineConfig(k=0)


def test_pipeline_config_refuses_k_without_knn():
    with pytest.raises(ValueError, match="k applies to classifier knn only"):
        evaluate.PipelineConfig(k=3)
    assert evaluate.PipelineConfig().k is None
    assert evaluate.PipelineConfig(classifier="knn").k == 11


@pytest.mark.parametrize(
    "options",
    [{"statistic": "rv"}, {"iterative": True}, {"delta": 0.3}, {"threshold": 0.0},
     {"size_rule": "gap"}, {"size_rule": "fixed", "size": 5}],
)
def test_pipeline_config_refuses_screening_next_to_fixed_vertices(options):
    # checked before the screening defaults resolve, so threshold 0.0 counts as set
    with pytest.raises(ValueError, match=f"replace screening; drop {', '.join(options)}$"):
        evaluate.PipelineConfig(fixed_vertices=(0, 1), **options)
    # a field set to its default is not a change
    evaluate.PipelineConfig(fixed_vertices=(0, 1), statistic="dcorr", iterative=False)


def test_pipeline_config_rejects_unknown_classifier():
    with pytest.raises(ValueError, match="unknown classifier"):
        evaluate.PipelineConfig(classifier="svm")


def test_write_csv_numpy_floats_as_plain_repr(tmp_path):
    path = tmp_path / "x.csv"
    evaluate.write_csv(path, ["x", "y"], [[np.float64(0.5), 0.1 + 0.2], [None, np.int64(3)]])
    assert path.read_bytes() == b"x,y\r\n0.5,0.30000000000000004\r\n,3\r\n"


def test_parse_method():
    assert evaluate.parse_method("dcorr") == ("dcorr", False, None)
    assert evaluate.parse_method("itdcorr-0.5") == ("dcorr", True, 0.5)
    assert evaluate.parse_method("itmgc-0.05") == ("mgc", True, 0.05)
    assert evaluate.parse_method("itrv") == ("rv", True, 0.5)
    with pytest.raises(ValueError):
        evaluate.parse_method("pearson")


def test_loso_pipeline_smoke():
    """Leave-one-subject-out screening + kNN completes on a synthetic
    two-session-per-subject dataset (the structural stand-in for the
    neuroimaging studies)."""
    base = two_block_dataset(16, 11)
    subjects = tuple(f"subj{i // 2}" for i in range(16))
    ds = LabeledGraphDataset(base.graphs, base.labels, subject_ids=subjects)
    pipeline = evaluate.PipelineConfig(
        statistic="dcorr", iterative=True, delta=0.5, size_rule="fixed", size=5,
        classifier="knn", k=5,
    )
    report = evaluate.cross_validate(ds, pipeline, grouping="subject")
    assert len(report.folds) == 8
    assert report.loss.count == 16
    assert all(len(f.selected) == 5 for f in report.folds)
