"""Tests for ROC/AUC, cross-validation, and the experiment harness."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import traced_peak
from oracles import mann_whitney_auc
from vertexscreen import classify, corr, evaluate, screen
from vertexscreen.graph import LabeledGraphDataset, sample_ier_dataset


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


def record_fold_scoring(monkeypatch):
    """Record each call of the first scoring step on a dcorr fold path: the
    first level that every fold shares."""
    calls = []
    real = corr._label_dcorr_level

    def recording(blocks, labels, samples=None):
        calls.append(samples)
        return real(blocks, labels, samples)

    monkeypatch.setattr(corr, "_label_dcorr_level", recording)
    return calls


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

    @pytest.mark.parametrize("m, k", [(12, 12), (8, None)])
    def test_knn_k_above_training_size_refused_before_screening(self, monkeypatch, m, k):
        calls = record_fold_scoring(monkeypatch)
        pipeline = evaluate.PipelineConfig(
            iterative=True, size_rule="fixed", size=5, classifier="knn", k=k
        )
        with pytest.raises(ValueError, match=rf"k must lie in \[1, {m - 1}\]"):
            evaluate.cross_validate(two_block_dataset(m, 6), pipeline)
        assert calls == []
        # the recorder sits on the fold path: an accepted k reaches it once
        # for every fold's first level, then once per later level of a fold
        evaluate.cross_validate(two_block_dataset(m, 6), replace(pipeline, k=1))
        assert len(calls[0]) == m and len(calls) > 1
        assert all(samples is None for samples in calls[1:])

    def test_knn_k_above_the_smallest_training_fold_refused_before_screening(
            self, monkeypatch):
        # fold 0 leaves 11 training graphs, fold 1 (subject b) only 8
        calls = record_fold_scoring(monkeypatch)
        subjects = ["a", "b", "b", "b", "b"] + [f"s{i}" for i in range(7)]
        ds = two_block_dataset(12, 7, subject_ids=subjects)
        pipeline = evaluate.PipelineConfig(
            iterative=True, size_rule="fixed", size=3, classifier="knn", k=10
        )
        with pytest.raises(ValueError, match=r"k must lie in \[1, 8\]"):
            evaluate.cross_validate(ds, pipeline, grouping="subject")
        assert calls == []

    @pytest.mark.parametrize("pipeline", [
        evaluate.PipelineConfig(iterative=True, size_rule="fixed", size=5),
        evaluate.PipelineConfig(size_rule="fixed", size=5, classifier="knn", k=3),
        evaluate.PipelineConfig(statistic="rv", iterative=True, size_rule="fixed", size=5),
        evaluate.PipelineConfig(fixed_vertices=(0, 1, 2)),
    ])
    def test_one_training_stack_alive_at_a_time(self, monkeypatch, pipeline):
        # each fold's training subset is built once and freed before the next
        built = []
        real = LabeledGraphDataset.subset

        def tracking(dataset, rows):
            assert [ref for ref in built if ref() is not None] == []
            train = real(dataset, rows)
            built.append(weakref.ref(train))
            return train

        monkeypatch.setattr(LabeledGraphDataset, "subset", tracking)
        ds = two_block_dataset(10, 8)
        report = evaluate.cross_validate(ds, pipeline)
        assert len(built) == len(report.folds) == ds.m

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

    def test_exp1_repeats_draw_from_their_seed_sequences(self):
        # each repeat's dataset is rebuilt from SeedSequence([seed, repeat])
        # passed straight to the sampler, and screened by hand
        methods = ("dcorr", "itdcorr-0.5")
        report = evaluate.run_experiment("exp1", repeats=2, seed=4, m=30, methods=methods)
        expected = []
        for repeat in range(2):
            dataset, signal = evaluate.sample_experiment(
                "exp1", 30, np.random.SeedSequence([4, repeat]))
            for method, iterative, delta in (("dcorr", False, None), ("itdcorr-0.5", True, 0.5)):
                config = screen.ScreeningConfig(iterative=iterative, delta=delta,
                                                size_rule="fixed", size=evaluate.SIGNAL_SIZE)
                (_, [(result, _)]), = screen.run(dataset, [config], [np.arange(30)])
                _, auc = evaluate.roc_auc(screen.vertex_ranking(result), signal, dataset.n,
                                          keys=screen.ranking_keys(result))
                expected.append((method, repeat, auc))
        assert report.auc_records == expected

    def test_exp2_records_equal_the_draw_screen_draw_fit_order(self):
        # the harness fits every method before it draws the test graphs; its
        # records are those of the order that draws both stacks first
        report = evaluate.run_experiment("exp2", repeats=2, m_grid=(60, 150), test_draws=100)
        loss, fpr = oracles.exp2_records(repeats=2, m_grid=(60, 150), test_draws=100)
        assert report.loss_records == loss
        assert report.fpr_records == fpr

    def test_exp2_holds_one_graph_stack_at_a_time(self):
        # each uint8 stack, 300 training or 300 test graphs, is 11.4 MiB.
        # Peak measured 30.2 MiB when both were alive for the fits and
        # predictions, 18.8 MiB once the models are fitted before the test draw
        # untraced: a first call may import modules
        evaluate.run_experiment("exp2", repeats=1, m_grid=(30,), test_draws=20)
        peak = traced_peak(lambda: evaluate.run_experiment("exp2", repeats=1, m_grid=(300,),
                                                           test_draws=300))
        assert peak < 2 * 300 * evaluate.GRAPH_SIZE**2

    def test_exp2_screens_share_a_draw_like_single_method_runs(self):
        # dcorr and itdcorr-0.5 screen each draw in one batch; their records
        # are those of the two single-method runs, interleaved per draw
        options = dict(repeats=2, seed=6, m_grid=(20, 30), test_draws=20)
        both = evaluate.run_experiment("exp2", methods=("dcorr", "itdcorr-0.5"), **options)
        once = evaluate.run_experiment("exp2", methods=("dcorr",), **options)
        iterative = evaluate.run_experiment("exp2", methods=("itdcorr-0.5",), **options)
        for kind in ("loss_records", "fpr_records"):
            singles = zip(getattr(once, kind), getattr(iterative, kind))
            assert getattr(both, kind) == [record for pair in singles for record in pair]

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

    @pytest.mark.parametrize(
        "name, options, message",
        [
            ("exp2", {"m_grid": (150, 2)}, "m_grid needs at least 3 graphs, not 2$"),
            ("exp2", {"m": 2}, "m needs at least 3 graphs, not 2$"),
            ("exp1", {"m": 1}, "m needs at least 2 graphs, not 1$"),
            ("exp2", {"m": 12, "test_draws": 1}, "test_draws needs at least 2 graphs, not 1$"),
            ("exp1", {"methods": ("dcorr", "rv", "dcorr")}, "'dcorr' is named more than once"),
            ("exp2", {"m": 12, "methods": ("bayes", "bayes")}, "'bayes' is named more than once"),
            ("exp2", {"m_grid": (12, 12), "test_draws": 10, "methods": ("bayes", "full")},
             "m 12 is named more than once"),
        ],
    )
    def test_checks_every_setting_before_drawing(self, monkeypatch, name, options, message):
        draws = []
        monkeypatch.setattr(evaluate, "sample_experiment", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match=message):
            evaluate.run_experiment(name, repeats=2, **options)
        assert draws == []

    @pytest.mark.parametrize(
        "name, options",
        [("exp1", {"m": 30, "methods": ("dcorr", "itfoo-0.5")}),
         ("exp2", {"m": 12, "methods": ("bayes", "itfoo")}),
         ("exp1", {"methods": ("itmgc-0.05",)})],
    )
    def test_parses_every_method_before_drawing(self, monkeypatch, name, options):
        draws = []
        real_sample = evaluate.sample_experiment

        def counting_sample(*args):
            draws.append(args)
            return real_sample(*args)

        monkeypatch.setattr(evaluate, "sample_experiment", counting_sample)
        unknown = options["methods"][-1]
        with pytest.raises(ValueError, match=f"unknown screening method '{unknown}'"):
            evaluate.run_experiment(name, repeats=3, **options)
        assert draws == []

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
    # an unset k votes among the 11 nearest graphs
    ds = two_block_dataset(24, 4)
    unset = evaluate.cross_validate(ds, evaluate.PipelineConfig(classifier="knn"))
    assert unset == evaluate.cross_validate(ds, evaluate.PipelineConfig(classifier="knn", k=11))
    assert unset != evaluate.cross_validate(ds, evaluate.PipelineConfig(classifier="knn", k=1))


@pytest.mark.parametrize(
    "options",
    [{"statistic": "rv"}, {"iterative": True}, {"delta": 0.3}, {"threshold": 0.0},
     {"size_rule": "gap"}, {"size_rule": "fixed", "size": 5}],
)
def test_pipeline_config_refuses_screening_next_to_fixed_vertices(options):
    # a field holds what the caller set, so threshold 0.0 counts as set
    with pytest.raises(ValueError, match=f"replace screening; drop {', '.join(options)}$"):
        evaluate.PipelineConfig(fixed_vertices=(0, 1), **options)
    # a field set to its default is not a change
    evaluate.PipelineConfig(fixed_vertices=(0, 1), statistic="dcorr", iterative=False)


def test_pipeline_config_replace_next_to_fixed_vertices():
    # fixed vertices skip screening, so replace() passes back no screening setting
    config = replace(evaluate.PipelineConfig(fixed_vertices=(0, 1)), classifier="knn")
    ds = two_block_dataset(16, 5)
    assert evaluate.cross_validate(ds, config) == evaluate.cross_validate(
        ds, evaluate.PipelineConfig(fixed_vertices=(0, 1), classifier="knn", k=11))
    moved = evaluate.cross_validate(ds, replace(config, fixed_vertices=(2, 3)))
    assert all(fold.selected == (2, 3) for fold in moved.folds)


# modes a replace() may switch between; each option dict builds a valid config
SCREENING_MODES = [{}, {"threshold": 0.0}, {"iterative": True}, {"iterative": True, "delta": 0.3}]
SIZE_MODES = [{}, {"size_rule": "gap"}, {"size_rule": "fixed", "size": 3}]
CLASSIFIER_MODES = [{}, {"classifier": "knn"}, {"classifier": "knn", "k": 3}]


def _pipeline_options(draw):
    options = {}
    for modes in (SCREENING_MODES, SIZE_MODES, CLASSIFIER_MODES):
        options.update(draw(st.sampled_from(modes)))
    if options.get("threshold") is not None and options.get("size_rule", "maxcorr") != "maxcorr":
        del options["threshold"]
    return options


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_replace_switches_modes_like_a_fresh_config(data):
    # replace() names only the fields the two configs set; the rest keep
    # their unset defaults, so no resolved value comes back to be refused
    start, target = _pipeline_options(data.draw), _pipeline_options(data.draw)
    defaults = evaluate.PipelineConfig()
    changes = {key: target.get(key, getattr(defaults, key)) for key in {*start, *target}}
    switched = replace(evaluate.PipelineConfig(**start), **changes)
    fresh = evaluate.PipelineConfig(**target)
    assert switched == fresh
    ds = two_block_dataset(12, 6, n=8)
    (_, [(result, selected)]), = screen.run(ds, [switched], [np.arange(ds.m)])
    (_, [(want, want_selected)]), = screen.run(ds, [fresh], [np.arange(ds.m)])
    assert np.array_equal(result.scores, want.scores)
    assert np.array_equal(result.elimination_order, want.elimination_order)
    assert np.array_equal(selected, want_selected)
    assert evaluate.cross_validate(ds, switched) == evaluate.cross_validate(ds, fresh)


@pytest.mark.parametrize(
    "config, changes",
    [
        (screen.ScreeningConfig(iterative=True), {"iterative": False}),
        (screen.ScreeningConfig(), {"size_rule": "fixed", "size": 3}),
        (evaluate.PipelineConfig(classifier="knn"), {"classifier": "plugin"}),
    ],
)
def test_replace_switches_the_mode_of_a_default_config(config, changes):
    assert replace(config, **changes) == type(config)(**changes)


def test_pipeline_config_rejects_unknown_classifier():
    with pytest.raises(ValueError, match="unknown classifier"):
        evaluate.PipelineConfig(classifier="svm")


def test_write_csv_numpy_floats_as_plain_repr(tmp_path):
    path = tmp_path / "x.csv"
    evaluate.write_csv(path, ["x", "y"], [[np.float64(0.5), 0.1 + 0.2], [None, np.int64(3)]])
    assert path.read_bytes() == b"x,y\r\n0.5,0.30000000000000004\r\n,3\r\n"


def test_summary_text_layout():
    exp2 = evaluate.EvalReport(
        ("bayes", "dcorr"),
        loss_records=[("bayes", 60, 0, 0.25), ("bayes", 60, 1, 0.75), ("dcorr", 60, 0, 0.5),
                      ("dcorr", 150, 0, 0.375)],
        fpr_records=[("dcorr", 60, 0, 0.125), ("dcorr", 150, 0, 0.0625)],
    )
    assert evaluate.summary_text(exp2).split("\n") == [
        "method               m  mean error          se",
        "bayes               60      0.5000      0.2500",
        "dcorr               60      0.5000           -",
        "dcorr              150      0.3750           -",
        "",
        "method               m    mean FPR          se",
        "dcorr               60      0.1250           -",
        "dcorr              150      0.0625           -",
    ]
    exp1 = evaluate.EvalReport(
        ("dcorr", "rv"), auc_records=[("dcorr", 0, 0.9), ("dcorr", 1, 0.8), ("rv", 0, 0.5)]
    )
    assert evaluate.summary_text(exp1).split("\n") == [
        "method              mean AUC          se",
        "dcorr                 0.8500      0.0500",
        "rv                    0.5000           -",
    ]


def test_parse_method():
    assert evaluate.parse_method("dcorr") == ("dcorr", False, None)
    assert evaluate.parse_method("itdcorr-0.5") == ("dcorr", True, 0.5)
    assert evaluate.parse_method("itrv-0.05") == ("rv", True, 0.05)
    assert evaluate.parse_method("itrv") == ("rv", True, 0.5)
    with pytest.raises(ValueError):
        evaluate.parse_method("pearson")
    with pytest.raises(ValueError, match="method 'itdcorr-abc' has a malformed delta 'abc'"):
        evaluate.parse_method("itdcorr-abc")


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
