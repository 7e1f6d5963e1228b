"""Tests for one-shot and iterative vertex screening."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from oracles import one_shot_screen, sample_ier, vertex_feature
from vertexscreen import classify, corr, evaluate, screen
from vertexscreen.graph import LabeledGraphDataset, induced_subgraph, sample_ier_dataset


def random_dataset(m=20, n=10, seed=0, classes=2):
    rng = np.random.default_rng(seed)
    graphs = np.stack([sample_ier(np.full((n, n), 0.5), rng) for _ in range(m)])
    labels = rng.integers(0, classes, size=m)
    return LabeledGraphDataset(graphs, labels)


def one_shot_result(scores):
    scores = np.asarray(scores, dtype=float)
    return screen.ScreeningResult(
        scores=scores,
        elimination_order=np.full(scores.size, screen.SURVIVOR),
        levels=(),
        selected=np.flatnonzero(scores > 0.0),
    )


def screen_whole(ds, config):
    """``(result, selected)`` of ``screen.run`` for one config on the whole dataset."""
    (_, [pair]), = screen.run(ds, [config], [np.arange(ds.m)])
    return pair


def assert_same_screening(a, b):
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.elimination_order, b.elimination_order)
    assert np.array_equal(a.selected, b.selected)
    assert len(a.levels) == len(b.levels)
    for (vs_a, corr_a), (vs_b, corr_b) in zip(a.levels, b.levels):
        assert np.array_equal(vs_a, vs_b)
        assert np.array_equal(corr_a, corr_b, equal_nan=True)


class TestScoreVertices:
    def test_constant_labels_score_zero(self):
        ds = random_dataset(seed=1)
        ds = LabeledGraphDataset(ds.graphs, np.zeros(ds.m))
        for statistic in corr.STATISTICS:
            assert np.all(screen.score_vertices(ds, statistic=statistic) == 0.0)

    def test_batched_dcorr_matches_scalar_path(self):
        ds = random_dataset(m=15, n=8, seed=2)
        restrict = np.array([0, 2, 3, 5, 7])
        scores = screen.score_vertices(ds, restrict=restrict, statistic="dcorr")
        for pos, u in enumerate(restrict):
            feats = np.stack([vertex_feature(a, u, restrict) for a in ds.graphs])
            expected = corr.dcorr(feats, ds.labels, y_metric="discrete")
            assert abs(scores[pos] - expected) <= 1e-10

    @pytest.mark.parametrize("restrict", [np.isin(np.arange(10), [2, 5, 7]), [2.0, 5.0, 7.0]],
                             ids=["mask", "floats"])
    def test_restrict_must_be_vertex_indices(self, restrict):
        # a mask of 3 marked vertices once scored vertices 0 and 1
        with pytest.raises(ValueError, match="vertex indices must be integers"):
            screen.score_vertices(random_dataset(), restrict=restrict)

    def test_planted_deterministic_vertex_scores_highest(self):
        # vertex 0's row follows the label exactly; every other row is
        # independent noise apart from its mirrored entry in column 0
        rng = np.random.default_rng(3)
        m, n = 200, 12
        labels = rng.integers(0, 2, size=m)
        graphs = np.triu(rng.integers(0, 2, size=(m, n, n)), 1).astype(float)
        graphs += graphs.transpose(0, 2, 1)
        pattern = np.array([0.0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1])
        graphs[:, 0, :] = labels[:, None] * pattern[None, :]
        graphs[:, :, 0] = graphs[:, 0, :]
        ds = LabeledGraphDataset(graphs, labels)
        scores = screen.score_vertices(ds, statistic="dcorr")
        assert np.argmax(scores) == 0
        assert scores[0] > np.max(scores[1:])

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            screen.score_vertices(random_dataset(), statistic="pearson")


    @pytest.mark.parametrize("statistic", corr.STATISTICS)
    def test_full_restriction_scores_equal_the_induced_copy(self, statistic):
        # every vertex reads the stack's own view; a subset reads a copy
        ds = random_dataset(m=16, n=7, seed=9, classes=3)
        copied = induced_subgraph(ds.graphs, np.arange(ds.n)).transpose(1, 0, 2)
        expected = corr.feature_label_correlation(copied, ds.labels, statistic)
        assert np.array_equal(screen.score_vertices(ds, statistic=statistic), expected)
        assert np.array_equal(screen.score_vertices(ds, np.arange(ds.n), statistic), expected)


class TestScreenOnce:
    def test_threshold_one_selects_nothing(self):
        result, _ = screen_whole(random_dataset(seed=5), screen.ScreeningConfig(threshold=1.0))
        assert result.selected.size == 0

    def test_threshold_zero_selects_everything_nondegenerate(self):
        result, _ = screen_whole(random_dataset(seed=6), screen.ScreeningConfig(threshold=0.0))
        if np.all(result.scores > 0):
            assert result.selected.size == result.scores.size

    def test_low_threshold_contains_signal(self):
        # Experiment-1 population: signal-vertex correlations sit near 0.005
        # and noise correlations near 0 (measured at m=3000), so a threshold
        # between the clusters keeps every signal vertex essentially always.
        contained = 0
        repeats = 20
        for rep in range(repeats):
            ds, signal = evaluate.sample_experiment("exp1", 100, 300 + rep)
            result, _ = screen_whole(ds, screen.ScreeningConfig(threshold=0.003))
            contained += int(np.all(np.isin(signal, result.selected)))
        assert contained / repeats >= 0.95

    def test_invalid_threshold(self):
        with pytest.raises(ValueError, match="threshold must lie in"):
            screen.ScreeningConfig(threshold=1.5)


class TestScreenIterative:
    def test_two_vertex_boundary(self):
        ds = random_dataset(m=20, n=2, seed=7)
        result = screen.screen_iterative(ds, delta=0.5)
        sizes = [vs.size for vs, _ in result.levels]
        assert sizes == [2, 1]

    def test_each_level_keeps_the_top_ceil_share(self):
        # a level of k vertices keeps exactly its top min(ceil((1-delta) k), k-1)
        # in (score desc, index asc) order
        ds = random_dataset(m=16, n=13, seed=8)
        delta = 0.4
        result = screen.screen_iterative(ds, delta=delta)
        for (outer, _), (inner, _) in zip(result.levels, result.levels[1:]):
            target = min(int(np.ceil((1 - delta) * outer.size)), outer.size - 1)
            assert inner.size == target
            level_scores = screen.score_vertices(ds, outer)
            top = outer[np.lexsort((outer, -level_scores))[:target]]
            assert np.array_equal(inner, np.sort(top))

    def test_selected_is_a_level(self):
        result = screen.screen_iterative(random_dataset(seed=9), delta=0.5)
        assert any(np.array_equal(result.selected, vs) for vs, _ in result.levels)
        corrs = [c for _, c in result.levels]
        chosen = [c for vs, c in result.levels if np.array_equal(vs, result.selected)]
        assert chosen[0] == max(corrs)

    def test_deterministic(self):
        a = screen.screen_iterative(random_dataset(seed=10), delta=0.5)
        b = screen.screen_iterative(random_dataset(seed=10), delta=0.5)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.selected, b.selected)
        assert np.array_equal(a.elimination_order, b.elimination_order)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            screen.screen_iterative(random_dataset(), delta=1.0)

    def test_tied_scores_keep_the_smaller_indices(self):
        # constant labels give all-zero scores; each level still shrinks by
        # the delta fraction, ties broken toward the smaller index
        ds = random_dataset(m=10, n=8, seed=12)
        ds = LabeledGraphDataset(ds.graphs, np.ones(ds.m))
        result = screen.screen_iterative(ds, delta=0.5)
        sizes = [vs.size for vs, _ in result.levels]
        assert sizes == [8, 4, 2, 1]
        # ties keep the smaller vertex indices
        assert np.array_equal(result.levels[1][0], [0, 1, 2, 3])


class TestRankingAndSelection:
    def test_once_ranking_is_score_order(self):
        ds = random_dataset(seed=13)
        result = one_shot_screen(ds, 0.0)
        ranking = screen.vertex_ranking(result)
        assert np.all(np.diff(result.scores[ranking]) <= 0)

    def test_iterative_survivors_rank_first(self):
        ds, _ = evaluate.sample_experiment("exp1", 30, 14)
        result = screen.screen_iterative(ds, delta=0.5)
        ranking = screen.vertex_ranking(result)
        last_level = result.levels[-1][0]
        first_eliminated = np.flatnonzero(result.elimination_order == 1)
        rank_of = np.empty(ds.n, dtype=int)
        rank_of[ranking] = np.arange(ds.n)
        assert max(rank_of[v] for v in last_level) < min(rank_of[v] for v in first_eliminated)

    def test_gap_selection_obvious(self):
        selected = screen.select_vertices(one_shot_result([0.9, 0.85, 0.2, 0.15]), "gap")
        assert np.array_equal(selected, [0, 1])

    def test_gap_selection_all_equal_warns(self):
        with pytest.warns(UserWarning):
            selected = screen.select_vertices(one_shot_result([0.5, 0.5, 0.5]), "gap")
        assert np.array_equal(selected, [0, 1, 2])

    def test_gap_earliest_cut_on_tied_gaps(self):
        selected = screen.select_vertices(one_shot_result([0.9, 0.6, 0.3]), "gap")
        assert np.array_equal(selected, [0])

    @given(
        st.integers(0, 10_000),
        st.sampled_from([0.2, 0.5, 0.7]),
        st.sampled_from(["maxcorr", "gap", "fixed"]),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_rule_selects_a_ranking_prefix(self, seed, delta, rule, iterative):
        ds = random_dataset(m=14, n=9, seed=seed)
        config = screen.ScreeningConfig(
            iterative=iterative, delta=delta if iterative else None,
            threshold=0.05 if not iterative and rule == "maxcorr" else None, size_rule=rule,
            size=3 if rule == "fixed" else None,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an all-zero score sequence warns
            result, selected = screen_whole(ds, config)
        ranking = screen.vertex_ranking(result)
        assert np.array_equal(selected, np.sort(ranking[: selected.size]))

    def test_iterative_gap_cuts_the_ranking(self):
        # scores from different levels are not comparable: the gap rule must
        # cut the ranking, not re-sort the raw scores
        result = screen.ScreeningResult(
            scores=np.array([0.1, 0.9, 0.8, 0.3]),
            elimination_order=np.array([screen.SURVIVOR, 1.0, screen.SURVIVOR, 1.0]),
            levels=(),
            selected=np.array([0, 2]),
        )
        # ranking 2, 0, 1, 3 with scores 0.8, 0.1, 0.9, 0.3 drops most after
        # vertex 2; sorting the raw scores would keep {1, 2} and skip survivor 0
        assert np.array_equal(screen.select_vertices(result, "gap"), [2])

    def test_run_matches_the_screening_it_names(self):
        ds = random_dataset(seed=18)
        config = screen.ScreeningConfig(iterative=True, delta=0.4, size_rule="fixed", size=3)
        result, selected = screen_whole(ds, config)
        expected = screen.screen_iterative(ds, delta=0.4)
        assert np.array_equal(result.scores, expected.scores)
        assert np.array_equal(selected, screen.select_vertices(expected, "fixed", 3))
        once, none = screen_whole(ds, screen.ScreeningConfig(iterative=False, threshold=1.0))
        assert np.all(once.elimination_order == screen.SURVIVOR) and none.size == 0

    @pytest.mark.parametrize(
        "key, value", [("delta", 0.0), ("delta", 1.5), ("threshold", -0.1), ("threshold", 1.01)]
    )
    def test_config_checks_ranges(self, key, value):
        # checked whichever screening the config names
        for iterative in (False, True):
            with pytest.raises(ValueError, match=f"{key} must lie in"):
                screen.ScreeningConfig(iterative=iterative, **{key: value})

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"statistic": "pearson"}, "unknown statistic"),
            ({"size_rule": "banana"}, "unknown size rule"),
            ({"size_rule": "fixed"}, "needs a size"),
            ({"size_rule": "fixed", "size": 0}, "needs a size"),
            ({"size_rule": "gap", "size": 5}, "size rule fixed only, not gap"),
            ({"size": 5}, "size rule fixed only, not maxcorr"),
            # a statistic the library no longer has: refused with the list
            pytest.param({"statistic": "mgc"},
                         r"unknown statistic 'mgc'; expected one of \('dcorr', 'rv', 'cca'\)",
                         id="mgc"),
        ],
    )
    def test_config_checks_names_before_screening(self, options, message):
        with pytest.raises(ValueError, match=message):
            screen.ScreeningConfig(**options)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"delta": 0.3}, "delta applies to iterative screening only"),
            ({"iterative": True, "threshold": 0.9}, "threshold applies to one-shot screening only"),
            ({"size_rule": "gap", "threshold": 0.9}, "size rule maxcorr only, not gap"),
            ({"size_rule": "fixed", "size": 5, "threshold": 0.0},
             "size rule maxcorr only, not fixed"),
        ],
    )
    def test_config_refuses_settings_the_run_ignores(self, options, message):
        with pytest.raises(ValueError, match=message):
            screen.ScreeningConfig(**options)

    @pytest.mark.parametrize("iterative", [False, True])
    def test_run_refuses_a_size_above_n_before_screening(self, monkeypatch, iterative):
        calls = []

        def counting(real):
            def count(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            return count

        # every dcorr level comes from the level kernel, other levels from score_vertices
        monkeypatch.setattr(screen, "score_vertices", counting(screen.score_vertices))
        monkeypatch.setattr(corr, "_label_dcorr_level", counting(corr._label_dcorr_level))
        ds = random_dataset(seed=23)
        config = screen.ScreeningConfig(iterative=iterative, size_rule="fixed", size=ds.n + 1)
        with pytest.raises(ValueError, match=f"size {ds.n + 1} exceeds the {ds.n} vertices"):
            screen_whole(ds, config)
        assert calls == []
        screen_whole(ds, replace(config, size=ds.n))
        assert calls

    def test_config_resolves_the_setting_its_mode_reads(self):
        # an unset threshold or delta screens as threshold 0 or delta 0.5
        ds = random_dataset(seed=22)
        result, selected = screen_whole(ds, screen.ScreeningConfig())
        assert_same_screening(result, one_shot_screen(ds, 0.0))
        assert np.array_equal(selected, result.selected)
        result, selected = screen_whole(ds, screen.ScreeningConfig(iterative=True))
        assert_same_screening(result, screen.screen_iterative(ds, 0.5))
        assert np.array_equal(selected, result.selected)

    def test_replace_keeps_unread_settings_unset(self):
        # a default resolves only where the run reads it, so replace() on a
        # valid config passes back no value the new config would refuse
        fixed = replace(screen.ScreeningConfig(size_rule="fixed", size=5), size=6)
        assert (fixed.threshold, fixed.size) == (None, 6)
        assert replace(screen.ScreeningConfig(size_rule="gap"), statistic="rv").threshold is None
        ds = random_dataset(seed=21)
        _, selected = screen_whole(ds, fixed)
        assert np.array_equal(selected, screen.select_vertices(one_shot_screen(ds, 0.0),
                                                               "fixed", 6))

    def test_config_defaults_to_one_shot(self):
        ds = random_dataset(seed=19)
        result, selected = screen_whole(ds, screen.ScreeningConfig())
        assert np.all(result.elimination_order == screen.SURVIVOR)
        assert np.array_equal(selected, one_shot_screen(ds, 0.0).selected)

    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=3, max_size=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_shot_ranks_by_score_alone(self, scores, data):
        # a one-shot result's all-SURVIVOR elimination order adds no key, so
        # ranking, tie runs and AUC are those of the scores
        result = one_shot_result(scores)
        n = len(scores)
        signal = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                                    unique=True))
        by_score = (-result.scores,)
        ranking = screen.vertex_ranking(result)
        assert np.array_equal(ranking, np.lexsort((np.arange(n), *by_score)))
        curve, auc = evaluate.roc_auc(ranking, signal, n, keys=screen.ranking_keys(result))
        expected_curve, expected_auc = evaluate.roc_auc(ranking, signal, n, keys=by_score)
        assert auc == expected_auc
        assert np.array_equal(curve.fpr, expected_curve.fpr)
        assert np.array_equal(curve.tpr, expected_curve.tpr)

    def test_fixed_size_override(self):
        result = one_shot_screen(random_dataset(seed=15), 0.0)
        chosen = screen.select_vertices(result, "fixed", 4)
        assert chosen.size == 4
        with pytest.raises(ValueError):
            screen.select_vertices(result, "fixed", None)
        with pytest.raises(ValueError):
            screen.select_vertices(result, "banana", 3)


# one-shot and iterative, dcorr and rv, two deltas, every size rule
MIXED_BATCH = (
    screen.ScreeningConfig(),
    screen.ScreeningConfig(iterative=True, delta=0.3, size_rule="gap"),
    screen.ScreeningConfig(statistic="rv", size_rule="fixed", size=4),
    screen.ScreeningConfig(statistic="rv", iterative=True),
    screen.ScreeningConfig(iterative=True, delta=0.6, size_rule="fixed", size=3),
    screen.ScreeningConfig(statistic="rv", size_rule="gap"),
    screen.ScreeningConfig(threshold=0.2),
)


# MIXED_BATCH, then an iterative cca
ENTRY_BATCH = MIXED_BATCH + (
    screen.ScreeningConfig(statistic="cca", iterative=True, size_rule="fixed", size=3),
)


def weighted_dataset(m, n, seed, classes=2):
    """Symmetric hollow normal weights: no two distances or scores tie."""
    rng = np.random.default_rng(seed)
    graphs = np.triu(rng.normal(size=(m, n, n)), 1)
    graphs += graphs.transpose(0, 2, 1)
    labels = rng.integers(0, classes, size=m)
    graphs[:, 0, 1:4] += labels[:, None]
    graphs[:, 1:4, 0] = graphs[:, 0, 1:4]
    return LabeledGraphDataset(graphs, labels)


def leave_one_out(m):
    return [np.setdiff1d(np.arange(m), [i]) for i in range(m)]


def leave_subject_out(m, per_subject):
    return [np.setdiff1d(np.arange(m), np.arange(start, min(start + per_subject, m)))
            for start in range(0, m, per_subject)]


FOLD_LAYOUTS = {
    "whole": lambda m: [np.arange(m)],
    "loo": leave_one_out,
    "subject": lambda m: leave_subject_out(m, 3),
    # subset reads -1 as the last graph; so must each fold's first level
    "negative": lambda m: [np.array([0, -1, 3, -5, 6, 7]), np.arange(m) - m,
                           np.array([-2, 1, 4, -3, 9])],
    "empty": lambda m: [],
}


def direct_screen(train, config):
    """The screening a config names on one training set, then its size rule."""
    if config.iterative:
        delta = screen.DEFAULT_DELTA if config.delta is None else config.delta
        result = screen.screen_iterative(train, delta, config.statistic)
    else:
        threshold = screen.DEFAULT_THRESHOLD if config.threshold is None else config.threshold
        result = one_shot_screen(train, threshold, config.statistic)
    return result, screen.select_vertices(result, config.size_rule, config.size)


def assert_folds_equal_direct_screens(ds, configs, trains):
    """run yields each fold's subset and every config's direct screen on it, bit for bit."""
    screened = list(screen.run(ds, configs, trains))
    assert len(screened) == len(trains)
    for (train, pairs), rows in zip(screened, trains):
        want_train = ds.subset(rows)
        assert np.array_equal(train.graphs, want_train.graphs)
        assert np.array_equal(train.labels, want_train.labels)
        assert len(pairs) == len(configs)
        for (result, selected), config in zip(pairs, configs):
            want, want_selected = direct_screen(want_train, config)
            assert_same_screening(result, want)
            assert np.array_equal(selected, want_selected)
    return screened


def counting_first_levels(monkeypatch):
    """Record every dcorr level kernel call and every score_vertices call; neither scores."""
    calls = []
    monkeypatch.setattr(corr, "_label_dcorr_level", lambda *args: calls.append(args))
    monkeypatch.setattr(screen, "score_vertices", lambda *args: calls.append(args))
    return calls


class TestRun:
    @pytest.mark.parametrize("layout", FOLD_LAYOUTS)
    def test_each_fold_and_config_equals_its_direct_screen(self, layout):
        # 0/1 entries keep every distance exact, so the shared dcorr first
        # level equals each fold's own bit for bit
        ds = random_dataset(m=14, n=10, seed=36, classes=3)
        screened = assert_folds_equal_direct_screens(ds, ENTRY_BATCH, FOLD_LAYOUTS[layout](ds.m))
        if layout == "whole":
            assert screened[0][0] is ds

    def test_weighted_whole_dataset_fold_equals_direct_screens(self):
        ds = weighted_dataset(m=13, n=9, seed=38)
        (train, _), = assert_folds_equal_direct_screens(ds, ENTRY_BATCH, [np.arange(ds.m)])
        assert train is ds

    def test_scores_every_vertex_once_per_statistic_per_fold(self, monkeypatch):
        calls = []
        real_score = screen.score_vertices

        def counting_score(dataset, restrict=None, statistic="dcorr"):
            calls.append((statistic, dataset.m, dataset.n if restrict is None else len(restrict)))
            return real_score(dataset, restrict, statistic)

        kernel_calls = []
        real_kernel = corr._label_dcorr_level

        def counting_kernel(blocks, labels, samples=None):
            kernel_calls.append(None if samples is None else len(samples))
            return real_kernel(blocks, labels, samples)

        monkeypatch.setattr(screen, "score_vertices", counting_score)
        monkeypatch.setattr(corr, "_label_dcorr_level", counting_kernel)
        ds = random_dataset(m=12, n=11, seed=32)
        trains = leave_subject_out(ds.m, 3)
        folds = list(screen.run(ds, ENTRY_BATCH, trains))

        def later_levels(dcorr):
            # every iterative level of two or more vertices but the first is scored
            return sum(len(result.levels) - 2 for _, pairs in folds
                       for (result, _), config in zip(pairs, ENTRY_BATCH)
                       if config.iterative and (config.statistic == "dcorr") == dcorr)

        # dcorr: one call for every fold's scores and whole-subgraph
        # correlation, then one per later level; every other statistic scores
        # each fold's every vertex once
        assert kernel_calls == [len(trains)] + [None] * later_levels(True)
        full = sorted((statistic, m) for statistic, m, k in calls if k == ds.n)
        assert full == sorted((statistic, rows.size) for rows in trains
                              for statistic in ("rv", "cca"))
        assert len(calls) == len(full) + later_levels(False)
        # one-shot screens of one statistic share one read-only array
        for _, pairs in folds:
            assert pairs[0][0].scores is pairs[6][0].scores
            with pytest.raises(ValueError, match="read-only"):
                pairs[0][0].scores[0] = 1.0

    @pytest.mark.parametrize("statistic", ["dcorr", "rv"])
    def test_handed_scores_replace_the_first_level(self, statistic):
        ds = random_dataset(m=16, n=9, seed=34)
        scores = screen.score_vertices(ds, statistic=statistic)
        first_corr = screen.subgraph_correlation(ds, np.arange(ds.n), statistic)
        assert_same_screening(
            screen.screen_iterative(ds, 0.5, statistic, first_level=(scores, first_corr)),
            screen.screen_iterative(ds, 0.5, statistic))
        with pytest.raises(ValueError, match="one value per vertex, 9 in all"):
            screen.screen_iterative(ds, 0.5, statistic, first_level=(scores[1:], first_corr))

    @pytest.mark.parametrize("layout", FOLD_LAYOUTS)
    def test_dcorr_level_correlations_equal_the_subgraph_reference(self, layout):
        # a level's correlation comes from its scores' distances; on 0/1
        # entries it equals the upper-pair reference bit for bit
        ds = random_dataset(m=14, n=10, seed=36, classes=3)
        configs = [config for config in ENTRY_BATCH
                   if config.iterative and config.statistic == "dcorr"]
        for train, pairs in screen.run(ds, configs, FOLD_LAYOUTS[layout](ds.m)):
            for result, _ in pairs:
                assert result.levels[-1][0].size == 1 and result.levels[-1][1] == 0.0
                for vertices, value in result.levels:
                    assert value == screen.subgraph_correlation(train, vertices)

    def test_weighted_dcorr_level_correlations_agree_with_the_subgraph_reference(self):
        ds = weighted_dataset(m=13, n=9, seed=38)
        config = screen.ScreeningConfig(iterative=True, delta=0.3)
        trains = [np.arange(ds.m)] + leave_one_out(ds.m)
        for train, [(result, _)] in screen.run(ds, [config], trains):
            assert result.levels[-1][1] == 0.0
            for vertices, value in result.levels:
                reference = screen.subgraph_correlation(train, vertices)
                assert np.isclose(value, reference, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("rows", [np.arange(12) < 8, [0.9, 1.9, 2.9]],
                             ids=["mask", "float"])
    def test_refuses_rows_that_are_not_integers_before_scoring(self, monkeypatch, rows):
        # numpy would read a mask or floats as positions 0 and 1 or 0, 1, 2
        calls = counting_first_levels(monkeypatch)
        ds = random_dataset(m=12, seed=42)
        with pytest.raises(ValueError, match="graph row indices must be integers"):
            screen.run(ds, MIXED_BATCH, [np.arange(ds.m), rows])
        assert calls == []


class TestRunMany:
    """Several configs on the whole dataset, the fold of every row."""

    def test_refuses_a_size_above_n_in_the_last_config_before_scoring(self, monkeypatch):
        calls = counting_first_levels(monkeypatch)
        ds = random_dataset(seed=33)
        batch = MIXED_BATCH + (screen.ScreeningConfig(size_rule="fixed", size=ds.n + 1),)
        with pytest.raises(ValueError, match=f"size {ds.n + 1} exceeds the {ds.n} vertices"):
            screen.run(ds, batch, [np.arange(ds.m)])
        assert calls == []


FOLD_CONFIGS = [
    screen.ScreeningConfig(),
    screen.ScreeningConfig(threshold=0.2),
    screen.ScreeningConfig(size_rule="gap"),
    screen.ScreeningConfig(size_rule="fixed", size=4),
    screen.ScreeningConfig(iterative=True),
    screen.ScreeningConfig(iterative=True, delta=0.3, size_rule="gap"),
    screen.ScreeningConfig(iterative=True, delta=0.6, size_rule="fixed", size=3),
]


class TestRunFolds:
    """One config over many training folds."""

    @pytest.mark.parametrize("config", FOLD_CONFIGS)
    @pytest.mark.parametrize("folds", ["loo", "subject"])
    def test_binary_dcorr_folds_equal_per_fold_runs_bit_for_bit(self, config, folds):
        ds = random_dataset(m=14, n=10, seed=36, classes=3)
        trains = leave_one_out(ds.m) if folds == "loo" else leave_subject_out(ds.m, 3)
        assert_folds_equal_direct_screens(ds, [config], trains)

    @pytest.mark.parametrize("statistic", ["rv", "cca"])
    @pytest.mark.parametrize("iterative", [False, True])
    def test_other_statistics_equal_per_fold_runs(self, statistic, iterative):
        ds = random_dataset(m=12, n=7, seed=37)
        config = screen.ScreeningConfig(statistic=statistic, iterative=iterative)
        assert_folds_equal_direct_screens(ds, [config], leave_subject_out(ds.m, 2))

    @pytest.mark.parametrize("config", [FOLD_CONFIGS[0], FOLD_CONFIGS[5]])
    def test_negative_row_indices_count_from_the_end(self, config):
        ds = random_dataset(m=12, n=8, seed=40)
        assert_folds_equal_direct_screens(ds, [config], FOLD_LAYOUTS["negative"](ds.m))

    @pytest.mark.parametrize("statistic", ["dcorr", "rv"])
    @pytest.mark.parametrize("iterative", [False, True])
    def test_no_folds_yield_nothing(self, statistic, iterative):
        config = screen.ScreeningConfig(statistic=statistic, iterative=iterative)
        assert list(screen.run(random_dataset(seed=41), [config], [])) == []

    @pytest.mark.parametrize("config", [FOLD_CONFIGS[3], FOLD_CONFIGS[6]])
    def test_weighted_folds_agree_with_per_fold_runs(self, config):
        # sums of real weights may round differently on the full sample's
        # distances than on a fold's own, so scores agree to 1e-12
        ds = weighted_dataset(m=13, n=9, seed=38)
        trains = leave_one_out(ds.m)
        for (train, [(result, selected)]), rows in zip(screen.run(ds, [config], trains), trains):
            want, want_selected = direct_screen(ds.subset(rows), config)
            assert np.allclose(result.scores, want.scores, rtol=0.0, atol=1e-12)
            assert np.array_equal(result.elimination_order, want.elimination_order)
            for (vs, value), (want_vs, want_value) in zip(result.levels, want.levels):
                assert np.array_equal(vs, want_vs)
                assert np.allclose(value, want_value, rtol=0.0, atol=1e-12, equal_nan=True)
            assert np.array_equal(selected, want_selected)

    def test_refuses_a_bad_size_index_or_fold_before_scoring(self, monkeypatch):
        calls = counting_first_levels(monkeypatch)
        ds = random_dataset(seed=39)
        config = screen.ScreeningConfig(size_rule="fixed", size=ds.n + 1)
        with pytest.raises(ValueError, match=f"size {ds.n + 1} exceeds the {ds.n} vertices"):
            screen.run(ds, [config], leave_one_out(ds.m))
        with pytest.raises(ValueError, match="every fold needs at least 2 training graphs"):
            screen.run(ds, MIXED_BATCH, [np.arange(ds.m), [3]])
        with pytest.raises(IndexError):
            screen.run(ds, MIXED_BATCH, [np.arange(ds.m), [0, ds.m]])
        assert calls == []


class TestSubgraphCorrelation:
    def test_singleton_is_zero(self):
        assert screen.subgraph_correlation(random_dataset(seed=16), [3]) == 0.0

    def test_matches_manual_flattening(self):
        ds = random_dataset(m=14, n=6, seed=17)
        idx = np.array([0, 2, 5])
        iu = np.triu_indices(3, 1)
        feats = ds.graphs[np.ix_(range(ds.m), idx, idx)][:, iu[0], iu[1]]
        expected = corr.dcorr(feats, ds.labels, y_metric="discrete")
        assert screen.subgraph_correlation(ds, idx) == expected

    def test_rv_over_every_vertex_of_a_large_graph(self):
        # 19900 vertex pairs: a pair-by-pair covariance would take 3.2 GB
        ds, _ = evaluate.sample_experiment("exp2", 60, 29)
        value = screen.subgraph_correlation(ds, np.arange(ds.n), "rv")
        assert 0.0 <= value <= 1.0


def float_copy(ds):
    """``ds`` with its stack held as float64, built as ``subset`` builds a
    dataset, so the storage rule does not turn it back into uint8."""
    copy = object.__new__(LabeledGraphDataset)
    for name, value in (("graphs", ds.graphs.astype(float)), ("labels", ds.labels),
                        ("subject_ids", None), ("graph_ids", None)):
        object.__setattr__(copy, name, value)
    copy._settle(check_entries=False)
    return copy


class TestUint8Storage:
    @pytest.mark.parametrize("statistic", corr.STATISTICS)
    def test_uint8_and_float64_stacks_score_the_same_bits(self, statistic):
        ds = random_dataset(m=24, n=9, seed=40)
        floats = float_copy(ds)
        assert ds.graphs.dtype == np.uint8 and floats.graphs.dtype == np.float64
        for restrict in (None, [0, 2, 3, 5, 8]):
            assert np.array_equal(screen.score_vertices(ds, restrict, statistic),
                                  screen.score_vertices(floats, restrict, statistic))
        assert (screen.subgraph_correlation(ds, [1, 2, 4, 6], statistic)
                == screen.subgraph_correlation(floats, [1, 2, 4, 6], statistic))

    def test_uint8_and_float64_stacks_give_the_same_dcorr_level_bits(self):
        ds = random_dataset(m=24, n=9, seed=41)
        folds = [np.arange(24), np.arange(1, 24), np.arange(0, 24, 2)]
        u8, f64 = (corr._label_dcorr_level(screen._row_features(d, None), d.labels, folds)
                   for d in (ds, float_copy(ds)))
        assert np.array_equal(u8, f64)

    @pytest.mark.parametrize("call", ["score_vertices", "plugin_predict_many"])
    def test_no_float64_copy_of_the_stack(self, call):
        # a float64 copy of the whole (200, 60, 60) stack is 5.5 MiB; each
        # consumer casts one chunk at a time and stays below it
        mats = [np.full((60, 60), p) for p in (0.3, 0.5)]
        ds = sample_ier_dataset(mats, [0.5, 0.5], 200, np.random.default_rng(42))
        assert ds.graphs.dtype == np.uint8
        model = classify.fit_plugin(ds)
        if call == "score_vertices":
            peak = traced_peak(lambda: screen.score_vertices(ds))
        else:
            peak = traced_peak(lambda: classify.plugin_predict_many(model, ds.graphs))
        assert peak < ds.graphs.size * 8

    @pytest.mark.parametrize("statistic", ["dcorr", "rv"])
    def test_a_chunk_is_bounded_by_its_input_copy(self, statistic):
        # the (200, 40, 200) features of 40 graphs: a chunk bounded by its
        # m x m matrices alone would cast 163 blocks, a 10 MiB float64 copy
        mats = [np.full((200, 200), p) for p in (0.3, 0.5)]
        ds = sample_ier_dataset(mats, [0.5, 0.5], 40, np.random.default_rng(43))
        assert ds.graphs.dtype == np.uint8
        assert traced_peak(lambda: screen.score_vertices(ds, statistic=statistic)) < 6 * 2**20

    def test_iterative_dcorr_levels_copy_no_induced_stack(self):
        # an exp2 draw of 600 graphs: level 2 once gathered its rows into a
        # (600, 100, 100) induced copy through a (600, 100, 200) intermediate,
        # 17.2 MiB together; each level now gathers them one kernel chunk at
        # a time. Peak measured 18.1 MiB before, 11.6 MiB after.
        ds, _ = evaluate.sample_experiment("exp2", 600, np.random.default_rng(0))
        level_2 = ds.m * 100 * (100 + ds.n)
        assert traced_peak(lambda: screen.screen_iterative(ds, 0.5)) < level_2


def test_exp1_iterative_beats_one_shot_on_average():
    """Iterative screening should rank signal vertices at least as well as
    one-shot screening on the planted-block generator."""
    once_auc, iter_auc = [], []
    for rep in range(8):
        ds, signal = evaluate.sample_experiment("exp1", 100, 600 + rep)
        r_once = one_shot_screen(ds, 0.0)
        r_iter = screen.screen_iterative(ds, delta=0.5)
        _, a1 = evaluate.roc_auc(screen.vertex_ranking(r_once), signal, ds.n)
        _, a2 = evaluate.roc_auc(screen.vertex_ranking(r_iter), signal, ds.n)
        once_auc.append(a1)
        iter_auc.append(a2)
    assert np.mean(iter_auc) >= np.mean(once_auc) - 0.01
