"""Tests for one-shot and iterative vertex screening."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexscreen import corr, evaluate, screen
from vertexscreen.graph import LabeledGraphDataset, sample_ier, vertex_feature


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


class TestScreenOnce:
    def test_threshold_one_selects_nothing(self):
        result = screen.screen_once(random_dataset(seed=5), 1.0)
        assert result.selected.size == 0

    def test_threshold_zero_selects_everything_nondegenerate(self):
        result = screen.screen_once(random_dataset(seed=6), 0.0)
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
            result = screen.screen_once(ds, 0.003)
            contained += int(np.all(np.isin(signal, result.selected)))
        assert contained / repeats >= 0.95

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            screen.screen_once(random_dataset(), 1.5)


class TestScreenIterative:
    def test_two_vertex_boundary(self):
        ds = random_dataset(m=20, n=2, seed=7)
        result = screen.screen_iterative(ds, delta=0.5)
        sizes = [vs.size for vs, _ in result.levels]
        assert sizes == [2, 1]

    def test_levels_strictly_nested_with_quantile_floor(self):
        ds = random_dataset(m=16, n=13, seed=8)
        delta = 0.4
        result = screen.screen_iterative(ds, delta=delta)
        for (outer, _), (inner, _) in zip(result.levels, result.levels[1:]):
            assert inner.size < outer.size
            assert set(inner).issubset(set(outer))
            floor = min(int(np.ceil((1 - delta) * outer.size)), outer.size - 1)
            assert inner.size >= floor

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

    def test_tied_scores_fall_back_to_rank_rule(self):
        # constant labels give all-zero scores; the rank fallback must still
        # shrink each level by the delta fraction with index tie-breaking
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
        result = screen.screen_once(ds, 0.0)
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
            result, selected = screen.run(ds, config)
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
        result, selected = screen.run(ds, config)
        expected = screen.screen_iterative(ds, delta=0.4)
        assert np.array_equal(result.scores, expected.scores)
        assert np.array_equal(selected, screen.select_vertices(expected, "fixed", 3))
        once, none = screen.run(ds, screen.ScreeningConfig(iterative=False, threshold=1.0))
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

    def test_config_resolves_the_setting_its_mode_reads(self):
        one_shot, iterative = screen.ScreeningConfig(), screen.ScreeningConfig(iterative=True)
        assert (one_shot.delta, one_shot.threshold) == (None, 0.0)
        assert (iterative.delta, iterative.threshold) == (0.5, None)
        assert one_shot == screen.ScreeningConfig(threshold=0.0)
        assert iterative == screen.ScreeningConfig(iterative=True, delta=0.5)

    def test_config_defaults_to_one_shot(self):
        ds = random_dataset(seed=19)
        result, selected = screen.run(ds, screen.ScreeningConfig())
        assert np.all(result.elimination_order == screen.SURVIVOR)
        assert np.array_equal(selected, screen.screen_once(ds, 0.0).selected)

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
        result = screen.screen_once(random_dataset(seed=15), 0.0)
        chosen = screen.select_vertices(result, "fixed", 4)
        assert chosen.size == 4
        with pytest.raises(ValueError):
            screen.select_vertices(result, "fixed", None)
        with pytest.raises(ValueError):
            screen.select_vertices(result, "banana", 3)


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


def test_exp1_iterative_beats_one_shot_on_average():
    """Iterative screening should rank signal vertices at least as well as
    one-shot screening on the planted-block generator."""
    once_auc, iter_auc = [], []
    for rep in range(8):
        ds, signal = evaluate.sample_experiment("exp1", 100, 600 + rep)
        r_once = screen.screen_once(ds, 0.0)
        r_iter = screen.screen_iterative(ds, delta=0.5)
        _, a1 = evaluate.roc_auc(screen.vertex_ranking(r_once), signal, ds.n)
        _, a2 = evaluate.roc_auc(screen.vertex_ranking(r_iter), signal, ds.n)
        once_auc.append(a1)
        iter_auc.append(a2)
    assert np.mean(iter_auc) >= np.mean(once_auc) - 0.01
