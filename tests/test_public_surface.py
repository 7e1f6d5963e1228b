"""The library's settable surface, pinned by name: every public function
outside the CLI with the parameters that have a default, and the fields each
dataclass declares (a subclass lists only its own). A function, setting or
field added or removed shows up as an edit of this file in the same diff."""

import dataclasses
import inspect

from vertexscreen import classify, corr, evaluate, graph, screen

MODULES = (classify, corr, evaluate, graph, screen)

# public function -> its optional parameters
FUNCTIONS = {
    "classify.fit_plugin": ("restrict",),
    "classify.plugin_predict_many": (),
    "classify.plugin_predict": (),
    "classify.bayes_predict_many": (),
    "classify.bayes_predict": (),
    "classify.knn_predict": ("restrict",),
    "classify.loss_from_predictions": (),
    "corr.check_statistic": (),
    "corr.pairwise_distances": ("metric",),
    "corr.double_center": (),
    "corr.dcorr_many": ("y_metric",),
    "corr.dcov_sq": ("y_metric",),
    "corr.dcorr": ("y_metric",),
    "corr.local_correlation_grid": ("y_metric",),
    "corr.mgc": ("y_metric",),
    "corr.cca_corr": (),
    "corr.one_hot": (),
    "corr.feature_label_correlation": (),
    "evaluate.roc_auc": ("keys",),
    "evaluate.fpr_at_size": (),
    "evaluate.cross_validate": ("grouping",),
    "evaluate.experiment_parameters": (),
    "evaluate.sample_experiment": (),
    "evaluate.parse_method": (),
    "evaluate.run_experiment": ("seed", "m", "m_grid", "methods", "test_draws"),
    "evaluate.summarize": (),
    "evaluate.write_csv": (),
    "evaluate.write_report": (),
    "evaluate.summary_text": (),
    "graph.vertex_set": (),
    "graph.validate_probability_matrix": (),
    "graph.sample_ier_dataset": (),
    "graph.induced_subgraph": (),
    "graph.upper_pairs": (),
    "graph.load_dataset": ("n",),
    "graph.save_dataset": (),
    "screen.score_vertices": ("restrict", "statistic"),
    "screen.subgraph_correlation": ("statistic",),
    "screen.screen_once": ("statistic",),
    "screen.screen_iterative": ("statistic", "first_level"),
    "screen.ranking_keys": (),
    "screen.vertex_ranking": (),
    "screen.rank_positions": (),
    "screen.select_vertices": ("rule", "size"),
    "screen.run": (),
}

DATACLASS_FIELDS = {
    "classify.PluginModel": ("class_labels", "priors", "edge_probabilities", "vertices"),
    "classify.LossEstimate": ("error", "count", "standard_error"),
    "evaluate.RocCurve": ("fpr", "tpr"),
    "evaluate.PipelineConfig": ("fixed_vertices", "classifier", "k"),
    "evaluate.FoldRecord": ("fold", "test_indices", "selected", "predictions", "truths",
                            "unseen_class"),
    "evaluate.CrossValReport": ("folds", "loss"),
    "evaluate.EvalReport": ("methods", "auc_records", "loss_records", "fpr_records",
                            "roc_points", "screening_rows"),
    "graph.LabeledGraphDataset": ("graphs", "labels", "subject_ids", "graph_ids"),
    "screen.ScreeningResult": ("scores", "elimination_order", "levels", "selected"),
    "screen.ScreeningConfig": ("statistic", "iterative", "delta", "threshold", "size_rule",
                               "size"),
}


def public_members(predicate):
    """``module.name -> object`` of every public name a library module defines."""
    return {f"{module.__name__.rsplit('.', 1)[1]}.{name}": value
            for module in MODULES for name, value in vars(module).items()
            if not name.startswith("_") and predicate(value)
            and value.__module__ == module.__name__}


def test_public_functions_and_their_optional_parameters():
    got = {name: tuple(p.name for p in inspect.signature(function).parameters.values()
                       if p.default is not p.empty)
           for name, function in public_members(inspect.isfunction).items()}
    assert got == FUNCTIONS


def test_dataclass_fields():
    classes = public_members(lambda value: inspect.isclass(value)
                             and dataclasses.is_dataclass(value))
    got = {name: tuple(f.name for f in dataclasses.fields(cls)
                       if f.name in inspect.get_annotations(cls))
           for name, cls in classes.items()}
    assert got == DATACLASS_FIELDS
