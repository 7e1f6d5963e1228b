"""The library's settable surface, pinned by name: every public function
outside the CLI with the parameters that have a default, and the fields each
dataclass declares (a subclass lists only its own), and the package modules
each module imports. A function, setting, field or import edge added or
removed shows up as an edit of this file in the same diff."""

import ast
import dataclasses
import inspect
import pathlib

from vertexscreen import classify, corr, evaluate, graph, screen

MODULES = (classify, corr, evaluate, graph, screen)

# module -> the package modules it imports: each imports only modules listed
# before it, so ``graph`` is the lowest layer and ``cli`` the highest
LAYERS = {
    "graph": set(),
    "corr": {"graph"},
    "screen": {"corr", "graph"},
    "classify": {"graph"},
    "evaluate": {"classify", "corr", "screen", "graph"},
    "cli": {"classify", "corr", "evaluate", "screen", "graph"},
}

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
    "corr.dcorr_many": ("y_metric",),
    "corr.dcov_sq": ("y_metric",),
    "corr.dcorr": ("y_metric",),
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


def package_imports(name):
    """The package modules that ``vertexscreen/<name>.py`` imports anywhere in
    its body, function-level imports included, read from its syntax tree."""
    path = pathlib.Path(graph.__file__).with_name(f"{name}.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # "from . import a" and "from .a import f" both import module a
            package = "vertexscreen" if node.level == 1 else None
            module = ".".join(filter(None, (package, node.module)))
            modules = ([f"{module}.{a.name}" for a in node.names] if module == "vertexscreen"
                       else [module])
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("vertexscreen."))
    return found


def test_module_layering():
    assert {name: package_imports(name) for name in LAYERS} == LAYERS
