"""Per-layer metrics computed from the spans of traced passes.

Every value is per traced pass (one pass is the workload's CLI calls: one
repeat for exp1-screen and exp2-m600, one simulate + 60-fold classify for
loo-csv). Work sizes labelled ``_computed`` come from array shapes, not from
hardware counters.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from tracer import ATTRS, NAME, START, STOP, aggregate, has_ancestor

MODULES = ("graph", "corr", "screen", "classify", "evaluate", "cli")
MIB = 2.0**20


def _dataset_attrs(dataset):
    edges = int(np.count_nonzero(dataset.graphs)) // 2
    return {"rows": edges + dataset.m, "bytes": int(dataset.graphs.nbytes), "graphs": dataset.m}


def _score_attrs(bound, scores):
    dataset = bound.arguments["dataset"]
    return {"statistic": bound.arguments["statistic"], "m": dataset.m, "k": len(scores)}


ATTR_HOOKS = {
    "graph.sample_ier_dataset": lambda bound, result: _dataset_attrs(result),
    "graph.load_dataset": lambda bound, result: _dataset_attrs(result),
    "graph.save_dataset": lambda bound, result: _dataset_attrs(bound.arguments["dataset"]),
    "screen.score_vertices": _score_attrs,
    "screen.screen_iterative": lambda bound, result: {"levels": len(result.levels)},
    "corr.feature_label_correlation": lambda bound, result: {
        "statistic": bound.arguments["statistic"]
    },
    "classify.plugin_predict_many": lambda bound, result: {"graphs": len(result)},
    "classify.bayes_predict_many": lambda bound, result: {"graphs": len(result)},
}

# cli.main.self_s counts these as the CLI's own output work
_REPORT_WRITERS = ("evaluate.write_report", "evaluate.summary_text")
_BATCHED = ("classify.plugin_predict_many", "classify.bayes_predict_many")
_SCALAR = ("classify.plugin_predict", "classify.bayes_predict")
_DATASET_BUILDERS = ("graph.sample_ier_dataset", "graph.load_dataset")


class SpanMetric(NamedTuple):
    name: str
    unit: str
    better: str
    needs: tuple  # functions the metric is measured on
    compute: Callable  # (totals, spans) -> total over all traced passes
    ratio: bool = False  # a ratio is not divided by the pass count


def _field(function, field, unit):
    return SpanMetric(f"{function}.{field}", unit, "lower", (function,),
                      lambda t, s: t.get(function, {}).get(field, 0))


def _attr_sum(function, key, unit, name=None, scale=1.0, where=None):
    def compute(totals, spans):
        total = 0.0
        for span in spans:
            if span[NAME] == function and (where is None or where(span[ATTRS])):
                total += key(span[ATTRS]) if callable(key) else span[ATTRS][key]
        return total * scale

    return SpanMetric(name or f"{function}.{key}", unit, "lower", (function,), compute)


def _stat_busy(statistic):
    function = "corr.feature_label_correlation"

    def compute(totals, spans):
        total = 0.0
        for index, span in enumerate(spans):
            if (
                span[NAME] == function
                and span[ATTRS]["statistic"] == statistic
                and not has_ancestor(spans, index, lambda s: s[NAME] == function)
            ):
                total += span[STOP] - span[START]
        return total

    return SpanMetric(f"{function}.busy_s.{statistic}", "s", "lower", (function,), compute)


def _is_dcorr(attrs):
    return attrs["statistic"] == "dcorr"


def _fallback_ratio(totals, spans):
    scalar = sum(
        1 for i, span in enumerate(spans)
        if span[NAME] in _SCALAR and has_ancestor(spans, i, lambda s: s[NAME] in _BATCHED)
    )
    predicted = sum(
        span[ATTRS]["graphs"] for i, span in enumerate(spans)
        if span[NAME] in _BATCHED and not has_ancestor(spans, i, lambda s: s[NAME] in _BATCHED)
    )
    return scalar / predicted if predicted else 0.0


def _cli_self(totals, spans):
    own = sum(v["self_s"] for k, v in totals.items() if k.startswith("cli."))
    return own + sum(totals.get(k, {}).get("busy_s", 0.0) for k in _REPORT_WRITERS)


def _module_self(module):
    def compute(totals, spans):
        return sum(v["self_s"] for k, v in totals.items() if k.split(".")[0] == module)

    return SpanMetric(f"layer.{module}.self_s", "s", "lower", (), compute)


SPAN_METRICS = [
    _field("graph.sample_ier_dataset", "busy_s", "s"),
    _attr_sum("graph.sample_ier_dataset", "graphs", "count"),
    _field("graph.load_dataset", "busy_s", "s"),
    _attr_sum("graph.load_dataset", "rows", "count"),
    _field("graph.save_dataset", "busy_s", "s"),
    _attr_sum("graph.save_dataset", "rows", "count"),
    SpanMetric("graph.dataset_mb", "MiB", "lower", _DATASET_BUILDERS,
               lambda t, s: sum(x[ATTRS]["bytes"] for x in s if x[NAME] in _DATASET_BUILDERS) / MIB),
    _field("screen.score_vertices", "calls", "count"),
    _field("screen.score_vertices", "busy_s", "s"),
    _attr_sum("screen.score_vertices", "k", "count", name="screen.score_vertices.vertices"),
    # per dcorr call: k Grams of an (m x k) feature block, 2*m^2*k flops each
    _attr_sum("screen.score_vertices", lambda a: 2.0 * a["m"] ** 2 * a["k"] ** 2, "GFLOP",
              name="screen.score_vertices.gflop_computed", scale=1e-9, where=_is_dcorr),
    # per dcorr call: the (m, k, k) float64 gather of the induced subgraph
    _attr_sum("screen.score_vertices", lambda a: 8.0 * a["m"] * a["k"] ** 2, "MiB",
              name="screen.score_vertices.gather_mb_computed", scale=1 / MIB, where=_is_dcorr),
    _field("screen.subgraph_correlation", "calls", "count"),
    _field("screen.subgraph_correlation", "busy_s", "s"),
    _field("screen.screen_iterative", "self_s", "s"),
    _attr_sum("screen.screen_iterative", "levels", "count"),
    _stat_busy("rv"),
    _stat_busy("cca"),
    _stat_busy("dcorr"),
    _field("classify.fit_plugin", "calls", "count"),
    _field("classify.fit_plugin", "busy_s", "s"),
    _field("classify.plugin_predict_many", "calls", "count"),
    _field("classify.plugin_predict_many", "busy_s", "s"),
    _field("classify.bayes_predict_many", "calls", "count"),
    _field("classify.bayes_predict_many", "busy_s", "s"),
    _field("classify.plugin_predict", "calls", "count"),
    _field("classify.plugin_predict", "busy_s", "s"),
    _field("evaluate.run_experiment", "self_s", "s"),
    _field("evaluate.cross_validate", "self_s", "s"),
    _field("evaluate.roc_auc", "busy_s", "s"),
    SpanMetric("cli.main.self_s", "s", "lower", ("cli.main",) + _REPORT_WRITERS, _cli_self),
    SpanMetric("classify.scalar_fallback_ratio", "ratio", "lower", _SCALAR + _BATCHED,
               _fallback_ratio, ratio=True),
] + [_module_self(module) for module in MODULES]

# measured around passes rather than from spans; see run.py
PASS_METRICS = [
    ("process.units_per_wall_s", "1/s", "higher"),
    ("process.cpu_s", "s", "lower"),
    ("process.cpu_per_wall", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def per_layer_specs():
    """``[(name, unit, better)]`` of every per-layer metric, in output order."""
    return [(m.name, m.unit, m.better) for m in SPAN_METRICS] + PASS_METRICS


def needed_functions():
    return {function for m in SPAN_METRICS for function in m.needs}


def span_metrics(spans, passes):
    """``{name: value}`` per traced pass for every span-derived metric.

    A function that no longer exists contributes nothing, so its metrics
    read 0; the caller reports it as absent.
    """
    totals = aggregate(spans)
    return {
        m.name: m.compute(totals, spans) / (1 if m.ratio else passes) for m in SPAN_METRICS
    }


def module_span_counts(spans):
    counts = dict.fromkeys(MODULES, 0)
    for span in spans:
        module = span[NAME].split(".")[0]
        if module in counts:
            counts[module] += 1
    return counts
