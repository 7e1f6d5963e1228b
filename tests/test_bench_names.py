"""The benchmark's per-layer metrics read library functions by name; each
must stay a public function of its module, or a traced run reports it absent."""

import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_function_the_bench_reads_is_public(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    modules = {short: importlib.import_module(f"vertexscreen.{short}") for short in layers.MODULES}
    needed = layers.needed_functions()
    assert needed and needed <= set(tracer.public_functions(modules))
    # the score_vertices hook binds these arguments by name
    parameters = inspect.signature(modules["screen"].score_vertices).parameters
    assert {"dataset", "statistic"} <= set(parameters)
