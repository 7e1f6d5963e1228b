"""scipy is loaded only by the one statistic that uses it, cca, and only its
``scipy.linalg``. In a fresh interpreter, importing the package, a dcorr or
rv screen, a plug-in ``classify`` run and a cca screen whose every block the
Cholesky certificate settles load none of it; no step loads
``scipy.ndimage`` or ``scipy.stats``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vertexscreen import evaluate, graph

SRC = Path(__file__).resolve().parent.parent / "src"

# prints the scipy modules loaded after each step, one JSON object
PROBE = """
import json, sys
import numpy as np

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

steps = {}
import vertexscreen, vertexscreen.cli
steps["import"] = loaded()
from vertexscreen import cli, corr
code = cli.main(["screen", "--graphs", sys.argv[1], "--labels", sys.argv[2],
                 "--stat", "dcorr", "--out", sys.argv[3]])
assert code == 0, code
steps["screen"] = loaded()
code = cli.main(["screen", "--graphs", sys.argv[1], "--labels", sys.argv[2],
                 "--stat", "rv", "--out", sys.argv[3] + "-rv"])
assert code == 0, code
steps["rv-screen"] = loaded()
code = cli.main(["classify", "--graphs", sys.argv[1], "--labels", sys.argv[2],
                 "--classifier", "plugin", "--out", sys.argv[3] + "-classify"])
assert code == 0, code
steps["classify"] = loaded()
code = cli.main(["screen", "--graphs", sys.argv[1], "--labels", sys.argv[2],
                 "--stat", "cca", "--out", sys.argv[3] + "-cca"])
assert code == 0, code
steps["cca-screen"] = loaded()
rng = np.random.default_rng(0)
x, y = rng.normal(size=(12, 2)), rng.normal(size=(12, 1))
corr.cca_corr(x, y)
steps["cca"] = loaded()
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def steps(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lazy-scipy")
    dataset, _ = evaluate.sample_experiment("exp1", 12, 4)
    graph.save_dataset(dataset, tmp / "graphs.csv", tmp / "labels.csv")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, tmp / "graphs.csv", tmp / "labels.csv", tmp / "out"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy(steps):
    assert steps["import"] == []


def test_dcorr_screen_loads_no_scipy(steps):
    assert steps["screen"] == []


def test_rv_screen_loads_no_scipy(steps):
    assert steps["rv-screen"] == []


def test_plugin_classify_loads_no_scipy(steps):
    assert steps["classify"] == []


def test_certified_cca_screen_loads_no_scipy(steps):
    # 200 vertex rows of 200 features on 12 graphs: every block saturates
    # and is certified, so no QR runs
    assert steps["cca-screen"] == []


def test_cca_loads_scipy_linalg_only(steps):
    assert "scipy.linalg" in steps["cca"]
    assert "scipy.ndimage" not in steps["cca"] and "scipy.stats" not in steps["cca"]


def test_no_step_loads_ndimage_or_stats(steps):
    assert all("scipy.ndimage" not in loaded and "scipy.stats" not in loaded
               for loaded in steps.values())
