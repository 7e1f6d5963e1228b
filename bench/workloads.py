"""The benchmark's workloads: the CLI calls of one pass, the units a pass
completes, the report files whose bytes must repeat for a seed, loose sanity
floors on those reports, and the dataset the dcorr spot-check scores.

Each workload drives ``vertexscreen.cli.main`` with flags the CLI keeps
(never ``--threads``). METRICS.md and BENCHMARK.json say why each workload
was chosen.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return [dict(zip(header, row)) for row in reader]


def _in_unit_interval(text):
    value = float(text)
    return 0.0 <= value <= 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict  # "full" (the benchmark) and "tiny" (self-test) parameters

    def units(self, size):
        """Units (repeats or folds) one pass completes."""
        raise NotImplementedError

    def argvs(self, seed, out, size):
        """CLI argument lists that make up one pass, run in order."""
        raise NotImplementedError

    def outputs(self):
        """Report files of a pass whose bytes must repeat for a seed."""
        raise NotImplementedError

    def check(self, out, size):
        """Problems found in a pass's reports; empty when it looks sane."""
        raise NotImplementedError

    def spot_dataset(self, seed, out, size):
        """A dataset of the workload's shape for the dcorr spot-check."""
        raise NotImplementedError


class Exp1Screen(Workload):
    def units(self, size):
        return 1

    def argvs(self, seed, out, size):
        m = self.sizes[size]["m"]
        return [["replicate", "exp1", "--repeats", "1", "--m", str(m),
                 "--seed", str(seed), "--out", out]]

    def outputs(self):
        return ("auc.csv", "roc.csv", "screening.csv", "summary.csv")

    def check(self, out, size):
        rows = _rows(os.path.join(out, "auc.csv"))
        problems = []
        methods = [r["method"] for r in rows]
        if not rows or len(set(methods)) != len(methods):
            problems.append(f"auc.csv: expected one row per method, got {methods}")
        problems += [f"auc.csv: AUC {r['auc']} outside [0, 1]"
                     for r in rows if not _in_unit_interval(r["auc"])]
        return problems

    def spot_dataset(self, seed, out, size):
        from vertexscreen import evaluate

        return evaluate.sample_experiment("exp1", self.sizes[size]["m"], seed)[0]


class Exp2Loss(Workload):
    def units(self, size):
        return 1

    def argvs(self, seed, out, size):
        s = self.sizes[size]
        return [["replicate", "exp2", "--repeats", "1", "--m-grid", str(s["m"]),
                 "--test-draws", str(s["test_draws"]), "--seed", str(seed),
                 "--out", out]]

    def outputs(self):
        return ("fpr.csv", "loss.csv", "summary.csv")

    def check(self, out, size):
        m = str(self.sizes[size]["m"])
        loss = _rows(os.path.join(out, "loss.csv"))
        fpr = _rows(os.path.join(out, "fpr.csv"))
        methods = [r["method"] for r in loss]
        problems = []
        if not loss or len(set(methods)) != len(methods):
            problems.append(f"loss.csv: expected one row per method, got {methods}")
        problems += [f"loss.csv: row for m={r['m']}, expected m={m}"
                     for r in loss if r["m"] != m]
        problems += [f"loss.csv: error {r['error']} outside [0, 1]"
                     for r in loss if not _in_unit_interval(r["error"])]
        problems += [f"fpr.csv: FPR {r['fpr']} outside [0, 1]"
                     for r in fpr if not _in_unit_interval(r["fpr"])]
        return problems

    def spot_dataset(self, seed, out, size):
        from vertexscreen import evaluate

        return evaluate.sample_experiment("exp2", self.sizes[size]["m"], seed)[0]


class LooCsv(Workload):
    def units(self, size):
        return self.sizes[size]["m"]

    def argvs(self, seed, out, size):
        s = self.sizes[size]
        return [
            ["simulate", "exp2", "--m", str(s["m"]), "--seed", str(seed), "--out", out],
            ["classify", "--graphs", os.path.join(out, "graphs.csv"),
             "--labels", os.path.join(out, "labels.csv"),
             "--iterative", "--size", str(s["size"]), "--out", out],
        ]

    def outputs(self):
        return ("graphs.csv", "labels.csv", "loss.csv")

    def check(self, out, size):
        m = self.sizes[size]["m"]
        labels = {r["label"] for r in _rows(os.path.join(out, "labels.csv"))}
        loss = _rows(os.path.join(out, "loss.csv"))
        problems = []
        folds = sorted(int(r["fold"]) for r in loss)
        graph_ids = sorted(int(r["graph_id"]) for r in loss)
        if folds != list(range(m)) or graph_ids != list(range(m)):
            problems.append(f"loss.csv: expected {m} folds with one prediction each")
        problems += [f"loss.csv: prediction {r['prediction']} is not a label"
                     for r in loss if r["prediction"] not in labels]
        return problems

    def spot_dataset(self, seed, out, size):
        from vertexscreen import graph

        return graph.load_dataset(
            os.path.join(out, "graphs.csv"), os.path.join(out, "labels.csv")
        )


WORKLOADS = {
    w.name: w
    for w in (
        Exp1Screen(
            "exp1-screen",
            {"full": {"m": 100}, "tiny": {"m": 40}},
        ),
        Exp2Loss(
            "exp2-m600",
            {"full": {"m": 600, "test_draws": 500}, "tiny": {"m": 30, "test_draws": 20}},
        ),
        LooCsv(
            "loo-csv",
            {"full": {"m": 60, "size": 20}, "tiny": {"m": 12, "size": 5}},
        ),
    )
}
