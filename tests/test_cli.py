"""End-to-end tests of the command-line interface."""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from vertexscreen import graph
from vertexscreen.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run(["simulate", "exp1", "--m", 30, "--seed", 5, "--out", out]) == 0
    return out


class TestSimulate:
    def test_round_trip(self, tmp_path):
        assert run(["simulate", "exp1", "--m", 12, "--seed", 9, "--out", tmp_path]) == 0
        loaded = graph.load_dataset(tmp_path / "graphs.csv", tmp_path / "labels.csv", n=200)
        from vertexscreen.evaluate import sample_experiment

        original, _ = sample_experiment("exp1", 12, 9)
        assert np.array_equal(loaded.graphs, original.graphs)
        assert np.array_equal(loaded.labels, original.labels)

    def test_rejects_zero_m(self, tmp_path, capsys):
        assert run(["simulate", "exp1", "--m", 0, "--out", tmp_path]) == 1
        assert "error" in capsys.readouterr().err

    def test_refuses_a_stack_it_cannot_allocate(self, tmp_path, capsys):
        # past the largest numpy array, let alone any address space
        assert run(["simulate", "exp2", "--m", 2**50, "--out", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "error: cannot allocate the (1125899906842624, 200, 200) uint8 adjacency stack, "
            "41943040000.0 GiB\n")

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "exp2", "--m", 10, "--seed", 3, "--out", out]) == 0
        assert (a / "graphs.csv").read_bytes() == (b / "graphs.csv").read_bytes()
        assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()


class TestScreen:
    def test_iterative_run(self, small_dataset, tmp_path, capsys):
        code = run(
            ["screen", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--stat", "dcorr", "--iterative", "--delta", "0.5", "--out", tmp_path]
        )
        assert code == 0
        assert "selected" in capsys.readouterr().out
        header = (tmp_path / "screening.csv").read_text().splitlines()[0]
        assert header == "vertex,score,rank,elimination_level,selected"
        assert len((tmp_path / "screening.csv").read_text().splitlines()) == 201

    def test_size_override_selects_exactly(self, small_dataset, tmp_path):
        code = run(
            ["screen", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--size", 30, "--out", tmp_path]
        )
        assert code == 0
        rows = (tmp_path / "screening.csv").read_text().splitlines()[1:]
        assert sum(int(r.split(",")[-1]) for r in rows) == 30

    def test_threshold_one_selects_nothing_and_succeeds(self, small_dataset, tmp_path, capsys):
        code = run(
            ["screen", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--threshold", 1, "--out", tmp_path]
        )
        assert code == 0
        assert "selected 0 vertices" in capsys.readouterr().out

    def test_no_flags_use_the_library_defaults(self, small_dataset, tmp_path, capsys, monkeypatch):
        from vertexscreen import screen

        configs = []
        real_run = screen.run

        def recording_run(ds, batch, train_indices):
            configs.extend(batch)
            assert [rows.tolist() for rows in train_indices] == [list(range(ds.m))]
            return real_run(ds, batch, train_indices)

        monkeypatch.setattr(screen, "run", recording_run)
        code = run(
            ["screen", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200, "--out", tmp_path]
        )
        assert code == 0
        assert configs == [screen.ScreeningConfig()]
        ds = graph.load_dataset(small_dataset / "graphs.csv", small_dataset / "labels.csv", n=200)
        (_, [(_, expected)]), = real_run(ds, [screen.ScreeningConfig()], [np.arange(ds.m)])
        printed = capsys.readouterr().out.splitlines()[0].partition(": ")[2]
        assert printed == " ".join(str(v) for v in expected)

    def test_out_of_range_flags_rejected(self, small_dataset, tmp_path, capsys):
        for flag, value, extra in (("--delta", 1.5, ["--iterative"]), ("--threshold", -0.1, [])):
            code = run(
                ["screen", "--graphs", small_dataset / "graphs.csv",
                 "--labels", small_dataset / "labels.csv", "--n", 200,
                 flag, value, *extra, "--out", tmp_path]
            )
            assert code == 1
            assert f"{flag[2:]} must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize(
        "options, named",
        [
            pytest.param({"delta": 0.3}, "delta applies to iterative screening only",
                         id="one-shot-delta"),
            pytest.param({"iterative": None, "threshold": 0.9},
                         "threshold applies to one-shot screening only",
                         id="iterative-threshold"),
            pytest.param({"size": 5, "threshold": 0.9},
                         "threshold applies to size rule maxcorr only, not fixed",
                         id="size-threshold"),
            pytest.param({"size-rule": "gap", "threshold": 0.9},
                         "threshold applies to size rule maxcorr only, not gap",
                         id="gap-threshold"),
            pytest.param({"seed": 5}, "seed", id="seed"),
        ],
    )
    def test_ignored_flags_rejected(self, small_dataset, tmp_path, capsys, options, named,
                                    source):
        # value None is a switch: a bare flag, or true in a config file
        argv = ["screen", "--graphs", small_dataset / "graphs.csv",
                "--labels", small_dataset / "labels.csv", "--n", 200, "--out", tmp_path]
        if source == "flags":
            argv += [x for key, value in options.items()
                     for x in (f"--{key}",) + (() if value is None else (value,))]
        else:
            config = tmp_path / "run.cfg"
            config.write_text("".join(f"{key}={'true' if value is None else value}\n"
                                      for key, value in options.items()))
            argv += ["--config", config]
        assert run(argv) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "screening.csv").exists()

    @pytest.mark.parametrize("command", ["screen", "classify"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_vertex_count_below_one_rejected(self, tmp_path, capsys, command, n):
        # an edgeless graphs.csv has no vertex index to contradict n
        (tmp_path / "graphs.csv").write_text("graph_id,u,v,weight\n")
        (tmp_path / "labels.csv").write_text("graph_id,label\n0,0\n1,1\n2,0\n3,1\n")
        argv = [command, "--graphs", tmp_path / "graphs.csv",
                "--labels", tmp_path / "labels.csv", "--n", n, "--out", tmp_path]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: n must be at least 1, not {n}\n"

    def test_cca_dispatch(self, small_dataset, tmp_path):
        code = run(
            ["screen", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--stat", "cca", "--out", tmp_path]
        )
        assert code == 0

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_deleted_mgc_statistic_refused_with_the_list(self, small_dataset, tmp_path, capsys,
                                                         source):
        argv = ["screen", "--graphs", small_dataset / "graphs.csv",
                "--labels", small_dataset / "labels.csv", "--n", 200, "--out", tmp_path]
        if source == "flags":
            argv += ["--stat", "mgc"]
        else:
            (tmp_path / "run.cfg").write_text("stat=mgc\n")
            argv += ["--config", tmp_path / "run.cfg"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "'mgc'" in err and "'dcorr', 'rv', 'cca'" in err
        assert not (tmp_path / "screening.csv").exists()

    def test_size_rule_conflict(self, small_dataset, tmp_path):
        code = run(
            ["screen", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--size", 10, "--size-rule", "gap", "--out", tmp_path]
        )
        assert code == 1

    def test_fixed_rule_needs_size(self, small_dataset, tmp_path, capsys):
        code = run(
            ["screen", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--size-rule", "fixed", "--out", tmp_path]
        )
        assert code == 1
        assert "size rule fixed needs a size" in capsys.readouterr().err
        assert not (tmp_path / "screening.csv").exists()

    def test_missing_file_is_io_error(self, tmp_path):
        code = run(
            ["screen", "--graphs", tmp_path / "nope.csv",
             "--labels", tmp_path / "nope2.csv", "--out", tmp_path]
        )
        assert code == 2

    def test_malformed_rows_rejected(self, tmp_path, capsys):
        (tmp_path / "labels.csv").write_text("graph_id,label\n0,0\n1,1\n")
        (tmp_path / "graphs.csv").write_text("graph_id,u,v,weight\n0,0,x,1\n")
        code = run(
            ["screen", "--graphs", tmp_path / "graphs.csv",
             "--labels", tmp_path / "labels.csv", "--n", 5, "--out", tmp_path]
        )
        assert code == 1
        assert "graphs.csv:2" in capsys.readouterr().err


class TestClassify:
    def test_subject_grouping_fold_count(self, tmp_path, capsys):
        from vertexscreen.evaluate import sample_experiment
        from vertexscreen.graph import LabeledGraphDataset, save_dataset

        ds, _ = sample_experiment("exp1", 12, 6)
        ds = LabeledGraphDataset(
            ds.graphs, ds.labels, subject_ids=[f"s{i // 2}" for i in range(12)]
        )
        save_dataset(ds, tmp_path / "graphs.csv", tmp_path / "labels.csv")
        code = run(
            ["classify", "--graphs", tmp_path / "graphs.csv",
             "--labels", tmp_path / "labels.csv", "--n", 200,
             "--classifier", "knn", "--k", 3, "--group", "subject",
             "--size", 20, "--out", tmp_path]
        )
        assert code == 0
        assert "folds=6" in capsys.readouterr().out

    def test_plugin_loss_csv(self, small_dataset, tmp_path):
        code = run(
            ["classify", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--classifier", "plugin", "--size", 20, "--out", tmp_path]
        )
        assert code == 0
        lines = (tmp_path / "loss.csv").read_text().splitlines()
        assert lines[0] == "fold,graph_id,label,prediction,unseen_class"
        assert len(lines) == 31

    @pytest.mark.parametrize("classifier", [["--size", 3], ["--classifier", "bayes",
                                                           "--experiment", "exp1"]],
                             ids=["plugin", "bayes"])
    def test_loss_csv_writes_the_file_graph_ids(self, small_dataset, tmp_path, classifier):
        # six graphs of the small draw under non-contiguous ids, out of order
        ids = [30, 10, 20, 40, 50, 60]
        edges = (small_dataset / "graphs.csv").read_text().splitlines()
        rows = [r.split(",") for r in edges[1:]]
        (tmp_path / "graphs.csv").write_text("\n".join(
            [edges[0]] + [",".join([str(ids[int(r[0])])] + r[1:]) for r in rows if int(r[0]) < 6]
        ) + "\n")
        labels = (small_dataset / "labels.csv").read_text().splitlines()
        (tmp_path / "labels.csv").write_text("\n".join(
            [labels[0]] + [f"{gid},{row.split(',')[1]}" for gid, row in zip(ids, labels[1:7])]
        ) + "\n")
        code = run(
            ["classify", "--graphs", tmp_path / "graphs.csv", "--labels", tmp_path / "labels.csv",
             "--n", 200, *classifier, "--out", tmp_path]
        )
        assert code == 0
        loss = [r.split(",") for r in (tmp_path / "loss.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in loss] == ["10", "20", "30", "40", "50", "60"]
        by_id = {gid: row.split(",")[1] for gid, row in zip(ids, labels[1:7])}
        assert [r[2] for r in loss] == [by_id[int(r[1])] for r in loss]

    def test_no_flags_use_the_library_defaults(self, small_dataset, tmp_path, monkeypatch):
        from vertexscreen import cli, evaluate

        calls = []
        real_cross_validate = evaluate.cross_validate

        def recording_cross_validate(ds, pipeline, **options):
            calls.append((pipeline, options))
            return real_cross_validate(ds, pipeline, **options)

        monkeypatch.setattr(cli.evaluate, "cross_validate", recording_cross_validate)
        code = run(
            ["classify", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200, "--out", tmp_path]
        )
        assert code == 0
        assert calls == [(evaluate.PipelineConfig(), {})]

    def test_k_below_one_rejected(self, small_dataset, tmp_path, capsys):
        code = run(
            ["classify", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--classifier", "knn", "--k", 0, "--out", tmp_path]
        )
        assert code == 1
        assert "k must be at least 1" in capsys.readouterr().err

    def test_float_labels_written_plainly(self, small_dataset, tmp_path):
        labels = ["graph_id,label"] + [
            f"{row.split(',')[0]},{float(row.split(',')[1])!r}"
            for row in (small_dataset / "labels.csv").read_text().splitlines()[1:]
        ]
        (tmp_path / "labels.csv").write_text("\n".join(labels) + "\n")
        code = run(
            ["classify", "--graphs", small_dataset / "graphs.csv",
             "--labels", tmp_path / "labels.csv", "--n", 200,
             "--classifier", "bayes", "--experiment", "exp1", "--out", tmp_path]
        )
        assert code == 0
        rows = [r.split(",") for r in (tmp_path / "loss.csv").read_text().splitlines()[1:]]
        assert len(rows) == 30 and all(r[2] in ("0.0", "1.0") for r in rows)

    def test_bayes_needs_experiment(self, small_dataset, tmp_path):
        code = run(
            ["classify", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--classifier", "bayes", "--out", tmp_path]
        )
        assert code == 1

    def test_bayes_with_experiment(self, small_dataset, tmp_path, capsys):
        code = run(
            ["classify", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--classifier", "bayes", "--experiment", "exp1", "--out", tmp_path]
        )
        assert code == 0
        assert "classifier=bayes" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize(
        "options, named",
        [pytest.param({"classifier": "bayes", "experiment": "exp1", flag: value}, f"--{flag}",
                      id=f"bayes-{flag}")
         for flag, value in (("stat", "rv"), ("iterative", None), ("delta", 0.3),
                             ("threshold", 0.1), ("size", 3), ("size-rule", "gap"),
                             ("k", 3), ("group", "subject"))]
        + [pytest.param({"experiment": "exp1"}, "--experiment", id="plugin-experiment"),
           pytest.param({"classifier": "knn", "experiment": "exp2"}, "--experiment",
                        id="knn-experiment"),
           pytest.param({"size": 10, "k": 3}, "k applies to classifier knn only",
                        id="default-plugin-k"),
           pytest.param({"classifier": "plugin", "k": 3}, "k applies to classifier knn only",
                        id="plugin-k"),
           pytest.param({"classifier": "knn", "delta": 0.3},
                        "delta applies to iterative screening only", id="one-shot-delta"),
           pytest.param({"iterative": None, "threshold": 0.5},
                        "threshold applies to one-shot screening only",
                        id="iterative-threshold"),
           pytest.param({"size": 10, "threshold": 0.5},
                        "threshold applies to size rule maxcorr only, not fixed",
                        id="size-threshold"),
           pytest.param({"seed": 5}, "seed", id="seed")],
    )
    def test_ignored_flags_rejected(self, small_dataset, tmp_path, capsys, options, named,
                                    source):
        # value None is a switch: a bare flag, or true in a config file
        argv = ["classify", "--graphs", small_dataset / "graphs.csv",
                "--labels", small_dataset / "labels.csv", "--n", 200, "--out", tmp_path]
        if source == "flags":
            argv += [x for key, value in options.items()
                     for x in (f"--{key}",) + (() if value is None else (value,))]
        else:
            config = tmp_path / "run.cfg"
            config.write_text("".join(f"{key}={'true' if value is None else value}\n"
                                      for key, value in options.items()))
            argv += ["--config", config]
        assert run(argv) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "loss.csv").exists()

    def test_group_subject_without_ids(self, small_dataset, tmp_path):
        code = run(
            ["classify", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--classifier", "knn", "--group", "subject", "--out", tmp_path]
        )
        assert code == 1


class TestReplicate:
    def test_exp1_summary_and_csvs(self, tmp_path, capsys):
        code = run(
            ["replicate", "exp1", "--repeats", 2, "--m", 30, "--seed", 4,
             "--methods", "dcorr,rv", "--out", tmp_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean AUC" in out and "dcorr" in out
        for name in ("auc.csv", "roc.csv", "screening.csv", "summary.csv"):
            assert (tmp_path / name).exists()

    def test_exp2_m_grid(self, tmp_path):
        code = run(
            ["replicate", "exp2", "--repeats", 1, "--m-grid", "30,40",
             "--test-draws", 20, "--methods", "bayes,itdcorr-0.5",
             "--seed", 4, "--out", tmp_path]
        )
        assert code == 0
        loss = (tmp_path / "loss.csv").read_text().splitlines()
        assert loss[0] == "method,m,repeat,error"
        assert len(loss) == 5

    def test_single_repeat_se_marker(self, tmp_path, capsys):
        code = run(
            ["replicate", "exp1", "--repeats", 1, "--m", 30,
             "--methods", "dcorr", "--out", tmp_path]
        )
        assert code == 0
        assert (tmp_path / "summary.csv").read_text().splitlines()[1].endswith(",")
        assert "-" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize(
        "experiment, options, named",
        [
            pytest.param("exp1", {"m-grid": "30"}, "m_grid applies to exp2 only",
                         id="exp1-options0---m-grid"),
            pytest.param("exp1", {"test-draws": 7}, "test_draws applies to exp2 only",
                         id="exp1-options1---test-draws"),
            pytest.param("exp2", {"m": 90, "m-grid": "30"}, "m and m_grid exclude each other",
                         id="exp2-options2---m and --m-grid"),
            # an empty value is an error, not the default
            pytest.param("exp1", {"methods": ""}, "unknown screening method",
                         id="empty-methods"),
            pytest.param("exp2", {"m-grid": ""}, "--m-grid expects", id="empty-m-grid"),
        ],
    )
    def test_ignored_flags_rejected(self, tmp_path, capsys, experiment, options, named, source):
        argv = ["replicate", experiment, "--repeats", 1, "--out", tmp_path]
        if source == "flags":
            argv += [x for key, value in options.items() for x in (f"--{key}", value)]
        else:
            config = tmp_path / "run.cfg"
            config.write_text("".join(f"{key}={value}\n" for key, value in options.items()))
            argv += ["--config", config]
        assert run(argv) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_replicate_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                ["replicate", "exp1", "--repeats", 2, "--m", 30, "--seed", 11,
                 "--methods", "dcorr,itdcorr-0.5", "--out", out]
            ) == 0
        for name in ("auc.csv", "roc.csv", "screening.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("m=10\nseed=2\n# comment line\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "exp1", "--config", config, "--out", out1]) == 0
        assert run(
            ["simulate", "exp1", "--config", config, "--m", 15, "--out", out2]
        ) == 0
        labels1 = (out1 / "labels.csv").read_text().splitlines()
        labels2 = (out2 / "labels.csv").read_text().splitlines()
        assert len(labels1) == 11 and len(labels2) == 16

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus=1\n")
        assert run(["simulate", "exp1", "--config", config, "--out", tmp_path]) == 1
        config.write_text("threads=2\n")  # the removed option
        assert run(["simulate", "exp1", "--m", 4, "--config", config, "--out", tmp_path]) == 1

    def test_keys_are_the_flags_of_every_subcommand(self, capsys):
        from vertexscreen import cli

        keys = {}
        for command in ("simulate", "screen", "classify", "replicate"):
            with pytest.raises(SystemExit):
                run([command, "--help"])
            flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out))
            keys[command] = cli._config_keys(cli.build_parser(), command)
            assert set(keys[command]) == flags - {"config", "help"}, command
        assert keys["screen"]["iterative"]("Yes") is True
        assert keys["screen"]["iterative"]("0") is False
        assert keys["classify"]["delta"]("0.25") == 0.25
        assert keys["replicate"]["m-grid"]("60,150") == "60,150"

    def test_key_of_another_subcommand_rejected(self, tmp_path, capsys):
        simulate_dir = tmp_path / "data"
        assert run(["simulate", "exp1", "--m", 6, "--seed", 1, "--out", simulate_dir]) == 0
        config = tmp_path / "run.cfg"
        config.write_text("stat=rv\n\nm-grid=1,2\n")
        assert run(
            ["screen", "--graphs", simulate_dir / "graphs.csv",
             "--labels", simulate_dir / "labels.csv", "--config", config, "--out", tmp_path]
        ) == 1
        err = capsys.readouterr().err
        assert f"{config}:3:" in err and "m-grid" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("stat=rv\n\nstat=cca\n", ":3: option 'stat' is already set on line 1",
                         id="repeated-key"),
            pytest.param("# switch\niterative=banana\n", ":2: bad value for 'iterative'",
                         id="bad-switch"),
        ],
    )
    def test_malformed_config_rejected(self, small_dataset, tmp_path, capsys, text, message):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        assert run(
            ["screen", "--graphs", small_dataset / "graphs.csv",
             "--labels", small_dataset / "labels.csv", "--n", 200,
             "--config", config, "--out", tmp_path]
        ) == 1
        assert f"{config}{message}" in capsys.readouterr().err
        assert not (tmp_path / "screening.csv").exists()

    def test_switch_values(self):
        from vertexscreen import cli

        for text, value in (("1", True), ("TRUE", True), ("yes", True),
                            ("0", False), ("False", False), ("NO", False)):
            assert cli._parse_switch(text) is value
        for text in ("banana", "", "2", "on"):
            with pytest.raises(ValueError):
                cli._parse_switch(text)


def test_threads_flag_removed(tmp_path, capsys):
    assert run(["simulate", "exp1", "--m", 4, "--threads", 2, "--out", tmp_path]) == 1
    assert "--threads" in capsys.readouterr().err


def test_unknown_subcommand_is_validation_error(capsys):
    assert run(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_internal_error_exit_code(monkeypatch, tmp_path, capsys):
    from vertexscreen import cli

    def boom(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli.evaluate, "run_experiment", boom)
    assert run(["replicate", "exp1", "--repeats", 1, "--out", tmp_path]) == 3
    assert "internal error" in capsys.readouterr().err


def test_readme_common_flags_list_the_parser_choices():
    from vertexscreen import cli

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    common = readme[readme.index("Common flags:"):]
    common = common[:common.index("\n\n")]
    listed = {flag: tuple(choices.split(","))
              for flag, choices in re.findall(r"`(--[\w-]+) \{([\w,]+)\}`", common)}
    (subparsers,) = (action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
    # classify has every flag with choices: screen's, --classifier and --group
    choices = {action.option_strings[0]: tuple(action.choices)
               for action in subparsers.choices["classify"]._actions
               if action.option_strings and action.choices}
    assert {"--stat", "--size-rule", "--classifier"} <= set(listed)
    assert listed == {flag: choices[flag] for flag in listed}
