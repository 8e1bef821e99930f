import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_data import (gzip_in_place, make_cifar_dir, make_mnist_dir, write_idx_images,
                       write_idx_labels)
from vclab import cli
from vclab.cli import (CSV_HEADER, AggregateRow, ConfigError, ExperimentConfig, ResultRow,
                       _build_parser, aggregate_trials, build_config, emit_chart_svg,
                       format_aggregates, main, parse_model, read_config_file,
                       read_results_csv, write_results_csv)
from vclab.data import DataFormatError
from vclab.heuristics import BETA_MAX, BETA_MIN

SRC = Path(__file__).resolve().parent.parent / "src"

FAST_ARGS = ["--epochs", "2", "--probe-size", "256", "--probe-batch", "64",
             "--probe-repeats", "2", "--eval-mc-samples", "5", "--train-mc-samples", "2"]


# Every flag of `vclab run` except --config, with the ExperimentConfig field it sets.
RUN_FLAGS = [
    ("--experiment", "experiment"), ("--model", "model"), ("--trials", "trials"),
    ("--seed", "master_seed"), ("--data-dir", "data_dir"), ("--out-dir", "out_dir"),
    ("--snapshot-dir", "snapshot_dir"), ("--epochs", "epochs"), ("--batch-size", "batch_size"),
    ("--lr", "lr"), ("--train-mc-samples", "train_mc_samples"),
    ("--eval-mc-samples", "eval_mc_samples"), ("--lam", "lam"), ("--probe-size", "probe_size"),
    ("--probe-batch", "probe_batch"), ("--probe-epochs", "probe_epochs"),
    ("--probe-repeats", "probe_repeats"), ("--probe-lr", "probe_lr"),
]

GOOD_ROW = "synthetic,gvcl:1,0,1,1,0,t,0.900000,1.000000,,,\n"


def run_module(*args):
    """``python -m vclab.cli ARGS`` in a fresh interpreter, output captured."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "vclab.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def row(model="autovcl", trial=0, stage=1, task_index=0, accuracy=0.9, beta=1.0, **kw):
    defaults = dict(experiment="synthetic", model=model, trial=trial, seed=100 + trial,
                    stage=stage, task_index=task_index, task_name=f"task-{task_index}",
                    accuracy=accuracy, beta=beta, d=None, s=None, delta_d=None)
    defaults.update(kw)
    return ResultRow(**defaults)


class TestModelParsing:
    def test_accepted_forms(self):
        assert parse_model("auto") == ("auto", 1.0)
        assert parse_model("autovcl") == ("auto", 1.0)
        assert parse_model("gvcl:0.01") == ("fixed", 0.01)
        assert parse_model("gvcl:100") == ("fixed", 100.0)

    def test_rejected_forms(self):
        for bad in ("gvcl", "gvcl:zero", "gvcl:-1", "vcl"):
            with pytest.raises(ConfigError):
                parse_model(bad)


class TestConfig:
    @pytest.mark.parametrize("flag, key", RUN_FLAGS)
    def test_run_flag_sets_its_config_field(self, flag, key):
        assert (sorted(k for _, k in RUN_FLAGS)
                == sorted(f.name for f in fields(ExperimentConfig) if f.init))
        args = vars(_build_parser().parse_args(["run", flag, "7"]))
        assert {k: v for k, v in args.items() if v is not None} == {"command": "run", key: "7"}

    def test_precedence_cli_over_file_over_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("experiment = synthetic\ntrials = 3\nlam = 2.5  # comment\n")
        cfg = build_config(read_config_file(cfg_file), {"trials": "2"})
        assert cfg.experiment == "synthetic"
        assert cfg.trials == 2        # CLI wins
        assert cfg.lam == 2.5         # file wins over default
        assert cfg.epochs == 10       # default

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            build_config({"warp_speed": "9"}, {})

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            build_config({"trials": "many"}, {})

    @pytest.mark.parametrize("key, value", [("lr", "-1"), ("probe_batch", "0")])
    def test_training_and_heuristic_values_checked_when_built(self, key, value):
        with pytest.raises(ConfigError):
            build_config({}, {key: value})

    def test_beta_follows_model(self):
        cfg = build_config({}, {"model": "gvcl:0.5"})
        assert (cfg.beta_mode, cfg.beta) == ("fixed", 0.5)
        assert build_config({}, {}).beta_mode == "auto"
        with pytest.raises(ConfigError):
            build_config({}, {"beta": "2"})

    def test_bad_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="imagenet")

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n")
        with pytest.raises(ConfigError):
            read_config_file(bad)


class TestResultsCsv:
    def test_empty_run_is_header_only(self, tmp_path):
        path = write_results_csv([], tmp_path / "empty.csv")
        assert path.read_text() == ("experiment,model,trial,seed,stage,task_index,"
                                    "task_name,accuracy,beta,d,s,delta_d\n")

    def test_six_decimal_rendering(self, tmp_path):
        path = write_results_csv([row(accuracy=0.9722)], tmp_path / "fmt.csv")
        assert ",0.972200," in path.read_text()

    def test_round_trip(self, tmp_path):
        rows = [row(stage=1, task_index=0, accuracy=0.5, beta=2.0, d=0.25, s=0.1, delta_d=0.0),
                row(model="gvcl:1", stage=1, task_index=0, accuracy=0.75, beta=1.0)]
        path = write_results_csv(rows, tmp_path / "rt.csv")
        assert read_results_csv(path) == rows

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = write_results_csv([row(accuracy=0.5)], tmp_path / "r.csv")
        before = path.read_bytes()
        with pytest.raises(ValueError):  # the second row cannot be formatted
            write_results_csv([row(accuracy=0.75), row(accuracy="high")], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_schedule_range_binds_only_rows_with_d(self, tmp_path):
        rows = [row(model="gvcl:5000", beta=5000.0),
                row(stage=1, task_index=0, beta=BETA_MIN, d=0.0, s=1.0, delta_d=0.0),
                row(stage=2, task_index=1, beta=BETA_MAX, d=1.0, s=0.0, delta_d=1.0)]
        path = write_results_csv(rows, tmp_path / "edges.csv")
        assert read_results_csv(path) == rows

    def test_rejected_row_named_by_path_and_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + GOOD_ROW * 2, encoding="utf-8")
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}:3: repeats "):
            read_results_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(",".join(CSV_HEADER) + "\n\n" + GOOD_ROW + "\n", encoding="utf-8")
        assert len(read_results_csv(path)) == 1

    def test_lf_line_endings(self, tmp_path):
        path = write_results_csv([row()], tmp_path / "lf.csv")
        blob = path.read_bytes()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")


class TestAggregation:
    def test_hand_computed_mean_and_sem(self):
        rows = [row(trial=t, accuracy=a) for t, a in enumerate([1.0, 2.0, 3.0])]
        (agg,) = aggregate_trials(rows)
        assert agg.mean_accuracy == pytest.approx(2.0)
        assert agg.sem == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-4)
        assert agg.sem == pytest.approx(0.5774, abs=1e-4)

    def test_single_trial_flagged(self):
        (agg,) = aggregate_trials([row()])
        assert agg.sem == 0.0
        assert agg.single_trial
        assert "single_trial" in format_aggregates([agg])

    def test_identical_trials_zero_sem(self):
        rows = [row(trial=t, accuracy=0.9) for t in range(5)]
        (agg,) = aggregate_trials(rows)
        assert agg.sem == 0.0
        assert not agg.single_trial

    def test_stage_average_over_tasks(self):
        rows = [row(stage=2, task_index=0, accuracy=0.8),
                row(stage=2, task_index=1, accuracy=0.6)]
        (agg,) = aggregate_trials(rows)
        assert agg.mean_accuracy == pytest.approx(0.7)

    def test_mean_log10_beta(self):
        rows = [row(trial=0, beta=10.0), row(trial=1, beta=1000.0)]
        (agg,) = aggregate_trials(rows)
        assert agg.mean_log10_beta == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_trials([])


def agg_rows(models=("autovcl", "gvcl:1"), stages=5):
    rows = []
    for m_idx, model in enumerate(models):
        for stage in range(1, stages + 1):
            rows.append(AggregateRow(model=model, stage=stage,
                                     mean_accuracy=0.99 - 0.02 * stage - 0.01 * m_idx,
                                     sem=0.001, mean_log10_beta=0.1 * stage, trials=5))
    return rows


class TestChart:
    def test_valid_svg_root_and_viewbox(self, tmp_path):
        path = emit_chart_svg(agg_rows(), "avg_accuracy", tmp_path / "c.svg")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert "viewBox" in root.attrib

    def test_polyline_per_model_with_stage_points(self, tmp_path):
        path = emit_chart_svg(agg_rows(), "avg_accuracy", tmp_path / "c.svg")
        polylines = re.findall(r'<polyline[^>]*points="([^"]*)"', path.read_text())
        assert len(polylines) == 2
        assert all(len(points.split()) == 5 for points in polylines)

    def test_monotone_data_monotone_inverted_pixels(self, tmp_path):
        rows = [AggregateRow("m", stage, 0.5 + 0.1 * stage, 0.0, None, 3)
                for stage in range(1, 5)]
        path = emit_chart_svg(rows, "avg_accuracy", tmp_path / "m.svg")
        (points,) = re.findall(r'<polyline[^>]*points="([^"]*)"', path.read_text())
        ys = [float(p.split(",")[1]) for p in points.split()]
        assert ys == sorted(ys, reverse=True)  # higher accuracy, smaller pixel y

    def test_beta_trace_kind(self, tmp_path):
        path = emit_chart_svg(agg_rows(), "beta_trace", tmp_path / "b.svg")
        assert "log10(beta)" in path.read_text()

    def test_deterministic_output(self, tmp_path):
        a = emit_chart_svg(agg_rows(), "avg_accuracy", tmp_path / "a.svg").read_bytes()
        b = emit_chart_svg(agg_rows(), "avg_accuracy", tmp_path / "b.svg").read_bytes()
        assert a == b

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_chart_svg([], "avg_accuracy", tmp_path / "x.svg")
        with pytest.raises(ValueError):
            emit_chart_svg(agg_rows(), "pie", tmp_path / "x.svg")


class TestMainEntry:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["run", "--warp-speed", "9"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_model_exits_1(self, tmp_path):
        assert main(["run", "--experiment", "synthetic", "--model", "vcl",
                     "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("flags", [
        ["--lr", "-1"], ["--lr", "nan"], ["--probe-lr", "inf"], ["--probe-lr", "0"],
        ["--lam", "nan"], ["--lam", "-inf"], ["--model", "gvcl:inf"], ["--model", "gvcl:nan"],
        ["--train-mc-samples", "0"], ["--eval-mc-samples", "0"], ["--probe-size", "5000"],
    ], ids=" ".join)
    def test_invalid_value_exits_1_without_traceback(self, tmp_path, flags):
        proc = run_module("run", "--experiment", "synthetic", "--trials", "1",
                          "--out-dir", str(tmp_path), *flags)
        assert proc.returncode == 1, proc.stderr
        assert re.search(r"^config error: ", proc.stderr, re.MULTILINE), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag, target", [
        ("--out-dir", "afile"), ("--out-dir", "afile/sub"),
        ("--snapshot-dir", "afile"), ("--snapshot-dir", "afile/sub"),
    ], ids=["out-dir-file", "out-dir-under-file", "snapshot-dir-file", "snapshot-dir-under-file"])
    def test_output_dir_that_is_a_file_exits_1_before_training(self, tmp_path, flag, target):
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        out_dir = ["--out-dir", str(tmp_path)] if flag == "--snapshot-dir" else []
        proc = run_module("run", "--experiment", "synthetic", "--model", "gvcl:1",
                          "--trials", "1", "--epochs", "1", *out_dir, flag, str(tmp_path / target))
        assert proc.returncode == 1, proc.stderr
        assert re.search(r"^config error: ", proc.stderr, re.MULTILINE), proc.stderr
        assert "Traceback" not in proc.stderr
        assert "stage" not in proc.stdout  # no stage was trained
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("command, body", [
        (["aggregate"], ""),
        (["aggregate"], "synthetic,autovcl,0,1,1,0,t,abc,1.000000,,,\n"),
        (["chart", "--which", "beta_trace"], "synthetic,gvcl:1,0,1,1,0,t,0.900000,,,,\n"),
        (["aggregate"], "synthetic,autovcl,0,1,1,0,t,nan,1.000000,,,\n"),
        (["chart"], "synthetic,autovcl,0,1,1,0,t,0.900000,inf,,,\n"),
        (["aggregate"], "synthetic,autovcl,0,1,1,0,t,0.900000,1.000000,0.5,-inf,nan\n"),
        (["aggregate"], "synthetic,gvcl:1,0,1,1,0,t,0.900000,1.000000,,,,\n"),
        (["aggregate"], "synthetic,gvcl:1,0,1,1,0,t,0.900000\n"),
        (["aggregate"], "synthetic,gvcl:1,0,1,2,0,t,0.700000,1.000000,,,\n"
                        "synthetic,gvcl:1,0,1,2,1,u,1.500000,1.000000,,,\n"),
        (["chart"], "synthetic,gvcl:1,0,1,1,0,t,0.900000,-2.000000,,,\n"),
        (["aggregate"], "synthetic,gvcl:1,0,1,1,3,t,0.900000,1.000000,,,\n"),
        (["aggregate"], GOOD_ROW * 2),
        (["aggregate"], "synthetic,autovcl,0,1,1,0,t,0.900000,1.000000,1.500000,0.0,0.0\n"),
        (["aggregate"], "synthetic,autovcl,0,1,1,0,t,0.900000,5000.000000,0.5,0.0,0.0\n"),
        (["aggregate"], "synthetic,gvcl:1,0,1,0,0,t,0.900000,1.000000,,,\n"),
    ], ids=["aggregate-header-only", "aggregate-bad-accuracy", "chart-no-beta",
            "aggregate-nan-accuracy", "chart-inf-beta", "aggregate-nonfinite-heuristics",
            "aggregate-13-fields", "aggregate-8-fields", "aggregate-accuracy-1.5",
            "chart-negative-beta", "aggregate-task-index-past-stage", "aggregate-repeated-row",
            "aggregate-d-1.5", "aggregate-beta-past-schedule-with-d", "aggregate-stage-0"])
    def test_bad_results_csv_exits_2_without_traceback(self, tmp_path, command, body):
        path = tmp_path / "results.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + body, encoding="utf-8")
        proc = run_module(*command, str(path))
        assert proc.returncode == 2, proc.stderr
        assert re.search(r"^data error: ", proc.stderr, re.MULTILINE), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args, code", [
        (["aggregate", "{tmp}/good.csv", "--out", "{tmp}/dir"], 1),
        (["chart", "{tmp}/good.csv", "--out", "{tmp}/dir"], 1),
        (["chart", "{tmp}/good.csv", "--out", "{tmp}/afile/x.svg"], 1),
        (["aggregate", "{tmp}/dir"], 2),
        (["aggregate", "{tmp}/latin1"], 2),
        (["run", "--config", "{tmp}/dir"], 1),
        (["run", "--config", "{tmp}/latin1"], 1),
        (["run", "--config", "{tmp}/ghost.cfg"], 1),
    ], ids=["aggregate-out-dir", "chart-out-dir", "chart-out-under-file", "aggregate-dir",
            "aggregate-not-utf8", "config-dir", "config-not-utf8", "config-missing"])
    def test_unusable_path_exits_with_its_code_without_traceback(self, tmp_path, args, code):
        (tmp_path / "good.csv").write_text(",".join(CSV_HEADER) + "\n" + GOOD_ROW,
                                           encoding="utf-8")
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        (tmp_path / "dir").mkdir()
        (tmp_path / "latin1").write_bytes(b"experiment = caf\xe9\n")
        proc = run_module(*(a.format(tmp=tmp_path) for a in args))
        kind = "config" if code == 1 else "data"
        assert proc.returncode == code, proc.stderr
        assert re.search(rf"^{kind} error: ", proc.stderr, re.MULTILINE), proc.stderr
        assert "Traceback" not in proc.stderr
        assert list((tmp_path / "dir").iterdir()) == []
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("experiment, defect", [
        ("permuted", "gzip-truncated"), ("permuted", "label-200"),
        ("split_custom", "no-digit-7"), ("permuted", "empty-train"), ("permuted", "empty-test"),
        ("mixed", "mnist-20x20"), ("permuted", "test-20x20"),
    ], ids=lambda v: v)
    def test_bad_mnist_exits_2_without_traceback(self, tmp_path, experiment, defect):
        n_train, n_test = {"empty-train": (0, 20), "empty-test": (30, 0)}.get(defect, (30, 20))
        make_mnist_dir(tmp_path, n_train, n_test, side=20 if defect == "mnist-20x20" else 28)
        make_cifar_dir(tmp_path, n_records=10)  # every class, so mixed finds all its pairs
        if defect == "test-20x20":
            write_idx_images(tmp_path / "t10k-images-idx3-ubyte", np.zeros((20, 20, 20), np.uint8))
        if defect == "gzip-truncated":
            path = gzip_in_place(tmp_path / "train-images-idx3-ubyte")
            path.write_bytes(path.read_bytes()[:-9])
        for name, n in [("train-labels-idx1-ubyte", n_train), ("t10k-labels-idx1-ubyte", n_test)]:
            labels = [i % 10 for i in range(n)]
            if defect == "label-200":
                labels[-1] = 200
            if defect == "no-digit-7":
                labels = [8 if y == 7 else y for y in labels]
            write_idx_labels(tmp_path / name, labels)
        proc = run_module("run", "--experiment", experiment, "--model", "gvcl:1", "--trials", "1",
                          "--epochs", "1", "--data-dir", str(tmp_path),
                          "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert re.search(r"^data error: ", proc.stderr, re.MULTILINE), proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_removed_assessment_switches_exit_1(self, tmp_path, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("difficulty_convention = theory_consistent\n", encoding="utf-8")
        extra = ["--norm-shape", "linear_clamp"] if source == "flag" else ["--config", str(cfg)]
        proc = run_module("run", "--experiment", "synthetic", "--model", "gvcl:1", "--trials",
                          "1", "--epochs", "1", "--out-dir", str(tmp_path / "out"), *extra)
        assert proc.returncode == 1, proc.stderr
        assert re.search(r"^config error: ", proc.stderr, re.MULTILINE), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_aggregate_and_chart_create_missing_parents(self, tmp_path, capsys):
        csv_path = tmp_path / "good.csv"
        csv_path.write_text(",".join(CSV_HEADER) + "\n" + GOOD_ROW, encoding="utf-8")
        table, svg = tmp_path / "new" / "a" / "table.csv", tmp_path / "new" / "b" / "c.svg"
        assert main(["aggregate", str(csv_path), "--out", str(table)]) == 0
        assert main(["chart", str(csv_path), "--out", str(svg)]) == 0
        assert table.read_text(encoding="utf-8").startswith("model,stage,")
        assert svg.read_text(encoding="utf-8").startswith("<svg")
        assert sorted(p.name for p in table.parent.iterdir()) == ["table.csv"]
        assert sorted(p.name for p in svg.parent.iterdir()) == ["c.svg"]

    def test_missing_data_exits_2(self, tmp_path, capsys):
        code = main(["run", "--experiment", "split_custom", "--model", "gvcl:1",
                     "--trials", "1", "--data-dir", str(tmp_path / "nowhere"),
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_synthetic_run_writes_csv(self, tmp_path, capsys):
        code = main(["run", "--experiment", "synthetic", "--model", "auto",
                     "--trials", "2", "--seed", "77", "--out-dir", str(tmp_path), *FAST_ARGS])
        assert code == 0
        csv_path = tmp_path / "synthetic_autovcl.csv"
        rows = read_results_csv(csv_path)
        # trials x sum(1..3 stages) rows
        assert len(rows) == 2 * (1 + 2 + 3)
        assert {r.seed for r in rows} == {77, 78}
        assert all(r.d is not None for r in rows)

    def test_fixed_model_has_empty_heuristic_fields(self, tmp_path):
        code = main(["run", "--experiment", "synthetic", "--model", "gvcl:0.5",
                     "--trials", "1", "--out-dir", str(tmp_path), *FAST_ARGS])
        assert code == 0
        rows = read_results_csv(tmp_path / "synthetic_gvcl-0.5.csv")
        assert all(r.beta == 0.5 and r.d is None and r.s is None for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["run", "--experiment", "synthetic", "--model", "auto", "--trials", "1",
                "--seed", "123", *FAST_ARGS]
        assert main([*args, "--out-dir", str(tmp_path / "a")]) == 0
        assert main([*args, "--out-dir", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "synthetic_autovcl.csv").read_bytes()
                == (tmp_path / "b" / "synthetic_autovcl.csv").read_bytes())

    def test_aggregate_and_chart_commands(self, tmp_path, capsys):
        main(["run", "--experiment", "synthetic", "--model", "auto", "--trials", "2",
              "--out-dir", str(tmp_path), *FAST_ARGS])
        csv_path = tmp_path / "synthetic_autovcl.csv"
        assert main(["aggregate", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "model,stage,mean_avg_accuracy,sem" in out
        assert main(["chart", str(csv_path), "--which", "beta_trace",
                     "--out", str(tmp_path / "beta.svg")]) == 0
        assert (tmp_path / "beta.svg").read_text().startswith("<svg")

    def test_missing_csv_exits_2(self, tmp_path):
        assert main(["aggregate", str(tmp_path / "ghost.csv")]) == 2

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = synthetic\nmodel = gvcl:1\ntrials = 1\n"
                       "epochs = 2\nprobe_size = 256\nprobe_batch = 64\n"
                       "probe_repeats = 2\neval_mc_samples = 5\ntrain_mc_samples = 2\n")
        code = main(["run", "--config", str(cfg), "--model", "gvcl:2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "synthetic_gvcl-2.csv").exists()

    def test_synthetic_smoke_under_budget(self, tmp_path):
        start = time.monotonic()
        code = main(["run", "--experiment", "synthetic", "--model", "auto",
                     "--trials", "2", "--out-dir", str(tmp_path)])
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Fuzzed inputs: truncations, byte flips and splices of valid files


def _mutation(blob: bytes):
    """A strategy for one edit of ``blob``: truncate it, flip one byte, or
    splice a prefix of it onto a suffix of it."""
    cut = st.integers(0, len(blob))
    return st.one_of(
        st.tuples(st.just("truncate"), cut, st.just(0)),
        st.tuples(st.just("flip"), st.integers(0, len(blob) - 1), st.integers(1, 255)),
        st.tuples(st.just("splice"), cut, cut))


def _mutate(blob: bytes, edits) -> bytes:
    for kind, at, arg in edits:
        at = min(at, max(len(blob) - 1, 0))
        if kind == "truncate":
            blob = blob[:at]
        elif kind == "flip" and blob:
            blob = blob[:at] + bytes([blob[at] ^ arg]) + blob[at + 1:]
        elif kind == "splice":
            blob = blob[:at] + blob[arg:]
    return blob


def _valid_results_csv(tmp_path) -> bytes:
    auto = dict(model="autovcl", beta=2.5, d=0.4, s=0.25, delta_d=0.1)
    fixed = dict(model="gvcl:1", beta=1.0)
    rows = [row(trial=trial, stage=stage, task_index=i, accuracy=0.5 + 0.1 * i, **kind)
            for kind in (auto, fixed) for trial in range(2) for stage in (1, 2)
            for i in range(stage)]
    return write_results_csv(rows, tmp_path / "valid.csv").read_bytes()


VALID_CONFIG = (b"# a run\nexperiment = synthetic\nmodel = gvcl:0.5\ntrials = 2\n"
                b"epochs = 3\nlr = 0.002\nprobe_size = 256\nlam = 2.5  # comment\n")

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzzedInputs:
    @FUZZ
    @given(data=st.data())
    def test_mutated_results_csv_exits_0_or_2(self, tmp_path, data):
        valid = _valid_results_csv(tmp_path)
        path = tmp_path / "mutant.csv"
        path.write_bytes(_mutate(valid, data.draw(st.lists(_mutation(valid), min_size=1,
                                                            max_size=3))))
        code = main(["aggregate", str(path), "--out", str(tmp_path / "table.csv")])
        assert code in (0, 2)
        if code == 0:
            for agg in aggregate_trials(read_results_csv(path)):
                assert all(map(np.isfinite, [agg.mean_accuracy, agg.sem,
                                             agg.mean_log10_beta or 0.0]))
        assert main(["chart", str(path), "--out", str(tmp_path / "c.svg")]) in (0, 2)

    @FUZZ
    @given(data=st.data())
    def test_mutated_config_exits_0_or_1(self, tmp_path, monkeypatch, data):
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: runs.append(cfg) or tmp_path)
        path = tmp_path / "mutant.cfg"
        path.write_bytes(_mutate(VALID_CONFIG, data.draw(st.lists(_mutation(VALID_CONFIG),
                                                                   min_size=1, max_size=3))))
        code = main(["run", "--config", str(path)])
        assert code in (0, 1)
        assert len(runs) == (code == 0)
