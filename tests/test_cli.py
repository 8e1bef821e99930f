import csv
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import weakref
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_data import (gzip_in_place, loads_or_format_error, make_cifar_dir, make_mnist_dir,
                       write_idx_images, write_idx_labels)
from test_vbnn import random_net, with_one_huge_sigma
from vclab import cli, continual, numerics
from vclab.cli import (CSV_HEADER, AggregateRow, ConfigError, ExperimentConfig, ResultRow,
                       _build_parser, aggregate_trials, build_config, emit_chart_svg,
                       format_aggregates, main, parse_model, read_config_file,
                       read_results_csv, write_results_csv)
from vclab.data import DataFormatError, load_cifar10_gray28, load_mnist
from vclab.heuristics import BETA_MAX, BETA_MIN
from vclab.numerics import NumericError
from vclab.vbnn import advance_prior, load_snapshot, save_snapshot

SRC = Path(__file__).resolve().parent.parent / "src"

FAST_ARGS = ["--epochs", "2", "--probe-size", "256", "--probe-repeats", "2",
             "--eval-mc-samples", "5", "--train-mc-samples", "2"]


# Every flag of `vclab run` except --config, with the ExperimentConfig field it sets.
RUN_FLAGS = [
    ("--experiment", "experiment"), ("--model", "model"), ("--trials", "trials"),
    ("--seed", "master_seed"), ("--data-dir", "data_dir"), ("--out-dir", "out_dir"),
    ("--snapshot-dir", "snapshot_dir"), ("--epochs", "epochs"), ("--batch-size", "batch_size"),
    ("--lr", "lr"), ("--train-mc-samples", "train_mc_samples"),
    ("--eval-mc-samples", "eval_mc_samples"), ("--lam", "lam"), ("--probe-size", "probe_size"),
    ("--probe-repeats", "probe_repeats"),
]

GOOD_ROW = "synthetic,gvcl:1,0,1,1,0,t,0.900000,1.000000,,,\n"
STAGE_2_OF_TRIAL_0 = ("synthetic,gvcl:1,0,1,2,0,t,0.600000,1.000000,,,\n"
                      "synthetic,gvcl:1,0,1,2,1,u,0.600000,1.000000,,,\n")
STAGE_2_OF_TRIAL_1 = STAGE_2_OF_TRIAL_0.replace(",0,1,", ",1,2,")


def run_module(*args, env=None):
    """``python -m vclab.cli ARGS`` in a fresh interpreter, output captured,
    with ``env`` added to the environment."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "vclab.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def use_cpus(monkeypatch, n):
    """Let ``vclab run`` see ``n`` usable CPUs, so that it runs its trials in
    up to ``n`` processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_forks(monkeypatch) -> list[int]:
    """The pids of the processes forked from this one from now on."""
    real_fork, children = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return children


def row(model="autovcl", trial=0, stage=1, task_index=0, accuracy=0.9, beta=1.0, **kw):
    defaults = dict(experiment="synthetic", model=model, trial=trial, seed=100 + trial,
                    stage=stage, task_index=task_index, task_name=f"task-{task_index}",
                    accuracy=accuracy, beta=beta, d=None, s=None, delta_d=None)
    defaults.update(kw)
    return ResultRow(**defaults)


def test_snapshot_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At 784-wide layers OpenBLAS's float32 sgemm rounds differently with 1
    # and 2 threads; run_sequence runs with one, whatever the environment
    # asks for.
    def snapshots(threads):
        snapshot_dir = tmp_path / f"threads-{threads}"
        proc = run_module("run", "--experiment", "synthetic", "--model", "gvcl:1", "--trials",
                          "1", "--epochs", "1", "--seed", "5", "--out-dir", str(snapshot_dir),
                          "--snapshot-dir", str(snapshot_dir),
                          env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        return [(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
                for path in sorted(snapshot_dir.rglob("*.snap"))]

    two = snapshots("2")
    assert [name for name, _ in two] == ["stage_01.snap", "stage_02.snap", "stage_03.snap"]
    assert two == snapshots("1")


class TestModelParsing:
    def test_accepted_forms(self):
        assert parse_model("auto") == ("auto", 1.0)
        assert parse_model("autovcl") == ("auto", 1.0)
        assert parse_model("gvcl:0.01") == ("fixed", 0.01)
        assert parse_model("gvcl:100") == ("fixed", 100.0)

    def test_rejected_forms(self):
        for bad in ("gvcl", "gvcl:zero", "gvcl:-1", "vcl", "gvcl:4e-7", "gvcl:1e-300"):
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

    @pytest.mark.parametrize("key, value", [("lr", "-1"), ("probe_size", "0")])
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

    def test_a_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        cfg_file = tmp_path / "bom.cfg"
        cfg_file.write_bytes(b"\xef\xbb\xbfepochs = 3\ntrials = 2\n")
        assert read_config_file(cfg_file) == {"epochs": "3", "trials": "2"}
        assert build_config(read_config_file(cfg_file), {}).epochs == 3

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
                row(stage=2, task_index=0, beta=BETA_MAX, d=1.0, s=0.0, delta_d=1.0),
                row(stage=2, task_index=1, beta=BETA_MAX, d=1.0, s=0.0, delta_d=1.0)]
        path = write_results_csv(rows, tmp_path / "edges.csv")
        assert read_results_csv(path) == rows

    def test_rejected_row_named_by_path_and_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + GOOD_ROW * 2, encoding="utf-8")
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}:3: repeats "):
            read_results_csv(path)

    def test_stage_rows_that_disagree_named_by_path_and_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_HEADER) + "\n"
                        "synthetic,gvcl:1,1,2,2,0,t,0.900000,1.000000,,,\n"
                        "synthetic,gvcl:1,1,2,2,1,u,0.800000,7.000000,,,\n", encoding="utf-8")
        with pytest.raises(DataFormatError,
                           match=rf"^{re.escape(str(path))}:3: beta 7.0 differs from 1.0 "):
            read_results_csv(path)

    def test_trial_lacking_a_stage_named_by_path_model_trial_and_stage(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + GOOD_ROW + STAGE_2_OF_TRIAL_0
                        + STAGE_2_OF_TRIAL_1, encoding="utf-8")
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: trial 1 of model "
                                                  r"'gvcl:1' lacks stage 1;"):
            read_results_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text(",".join(CSV_HEADER) + "\n\n" + GOOD_ROW + "\n", encoding="utf-8")
        assert len(read_results_csv(path)) == 1

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = write_results_csv([row()], tmp_path / "plain.csv")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_results_csv(bom) == read_results_csv(path) == [row()]

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

    def test_table_quotes_a_model_name_with_a_comma(self, tmp_path):
        path = write_results_csv([row(model="gvcl:1,x")], tmp_path / "r.csv")
        assert main(["aggregate", str(path), "--out", str(tmp_path / "table.csv")]) == 0
        with open(tmp_path / "table.csv", encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert [len(line) for line in table] == [7, 7]
        assert table[1][:2] == ["gvcl:1,x", "1"]


def agg_rows(models=("autovcl", "gvcl:1"), stages=5):
    rows = []
    for m_idx, model in enumerate(models):
        for stage in range(1, stages + 1):
            rows.append(AggregateRow(model=model, stage=stage,
                                     mean_accuracy=0.99 - 0.02 * stage - 0.01 * m_idx,
                                     sem=0.001, mean_log10_beta=0.1 * stage, trials=5))
    return rows


def stage_labels(svg_path) -> list[str]:
    """The chart's x-axis labels: its text elements that are whole numbers."""
    texts = ET.parse(svg_path).getroot().iter("{http://www.w3.org/2000/svg}text")
    return [t.text for t in texts if t.text.isdigit()]


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

    def test_stage_labels_only_where_there_is_data(self, tmp_path):
        rows = [AggregateRow("m", stage, 0.9, 0.0, None, 1) for stage in (1, 100_000)]
        path = emit_chart_svg(rows, "avg_accuracy", tmp_path / "gap.svg")
        assert stage_labels(path) == ["1", "100000"]
        assert path.stat().st_size < 4096

    def test_no_gap_labels_every_stage(self, tmp_path):
        path = emit_chart_svg(agg_rows(stages=5), "avg_accuracy", tmp_path / "c.svg")
        assert stage_labels(path) == ["1", "2", "3", "4", "5"]

    def test_model_name_is_escaped(self, tmp_path, capsys):
        csv_path, svg = tmp_path / "odd.csv", tmp_path / "odd.svg"
        csv_path.write_text(",".join(CSV_HEADER) + "\n" + GOOD_ROW.replace("gvcl:1", "a&b<c"),
                            encoding="utf-8")
        assert main(["chart", str(csv_path), "--out", str(svg)]) == 0
        texts = ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert "a&b<c" in [t.text for t in texts]

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
        ["--lr", "-1"], ["--lr", "nan"], ["--lam", "nan"], ["--lam=-inf"],
        ["--model", "gvcl:inf"], ["--model", "gvcl:nan"], ["--model", "gvcl:4e-7"],
        ["--train-mc-samples", "0"], ["--eval-mc-samples", "0"], ["--probe-size", "5000"],
    ], ids=" ".join)
    def test_invalid_value_exits_1_without_traceback(self, tmp_path, flags):
        proc = run_module("run", "--experiment", "synthetic", "--trials", "1",
                          "--out-dir", str(tmp_path / "out"), *flags)
        assert proc.returncode == 1, proc.stderr
        assert re.search(r"^config error: ", proc.stderr, re.MULTILINE), proc.stderr
        # The value reached its check: argparse did not take it for an option.
        assert "expected one argument" not in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

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
        (["aggregate"], "synthetic,gvcl:1,1,2,2,0,t,0.900000,1.000000,,,\n"
                        "synthetic,gvcl:1,1,2,2,1,u,0.800000,7.000000,,,\n"),
        (["chart"], "synthetic,autovcl,0,1,2,0,t,0.900000,2.000000,0.5,0.1,0.0\n"
                    "synthetic,autovcl,0,1,2,1,u,0.800000,2.000000,0.5,0.2,0.0\n"),
        (["aggregate"], GOOD_ROW + GOOD_ROW.replace("synthetic", "permuted")),
        (["aggregate"], GOOD_ROW + "synthetic,gvcl:1,0,1,2,0,t,0.400000,1.000000,,,\n"),
        (["aggregate"], GOOD_ROW + GOOD_ROW.replace(",0,1,", ",1,2,") + STAGE_2_OF_TRIAL_1),
        (["aggregate"], GOOD_ROW + STAGE_2_OF_TRIAL_0 + GOOD_ROW.replace(",0,1,", ",1,2,")),
        (["chart"], GOOD_ROW + STAGE_2_OF_TRIAL_0 + STAGE_2_OF_TRIAL_1),
    ], ids=["aggregate-header-only", "aggregate-bad-accuracy", "chart-no-beta",
            "aggregate-nan-accuracy", "chart-inf-beta", "aggregate-nonfinite-heuristics",
            "aggregate-13-fields", "aggregate-8-fields", "aggregate-accuracy-1.5",
            "chart-negative-beta", "aggregate-task-index-past-stage", "aggregate-repeated-row",
            "aggregate-d-1.5", "aggregate-beta-past-schedule-with-d", "aggregate-stage-0",
            "aggregate-stage-rows-disagree-on-beta", "chart-stage-rows-disagree-on-s",
            "aggregate-two-experiments", "aggregate-stage-missing-a-task",
            "aggregate-trial-0-lacks-stage-2", "aggregate-trial-1-lacks-stage-2",
            "chart-trial-1-lacks-stage-1"])
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
        (["chart", "."], 2),    # a path with no file name
        (["chart", "/"], 2),
        (["chart", ""], 2),
        (["run", "--config", "{tmp}/dir"], 1),
        (["run", "--config", "{tmp}/latin1"], 1),
        (["run", "--config", "{tmp}/ghost.cfg"], 1),
        (["aggregate", "{tmp}/good.csv", "--out", "{tmp}/good.csv"], 1),
        (["chart", "{tmp}/good.csv", "--out", "{tmp}/good.csv"], 1),
        (["aggregate", "{tmp}/good.csv", "--out", "{tmp}/hardlink.csv"], 1),
        (["chart", "{tmp}/good.csv", "--out", "{tmp}/symlink.csv"], 1),
        (["aggregate", "{tmp}/good.csv", "--out", "{tmp}/dangling/x.csv"], 1),
        (["chart", "{tmp}/dir"], 2),
    ], ids=["aggregate-out-dir", "chart-out-dir", "chart-out-under-file", "aggregate-dir",
            "aggregate-not-utf8", "chart-dot", "chart-root", "chart-empty", "config-dir",
            "config-not-utf8", "config-missing", "aggregate-out-is-csv", "chart-out-is-csv",
            "aggregate-out-hard-links-csv", "chart-out-symlinks-csv",
            "aggregate-out-under-dangling-link", "chart-dir"])
    def test_unusable_path_exits_with_its_code_without_traceback(self, tmp_path, args, code):
        good = tmp_path / "good.csv"
        good.write_text(",".join(CSV_HEADER) + "\n" + GOOD_ROW, encoding="utf-8")
        os.link(good, tmp_path / "hardlink.csv")
        (tmp_path / "symlink.csv").symlink_to(good)
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
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
        assert good.read_text(encoding="utf-8") == ",".join(CSV_HEADER) + "\n" + GOOD_ROW

    @pytest.mark.parametrize("obstacle, kind, trials, out_dir, snapshot_dir", [
        ("out/synthetic_gvcl-1.csv", "dir", "1", "out", "snap"),
        ("snap/trial0", "file", "1", "out", "snap"),
        ("snap/trial1", "file", "2", "out", "snap"),
        ("snap/trial0/stage_01.snap", "dir", "1", "out", "snap"),
        ("snap/trial1/stage_02.snap", "dir", "2", "out", "snap"),
        (None, None, "1", "d", "d/synthetic_gvcl-1.csv"),
        (None, None, "1", "d/trial0/stage_01.snap", "d"),
        ("out", "dangling link", "1", "out", "snap"),
        ("snap", "dangling link", "1", "out", "snap"),
    ], ids=["results-csv-is-a-dir", "trial0-snapshot-dir-is-a-file",
            "trial1-snapshot-dir-is-a-file", "stage-snapshot-is-a-dir",
            "trial1-stage-snapshot-is-a-dir", "snapshot-dir-is-the-results-csv",
            "results-csv-inside-a-stage-snapshot", "out-dir-is-a-dangling-link",
            "snapshot-dir-is-a-dangling-link"])
    def test_run_output_path_in_the_way_exits_1_before_training(self, tmp_path, obstacle, kind,
                                                                trials, out_dir, snapshot_dir):
        if obstacle is not None:
            path = tmp_path / obstacle
            path.parent.mkdir(parents=True, exist_ok=True)
            if kind == "dir":
                path.mkdir()
            elif kind == "dangling link":
                path.symlink_to(tmp_path / "nowhere")
            else:
                path.write_text("not a directory\n", encoding="utf-8")
        proc = run_module("run", "--experiment", "synthetic", "--model", "gvcl:1", "--trials",
                          trials, "--epochs", "1", "--out-dir", str(tmp_path / out_dir),
                          "--snapshot-dir", str(tmp_path / snapshot_dir))
        assert proc.returncode == 1, proc.stderr
        assert re.search(r"^config error: ", proc.stderr, re.MULTILINE), proc.stderr
        assert "Traceback" not in proc.stderr
        assert "stage 1/" not in proc.stdout  # no stage was trained
        assert not [p for p in tmp_path.rglob("*.snap") if p.is_file()]

    @pytest.mark.parametrize("args", [
        ["run", "--out-dir", "{ro}/out"],
        ["run", "--out-dir", "{tmp}/out", "--snapshot-dir", "{ro}/snap"],
        ["aggregate", "{tmp}/in.csv", "--out", "{ro}/table.csv"],
    ], ids=["run-out-dir", "run-snapshot-dir", "aggregate-out"])
    def test_an_unwritable_parent_exits_1_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                          args):
        # access() grants root any write, so it is made to refuse one directory.
        ro = tmp_path / "ro"
        ro.mkdir()
        (tmp_path / "in.csv").write_text(",".join(CSV_HEADER) + "\n" + GOOD_ROW, encoding="utf-8")
        access = numerics.os.access
        monkeypatch.setattr(numerics.os, "access",
                            lambda path, mode, **kw: Path(path) != ro and access(path, mode, **kw))
        argv = [arg.format(tmp=tmp_path, ro=ro) for arg in args]
        if argv[0] == "run":
            argv += ["--experiment", "synthetic", "--model", "gvcl:1", "--trials", "1",
                     "--epochs", "1"]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: cannot write {ro}/"), err
        assert "stage 1/" not in out
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out_dir", ["d", "d/trial0"])
    def test_run_results_csv_beside_or_among_snapshots_is_valid(self, tmp_path, out_dir):
        # A CSV next to the trial directories, or in one next to its stage
        # files, shares no path with a snapshot.
        proc = run_module("run", "--experiment", "synthetic", "--model", "gvcl:1", "--trials",
                          "1", "--epochs", "1", "--out-dir", str(tmp_path / out_dir),
                          "--snapshot-dir", str(tmp_path / "d"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / out_dir / "synthetic_gvcl-1.csv").is_file()
        assert (tmp_path / "d" / "trial0" / "stage_03.snap").is_file()

    @pytest.mark.parametrize("args, blocker, written", [
        (["run", "--out-dir", "{tmp}/d", "--snapshot-dir", "{tmp}/d/synthetic_gvcl-1.csv.tmp"],
         None, "d/synthetic_gvcl-1.csv"),
        (["run", "--out-dir", "{tmp}/out", "--snapshot-dir", "{tmp}/snap"],
         "snap/trial0/stage_02.snap.tmp", "out/synthetic_gvcl-1.csv"),
        (["aggregate", "{tmp}/good.csv", "--out", "{tmp}/o.csv"], "o.csv.tmp", "o.csv"),
    ], ids=["run-snapshot-dir-at-the-csv-temp-name", "run-stage-2-temp-name-is-a-dir",
            "aggregate-out-temp-name-is-a-dir"])
    def test_a_directory_at_the_old_temp_name_blocks_no_write(self, tmp_path, args, blocker,
                                                               written):
        (tmp_path / "good.csv").write_text(",".join(CSV_HEADER) + "\n" + GOOD_ROW,
                                           encoding="utf-8")
        if blocker is not None:
            (tmp_path / blocker).mkdir(parents=True)
            (tmp_path / blocker / "keep").write_text("kept\n", encoding="utf-8")
        run_flags = ["--experiment", "synthetic", "--model", "gvcl:1", "--trials", "1",
                     "--epochs", "1"] if args[0] == "run" else []
        proc = run_module(*(a.format(tmp=tmp_path) for a in args), *run_flags)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert (tmp_path / written).stat().st_size > 0
        if args[0] == "run":
            assert (Path(args[-1].format(tmp=tmp_path)) / "trial0" / "stage_03.snap").is_file()
        if blocker is not None:
            assert [p.name for p in (tmp_path / blocker).iterdir()] == ["keep"]
            assert (tmp_path / blocker / "keep").read_text(encoding="utf-8") == "kept\n"

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

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_removed_probe_settings_exit_1(self, tmp_path, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probe_lr = 0.01\n", encoding="utf-8")
        extra = ["--probe-batch", "64"] if source == "flag" else ["--config", str(cfg)]
        proc = run_module("run", "--experiment", "synthetic", "--model", "gvcl:1", "--trials",
                          "1", "--epochs", "1", "--out-dir", str(tmp_path / "out"), *extra)
        assert proc.returncode == 1, proc.stderr
        assert re.search(r"^config error: ", proc.stderr, re.MULTILINE), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

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

    def test_zero_width_mnist_exits_2_before_training(self, tmp_path, capsys):
        make_mnist_dir(tmp_path, 30, 20, side=0)
        code = main(["run", "--experiment", "permuted", "--model", "gvcl:1", "--trials", "1",
                     "--epochs", "1", "--data-dir", str(tmp_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert re.search(r"^data error: .*no pixels", capsys.readouterr().err, re.MULTILINE)
        assert not (tmp_path / "out").exists()

    def test_large_lam_clamps_beta_and_finishes(self, tmp_path, capsys):
        code = main(["run", "--experiment", "synthetic", "--model", "auto", "--lam", "1000",
                     "--trials", "1", "--epochs", "1", "--probe-repeats", "2",
                     "--probe-size", "256", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_results_csv(tmp_path / "synthetic_autovcl.csv")
        assert max(r.stage for r in rows) == 3
        assert max(r.beta for r in rows) == BETA_MAX

    @pytest.mark.parametrize("beta", ["1e300", "1e160"])
    def test_overflowing_fixed_beta_exits_3_without_csv(self, tmp_path, monkeypatch, capsys,
                                                         beta):
        # The KL gradient is scaled by beta / n_task, and Adam squares it.
        monkeypatch.setattr(cli, "SYNTHETIC_N_TRAIN", 256)
        code = main(["run", "--experiment", "synthetic", "--model", f"gvcl:{beta}",
                     "--trials", "1", "--epochs", "1", "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert re.search(r"^numeric failure: stage 1: overflow", err, re.MULTILINE), err
        assert re.search(r" during training$", err, re.MULTILINE), err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_a_sigma_beyond_float32_exits_3_without_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "SYNTHETIC_N_TRAIN", 256)
        init = continual.init_network
        monkeypatch.setattr(continual, "init_network",
                            lambda *args: with_one_huge_sigma(init(*args)))
        code = main(["run", "--experiment", "synthetic", "--model", "gvcl:1", "--trials", "1",
                     "--epochs", "1", "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert re.search(r"^numeric failure: stage 1: overflow encountered in exp "
                         r"during training$", err, re.MULTILINE), err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_probe_exits_3_naming_the_assessment(self, tmp_path, monkeypatch,
                                                             capsys):
        # A huge lr drives the first probe's log-variances so high that scoring
        # the probe overflows exp, before stage 1 trains.
        monkeypatch.setattr(cli, "SYNTHETIC_N_TRAIN", 256)
        code = main(["run", "--experiment", "synthetic", "--model", "auto", "--lr", "1e300",
                     "--probe-size", "100", "--probe-repeats", "2", "--trials", "1",
                     "--epochs", "1", "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert re.search(r"^numeric failure: stage 1: overflow .* during assessment$", err,
                         re.MULTILINE), err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

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

    def test_auto_progress_line_shows_the_stage_trace(self, tmp_path, capsys):
        assert main(["run", "--experiment", "synthetic", "--model", "auto", "--trials", "1",
                     "--out-dir", str(tmp_path), *FAST_ARGS]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if " stage " in line]
        shown = [dict(f.split("=", 1) for f in line.split() if "=" in f) for line in lines]
        rows = {r.stage: r for r in read_results_csv(tmp_path / "synthetic_autovcl.csv")}
        assert len(shown) == len(rows) == 3
        for t, fields_shown in enumerate(shown, start=1):
            assert ([float(fields_shown[k]) for k in ("d", "s", "delta_d")]
                    == [rows[t].d, rows[t].s, rows[t].delta_d])
            assert len(fields_shown["probe_acc"].split(",")) == 2  # --probe-repeats 2
        assert [f["a*"] == "-" for f in shown] == [True, False, False]

    @pytest.mark.parametrize("cpus, alive_per_process", [
        (1, [[[], [False] * 6, [False] * 6]]),
        # The worker is forked once trial 0's tasks are built, and drops its
        # copy of them before it builds trial 1's.
        (2, [[[], [False] * 6], [[False] * 6]]),
    ])
    def test_a_trial_releases_its_tasks_before_the_next_builds_its_own(
            self, tmp_path, monkeypatch, cpus, alive_per_process):
        monkeypatch.setattr(cli, "SYNTHETIC_N_TRAIN", 128)
        use_cpus(monkeypatch, cpus)
        real_build, previous, log = cli.build_tasks, [], tmp_path / "alive.jsonl"

        def build_tasks(*args):
            with open(log, "a", encoding="utf-8") as fh:  # a worker's list is its own copy
                fh.write(json.dumps([os.getpid(), [ref() is not None for ref in previous]])
                         + "\n")
            tasks, hidden_dims = real_build(*args)
            previous[:] = [weakref.ref(view.images) for task in tasks
                           for view in (task.train, task.test)]
            return tasks, hidden_dims

        monkeypatch.setattr(cli, "build_tasks", build_tasks)
        assert main(["run", "--experiment", "synthetic", "--model", "gvcl:1", "--trials", "3",
                     "--epochs", "1", "--out-dir", str(tmp_path)]) == 0
        by_process = {}
        for pid, alive in map(json.loads, log.read_text(encoding="utf-8").splitlines()):
            by_process.setdefault(pid, []).append(alive)
        assert by_process.pop(os.getpid()) == alive_per_process[0]
        assert list(by_process.values()) == alive_per_process[1:]

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

    def test_run_takes_each_stage_only_from_the_callback(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "SYNTHETIC_N_TRAIN", 512)  # 2 * --probe-size
        real = cli.run_sequence

        def run_sequence(*a, **kw):
            real(*a, **kw)
            return None, None

        def run(name):
            return main(["run", "--experiment", "synthetic", "--model", "auto", "--trials", "2",
                         *FAST_ARGS, "--out-dir", str(tmp_path / name),
                         "--snapshot-dir", str(tmp_path / name / "snap")])

        assert run("a") == 0
        monkeypatch.setattr(cli, "run_sequence", run_sequence)
        assert run("b") == 0
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
                       "epochs = 2\nprobe_size = 256\n"
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


class TestTrialWorkers:
    """``vclab run`` deals its trials over forked worker processes, one per
    usable CPU, and must give a serial run's files, lines and errors."""

    SEED = 41

    def run(self, monkeypatch, where, *flags, trials=3):
        """``vclab run`` of synthetic/auto from ``where``, with relative
        output paths so that its stdout names the same CSV path wherever it
        runs."""
        where.mkdir()
        monkeypatch.chdir(where)
        return main(["run", "--experiment", "synthetic", "--model", "auto", "--trials",
                     str(trials), "--seed", str(self.SEED), *FAST_ARGS, "--out-dir", "out",
                     "--snapshot-dir", "snap", *flags])

    def test_every_core_count_gives_a_serial_runs_bytes_and_lines(self, tmp_path, monkeypatch,
                                                                   capsys):
        monkeypatch.setattr(cli, "SYNTHETIC_N_TRAIN", 512)  # 2 * --probe-size
        outcomes = []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            children = count_forks(monkeypatch)
            assert self.run(monkeypatch, tmp_path / f"cpus{cpus}") == 0
            assert len(children) == cpus - 1
            files = {path.relative_to(tmp_path / f"cpus{cpus}"): path.read_bytes()
                     for path in sorted((tmp_path / f"cpus{cpus}").rglob("*"))
                     if path.is_file()}
            outcomes.append((files, capsys.readouterr()))
        serial_files, serial_output = outcomes[0]
        assert sorted(map(str, serial_files)) == [
            "out/synthetic_autovcl.csv",
            *(f"snap/trial{k}/stage_0{t}.snap" for k in range(3) for t in (1, 2, 3))]
        lines = serial_output.out.splitlines()
        assert [line.split("] ")[1][:15] for line in lines[:-1]] == [
            f"trial {k} stage {t}" for k in range(3) for t in (1, 2, 3)]
        assert serial_output.err == ""
        for files, output in outcomes[1:]:
            assert files == serial_files
            assert output == serial_output

    def test_a_workers_numeric_error_is_raised_in_trial_order(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.setattr(cli, "SYNTHETIC_N_TRAIN", 512)
        real = cli.run_sequence

        def run_sequence(tasks, hidden_dims, train_cfg, heuristic_cfg, seed, **kw):
            if seed == self.SEED + 1:
                raise NumericError("stage 1: injected into trial 1")
            return real(tasks, hidden_dims, train_cfg, heuristic_cfg, seed, **kw)

        monkeypatch.setattr(cli, "run_sequence", run_sequence)
        outputs = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            assert self.run(monkeypatch, tmp_path / f"cpus{cpus}") == 3
            assert not (tmp_path / f"cpus{cpus}" / "out").exists()
            outputs.append(capsys.readouterr())
        serial, parallel = outputs
        assert [line.split("] ")[1][:15] for line in serial.out.splitlines()] == [
            f"trial 0 stage {t}" for t in (1, 2, 3)]
        assert serial.err == "numeric failure: stage 1: injected into trial 1\n"
        assert parallel == serial

    def test_an_error_in_the_calling_process_stops_every_worker(self, tmp_path, monkeypatch):
        real, raised_at = cli.run_sequence, []
        snap = tmp_path / "run" / "snap"

        def run_sequence(tasks, hidden_dims, train_cfg, heuristic_cfg, seed, **kw):
            if seed == self.SEED:  # trial 0, in this process: wait for trial 1 to be running
                deadline = time.monotonic() + 60
                while not (snap / "trial1" / "stage_01.snap").exists():
                    assert time.monotonic() < deadline, "trial 1 wrote no snapshot"
                    time.sleep(0.01)
                raised_at.append(time.monotonic())
                raise NumericError("stage 1: injected into trial 0")
            return real(tasks, hidden_dims, train_cfg, heuristic_cfg, seed, **kw)

        monkeypatch.setattr(cli, "run_sequence", run_sequence)
        use_cpus(monkeypatch, 2)
        # Ten epochs a stage, so trial 1 is still training when it is stopped.
        assert self.run(monkeypatch, tmp_path / "run", "--epochs", "10", trials=2) == 3
        assert time.monotonic() - raised_at[0] < 10
        assert not (snap / "trial1" / "stage_03.snap").exists()
        assert not list(snap.rglob("*.tmp"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_killed_worker_exits_4_naming_its_trial(self, tmp_path, monkeypatch, capsys):
        real, parent = cli.run_sequence, os.getpid()

        def run_sequence(tasks, hidden_dims, train_cfg, heuristic_cfg, seed, **kw):
            if seed == self.SEED + 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(tasks, hidden_dims, train_cfg, heuristic_cfg, seed, **kw)

        monkeypatch.setattr(cli, "run_sequence", run_sequence)
        monkeypatch.setattr(cli, "SYNTHETIC_N_TRAIN", 512)
        use_cpus(monkeypatch, 2)
        assert self.run(monkeypatch, tmp_path / "run") == 4
        err = capsys.readouterr().err
        assert err == ("worker failure: trial 1 ended without a result: its worker process "
                       f"was killed by signal {signal.SIGKILL.value} "
                       f"({signal.strsignal(signal.SIGKILL)})\n")
        assert not (tmp_path / "run" / "out").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_second_thread_keeps_the_trials_in_this_process(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        assert cli.usable_cores() == 3
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert cli.usable_cores() == 1
        finally:
            release.set()
            other.join()


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


def _mutate_in_place(path, data) -> None:
    """Replace the file with 1-3 edits of it drawn from ``data``."""
    blob = path.read_bytes()
    path.write_bytes(_mutate(blob, data.draw(st.lists(_mutation(blob), min_size=1, max_size=3))))


def _valid_results_csv(tmp_path) -> bytes:
    auto = dict(model="autovcl", beta=2.5, d=0.4, s=0.25, delta_d=0.1)
    fixed = dict(model="gvcl:1", beta=1.0)
    rows = [row(trial=trial, stage=stage, task_index=i, accuracy=0.5 + 0.1 * i, **kind)
            for kind in (auto, fixed) for trial in range(2) for stage in (1, 2)
            for i in range(stage)]
    return write_results_csv(rows, tmp_path / "valid.csv").read_bytes()


VALID_CONFIG = (b"# a run\nexperiment = synthetic\nmodel = gvcl:0.5\ntrials = 2\n"
                b"epochs = 3\nlr = 0.002\nprobe_size = 256\nlam = 2.5  # comment\n")


def _moderate_or_huge(lo):
    """A float in [lo, 10], or a power of ten from 1e2 to 1e300."""
    return st.one_of(st.floats(lo, 10.0), st.integers(2, 300).map(lambda e: 10.0 ** e))


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

    @settings(max_examples=12, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(model=st.one_of(st.just("auto"), _moderate_or_huge(1e-3).map("gvcl:{}".format)),
           lr=_moderate_or_huge(1e-5), batch_size=st.integers(1, 300),
           lam=_moderate_or_huge(1e-3), probe_size=st.integers(1, 80),
           probe_repeats=st.integers(1, 3), train_mc_samples=st.integers(1, 3),
           eval_mc_samples=st.integers(1, 3))
    def test_fuzzed_run_exits_0_1_or_3_and_reruns_byte_identical(self, tmp_path, monkeypatch,
                                                                 **settings_drawn):
        # 128 training examples per task: a probe_size above 64 is a config error.
        monkeypatch.setattr(cli, "SYNTHETIC_N_TRAIN", 128)
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings_drawn.items()]
        args = ["run", "--experiment", "synthetic", "--trials", "1", "--epochs", "1", *flags]
        with tempfile.TemporaryDirectory(dir=tmp_path) as out:
            code = main([*args, "--out-dir", f"{out}/a"])
            assert code in (0, 1, 3)
            if code == 0:
                (csv_path,) = Path(out, "a").iterdir()
                assert read_results_csv(csv_path)
                assert main([*args, "--out-dir", f"{out}/b"]) == 0
                assert Path(out, "b", csv_path.name).read_bytes() == csv_path.read_bytes()

    @FUZZ
    @given(data=st.data())
    def test_mutated_snapshot_loads_or_is_a_value_error(self, tmp_path, data):
        path = tmp_path / "mutant.snap"
        save_snapshot(advance_prior(random_net(48, jitter=0.1)), path)
        _mutate_in_place(path, data)
        try:
            load_snapshot(path)
        except ValueError:
            pass

    @FUZZ
    @given(data=st.data(), compress=st.booleans(),
           name=st.sampled_from(["train-images-idx3-ubyte", "train-labels-idx1-ubyte"]))
    def test_mutated_idx_file_loads_or_is_a_format_error(self, tmp_path, data, compress, name):
        with tempfile.TemporaryDirectory(dir=tmp_path) as data_dir:
            make_mnist_dir(Path(data_dir))
            path = Path(data_dir) / name
            _mutate_in_place(gzip_in_place(path) if compress else path, data)
            loads_or_format_error(load_mnist, data_dir)

    @FUZZ
    @given(data=st.data())
    def test_mutated_cifar_batch_loads_or_is_a_format_error(self, tmp_path, data):
        with tempfile.TemporaryDirectory(dir=tmp_path) as data_dir:
            make_cifar_dir(Path(data_dir))
            _mutate_in_place(Path(data_dir) / "data_batch_1.bin", data)
            loads_or_format_error(load_cifar10_gray28, data_dir)
