"""Experiment front-end: configuration, multi-trial orchestration, results
CSV, SEM aggregation, and static SVG charts.

Configuration is a flat set of ``key = value`` pairs with precedence
CLI > config file > defaults. Trial seeds are master_seed + trial_index, so
any published number is re-derivable from the config alone. Exit codes:
0 ok, 1 config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .continual import TrainConfig, run_sequence, snapshot_paths
from .data import (DataFormatError, MissingDataError, load_cifar10_gray28, load_mnist,
                   make_mixed_sequence, make_permuted_tasks, make_split_tasks,
                   make_synthetic_blobs)
from .heuristics import BETA_MAX, BETA_MIN, HeuristicConfig
from .numerics import (ConfigError, NumericError, atomic_write, check_writable, make_rng,
                       require_positive)

EXPERIMENTS = ("split_custom", "permuted", "mixed", "synthetic")

CUSTOM_SPLIT_PAIRS = [(0, 1), (8, 7), (9, 4), (6, 2), (3, 5)]

# Synthetic desk-scale sequence: two similar easy tasks, then a harder
# dissimilar one. Runs dataset-free in well under a minute.
SYNTHETIC_TASKS = [(6.0, 0.0), (6.0, 0.35), (1.5, 1.2)]
SYNTHETIC_N_TRAIN = 2048


@dataclass
class ExperimentConfig(TrainConfig, HeuristicConfig):
    """Everything one experiment run depends on: the run settings below plus
    the inherited training and heuristic settings. ``beta_mode`` and ``beta``
    are not set directly; they follow from ``model``."""

    experiment: str = "synthetic"
    model: str = field(default="auto", metadata={"help": "'auto' or 'gvcl:<beta>'"})
    trials: int = 5
    master_seed: int = 1234
    data_dir: str = "data"
    out_dir: str = "results"
    snapshot_dir: str = ""
    beta_mode: str = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}, choose from {EXPERIMENTS}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        self.beta_mode, self.beta = parse_model(self.model)
        TrainConfig.__post_init__(self)
        HeuristicConfig.__post_init__(self)

    def model_label(self) -> str:
        return "autovcl" if self.beta_mode == "auto" else f"gvcl:{self.beta:g}"


def parse_model(model: str) -> tuple[str, float]:
    """'auto'/'autovcl' or 'gvcl:<beta>' -> (beta_mode, beta)."""
    if model in ("auto", "autovcl"):
        return "auto", 1.0
    if model.startswith("gvcl:"):
        try:
            beta = float(model.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad beta in model {model!r}") from None
        require_positive("fixed beta", beta)
        if float(_fmt(beta)) == 0.0:
            raise ConfigError(f"fixed beta {beta:g} is below about 5e-7, so the results "
                              f"CSV would write it as {_fmt(beta)}")
        return "fixed", beta
    raise ConfigError(f"unknown model {model!r}, expected 'auto' or 'gvcl:<beta>'")


def _read_text(path, error: type[Exception]) -> str:
    """The whole UTF-8 file, newlines untranslated; any failure to read or
    decode it is raised as ``error``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None


def read_config_file(path) -> dict[str, str]:
    """Flat UTF-8 ``key = value`` file; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(_read_text(path, ConfigError).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def build_config(file_values: dict[str, str], overrides: dict[str, str]) -> ExperimentConfig:
    """Merge defaults < file < CLI overrides, coercing to field types."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.init}
    coerced = {}
    for key, value in {**file_values, **overrides}.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            coerced[key] = type(defaults[key])(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
    return ExperimentConfig(**coerced)


# ---------------------------------------------------------------------------
# Experiment construction


def load_corpus(experiment: str, data_dir):
    """Load whatever datasets the experiment needs (None for synthetic)."""
    if experiment == "synthetic":
        return None
    mnist = load_mnist(data_dir)
    if experiment == "mixed":
        return {"mnist": mnist, "cifar": load_cifar10_gray28(data_dir)}
    return {"mnist": mnist}


def build_tasks(experiment: str, corpus, seed: int):
    """Task list and the trunk architecture for one trial."""
    if experiment == "split_custom":
        return make_split_tasks(*corpus["mnist"], CUSTOM_SPLIT_PAIRS), (256, 256)
    if experiment == "permuted":
        return make_permuted_tasks(*corpus["mnist"], 10, make_rng(seed, "permutations")), (100, 100)
    if experiment == "mixed":
        return make_mixed_sequence(corpus["mnist"], corpus["cifar"]), (256, 256)
    if experiment == "synthetic":
        rng = make_rng(seed, "synthetic-tasks")
        tasks = [make_synthetic_blobs(sep, rot, SYNTHETIC_N_TRAIN, rng, head_index=k,
                                      name=f"blobs-{k}")
                 for k, (sep, rot) in enumerate(SYNTHETIC_TASKS)]
        return tasks, (32, 32)
    raise ConfigError(f"unknown experiment {experiment!r}")


@dataclass(frozen=True)
class ResultRow:
    """One (trial, stage, seen-task) accuracy record."""

    experiment: str
    model: str
    trial: int
    seed: int
    stage: int
    task_index: int
    task_name: str
    accuracy: float
    beta: float | None
    d: float | None
    s: float | None
    delta_d: float | None


CSV_HEADER = [f.name for f in fields(ResultRow)]


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def write_results_csv(rows: list[ResultRow], path) -> Path:
    """UTF-8, LF-terminated CSV with the fixed schema; floats at 6 decimals;
    written atomically."""
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.experiment, r.model, r.trial, r.seed, r.stage, r.task_index,
                             r.task_name, _fmt(r.accuracy), _fmt(r.beta), _fmt(r.d),
                             _fmt(r.s), _fmt(r.delta_d)])
    return Path(path)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _check_row(r: ResultRow) -> None:
    """Raise ValueError unless the row keeps the ranges run_experiment writes."""
    for name in ("accuracy", "d", "s"):
        if (value := getattr(r, name)) is not None and not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} {value} is outside [0, 1]")
    if not 0 <= r.task_index < r.stage:
        raise ValueError(f"task_index {r.task_index} is outside [0, stage {r.stage})")
    if r.beta is not None and not (r.beta > 0 and (r.d is None or BETA_MIN <= r.beta <= BETA_MAX)):
        raise ValueError(f"beta {r.beta} is not > 0, or outside [{BETA_MIN:g}, {BETA_MAX:g}] "
                         "on a row with d")


def read_results_csv(path) -> list[ResultRow]:
    """Parse a results CSV back into rows (inverse of write_results_csv),
    skipping blank lines. Each row must have the header's fields, finite
    numbers in the ranges ``_check_row`` names and the first row's experiment.
    The rows of one stage, (experiment, model, trial, stage), must cover
    task_index 0 to stage - 1 once each and agree on beta, d, s and delta_d,
    which ``run_experiment`` writes from one trace. Every trial of a model
    must hold stages 1 to the model's largest stage."""
    rows, stages = [], {}  # stage key -> (its first row, its task indices)
    reader = csv.reader(io.StringIO(_read_text(path, DataFormatError), newline=""))
    if (header := next(reader, None)) != CSV_HEADER:
        raise DataFormatError(f"{path}: unexpected header {header}")
    for values in filter(None, reader):
        try:
            if len(values) != len(CSV_HEADER):
                raise ValueError(f"{len(values)} fields, the header has {len(CSV_HEADER)}")
            r = ResultRow(*values[:2], *map(int, values[2:6]), values[6], _finite(values[7]),
                          *(_finite(v) if v else None for v in values[8:]))
            _check_row(r)
            if rows and r.experiment != rows[0].experiment:
                raise ValueError(f"experiment {r.experiment!r} differs from "
                                 f"{rows[0].experiment!r} on the first row")
            key = (r.experiment, r.model, r.trial, r.stage)
            first, task_indices = stages.setdefault(key, (r, set()))
            if r.task_index in task_indices:
                raise ValueError(f"repeats the row of {(*key, r.task_index)}")
            task_indices.add(r.task_index)
            for name in ("beta", "d", "s", "delta_d"):
                if getattr(r, name) != getattr(first, name):
                    raise ValueError(f"{name} {getattr(r, name)} differs from "
                                     f"{getattr(first, name)} on an earlier row of {key}")
            rows.append(r)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
    last = {}  # (experiment, model) -> its largest stage
    for key, (_, task_indices) in stages.items():
        if len(task_indices) < key[3]:
            raise DataFormatError(f"{path}: stage {key[3]} of {key[:3]} lacks a task row")
        last[key[:2]] = max(last.get(key[:2], 0), key[3])
    for experiment, model, trial in dict.fromkeys(key[:3] for key in stages):
        for stage in range(1, last[experiment, model] + 1):
            if (experiment, model, trial, stage) not in stages:
                raise DataFormatError(f"{path}: trial {trial} of model {model!r} lacks "
                                      f"stage {stage}; the model's last stage is "
                                      f"{last[experiment, model]}")
    return rows


def _write_text(path, text: str) -> Path:
    """Write ``text`` as UTF-8 atomically, creating missing parent directories."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return Path(path)


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Run all trials of one (experiment, model) pair and write the CSV.
    The CSV path and each trial's stage-1 snapshot path are checked before
    any data is loaded, and every trial's stage paths through
    :func:`snapshot_paths` once trial 0's tasks exist, before any training.
    In ``auto`` mode each stage's progress line also shows its trace: d, s,
    delta_d, a* (``-`` with no head of the task's arity) and the probe
    accuracies."""
    label = cfg.model_label()
    out = Path(cfg.out_dir) / f"{cfg.experiment}_{label.replace(':', '-')}.csv"
    trial_dirs = [Path(cfg.snapshot_dir) / f"trial{trial}" if cfg.snapshot_dir else None
                  for trial in range(cfg.trials)]
    check_writable(out)
    for trial_dir in filter(None, trial_dirs):
        snapshot_paths(trial_dir, 1, out)
    corpus = load_corpus(cfg.experiment, cfg.data_dir)
    rows: list[ResultRow] = []
    for trial in range(cfg.trials):
        seed = cfg.master_seed + trial
        tasks, hidden_dims = build_tasks(cfg.experiment, corpus, seed)
        if trial == 0:  # every trial has as many stages as trial 0
            for trial_dir in filter(None, trial_dirs):
                snapshot_paths(trial_dir, len(tasks), out)

        def report(t, trace, accuracies, trial=trial):
            line = (f"[{cfg.experiment}/{label}] trial {trial} stage {t}/{len(tasks)} "
                    f"beta={trace.beta:.4g} avg_acc={np.mean(accuracies):.4f}")
            if trace.d is not None:
                a_star = "-" if trace.a_star is None else f"{trace.a_star:.4f}"
                probes = ",".join(f"{a:.4f}" for a in trace.raw_accuracies)
                line += (f" d={_fmt(trace.d)} s={_fmt(trace.s)} delta_d={_fmt(trace.delta_d)}"
                         f" a*={a_star} probe_acc={probes}")
            print(line, flush=True)

        matrix, traces = run_sequence(tasks, hidden_dims, cfg, cfg, seed,
                                      snapshot_dir=trial_dirs[trial], progress=report)
        for t, (accuracies, trace) in enumerate(zip(matrix.rows(), traces), start=1):
            for i, accuracy in enumerate(accuracies):
                rows.append(ResultRow(
                    experiment=cfg.experiment, model=label, trial=trial, seed=seed,
                    stage=t, task_index=i, task_name=tasks[i].name, accuracy=accuracy,
                    beta=trace.beta, d=trace.d, s=trace.s, delta_d=trace.delta_d))
        del tasks  # so two trials' pixels are never alive at once
    return write_results_csv(rows, out)


# ---------------------------------------------------------------------------
# Aggregation


@dataclass(frozen=True)
class AggregateRow:
    """Per-(model, stage) mean and SEM of the stage-average accuracy."""

    model: str
    stage: int
    mean_accuracy: float
    sem: float
    mean_log10_beta: float | None
    trials: int

    @property
    def single_trial(self) -> bool:
        return self.trials == 1


def aggregate_trials(rows: list[ResultRow]) -> list[AggregateRow]:
    """Mean over trials of per-stage average accuracy, with SEM
    (sample std / sqrt(trials); 0 by convention for a single trial)."""
    if not rows:
        raise DataFormatError("no rows to aggregate")
    cells: dict[tuple[str, int], dict[int, tuple[list[float], float | None]]] = {}
    for r in rows:
        trials = cells.setdefault((r.model, r.stage), {})
        accs = trials[r.trial][0] if r.trial in trials else []
        # read_results_csv checks that the rows of a trial's stage share one beta
        trials[r.trial] = (accs + [r.accuracy], r.beta)
    out = []
    for (model, stage), trials in sorted(cells.items()):
        means = np.array([np.mean(accs) for accs, _ in trials.values()])
        sem = float(means.std(ddof=1) / math.sqrt(means.size)) if means.size > 1 else 0.0
        stage_betas = [b for _, b in trials.values() if b is not None]
        mean_log_beta = float(np.mean(np.log10(stage_betas))) if stage_betas else None
        out.append(AggregateRow(model=model, stage=stage, mean_accuracy=float(means.mean()),
                                sem=sem, mean_log10_beta=mean_log_beta, trials=means.size))
    return out


def format_aggregates(aggregates: list[AggregateRow]) -> str:
    """The aggregate table as LF-terminated CSV; floats at 6 decimals."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow("model stage mean_avg_accuracy sem mean_log10_beta trials note".split())
    for a in aggregates:
        writer.writerow([a.model, a.stage, _fmt(a.mean_accuracy), _fmt(a.sem),
                         _fmt(a.mean_log10_beta), a.trials,
                         "single_trial" if a.single_trial else ""])
    return out.getvalue()


# ---------------------------------------------------------------------------
# SVG charts

_CHART_KINDS = ("avg_accuracy", "beta_trace")
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH, _HEIGHT = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 150, 30, 50


def _series(aggregates: list[AggregateRow], which: str) -> dict[str, list[tuple[int, float]]]:
    series: dict[str, list[tuple[int, float]]] = {}
    for a in aggregates:
        value = a.mean_accuracy if which == "avg_accuracy" else a.mean_log10_beta
        if value is None:
            continue
        series.setdefault(a.model, []).append((a.stage, value))
    return {m: sorted(pts) for m, pts in sorted(series.items())}


def emit_chart_svg(aggregates: list[AggregateRow], which: str, path) -> Path:
    """Standalone SVG: one polyline per model, labeled axes, inverted y."""
    from xml.sax.saxutils import escape  # here: it imports urllib, which `run` never needs
    if which not in _CHART_KINDS:
        raise ValueError(f"which must be one of {_CHART_KINDS}")
    series = _series(aggregates, which)
    if not series:
        raise DataFormatError(f"no {which} data to chart")
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    pad = (y_hi - y_lo) * 0.05 or 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(stage: float) -> float:
        return _MARGIN_L + (stage - x_lo) / (x_hi - x_lo) * plot_w

    def py(value: float) -> float:
        return _MARGIN_T + (1.0 - (value - y_lo) / (y_hi - y_lo)) * plot_h

    y_label = "average accuracy" if which == "avg_accuracy" else "log10(beta)"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-size="14">tasks seen</text>',
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{y_label}</text>',
    ]
    for stage in sorted(set(xs)):
        parts.append(f'<text x="{px(stage):.1f}" y="{_HEIGHT - _MARGIN_B + 18}" '
                     f'text-anchor="middle" font-size="11">{stage}</text>')
    for frac in (0.0, 0.5, 1.0):
        value = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{_MARGIN_L - 6}" y="{py(value):.1f}" text-anchor="end" '
                     f'font-size="11">{value:.3f}</text>')
    for k, (model, pts) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{px(s):.2f},{py(v):.2f}" for s, v in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                     f'points="{coords}"/>')
        parts.append(f'<text x="{_WIDTH - _MARGIN_R + 10}" y="{_MARGIN_T + 16 + 18 * k}" '
                     f'font-size="12" fill="{color}">{escape(model)}</text>')
    parts.append("</svg>")
    return _write_text(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vclab", description="Continual-learning benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment/model and write a results CSV")
    run.add_argument("--config", default=None, help="flat key=value config file")
    for f in fields(ExperimentConfig):
        if f.init:
            flag = "--seed" if f.name == "master_seed" else f"--{f.name.replace('_', '-')}"
            run.add_argument(flag, dest=f.name, help=f.metadata.get("help"))

    agg = sub.add_parser("aggregate", help="per-stage mean and SEM of a results CSV")
    agg.add_argument("csv")
    agg.add_argument("--out", default=None, help="write the table here instead of stdout")

    chart = sub.add_parser("chart", help="render an SVG chart from a results CSV")
    chart.add_argument("csv")
    chart.add_argument("--which", choices=_CHART_KINDS, default="avg_accuracy")
    chart.add_argument("--out", default=None, help="SVG path (default: next to the CSV)")
    return parser


def exit_code(action, *args) -> int:
    """Run ``action(*args)`` and return its exit code: 0 if it returns, else
    1, 2 or 3 for a config, data or numeric error, reported in one line."""
    try:
        action(*args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (MissingDataError, DataFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def _command(argv) -> None:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        file_values = read_config_file(args.config) if args.config else {}
        overrides = {key: value for key, value in vars(args).items()
                     if key not in ("command", "config") and value is not None}
        cfg = build_config(file_values, overrides)
        path = run_experiment(cfg)
        print(f"results written to {path}")
    elif args.command == "aggregate":
        if args.out:
            check_writable(args.out, args.csv)
        table = format_aggregates(aggregate_trials(read_results_csv(args.csv)))
        if args.out:
            _write_text(args.out, table)
        else:
            print(table, end="")
    elif args.command == "chart":
        # Not with_suffix, which raises on a path with no file name ("." or
        # "/"): such a path reaches the read below and is a data error there.
        csv_path = Path(args.csv)
        out = args.out or str(csv_path.parent / f"{csv_path.stem}.{args.which}.svg")
        check_writable(out, args.csv)
        aggregates = aggregate_trials(read_results_csv(args.csv))
        path = emit_chart_svg(aggregates, args.which, out)
        print(f"chart written to {path}")


def main(argv=None) -> int:
    return exit_code(_command, argv)


if __name__ == "__main__":
    sys.exit(main())
