#!/usr/bin/env python3
"""Run the benchmark grid (experiments x models), then aggregate and chart.

Reproduces the three benchmark tables: every experiment is run for the
scheduled-beta model and the three fixed-beta baselines, five trials each.
Expect a few CPU-hours for the full grid; start with --experiments synthetic
for a quick dataset-free check.

Usage:
    python scripts/run_benchmarks.py --data-dir data --out-dir results \
        [--experiments split_custom permuted mixed] [--trials 5] [--seed 2024]
"""

import argparse
import sys
from pathlib import Path

from vclab.cli import (ExperimentConfig, aggregate_trials, emit_chart_svg, exit_code,
                       format_aggregates, read_results_csv, run_experiment)
from vclab.numerics import atomic_write, check_writable

MODELS = ["auto", "gvcl:0.01", "gvcl:1", "gvcl:100"]


def outputs(out: Path, experiment: str) -> tuple[Path, Path, Path]:
    """The summary table and the two charts written for ``experiment``."""
    return (out / f"{experiment}_summary.csv", out / f"{experiment}_avg_accuracy.svg",
            out / f"{experiment}_beta_trace.svg")


def run_grid(args: argparse.Namespace) -> None:
    out = Path(args.out_dir)
    # Every output path is checked before the first model trains.
    for experiment in args.experiments:
        for path in outputs(out, experiment):
            check_writable(path)
    for experiment in args.experiments:
        rows = []
        for model in args.models:
            cfg = ExperimentConfig(experiment=experiment, model=model, trials=args.trials,
                                   master_seed=args.seed, data_dir=args.data_dir,
                                   out_dir=args.out_dir)
            rows.extend(read_results_csv(run_experiment(cfg)))
        aggregates = aggregate_trials(rows)
        table = format_aggregates(aggregates)
        summary, accuracy_chart, beta_chart = outputs(out, experiment)
        with atomic_write(summary, "w", encoding="utf-8") as fh:
            fh.write(table)
        emit_chart_svg(aggregates, "avg_accuracy", accuracy_chart)
        emit_chart_svg(aggregates, "beta_trace", beta_chart)
        print(f"\n=== {experiment} ===")
        print(table)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiments", nargs="+",
                        default=["split_custom", "permuted", "mixed"])
    parser.add_argument("--models", nargs="+", default=MODELS)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--data-dir", default="data")
    parser.add_argument("--out-dir", default="results")
    # Exit codes as for the vclab command: 1 config, 2 data, 3 numeric error.
    return exit_code(run_grid, parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
