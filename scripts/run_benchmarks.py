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

from vclab.cli import (ExperimentConfig, aggregate_trials, emit_chart_svg, format_aggregates,
                       read_results_csv, run_experiment)
from vclab.numerics import atomic_write

MODELS = ["auto", "gvcl:0.01", "gvcl:1", "gvcl:100"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiments", nargs="+",
                        default=["split_custom", "permuted", "mixed"])
    parser.add_argument("--models", nargs="+", default=MODELS)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--data-dir", default="data")
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    for experiment in args.experiments:
        rows = []
        for model in args.models:
            cfg = ExperimentConfig(experiment=experiment, model=model, trials=args.trials,
                                   master_seed=args.seed, data_dir=args.data_dir,
                                   out_dir=args.out_dir)
            rows.extend(read_results_csv(run_experiment(cfg)))
        aggregates = aggregate_trials(rows)
        table = format_aggregates(aggregates)
        out = Path(args.out_dir)
        with atomic_write(out / f"{experiment}_summary.csv", "w", encoding="utf-8") as fh:
            fh.write(table)
        emit_chart_svg(aggregates, "avg_accuracy", out / f"{experiment}_avg_accuracy.svg")
        emit_chart_svg(aggregates, "beta_trace", out / f"{experiment}_beta_trace.svg")
        print(f"\n=== {experiment} ===")
        print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
