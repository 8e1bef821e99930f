#!/usr/bin/env python3
"""Seed-sweep equivalence check of two vclab checkouts.

A change that moves the output bits on purpose (a new rounding, a new
estimator) cannot be checked against the golden digests. This check runs
``vclab run --experiment synthetic --model auto`` at N seeds in each
checkout, as ``python -m vclab.cli`` with ``PYTHONPATH=<checkout>/src``, and
compares, per stage, the means over seeds of the average accuracy, d, s and
log beta: z is their difference over its standard error,
sqrt(se_base^2 + se_change^2), and a metric that is the same constant on
both sides has z = 0.

A metric fails when |z| reaches the two-sided 95% bound, about 2 for one
metric, corrected for the number M of metrics in the table (Bonferroni:
the 1 - 0.025 / M normal quantile, 2.87 for 3 stages), so that the same code
fails the table about 5% of the time rather than at every few runs. At a
flat 2, 11 of 28 disjoint 8-seed pairs of one toy-sized 64-seed run of the
same code failed at least one of the 12 metrics; at 2.87, 2 of 28 did.

Trial seeds are master seed + trial index, so seeds 0 .. N-1 of one side
run as ``--trials`` in two processes. Usage:

    python scripts/seed_sweep.py BASE CHANGE [--seeds 8]

Prints a Markdown table and exits 0 if every metric passes, 1 if any fails.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import NormalDist, fmean, stdev

METRICS = ("avg_acc", "d", "s", "log_beta")
MIN_SEEDS = 8
JOBS = 2  # processes per side

# seed -> stage -> metric -> value
Sweep = dict[int, dict[int, dict[str, float]]]


def sweep(checkout, seeds: range, flags: list[str], workdir) -> Sweep:
    """Per-stage metrics of ``vclab run --experiment synthetic --model auto``
    with extra ``flags`` at each of ``seeds`` (consecutive), run from
    ``checkout``'s sources."""
    size = math.ceil(len(seeds) / JOBS)
    chunks = [seeds[i:i + size] for i in range(0, len(seeds), size)]
    env = {**os.environ, "PYTHONPATH": str(Path(checkout, "src").resolve())}
    procs = []
    for chunk in chunks:
        out = Path(tempfile.mkdtemp(dir=workdir))
        cmd = [sys.executable, "-m", "vclab.cli", "run", "--experiment", "synthetic",
               "--model", "auto", "--seed", str(chunk.start), "--trials", str(len(chunk)),
               *flags, "--out-dir", str(out)]
        procs.append((out, subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                            stderr=subprocess.PIPE, text=True)))
    rows = []
    for out, proc in procs:
        _, err = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"vclab run in {checkout} exited {proc.returncode}:\n{err}")
        with open(out / "synthetic_autovcl.csv", newline="", encoding="utf-8") as fh:
            rows.extend(csv.DictReader(fh))
    accuracies: dict[tuple[int, int], list[float]] = {}
    result: Sweep = {}
    for r in rows:
        seed, stage = int(r["seed"]), int(r["stage"])
        accuracies.setdefault((seed, stage), []).append(float(r["accuracy"]))
        result.setdefault(seed, {})[stage] = {
            "d": float(r["d"]), "s": float(r["s"]), "log_beta": math.log(float(r["beta"]))}
    for (seed, stage), accs in accuracies.items():
        result[seed][stage]["avg_acc"] = sum(accs) / len(accs)
    if sorted(result) != list(seeds):
        raise RuntimeError(f"expected seeds {list(seeds)}, the CSVs hold {sorted(result)}")
    return result


def mean_and_se(values: list[float]) -> tuple[float, float]:
    return fmean(values), stdev(values) / math.sqrt(len(values))


def critical_z(n_metrics: int) -> float:
    """The two-sided 95% normal bound, Bonferroni-corrected for ``n_metrics``."""
    return NormalDist().inv_cdf(1.0 - 0.025 / n_metrics)


def compare(base: Sweep, change: Sweep) -> list[dict]:
    """One row per stage and metric: both means, their standard errors, the
    difference in standard errors of the difference, and whether it passes."""
    rows = []
    stages = sorted(next(iter(base.values())))
    bound = critical_z(len(stages) * len(METRICS))
    for stage in stages:
        for metric in METRICS:
            b = mean_and_se([per_stage[stage][metric] for per_stage in base.values()])
            c = mean_and_se([per_stage[stage][metric] for per_stage in change.values()])
            diff, se = c[0] - b[0], math.hypot(b[1], c[1])
            z = 0.0 if diff == 0 else (math.inf if se == 0 else diff / se)
            rows.append(dict(stage=stage, metric=metric, base=b, change=c, z=z,
                             ok=abs(z) < bound))
    return rows


def format_table(rows: list[dict]) -> str:
    lines = ["| stage | metric | base mean ± se | change mean ± se | z | result |",
             "| --- | --- | --- | --- | --- | --- |"]
    for r in rows:
        lines.append(f"| {r['stage']} | {r['metric']} | {r['base'][0]:.4f} ± {r['base'][1]:.4f} "
                     f"| {r['change'][0]:.4f} ± {r['change'][1]:.4f} | {r['z']:+.2f} "
                     f"| {'pass' if r['ok'] else 'FAIL'} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout whose src/ holds the reference vclab")
    parser.add_argument("change", help="checkout whose src/ holds the changed vclab")
    parser.add_argument("--seeds", type=int, default=MIN_SEEDS,
                        help=f"seeds per side (at least {MIN_SEEDS})")
    args = parser.parse_args(argv)
    if args.seeds < MIN_SEEDS:
        parser.error(f"need --seeds >= {MIN_SEEDS}")
    with tempfile.TemporaryDirectory() as workdir:
        base = sweep(args.base, range(args.seeds), [], workdir)
        change = sweep(args.change, range(args.seeds), [], workdir)
    rows = compare(base, change)
    print(format_table(rows))
    failed = [f"stage {r['stage']} {r['metric']}" for r in rows if not r["ok"]]
    print(f"\n{len(rows) - len(failed)} of {len(rows)} metrics pass "
          f"(|z| < {critical_z(len(rows)):.2f})"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
