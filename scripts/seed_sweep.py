#!/usr/bin/env python3
"""Seed-sweep equivalence check of two vclab checkouts.

A change that moves the output bits on purpose (a new rounding, a new
estimator) cannot be checked against the golden digests. This check runs one
workload at N seeds in each checkout and compares, per stage, the means over
seeds of the average accuracy, of each seen task's accuracy from stage 2 on
(every cell of the accuracy matrix), and of d, s and log beta where the
workload has them: z is their difference over its standard error,
sqrt(se_base^2 + se_change^2), and a metric that is the same constant on
both sides has z = 0.

A metric fails when |z| reaches the two-sided 95% bound, about 2 for one
metric, corrected for the number M of metrics in the table (Bonferroni:
the 1 - 0.025 / M normal quantile, 2.97 for the 17 metrics of 3 stages of
``synthetic-auto``), so that the same code fails the table about 5% of the
time rather than at every few runs. At a flat 2, 11 of 28 disjoint 8-seed
pairs of one toy-sized 64-seed run of the same code failed at least one of
12 metrics; at 2.87, 2 of 28 did.

Workloads are the benchmark's three, by the names ``BENCHMARK.json`` gives
them: ``synthetic-auto`` (``vclab run --experiment synthetic --model auto``)
and the stand-ins ``split-fixed`` and ``permuted-auto`` for ``split_custom``
and ``permuted``. Each side's seeds are split across ``JOBS`` processes,
each pinned to one BLAS thread as the benchmark pins it. A process imports
its checkout's ``perfbench/worker.py`` and, per seed, builds the workload at
its full benchmark size with one trial and runs it untraced.

Usage:

    python scripts/seed_sweep.py BASE CHANGE [--seeds 8] [--workload synthetic-auto]

Prints a Markdown table and exits 0 if every metric passes, 1 if any fails,
and 2 on a usage error or when the two sides' tables do not line up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import NormalDist, fmean, stdev

WORKLOADS = ("synthetic-auto", "split-fixed", "permuted-auto")
MIN_SEEDS = 8
JOBS = 2  # processes per side
# As perfbench/run.py pins it: more threads oversubscribe the cores, and at
# 784-wide layers the BLAS thread count changes how sgemm rounds.
# run_sequence pins one OpenBLAS thread itself, but the BASE checkout of a
# sweep can predate that pin, so the environment pins it too.
ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                "1")

# Run in a fresh interpreter: argv is the checkout, the workload, the size,
# the size overrides as JSON and the seeds; prints
# {seed: [{"accuracy", "beta", "d", "s"} per stage]}.
STAND_IN = """
import json, sys, tempfile
from pathlib import Path
checkout, workload, size, overrides, *seeds = sys.argv[1:]
sys.path.insert(0, str(Path(checkout, "perfbench")))
import worker
vclab = worker.import_vclab()
size = {**worker.SIZES[size][workload], **json.loads(overrides), "trials": "1"}
out = {}
for seed in seeds:
    with tempfile.TemporaryDirectory() as tmp:
        run, _, _ = worker.WORKLOADS[workload](vclab, int(seed), size, Path(tmp))
        out[seed] = run(lambda fn: fn)[1]
print(json.dumps(out))
"""

# seed -> stage -> metric -> value
Sweep = dict[int, dict[int, dict[str, float]]]


def stage_metrics(accuracies: list[float], beta: float, d, s) -> dict[str, float]:
    """One stage's metrics: the average accuracy, each seen task's accuracy
    (``acc_1`` for the first task) once there are two, and d, s and log beta
    unless absent."""
    metrics = {"avg_acc": sum(accuracies) / len(accuracies)}
    if len(accuracies) > 1:
        metrics.update({f"acc_{i}": a for i, a in enumerate(accuracies, start=1)})
    metrics.update({name: value for name, value in (("d", d), ("s", s)) if value is not None})
    metrics["log_beta"] = math.log(beta)
    return metrics


def sweep(checkout, seeds: range, overrides: dict, workdir, workload: str = "synthetic-auto",
          size: str = "full") -> Sweep:
    """Per-stage metrics of ``workload`` at each of ``seeds``, one trial per
    seed, run from ``checkout``'s sources in ``JOBS`` processes. ``size``
    picks the workload's size in ``perfbench/worker.py`` and ``overrides``
    replaces entries of it."""
    chunk = math.ceil(len(seeds) / JOBS)
    env = {**os.environ, **ONE_BLAS_THREAD}
    procs = [subprocess.Popen([sys.executable, "-c", STAND_IN, str(Path(checkout).resolve()),
                               workload, size, json.dumps(overrides),
                               *map(str, seeds[i:i + chunk])],
                              cwd=workdir, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for i in range(0, len(seeds), chunk)]
    result: Sweep = {}
    for proc in procs:
        out, err = proc.communicate()
        if proc.returncode != 0:
            for other in procs:
                other.kill()
            raise RuntimeError(f"{workload} in {checkout} exited {proc.returncode}:\n{err}")
        result.update({int(seed): {t: stage_metrics(r["accuracy"], r["beta"], r["d"], r["s"])
                                   for t, r in enumerate(records, start=1)}
                       for seed, records in json.loads(out.splitlines()[-1]).items()})
    return result


def mean_and_se(values: list[float]) -> tuple[float, float]:
    return fmean(values), stdev(values) / math.sqrt(len(values))


def critical_z(n_metrics: int) -> float:
    """The two-sided 95% normal bound, Bonferroni-corrected for ``n_metrics``."""
    return NormalDist().inv_cdf(1.0 - 0.025 / n_metrics)


def table_cells(per_stage: dict[int, dict[str, float]]) -> list[tuple[int, str]]:
    return [(stage, metric) for stage in sorted(per_stage) for metric in per_stage[stage]]


def compare(base: Sweep, change: Sweep) -> list[dict]:
    """One row per stage and metric: both means, their standard errors, the
    difference in standard errors of the difference, and whether it passes.
    Raises ValueError, naming the first cell that differs, unless every seed
    of both sides has the first base seed's (stage, metric) cells."""
    first_seed = next(iter(base))
    cells = table_cells(base[first_seed])
    for side, table in (("base", base), ("change", change)):
        for seed, per_stage in table.items():
            theirs = table_cells(per_stage)
            missing = [cell for cell in cells if cell not in theirs]
            extra = [cell for cell in theirs if cell not in cells]
            if missing or extra:
                (stage, metric), how = ((missing[0], "lacks") if missing
                                        else (extra[0], "has"))
                raise ValueError(f"{side} seed {seed} {how} stage {stage} {metric}, "
                                 f"unlike base seed {first_seed}")
    bound = critical_z(len(cells))
    rows = []
    for stage, metric in cells:
        b = mean_and_se([per_stage[stage][metric] for per_stage in base.values()])
        c = mean_and_se([per_stage[stage][metric] for per_stage in change.values()])
        diff, se = c[0] - b[0], math.hypot(b[1], c[1])
        z = 0.0 if diff == 0 else (math.inf if se == 0 else diff / se)
        rows.append(dict(stage=stage, metric=metric, base=b, change=c, z=z, ok=abs(z) < bound))
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
    parser.add_argument("--workload", choices=WORKLOADS, default="synthetic-auto",
                        help="what each seed runs (default: synthetic-auto)")
    args = parser.parse_args(argv)
    if args.seeds < MIN_SEEDS:
        parser.error(f"need --seeds >= {MIN_SEEDS}")
    with tempfile.TemporaryDirectory() as workdir:
        base, change = (sweep(checkout, range(args.seeds), {}, workdir, args.workload)
                        for checkout in (args.base, args.change))
    try:
        rows = compare(base, change)
    except ValueError as exc:
        print(f"seed_sweep: the tables do not line up: {exc}", file=sys.stderr)
        return 2
    print(format_table(rows))
    failed = [f"stage {r['stage']} {r['metric']}" for r in rows if not r["ok"]]
    print(f"\n{len(rows) - len(failed)} of {len(rows)} metrics pass "
          f"(|z| < {critical_z(len(rows)):.2f})"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
