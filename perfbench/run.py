#!/usr/bin/env python3
"""Benchmark of whole vclab continual-learning runs and of their layers.

Run from the root of a checkout; no dataset and no network are needed:

    python3 perfbench/run.py --workload split-fixed --seed 1 --seconds 20 --trace 0

BENCHMARK.json at the root names the workloads and metrics; README.md in this
directory says why each workload exists and which layer metric should move
which end-to-end metric.

Every repeat runs in a fresh worker process (worker.py) with the BLAS thread
count pinned in that process's environment, so set-up time is measured from
a real process start and memory per repeat. A run makes at least two
repeats and keeps repeating until ``--seconds`` have passed; every metric is
the median over repeats. An untraced run also starts three processes that
only set up, so that ``setup_s`` is a median of at least five. With
``--trace 1`` untraced and traced repeats alternate: per-layer metrics are
medians over the traced ones, and the tracing overhead is the difference of
the two run-time medians.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (continual-learning stages; a stage fails if it
raises, fails an output check, or belongs to a repeat whose output digest
differs from the first repeat's) and ``metrics``. The full result, with the
environment manifest and every repeat, is written to
``.bench_out/<workload>-seed<seed>-trace<0|1>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread leaves the second core of a 2-core machine to the system
# and to this process.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPEATS = 2          # untraced repeats per run, so digests can be compared
SETUP_ONLY = 3           # extra set-up-only processes per untraced run
RUN_LIMIT_S = 170        # no repeat starts that could end after this


def spawn(args, mode: str, index: int, out_root: Path, deadline: float):
    """Run one worker in ``mode`` (run, traced or setup-only); its report, or
    None and the reason it gave none."""
    out = out_root / f"{mode}-{index}"
    out.mkdir(parents=True)
    env = {**os.environ, **dict.fromkeys(BLAS_ENV, BLAS_THREADS)}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--out", str(out),
           *([] if mode == "run" else [f"--{mode}"]), "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, f"{mode} repeat {index} timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{mode} repeat {index} exited {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"{mode} repeat {index} printed no report: {lines[-1][:200]}"


def run_repeats(args, out_root: Path):
    """All worker processes of one run: (set-up times, untraced, traced, errors)."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    setups, plain, traced, errors = [], [], [], []
    for i in range(0 if args.trace else SETUP_ONLY):
        report, error = spawn(args, "setup-only", i, out_root, deadline)
        if report is None:
            errors.append(error)
        else:
            setups.append(report["setup_s"])
    longest = 0.0
    while True:
        done = len(plain) + len(traced)
        enough = (len(traced) >= 1 and len(plain) >= 1) if args.trace else done >= MIN_REPEATS
        now = time.monotonic()
        if (enough and now - started >= args.seconds) or now + longest > deadline:
            break
        tracing = bool(args.trace) and len(traced) < len(plain)
        report, error = spawn(args, "traced" if tracing else "run", done, out_root, deadline)
        longest = max(longest, time.monotonic() - now)
        if report is None:
            errors.append(error)
            break
        (traced if tracing else plain).append(report)
    return setups, plain, traced, errors


def tally(repeats: list[dict], errors: list[str]):
    """Stages attempted and failed over all repeats, and the reference digest."""
    digest = repeats[0]["digest"] if repeats else None
    planned = repeats[0]["stages_attempted"] if repeats else 1
    attempted = failed = 0
    for r in repeats:
        attempted += r["stages_attempted"]
        failed += (r["stages_attempted"] if r["digest"] != digest else r["stages_failed"])
    # A repeat that crashed before reporting still attempted its stages.
    attempted += planned * len(errors)
    failed += planned * len(errors)
    return attempted, failed, digest


def median_layers(traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"]
    return {name: statistics.median(r["layers"][name] for r in traced) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at toy sizes (self-tests only)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "vclab" / "__init__.py").is_file():
        print(f"error: no vclab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_root = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    setups, plain, traced, errors = run_repeats(args, out_root)
    if not plain or (args.trace and not traced):
        print("error: no repeat completed:\n" + "\n".join(errors), file=sys.stderr)
        return 1

    attempted, failed, digest = tally(plain + traced, errors)
    run_s = statistics.median(r["run_s"] for r in plain)
    if args.trace:
        values = median_layers(traced)
        traced_run_s = statistics.median(r["run_s"] for r in traced)
        values["trace.run_s"] = traced_run_s
        values["trace.overhead_s"] = traced_run_s - run_s
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "final_avg_acc": plain[0]["final_avg_acc"],
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "manifest": plain[0]["manifest"], "digest": digest,
        "digests": [r["digest"] for r in plain + traced],
        "stage_fail_frac": failed / attempted, "stages_failed": failed,
        "stages_attempted": attempted,
        "repeats": [{k: v for k, v in r.items() if k not in ("manifest", "layers")}
                    for r in plain + traced],
        "errors": errors, "metrics": metrics,
    }
    (out_root / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"manifest {json.dumps(result['manifest'], sort_keys=True)}")
    print(f"digest {digest} ({len(result['digests'])} repeats, "
          f"{'all equal' if len(set(result['digests'])) == 1 else 'DIFFERENT'})")
    print(f"stage_fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} stages)")
    for r in plain + traced:
        for failure in r["failures"]:
            print(f"failed: {failure}")
    for error in errors:
        print(f"failed: {error}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
