"""One repeat of one benchmark workload, in its own process.

``run.py`` starts this file once per repeat, with the BLAS thread count
pinned through the environment, and reads the JSON report it prints as its
last line. vclab is imported from ``src/`` of the checkout this file sits in,
never from an installed copy.

With ``--traced`` every layer call is wrapped in a span (see spans.py). With
``--setup-only`` the process stops at the first stage and reports set-up
time alone.

Set-up time runs from the moment ``run.py`` started the process (passed in as
``--spawned-at``, on the system-wide monotonic clock) to the first stage of
the continual loop; run time from there to the end of the workload.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent

# Workload sizes. "tiny" exists for the benchmark's self-tests only.
SIZES = {
    "full": {
        "synthetic-auto": {},
        "split-fixed": {"n_train": 1536, "n_test": 300, "epochs": 2},
        "permuted-auto": {"n_tasks": 2, "n_train": 2560, "n_test": 500, "epochs": 2},
    },
    "tiny": {
        "synthetic-auto": {"trials": "1", "epochs": "1", "probe_repeats": "2",
                           "probe_size": "256"},
        "split-fixed": {"n_train": 300, "n_test": 100, "epochs": 1},
        "permuted-auto": {"n_tasks": 2, "n_train": 600, "n_test": 100, "epochs": 1,
                          "probe_size": 256, "probe_repeats": 2},
    },
}

# split-fixed: (separation, rotation) of the five binary blob tasks.
SPLIT_TASKS = [(6.0, 0.0), (5.0, 0.6), (7.0, 1.2), (5.5, 1.8), (6.5, 2.4)]
SPLIT_HIDDEN = (256, 256)

# permuted-auto: ten Gaussian classes in a 16-d latent space, embedded into
# 784 pixels; every task is the same dataset under its own pixel permutation.
# The class geometry is fixed, so the seed changes the samples and the
# permutations but not how hard the tasks are.
PERMUTED_HIDDEN = (100, 100)
TEN_CLASS_GEOMETRY_SEED = 0
TEN_CLASS_LATENT = 16
TEN_CLASS_SEPARATION = 3.0
TEN_CLASS_GAIN = 1.5
TEN_CLASS_PIXEL_NOISE = 0.05

BETA_RANGE = (1e-3, 1e3)
PR_SET_THP_DISABLE = 41


class FirstStage(Exception):
    """Ends a ``--setup-only`` process at the first stage."""


def stage_records_from_csv(rows) -> list[dict]:
    records: dict[tuple[int, int], dict] = {}
    for r in rows:
        rec = records.setdefault((r.trial, r.stage), {
            "trial": r.trial, "stage": r.stage, "accuracy": [], "beta": r.beta, "d": r.d,
            "s": r.s})
        rec["accuracy"].append(r.accuracy)
    return [records[k] for k in sorted(records)]


def synthetic_auto(vclab, seed: int, size: dict, workdir: Path):
    """``vclab run --experiment synthetic --model auto --trials 2``."""
    cli = vclab.cli
    overrides = {"experiment": "synthetic", "model": "auto", "trials": "2",
                 "master_seed": str(seed), "out_dir": str(workdir)}
    cfg = cli.build_config({}, {**overrides, **size})

    def run(marked):
        with patched([(cli, "run_sequence", marked(cli.run_sequence))]):
            path = cli.run_experiment(cfg)
        return path.read_bytes(), stage_records_from_csv(cli.read_results_csv(path))

    return run, cfg.trials * len(cli.SYNTHETIC_TASKS), True


def split_fixed(vclab, seed: int, size: dict, workdir: Path):
    """split_custom stand-in: five binary blob tasks, one head each, gvcl:1,
    a snapshot after every stage."""
    rng = np.random.default_rng(seed)
    tasks = [vclab.make_synthetic_blobs(sep, rot, size["n_train"], rng, n_test=size["n_test"],
                                        head_index=k, name=f"blobs-{k}")
             for k, (sep, rot) in enumerate(SPLIT_TASKS)]
    train_cfg = vclab.TrainConfig(epochs=size["epochs"], beta_mode="fixed", beta=1.0)
    heuristic_cfg = vclab.HeuristicConfig()

    def run(marked):
        matrix, traces = marked(vclab.run_sequence)(
            tasks, SPLIT_HIDDEN, train_cfg, heuristic_cfg, seed,
            snapshot_dir=workdir / "snapshots")
        return sequence_payload(matrix, traces)

    return run, len(tasks), False


def ten_class_dataset(vclab, rng, n: int, centers, basis, split: str):
    y = np.arange(n) % 10
    rng.shuffle(y)
    latent = centers[y] + rng.standard_normal((n, TEN_CLASS_LATENT))
    x = 0.5 + TEN_CLASS_GAIN * latent @ basis
    x += TEN_CLASS_PIXEL_NOISE * rng.standard_normal(x.shape)
    np.clip(x, 0.0, 1.0, out=x)
    return vclab.Dataset(images=x, labels=y, split=split)


def permuted_auto(vclab, seed: int, size: dict, workdir: Path):
    """permuted stand-in: pixel-permuted views of one synthetic 10-class
    dataset, one shared 10-way head, scheduled beta."""
    geometry = np.random.default_rng(TEN_CLASS_GEOMETRY_SEED)
    basis = np.linalg.qr(geometry.standard_normal((784, TEN_CLASS_LATENT)))[0].T
    centers = TEN_CLASS_SEPARATION * geometry.standard_normal((10, TEN_CLASS_LATENT))
    rng = np.random.default_rng(seed)
    train = ten_class_dataset(vclab, rng, size["n_train"], centers, basis, "train")
    test = ten_class_dataset(vclab, rng, size["n_test"], centers, basis, "test")
    tasks = vclab.make_permuted_tasks(train, test, size["n_tasks"], rng)
    train_cfg = vclab.TrainConfig(epochs=size["epochs"], beta_mode="auto")
    heuristic_cfg = vclab.HeuristicConfig(
        **{k: size[k] for k in ("probe_size", "probe_repeats") if k in size})

    def run(marked):
        matrix, traces = marked(vclab.run_sequence)(
            tasks, PERMUTED_HIDDEN, train_cfg, heuristic_cfg, seed)
        return sequence_payload(matrix, traces)

    return run, len(tasks), True


def sequence_payload(matrix, traces) -> tuple[bytes, list[dict]]:
    """The accuracy matrix plus betas (and d, s), as exact bytes for the digest."""
    records = [{"trial": 0, "stage": t, "accuracy": row, "beta": tr.beta, "d": tr.d, "s": tr.s}
               for t, (row, tr) in enumerate(zip(matrix.rows(), traces), start=1)]
    return json.dumps(records, sort_keys=True).encode(), records


WORKLOADS = {"synthetic-auto": synthetic_auto, "split-fixed": split_fixed,
             "permuted-auto": permuted_auto}


def _in_unit(value) -> bool:
    return value is not None and math.isfinite(value) and 0.0 <= value <= 1.0


def check_stages(records: list[dict], planned: int, auto: bool) -> list[str]:
    """One message per failed stage; stages that never reported count too."""
    failures = []
    for rec in records:
        where = f"trial {rec['trial']} stage {rec['stage']}"
        accs = rec["accuracy"]
        if len(accs) != rec["stage"]:
            failures.append(f"{where}: {len(accs)} accuracies for {rec['stage']} seen tasks")
        elif not all(_in_unit(a) for a in accs):
            failures.append(f"{where}: accuracy outside [0, 1] or not finite: {accs}")
        elif not (rec["beta"] is not None and BETA_RANGE[0] <= rec["beta"] <= BETA_RANGE[1]):
            failures.append(f"{where}: beta {rec['beta']} outside {BETA_RANGE}")
        elif auto and not (_in_unit(rec["d"]) and _in_unit(rec["s"])):
            failures.append(f"{where}: d={rec['d']} s={rec['s']} outside [0, 1]")
    missing = planned - len(records)
    failures += [f"stage never completed ({missing} of {planned})"] * max(missing, 0)
    return failures


def final_avg_acc(records: list[dict]) -> float:
    """Mean accuracy over all tasks after the last stage, averaged over trials."""
    last: dict[int, dict] = {}
    for rec in records:
        if rec["stage"] >= last.get(rec["trial"], {"stage": 0})["stage"]:
            last[rec["trial"]] = rec
    per_trial = [sum(r["accuracy"]) / len(r["accuracy"]) for r in last.values()]
    return sum(per_trial) / len(per_trial) if per_trial else 0.0


# ---------------------------------------------------------------------------
# Tracing: each public function is wrapped where its caller looks it up

# (vclab module, attribute the caller looks up, span name)
SPAN_POINTS = [
    ("cli", "write_results_csv", "cli.write_results_csv"),
    ("continual", "assess_task", "continual.assess_task"),
    ("heuristics", "probe_difficulty", "heuristics.probe_difficulty"),
    ("heuristics", "measure_similarity", "heuristics.measure_similarity"),
    ("heuristics", "fit", "heuristics.fit"),
    ("heuristics", "posterior_predict", "heuristics.posterior_predict"),
    ("continual", "train_on_task", "continual.train_on_task"),
    ("continual", "fit", "continual.fit"),
    ("continual", "_check_finite", "continual.check_finite"),
    ("continual", "advance_prior", "continual.advance_prior"),
    ("continual", "evaluate", "continual.evaluate"),
    ("continual", "posterior_predict", "vbnn.posterior_predict"),
    ("continual", "save_snapshot", "vbnn.save_snapshot"),
    ("vbnn", "beta_elbo_loss", "vbnn.beta_elbo_loss"),
    ("vbnn", "sample_noise", "vbnn.sample_noise"),
    ("vbnn", "forward_with_noise", "vbnn.forward_with_noise"),
    ("vbnn", "kl_to_prior", "vbnn.kl_to_prior"),
    ("vbnn", "backward_gradients", "vbnn.backward_gradients"),
    ("vbnn", "NetAdam.step", "vbnn.adam"),
    ("vbnn", "adam_step", "numerics.adam_step"),
    ("data", "TaskView.take", "data.take"),
]
SPANS = [name for _, _, name in SPAN_POINTS]
RNG_MODULES = ("cli", "continual", "heuristics", "data")
COUNTS = ["vbnn.noise_values", "vbnn.sampled_weight_bytes", "vbnn.predict_rows",
          "vbnn.snapshot_bytes", "data.take_bytes", "numerics.make_rng_calls"]


def trace_points(vclab, tracer: Tracer) -> list[tuple]:
    """(owner, attribute, wrapper) for every span and counter of a traced run."""
    add = tracer.add
    # Computed counts: read from the shapes of what a call returned.
    hooks = {
        "vbnn.sample_noise": lambda result, *a, **kw: add(
            "vbnn.noise_values", sum(w.size + b.size for w, b in result)),
        "vbnn.forward_with_noise": lambda result, *a, **kw: add(
            "vbnn.sampled_weight_bytes", sum(w.nbytes + b.nbytes for w, b in result.weights)),
        "vbnn.posterior_predict": lambda result, net, head, x, rng, samples: add(
            "vbnn.predict_rows", x.shape[0] * samples),
        "vbnn.save_snapshot": lambda result, snapshot, path: add(
            "vbnn.snapshot_bytes", os.path.getsize(path)),
        "data.take": lambda result, *a, **kw: add(
            "data.take_bytes", result[0].nbytes + result[1].nbytes),
    }
    points = []
    for module, attribute, name in SPAN_POINTS:
        owner = getattr(vclab, module)
        *classes, attr = attribute.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        points.append((owner, attr, tracer.span(name, getattr(owner, attr), hooks.get(name))))
    for module in RNG_MODULES:
        owner = getattr(vclab, module)
        points.append((owner, "make_rng",
                       tracer.counter("numerics.make_rng_calls", owner.make_rng)))
    return points


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    times = tracer.layer_times()
    out = {f"{name}{suffix}": times.get(f"{name}{suffix}", 0)
           for name in SPANS for suffix in ("_s", "_self_s", "_calls")}
    out.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    steps = tracer.step_times("vbnn.beta_elbo_loss", "vbnn.adam")
    train, probe = steps.get("continual.fit", []), steps.get("heuristics.fit", [])
    out["vbnn.train_steps"] = len(train)
    out["heuristics.probe_steps"] = len(probe)
    # Every optimiser step of vbnn.fit, main training and probes alike; each
    # workload makes at least 50, so at least ten lie beyond the 80th percentile.
    step_ms = np.array(train + probe) * 1e3
    out["vbnn.train_step_ms.p50"] = float(np.percentile(step_ms, 50)) if step_ms.size else 0.0
    out["vbnn.train_step_ms.p80"] = float(np.percentile(step_ms, 80)) if step_ms.size else 0.0
    out["vbnn.train_step_ms.n"] = int(step_ms.size)
    return out


# ---------------------------------------------------------------------------
# Environment manifest


def blas_runtime_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------


def disable_huge_pages() -> bool:
    """Turn transparent huge pages off for this process (PR_SET_THP_DISABLE).

    Whether the kernel grants a huge page depends on how fragmented the
    machine's memory is at that moment, so with them on, peak RSS and
    page-fault time drift between runs of identical code.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    return libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) == 0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def import_vclab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vclab
    import vclab.cli  # noqa: F401  (the synthetic workload drives the CLI module)
    if not Path(vclab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"vclab imported from {vclab.__file__}, not from {src}")
    return vclab


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for this repeat")
    args = parser.parse_args(argv)

    huge_pages_off = disable_huge_pages()
    vclab = import_vclab()
    workdir = args.out / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run, planned, auto = WORKLOADS[args.workload](
        vclab, args.seed, SIZES[args.size][args.workload], workdir)

    first_stage: list[float] = []

    def marked(fn):
        def wrapper(*a, **kw):
            if not first_stage:
                first_stage.append(time.monotonic())
                if args.setup_only:
                    raise FirstStage
            return fn(*a, **kw)
        return wrapper

    tracer = Tracer(run_id=args.out.name)
    points = trace_points(vclab, tracer) if args.traced else []
    payload, records, error = b"", [], None
    cpu_before = cpu_seconds()
    try:
        with patched(points):
            payload, records = run(marked)
    except FirstStage:
        print(json.dumps({"setup_s": first_stage[0] - args.spawned_at}))
        return 0
    except Exception:  # a failed stage is a measured outcome, not a crash
        error = traceback.format_exc(limit=-3)
    end = time.monotonic()
    cpu = cpu_seconds() - cpu_before
    start = first_stage[0] if first_stage else end
    failures = check_stages(records, planned, auto)
    if error:
        failures.append(error)
    report = {
        "setup_s": start - args.spawned_at,
        "run_s": end - start,
        "run_cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_avg_acc": final_avg_acc(records),
        "digest": hashlib.sha256(payload).hexdigest(),
        "stages_attempted": planned,
        "stages_failed": min(len(failures), planned),
        "failures": failures,
        "manifest": {**manifest(args), "huge_pages_off": huge_pages_off},
    }
    if points:
        report["layers"] = layer_metrics(tracer)
        tracer.write(args.out / "spans.jsonl")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
