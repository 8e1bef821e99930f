"""Every vclab name and result the benchmark in ``perfbench/`` reads still
fits it.

A traced benchmark run wraps each ``SPAN_POINTS`` entry of
``perfbench/worker.py`` in a span and each ``RNG_MODULES`` module's
``make_rng`` in a counter, and the ``split-fixed`` and ``permuted-auto``
workloads digest ``run_sequence``'s return value through
``worker.sequence_payload``; nothing in ``src/`` reads that value. The
``synthetic-auto`` workload's set-up time ends, and its run time starts, at
the first call of the ``run_sequence`` it wraps, so that call must stay in
the calling process when ``vclab run`` forks workers for the other trials.
Renaming or deleting one of those names, or changing that value or that
boundary, breaks the benchmark; these tests fail first. They only read files
under ``perfbench/``.
"""

import os
import sys
from pathlib import Path

import pytest

from test_cli import count_forks, use_cpus
from vclab import HeuristicConfig, TrainConfig, make_rng, make_synthetic_blobs, run_sequence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # restored, with src/, after the test
    try:
        import worker
        yield worker
    finally:
        for name in ("worker", "spans"):
            sys.modules.pop(name, None)


def test_every_wrapped_name_resolves(worker):
    points = worker.trace_points(worker.import_vclab(), worker.Tracer("contract"))
    assert len(points) == len(worker.SPAN_POINTS) + len(worker.RNG_MODULES)
    for owner, attribute, wrapper in points:
        assert callable(getattr(owner, attribute)) and callable(wrapper)


def test_sequence_payload_reads_one_record_per_stage(worker):
    tasks = [make_synthetic_blobs(8.0, 0.3 * k, 64, make_rng("contract", k), n_test=16,
                                  head_index=k, name=f"blobs-{k}") for k in range(2)]
    cfg = TrainConfig(epochs=1, batch_size=32, train_mc_samples=1, eval_mc_samples=2)
    _, records = worker.sequence_payload(*run_sequence(tasks, (8,), cfg, HeuristicConfig(), 3))
    assert [r["stage"] for r in records] == [1, 2]
    assert [len(r["accuracy"]) for r in records] == [1, 2]
    assert all(0.0 <= a <= 1.0 for r in records for a in r["accuracy"])


class MarkerFired(Exception):
    """Stands in for ``worker.FirstStage``, which ``--setup-only`` raises."""


def two_trial_synthetic_auto(worker, tmp_path, monkeypatch):
    """The ``synthetic-auto`` workload at its tiny size with two trials, on
    two usable CPUs, and the pids of the workers it forks from now on."""
    use_cpus(monkeypatch, 2)
    children = count_forks(monkeypatch)
    size = {**worker.SIZES["tiny"]["synthetic-auto"], "trials": "2"}
    run, planned, _ = worker.synthetic_auto(worker.import_vclab(), 5, size, tmp_path)
    return run, planned, children


def test_synthetic_auto_marks_its_first_stage_in_the_calling_process(worker, tmp_path,
                                                                     monkeypatch):
    # If every trial ran in a worker, the mark would fire there, and run_s
    # would read about 0 and setup_s the whole run.
    run, planned, children = two_trial_synthetic_auto(worker, tmp_path, monkeypatch)
    marks = []

    def marked(fn):
        def wrapper(*args, **kwargs):
            marks.append(os.getpid())  # a worker's list is its own copy
            return fn(*args, **kwargs)
        return wrapper

    _, records = run(marked)
    assert len(children) == 1
    assert marks == [os.getpid()]  # trial 0's call; trial 1's ran in the worker
    assert len(records) == planned


def test_a_raising_marker_leaves_no_child(worker, tmp_path, monkeypatch):
    run, _, children = two_trial_synthetic_auto(worker, tmp_path, monkeypatch)

    def marked(fn):
        def wrapper(*args, **kwargs):
            raise MarkerFired
        return wrapper

    with pytest.raises(MarkerFired):
        run(marked)
    assert len(children) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
