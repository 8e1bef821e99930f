"""Every vclab name and result the benchmark in ``perfbench/`` reads still
fits it.

A traced benchmark run wraps each ``SPAN_POINTS`` entry of
``perfbench/worker.py`` in a span and each ``RNG_MODULES`` module's
``make_rng`` in a counter, and the ``split-fixed`` and ``permuted-auto``
workloads digest ``run_sequence``'s return value through
``worker.sequence_payload``; nothing in ``src/`` reads that value. Renaming
or deleting one of those names, or changing that value, breaks the
benchmark; these tests fail first. They only read files under
``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

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
