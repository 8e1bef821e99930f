"""Every vclab name the benchmark in ``perfbench/`` wraps still resolves.

A traced benchmark run wraps each ``SPAN_POINTS`` entry of
``perfbench/worker.py`` in a span and each ``RNG_MODULES`` module's
``make_rng`` in a counter. Renaming or deleting one of those names breaks the
benchmark; this test fails first. It only reads files under ``perfbench/``.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # restored, with src/, after the test
    try:
        import spans
        import worker
        points = worker.trace_points(worker.import_vclab(), spans.Tracer("contract"))
    finally:
        for name in ("worker", "spans"):
            sys.modules.pop(name, None)
    assert len(points) == len(worker.SPAN_POINTS) + len(worker.RNG_MODULES)
    for owner, attribute, wrapper in points:
        assert callable(getattr(owner, attribute)) and callable(wrapper)
