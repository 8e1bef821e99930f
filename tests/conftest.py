import contextlib
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from vclab import vbnn

DATA_DIR = Path(os.environ.get("VCLAB_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def mnist_available() -> bool:
    return any((DATA_DIR / sub / "train-images-idx3-ubyte").exists()
               or (DATA_DIR / sub / "train-images-idx3-ubyte.gz").exists()
               for sub in ("", "mnist", "MNIST/raw"))


def cifar_available() -> bool:
    return any((DATA_DIR / sub / "data_batch_1.bin").exists()
               for sub in ("", "cifar-10-batches-bin", "cifar10"))


requires_mnist = pytest.mark.skipif(
    not mnist_available(),
    reason=f"MNIST IDX files not found under {DATA_DIR} (run scripts/fetch_data.py)")

requires_cifar = pytest.mark.skipif(
    not cifar_available(),
    reason=f"CIFAR-10 binary batches not found under {DATA_DIR} (run scripts/fetch_data.py)")


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" and report.outcome in ("passed", "failed"):
        print(f"\n[acceptance] {report.nodeid.split('::')[-1]}: {report.outcome.upper()}")
    elif report.when == "setup" and report.outcome == "skipped":
        print(f"\n[acceptance] {report.nodeid.split('::')[-1]}: SKIPPED")


@pytest.fixture(autouse=True)
def spare_core_free():
    """Each test starts and ends with ``vbnn.SPARE_CORE`` free, so a test
    that leaks it fails itself instead of hanging a later one; the leaked
    lock is released for the tests after it."""
    assert not vbnn.SPARE_CORE.locked(), "vbnn.SPARE_CORE was held before the test"
    yield
    leaked = vbnn.SPARE_CORE.locked()
    if leaked:
        vbnn.SPARE_CORE.release()
    assert not leaked, "the test left vbnn.SPARE_CORE held"


@contextlib.contextmanager
def spare_core(state):
    """A block in which ``vbnn.SPARE_CORE`` is ``"free"``, ``"taken"`` by
    another thread for the whole block, or ``"contended"``: three threads,
    more than the two cores, each take it for 0.1 ms about once a
    millisecond, with the interpreter switching threads every 10 us, so
    steps find it free or taken in no set order."""
    if state == "free":
        yield
        return
    held, done = threading.Event(), threading.Event()

    def hold():
        if vbnn.SPARE_CORE.acquire(timeout=10):
            held.set()
            done.wait()
            vbnn.SPARE_CORE.release()

    def contend():
        held.set()
        while not done.is_set():
            with vbnn.SPARE_CORE:
                time.sleep(1e-4)
            time.sleep(1e-3)

    holders = [threading.Thread(target=hold, daemon=True)] if state == "taken" else [
        threading.Thread(target=contend, daemon=True) for _ in range(3)]
    interval = sys.getswitchinterval()
    if state == "contended":
        sys.setswitchinterval(1e-5)
    try:
        for holder in holders:
            holder.start()
        assert held.wait(timeout=10)
        yield
    finally:
        done.set()
        for holder in holders:
            holder.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(holder.is_alive() for holder in holders)
