"""Golden anchors: the exact bytes of one small ``synthetic``/``auto`` run and
of one posterior snapshot file.

Criterion 8 compares two runs of the same code; this compares against
digests recorded once, so any change that moves a single bit of the results
CSV or of the ``VCLSNAP1`` snapshot format shows up across commits. A change
that alters the output on purpose (a new estimator, say) records a new
digest here and says why in CHANGES.md.

Float results depend on the numpy build and the BLAS kernels, so the digest
is only checked on the stack it was recorded with and skipped elsewhere.
"""

import hashlib

import numpy as np
import pytest

from test_vbnn import random_net
from vclab.cli import main
from vclab.vbnn import advance_prior, save_snapshot

GOLDEN_ARGS = ["run", "--experiment", "synthetic", "--model", "auto", "--trials", "1",
               "--epochs", "1", "--probe-repeats", "2", "--probe-size", "256",
               "--seed", "8817"]
GOLDEN_SHA256 = "03db348e7da0d8d1827ec27306cc1fafffe2025231e13dd23c5a63402a616011"
SNAPSHOT_SHA256 = "e1b81c7b28eefc178baec08959d989006547075f46b697923a1f82d8f7890c9a"
RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = "scipy-openblas 0.3.31.188.0"


def recorded_stack_or_skip() -> None:
    """Skip unless numpy and BLAS are the ones the digest was recorded with.

    numpy is compared first: ``show_config(mode="dicts")`` only exists in
    recent versions.
    """
    recorded = f"numpy {RECORDED_NUMPY}, BLAS {RECORDED_BLAS}"
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"golden digest recorded with {recorded}; this is numpy {np.__version__}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
    if blas != RECORDED_BLAS:
        pytest.skip(f"golden digest recorded with {recorded}; this BLAS is {blas}")


def test_synthetic_auto_csv_matches_golden_digest(tmp_path):
    recorded_stack_or_skip()
    assert main([*GOLDEN_ARGS, "--out-dir", str(tmp_path)]) == 0
    csv_bytes = (tmp_path / "synthetic_autovcl.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == GOLDEN_SHA256, csv_bytes.decode()


def test_snapshot_bytes_match_golden_digest(tmp_path):
    recorded_stack_or_skip()
    path = tmp_path / "stage.snap"
    save_snapshot(advance_prior(random_net(43, heads=(0, 2), jitter=0.2)), path)
    blob = path.read_bytes()
    assert len(blob) == 544
    assert hashlib.sha256(blob).hexdigest() == SNAPSHOT_SHA256
