"""Golden anchors: the exact bytes of one small ``synthetic``/``auto`` run, of
one posterior snapshot file, and of two toy runs built here, one per code path
the CLI run does not take: a multi-head fixed-beta run on blob tasks that
writes stage snapshots, and a shared-head permuted ``auto`` run.

Criterion 8 compares two runs of the same code; this compares against
digests recorded once, so any change that moves a single bit of the results
CSV or of a ``VCLSNAP2`` snapshot file (its layers' float32 buffers) shows up
across commits. A change that alters the output on purpose (a new estimator,
or a new snapshot format, say) records a new digest here and says why in
CHANGES.md.

Float results depend on the numpy build and the BLAS kernels, so the digest
is only checked on the stack it was recorded with and skipped elsewhere.
``run_sequence`` runs with one BLAS thread whatever ``OPENBLAS_NUM_THREADS``
says, so the digests of the runs hold at any thread count.
"""

import hashlib
import json

import numpy as np
import pytest

from test_vbnn import random_net
from vclab import (Dataset, HeuristicConfig, TrainConfig, make_permuted_tasks, make_rng,
                   make_synthetic_blobs, run_sequence)
from vclab.cli import main
from vclab.vbnn import advance_prior, save_snapshot

GOLDEN_ARGS = ["run", "--experiment", "synthetic", "--model", "auto", "--trials", "1",
               "--epochs", "1", "--probe-repeats", "2", "--probe-size", "256",
               "--seed", "8817"]
GOLDEN_SHA256 = "e1ffbb14926f4448d6975b5088e37f3574ae88b8a8fc825d62af4ff7527154da"
SNAPSHOT_SHA256 = "2bab34659e44a04b45cb48499c2ea2b65a6ca53f8237fdf27ca37fbf5955d313"
# The toy runs: each digest covers the accuracy rows (and beta, d, s) of
# every stage; the split run's second digest covers its last stage snapshot.
SPLIT_ROWS_SHA256 = "c34c402f78f4969e67a9f5ed682ad5cf2d6bbb48eb9d536470e3521f0b7fea70"
SPLIT_SNAPSHOT_SHA256 = "19138b827ee262213bd43e58467f800ff89b268f8e13de599cba46171ea63018"
PERMUTED_ROWS_SHA256 = "87bc9d90102d8656bfdc7f5172ffd2b4e4155b2d7b860b646c8eb1c496a08435"
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
    assert len(blob) == 296
    assert hashlib.sha256(blob).hexdigest() == SNAPSHOT_SHA256


def stage_rows_digest(run) -> str:
    """sha256 of ``run_sequence``'s accuracy rows, beta, d and s per stage."""
    matrix, traces = run
    records = [{"accuracy": row, "beta": tr.beta, "d": tr.d, "s": tr.s}
               for row, tr in zip(matrix.rows(), traces)]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def test_split_fixed_toy_run_matches_golden_digests(tmp_path):
    # Three binary blob tasks, one head each, gvcl:1, a snapshot per stage.
    recorded_stack_or_skip()
    rng = make_rng("golden-split")
    tasks = [make_synthetic_blobs(sep, rot, 256, rng, n_test=100, head_index=k,
                                  name=f"blobs-{k}")
             for k, (sep, rot) in enumerate([(6.0, 0.0), (5.0, 0.6), (7.0, 1.2)])]
    cfg = TrainConfig(epochs=1, batch_size=64, train_mc_samples=2, eval_mc_samples=4)
    run = run_sequence(tasks, (16,), cfg, HeuristicConfig(), 8818, snapshot_dir=tmp_path)
    blob = (tmp_path / "stage_03.snap").read_bytes()
    assert (stage_rows_digest(run), hashlib.sha256(blob).hexdigest()) == (
        SPLIT_ROWS_SHA256, SPLIT_SNAPSHOT_SHA256)


def ten_class_split(rng, n, centers, split):
    """``n`` rows of ten Gaussian classes in 64 pixels, clipped to [0, 1]."""
    labels = np.arange(n) % 10
    images = np.clip(0.5 + centers[labels] + 0.15 * rng.standard_normal((n, 64)), 0.0, 1.0)
    return Dataset(images=images, labels=labels, split=split)


def test_permuted_auto_toy_run_matches_golden_digest():
    # Three pixel-permuted views of one ten-class set, one shared head, auto.
    recorded_stack_or_skip()
    rng = make_rng("golden-permuted")
    centers = 0.3 * rng.standard_normal((10, 64))
    train, test = (ten_class_split(rng, n, centers, split)
                   for n, split in ((600, "train"), (200, "test")))
    tasks = make_permuted_tasks(train, test, 3, rng)
    cfg = TrainConfig(epochs=1, batch_size=32, lr=0.01, train_mc_samples=2,
                      eval_mc_samples=4, beta_mode="auto")
    run = run_sequence(tasks, (32,), cfg, HeuristicConfig(probe_size=128, probe_repeats=2),
                       8819)
    assert stage_rows_digest(run) == PERMUTED_ROWS_SHA256
