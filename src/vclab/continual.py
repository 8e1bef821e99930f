"""The continual-learning loop: per-task training, prior advancement,
multi-head bookkeeping, and full-sequence evaluation.

One sequence run is fully determined by its master seed: training, head
initialization, probing, and evaluation each draw from independent
sub-streams derived by tag, so switching between fixed-beta and
scheduled-beta modes never perturbs the training randomness. ``fit`` makes
every draw on the calling thread, each step's noise just before its step.
Each stage runs with numpy's floating-point errors raised, so an overflow is
a ``NumericError``, never a warning in a run that succeeds.
Fixed beta = 1 is vanilla variational continual learning; the scheduled mode
runs the exact same training code path with a different beta value.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .heuristics import HeuristicConfig, HeuristicTrace, assess_task
from .numerics import ConfigError, NumericError, check_writable, make_rng, require_positive
from .vbnn import (VariationalNet, advance_prior, fit, init_network, posterior_predict,
                   save_snapshot, standard_prior)

_BETA_MODES = ("fixed", "auto")

# Test rows per posterior_predict call in evaluate.
EVAL_CHUNK = 1000


@dataclass
class TrainConfig:
    """Per-task training hyperparameters, which the probes share."""

    epochs: int = 10
    batch_size: int = 256
    lr: float = 0.001
    train_mc_samples: int = 5
    eval_mc_samples: int = 20
    beta_mode: str = "fixed"
    beta: float = 1.0

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.train_mc_samples, self.eval_mc_samples) < 1:
            raise ConfigError("epochs, batch_size, train_mc_samples and eval_mc_samples "
                              "must be >= 1")
        require_positive("lr", self.lr)
        if self.beta_mode not in _BETA_MODES:
            raise ConfigError(f"beta_mode must be one of {_BETA_MODES}")
        if self.beta_mode == "fixed":
            require_positive("fixed beta", self.beta)


class AccuracyMatrix:
    """Lower-triangular record: accuracy of every seen task after each stage."""

    def __init__(self):
        self._rows: list[list[float]] = []

    def add_stage(self, accuracies: Sequence[float]) -> None:
        if len(accuracies) != len(self._rows) + 1:
            raise ValueError(
                f"stage {len(self._rows) + 1} needs {len(self._rows) + 1} accuracies, "
                f"got {len(accuracies)}")
        self._rows.append([float(a) for a in accuracies])

    def rows(self) -> list[list[float]]:
        return [list(r) for r in self._rows]


def train_on_task(net: VariationalNet, prior, task, beta: float, cfg: TrainConfig,
                  rng: np.random.Generator) -> None:
    """Train trunk + the task's head on the full task under the given beta."""
    fit(net, prior, task.head_index, task.train, beta=beta, epochs=cfg.epochs,
        batch_size=cfg.batch_size, lr=cfg.lr, mc_samples=cfg.train_mc_samples, rng=rng)


def evaluate(net: VariationalNet, task, cfg: TrainConfig, rng: np.random.Generator) -> float:
    """Posterior-predictive argmax accuracy on the task's test split, whose
    rows are gathered from the view with ``take``, ``EVAL_CHUNK`` at a time."""
    n_test = len(task.test)
    correct = 0
    for start in range(0, n_test, EVAL_CHUNK):
        x, y = task.test.take(np.arange(start, min(start + EVAL_CHUNK, n_test)))
        probs = posterior_predict(net, task.head_index, x, rng, cfg.eval_mc_samples)
        correct += int((probs.argmax(axis=1) == y).sum())
    return correct / n_test


def _check_finite(net: VariationalNet, stage: int) -> None:
    for layer in [*net.trunk, *net.heads.values()]:
        if not np.all(np.isfinite(layer.flat)):
            raise NumericError(f"non-finite parameters after stage {stage}")


def snapshot_paths(snapshot_dir, n_stages: int, results_csv=None) -> list[Path]:
    """The ``stage_tt.snap`` path of stages 1 to ``n_stages`` in
    ``snapshot_dir``, each passed through :func:`check_writable`; none may be
    ``results_csv``, lie inside it or hold it (compared as resolved paths)."""
    paths = [Path(snapshot_dir) / f"stage_{t:02d}.snap" for t in range(1, n_stages + 1)]
    csv = results_csv and Path(results_csv).resolve()
    for path in paths:
        check_writable(path)
        if csv and (csv.is_relative_to(path.resolve()) or path.resolve().is_relative_to(csv)):
            raise ConfigError(f"snapshot path {path} overlaps the results CSV {results_csv}")
    return paths


def run_sequence(tasks: Sequence, hidden_dims: Sequence[int], cfg: TrainConfig,
                 heuristic_cfg: HeuristicConfig, master_seed: int,
                 snapshot_dir=None, progress=None,
                 ) -> tuple[AccuracyMatrix, list[HeuristicTrace]]:
    """Run the full task sequence, returning the accuracy matrix and the
    heuristic trace of each stage, in stage order.

    Every task needs a non-empty train and test split, and tasks that share
    a head must have the same number of classes. In auto mode each stage is
    assessed (difficulty probe, similarity, beta) before training, so every
    task needs 2 * probe_size training examples; fixed mode skips the probes
    and uses the constant beta. After each stage the posterior becomes the
    prior and every seen task is re-evaluated. If ``snapshot_dir`` is given,
    the stage-t posterior is written to its :func:`snapshot_paths` path, all
    of which are checked before stage 1. A floating-point overflow, invalid
    value or division by zero in a stage raises ``NumericError`` naming the
    stage and its phase: assessment, training or evaluation.
    """
    if not tasks:
        raise ValueError("need at least one task")
    arity: dict[int, int] = {}
    for task in tasks:
        if arity.setdefault(task.head_index, task.n_classes) != task.n_classes:
            raise ConfigError(f"task {task.name!r} has {task.n_classes} classes, but head "
                              f"{task.head_index} is shared with a "
                              f"{arity[task.head_index]}-class task")
        for split in ("train", "test"):
            if len(getattr(task, split)) == 0:
                raise ConfigError(f"task {task.name!r} has an empty {split} split")
    auto = cfg.beta_mode == "auto"
    if auto:
        size = heuristic_cfg.probe_size
        for task in tasks:
            if 2 * size > len(task.train):
                raise ConfigError(f"probe_size {size} needs {2 * size} training "
                                  f"examples, task {task.name!r} has {len(task.train)}")
    snapshots = [] if snapshot_dir is None else snapshot_paths(snapshot_dir, len(tasks))
    net = init_network(tasks[0].input_dim, hidden_dims, make_rng(master_seed, "init"))
    prior = standard_prior(net)
    matrix = AccuracyMatrix()
    traces: list[HeuristicTrace] = []

    for t, task in enumerate(tasks, start=1):
        phase = "assessment"
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                if auto:
                    trace = assess_task(task, net, [tr.d for tr in traces], cfg,
                                        heuristic_cfg, master_seed)
                else:
                    trace = HeuristicTrace(beta=cfg.beta)
                traces.append(trace)
                phase = "training"
                net.ensure_head(task.head_index, task.n_classes,
                                make_rng(master_seed, "head", t))
                train_on_task(net, prior, task, trace.beta, cfg,
                              make_rng(master_seed, "train", t))
                _check_finite(net, t)
                prior = advance_prior(net)
                if snapshots:
                    save_snapshot(prior, snapshots[t - 1])
                phase = "evaluation"
                accuracies = [evaluate(net, tasks[i], cfg, make_rng(master_seed, "eval", t, i))
                              for i in range(t)]
        except FloatingPointError as exc:
            raise NumericError(f"stage {t}: {exc} during {phase}") from exc
        matrix.add_stage(accuracies)
        if progress is not None:
            progress(t, trace, accuracies)
    return matrix, traces
