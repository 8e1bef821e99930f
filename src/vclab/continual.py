"""The continual-learning loop: per-task training, prior advancement,
multi-head bookkeeping, and full-sequence evaluation.

One sequence run is fully determined by its master seed: training, head
initialization, probing, and evaluation each draw from independent
sub-streams derived by tag, so switching between fixed-beta and
scheduled-beta modes never perturbs the training randomness. Stage t's
evaluation reads only its frozen posterior and its own streams, so it is
started with ``vbnn.spare_core_worker`` before stage t + 1 trains and joined
after; its results are reported in stage order, with the bits of a serial
run.
Each stage runs with numpy's floating-point errors raised, so an overflow is
a ``NumericError``, never a warning in a run that succeeds, and a whole run
with one BLAS thread (``numerics.one_blas_thread``), so its bits do not
depend on the machine's thread count.
Fixed beta = 1 is vanilla variational continual learning; the scheduled mode
runs the exact same training code path with a different beta value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .heuristics import HeuristicConfig, HeuristicTrace, assess_task
from .numerics import (ConfigError, NumericError, check_writable, make_rng, one_blas_thread,
                       require_positive)
from .vbnn import (VariationalNet, advance_prior, fit, init_network, posterior_predict,
                   save_snapshot, spare_core_worker, standard_prior)

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


def _evaluate_stage(posterior: VariationalNet, tasks: Sequence, t: int, cfg: TrainConfig,
                    master_seed: int) -> list[float]:
    """Stage t's accuracy on each of the first t tasks, each from its own
    ``eval`` stream, under this thread's raising error state."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return [evaluate(posterior, tasks[i], cfg, make_rng(master_seed, "eval", t, i))
                    for i in range(t)]
    except FloatingPointError as exc:
        raise NumericError(f"stage {t}: {exc} during evaluation") from exc


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


@one_blas_thread()
def run_sequence(tasks: Sequence, hidden_dims: Sequence[int], cfg: TrainConfig,
                 heuristic_cfg: HeuristicConfig, master_seed: int,
                 snapshot_dir=None, progress=None,
                 ) -> tuple[AccuracyMatrix, list[HeuristicTrace]]:
    """Run the full task sequence, returning the accuracy matrix and the
    heuristic trace of each stage, in stage order.

    Every task needs the first task's input width, a non-empty train and
    test split and, in auto mode, 2 * probe_size training examples; tasks
    that share a head must have the same number of classes. Auto mode
    assesses each stage (difficulty probe, similarity, beta) before
    training; fixed mode uses the constant beta. After stage t the posterior
    becomes the prior, and is written to its :func:`snapshot_paths` path if
    ``snapshot_dir`` is given. Every seen task is then re-evaluated on that
    frozen posterior: started with :func:`vbnn.spare_core_worker`
    (``vclab-eval``) after stage t + 1's assessment and joined after its
    training and finite check, before stage t + 1's posterior is frozen. The
    last stage, a stage whose successor fails in assessment and, with the
    spare core taken, every stage is evaluated on this thread at its join.
    ``progress(t, trace, accuracies)``, if given, is called on this thread
    in stage order, so
    stage t's call comes after stage t + 1 has trained. Tasks and paths are
    checked before stage 1. A floating-point overflow, invalid value or
    division by zero in a stage raises ``NumericError`` naming the stage and
    its phase: assessment, training or evaluation. Stage t is reported before
    any error of stage t + 1 is raised, and its own error wins; no thread
    outlives the call. The call runs with one BLAS thread (see
    :func:`numerics.one_blas_thread`).
    """
    if not tasks:
        raise ValueError("need at least one task")
    auto, size = cfg.beta_mode == "auto", heuristic_cfg.probe_size
    arity: dict[int, int] = {}
    for task in tasks:
        if task.input_dim != tasks[0].input_dim:
            raise ConfigError(f"task {task.name!r} has {task.input_dim} inputs, but task "
                              f"{tasks[0].name!r} has {tasks[0].input_dim}")
        if arity.setdefault(task.head_index, task.n_classes) != task.n_classes:
            raise ConfigError(f"task {task.name!r} has {task.n_classes} classes, but head "
                              f"{task.head_index} is shared with a "
                              f"{arity[task.head_index]}-class task")
        for split in ("train", "test"):
            if len(getattr(task, split)) == 0:
                raise ConfigError(f"task {task.name!r} has an empty {split} split")
        if auto and 2 * size > len(task.train):
            raise ConfigError(f"probe_size {size} needs {2 * size} training "
                              f"examples, task {task.name!r} has {len(task.train)}")
    snapshots = [] if snapshot_dir is None else snapshot_paths(snapshot_dir, len(tasks))
    net = init_network(tasks[0].input_dim, hidden_dims, make_rng(master_seed, "init"))
    prior = standard_prior(net)
    matrix = AccuracyMatrix()
    traces: list[HeuristicTrace] = []

    def report(t: int, accuracies: list[float]) -> None:
        matrix.add_stage(accuracies)
        if progress is not None:
            progress(t, traces[t - 1], accuracies)

    evaluation = None
    for t, task in enumerate(tasks, start=1):
        phase = "assessment"
        with spare_core_worker("vclab-eval") as start:
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    if auto:
                        trace = assess_task(task, net, [tr.d for tr in traces], cfg,
                                            heuristic_cfg, master_seed)
                    else:
                        trace = HeuristicTrace(beta=cfg.beta)
                    if evaluation:  # stage t - 1's, while stage t trains
                        evaluation = start(evaluation)
                    phase = "training"
                    net.ensure_head(task.head_index, task.n_classes,
                                    make_rng(master_seed, "head", t))
                    train_on_task(net, prior, task, trace.beta, cfg,
                                  make_rng(master_seed, "train", t))
                    _check_finite(net, t)
            except FloatingPointError as exc:
                raise NumericError(f"stage {t}: {exc} during {phase}") from exc
            finally:
                # Stage t - 1 is reported before stage t's error, and its own
                # error wins, as if it had been evaluated before stage t began.
                if evaluation:
                    report(t - 1, evaluation())
        traces.append(trace)
        prior = advance_prior(net)
        evaluation = partial(_evaluate_stage, prior, tasks, t, cfg, master_seed)
        if snapshots:
            save_snapshot(prior, snapshots[t - 1])
    report(len(tasks), evaluation())
    return matrix, traces
