"""Task-assessment heuristics: difficulty and similarity probes and the
KL-weight schedule computed from them.

Difficulty d of an incoming task is measured by mock training: a fresh
network of the same architecture is trained for one epoch on a small random
subset and scored on a disjoint held-out subset, repeated several times and
averaged. Similarity s is measured without training: the current model's raw
predictions on the new task are scored through every existing head of
matching arity, and a* is the accuracy farthest from chance (in either
direction: anti-correlated predictability counts). Both go through one
normalisation, norm(x, hi) = clamp(x / hi, 0, 1):

    d = 1 - norm(mean_acc - chance, 1 - chance)    (hard tasks score high)
    s = norm(|a* - chance|, 1 - chance)

The schedule for stage t >= 2 is

    beta_t = exp(lam * (max(d_1..d_{t-1}) - d_t / (1 + delta_d * (t-1)) + s_t))

with delta_d the mean absolute gap between consecutive previous difficulties;
beta_1 = 1. Easier or more familiar tasks push beta up (preserve knowledge),
harder tasks pull it down (let the posterior move).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import ConfigError, make_rng, require_positive, seed_from
from .vbnn import VariationalNet, fit, init_network, posterior_predict, standard_prior

BETA_MIN = 1e-3
BETA_MAX = 1e3

# Sample counts for probe training/eval, matching the main loop's defaults.
PROBE_TRAIN_MC_SAMPLES = 5
PROBE_EVAL_MC_SAMPLES = 20


@dataclass
class HeuristicConfig:
    """Knobs of the assessment procedure; defaults reproduce the benchmarks."""

    lam: float = 5.0
    probe_size: int = 1000
    probe_batch: int = 256
    probe_epochs: int = 1
    probe_repeats: int = 10
    probe_lr: float = 0.001

    def __post_init__(self):
        require_positive("lam", self.lam)
        require_positive("probe_lr", self.probe_lr)
        if self.probe_size < self.probe_batch:
            raise ConfigError(f"probe_size {self.probe_size} < probe_batch {self.probe_batch}")
        if min(self.probe_batch, self.probe_epochs, self.probe_repeats) < 1:
            raise ConfigError("probe_batch, probe_epochs and probe_repeats must be >= 1")


@dataclass
class HeuristicTrace:
    """Per-task record of the assessment; heuristic fields stay None for
    fixed-beta runs."""

    task_index: int
    beta: float
    d: float | None = None
    s: float | None = None
    delta_d: float | None = None
    raw_accuracies: list[float] = field(default_factory=list)
    a_star: float | None = None
    a_prime: float | None = None


def norm_unit(x: float, hi: float) -> float:
    """Project x from [0, hi] onto [0, 1], clamping outside it."""
    if hi <= 0:
        raise ValueError(f"hi must be > 0, got {hi}")
    return min(max(x / hi, 0.0), 1.0)


def average_difficulty_gap(d_history: Sequence[float]) -> float:
    """Mean |d_{i+1} - d_i| over consecutive pairs; 0 with fewer than 2 values."""
    if len(d_history) < 2:
        return 0.0
    diffs = np.abs(np.diff(np.asarray(d_history, dtype=np.float64)))
    return float(diffs.mean())


def difficulty_from_accuracy(mean_accuracy: float, chance: float) -> float:
    """Map mock-training accuracy to a difficulty in [0, 1]; 1 is no better
    than chance."""
    return 1.0 - norm_unit(mean_accuracy - chance, 1.0 - chance)


def compute_beta(d_history: Sequence[float], d_t: float, s_t: float, t: int,
                 cfg: HeuristicConfig) -> float:
    """KL weight for stage t; beta_1 = 1 (empty history), later stages use the
    schedule. Clamped to [1e-3, 1e3] against optimizer pathologies."""
    if t <= 1 or not d_history:
        return 1.0
    delta = average_difficulty_gap(d_history)
    exponent = cfg.lam * (max(d_history) - d_t / (1.0 + delta * (t - 1)) + s_t)
    return float(min(max(math.exp(exponent), BETA_MIN), BETA_MAX))


def _subset_indices(n_available: int, size: int, rng: np.random.Generator,
                    count: int = 1) -> list[np.ndarray]:
    """`count` mutually disjoint index sets of the given size."""
    if n_available < count * size:
        raise ValueError(
            f"task has {n_available} training examples, need {count * size} for probing")
    picked = rng.choice(n_available, size=count * size, replace=False)
    return [picked[i * size:(i + 1) * size] for i in range(count)]


def probe_difficulty(task, hidden_dims: Sequence[int], cfg: HeuristicConfig,
                     seed: int) -> tuple[float, list[float]]:
    """Mock-training difficulty of a task: d in [0, 1] plus raw probe accuracies.

    Each repeat trains a fresh single-head network for ``probe_epochs`` on a
    fresh random subset (first-task setup: N(0,1) prior, beta=1) and scores
    it on a disjoint subset of equal size. Repeats use independent derived
    seeds, so they are order-independent and bit-reproducible.
    """
    accuracies = []
    for repeat in range(cfg.probe_repeats):
        rng = make_rng(seed, "probe", repeat)
        train_idx, eval_idx = _subset_indices(len(task.train), cfg.probe_size, rng, count=2)
        x_train, y_train = task.train.take(train_idx)
        net = init_network(x_train.shape[1], hidden_dims, task.n_classes, rng)
        net.ensure_head(0, rng)
        fit(net, standard_prior(net), 0, x_train, y_train,
            beta=1.0, n_task=x_train.shape[0], epochs=cfg.probe_epochs,
            batch_size=cfg.probe_batch, lr=cfg.probe_lr,
            mc_samples=PROBE_TRAIN_MC_SAMPLES, rng=rng)
        # take() draws no randomness, so gathering the eval subset only now
        # keeps one subset in memory at a time and every stream unchanged.
        del x_train, y_train
        x_eval, y_eval = task.train.take(eval_idx)
        probs = posterior_predict(net, 0, x_eval, rng, PROBE_EVAL_MC_SAMPLES)
        accuracies.append(float((probs.argmax(axis=1) == y_eval).mean()))
    d = difficulty_from_accuracy(float(np.mean(accuracies)), task.chance_accuracy)
    return d, accuracies


def measure_similarity(task, net: VariationalNet, cfg: HeuristicConfig,
                       seed: int) -> tuple[float, float | None]:
    """Similarity s in [0, 1] of a task to what the net already knows.

    Scores the task's probe-eval subset through every existing head whose
    output arity matches, takes the accuracy a* farthest from chance a', and
    returns (norm(|a* - a'|, 1 - a'), a*). A network with no heads yet (first
    task) has nothing to say: s = 0.
    """
    candidate_heads = sorted(i for i, h in net.heads.items() if h.fan_out == task.n_classes)
    if not candidate_heads:
        return 0.0, None
    rng = make_rng(seed, "similarity")
    size = min(cfg.probe_size, len(task.train))
    (eval_idx,) = _subset_indices(len(task.train), size, rng)
    x_eval, y_eval = task.train.take(eval_idx)
    chance = task.chance_accuracy
    a_star = chance
    for head_index in candidate_heads:
        probs = posterior_predict(net, head_index, x_eval,
                                  make_rng(seed, "similarity-eval", head_index),
                                  PROBE_EVAL_MC_SAMPLES)
        acc = float((probs.argmax(axis=1) == y_eval).mean())
        if abs(acc - chance) > abs(a_star - chance):
            a_star = acc
    s = norm_unit(abs(a_star - chance), 1.0 - chance)
    return s, a_star


def assess_task(task, net: VariationalNet, hidden_dims: Sequence[int],
                d_history: Sequence[float], t: int, cfg: HeuristicConfig,
                master_seed: int) -> HeuristicTrace:
    """Full assessment of stage t: probe, similarity, gap, and beta."""
    stage_seed = seed_from(master_seed, "assess", t)
    d, raw = probe_difficulty(task, hidden_dims, cfg, stage_seed)
    s, a_star = measure_similarity(task, net, cfg, stage_seed)
    delta = average_difficulty_gap(d_history)
    beta = compute_beta(d_history, d, s, t, cfg)
    return HeuristicTrace(task_index=t, beta=beta, d=d, s=s, delta_d=delta,
                          raw_accuracies=raw, a_star=a_star, a_prime=task.chance_accuracy)
