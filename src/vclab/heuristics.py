"""Task-assessment heuristics: difficulty and similarity probes and the
KL-weight schedule computed from them.

Difficulty d of an incoming task is measured by mock training: a fresh
network of the same architecture gets one epoch of the run's own training on
a small random subset and is scored on a disjoint held-out subset, repeated
several times and averaged. Similarity s is measured without training: the
current model's raw predictions on the new task are scored through every
existing head of matching arity, and a* is the accuracy farthest from chance
(in either direction: anti-correlated predictability counts). Both go
through one normalisation, norm(x, hi) = clamp(x / hi, 0, 1):

    d = 1 - norm(mean_acc - chance, 1 - chance)    (hard tasks score high)
    s = norm(|a* - chance|, 1 - chance)

The schedule for stage t >= 2 is

    beta_t = exp(lam * (max(d_1..d_{t-1}) - d_t / (1 + delta_d * (t-1)) + s_t))

with delta_d the mean absolute gap between consecutive previous difficulties
and t - 1 the length of that history; beta_1 = 1. Easier or more familiar
tasks push beta up (preserve knowledge), harder tasks pull it down (let the
posterior move).

The difficulty probe is pipelined: each repeat's score is started with
``vbnn.spare_core_worker`` and joined after the next repeat trains. Each
repeat draws only from its own stream, and prediction's bits do not depend
on where its lanes run, so d has the bits of a serial loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .numerics import ConfigError, make_rng, require_positive, seed_from
from .vbnn import (VariationalNet, fit, init_network, posterior_predict, spare_core_worker,
                   standard_prior)

if TYPE_CHECKING:  # continual imports this module
    from .continual import TrainConfig

BETA_MIN = 1e-3
BETA_MAX = 1e3
# Any larger exponent clamps to BETA_MAX; the cap keeps exp() from overflowing.
_EXPONENT_CAP = math.log(BETA_MAX) + 1.0

# The difficulty probe is one epoch of the run's own training.
PROBE_EPOCHS = 1


@dataclass
class HeuristicConfig:
    """Knobs of the assessment procedure; defaults reproduce the benchmarks."""

    lam: float = 5.0
    probe_size: int = 1000
    probe_repeats: int = 10

    def __post_init__(self):
        require_positive("lam", self.lam)
        if min(self.probe_size, self.probe_repeats) < 1:
            raise ConfigError("probe_size and probe_repeats must be >= 1")


@dataclass
class HeuristicTrace:
    """Record of one stage's assessment, at the stage's place in the trace
    list; heuristic fields stay None for fixed-beta runs."""

    beta: float
    d: float | None = None
    s: float | None = None
    delta_d: float | None = None
    raw_accuracies: list[float] = field(default_factory=list)
    a_star: float | None = None


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


def compute_beta(d_history: Sequence[float], d_t: float, s_t: float,
                 cfg: HeuristicConfig) -> float:
    """KL weight for stage len(d_history) + 1: 1 for the first, the schedule
    after. Clamped to [1e-3, 1e3] against optimizer pathologies."""
    if not d_history:
        return 1.0
    delta = average_difficulty_gap(d_history)
    exponent = cfg.lam * (max(d_history) - d_t / (1.0 + delta * len(d_history)) + s_t)
    return float(min(max(math.exp(min(exponent, _EXPONENT_CAP)), BETA_MIN), BETA_MAX))


def _subset_indices(n_available: int, size: int, rng: np.random.Generator,
                    count: int = 1) -> list[np.ndarray]:
    """`count` mutually disjoint index sets of the given size."""
    if n_available < count * size:
        raise ValueError(
            f"task has {n_available} training examples, need {count * size} for probing")
    picked = rng.choice(n_available, size=count * size, replace=False)
    return [picked[i * size:(i + 1) * size] for i in range(count)]


def _score_probe(net: VariationalNet, head_index: int, x: np.ndarray, y: np.ndarray,
                 rng: np.random.Generator, n_samples: int) -> float:
    """Posterior-predictive argmax accuracy of ``net``'s head ``head_index``
    on (x, y): a probe net's head 0, or a similarity candidate head."""
    probs = posterior_predict(net, head_index, x, rng, n_samples)
    return float((probs.argmax(axis=1) == y).mean())


def probe_difficulty(task, hidden_dims: Sequence[int], cfg: TrainConfig,
                     heuristic_cfg: HeuristicConfig, seed: int) -> tuple[float, list[float]]:
    """Mock-training difficulty of a task: d in [0, 1] plus raw probe accuracies.

    Each repeat trains a fresh single-head network (N(0,1) prior, beta=1) for
    ``PROBE_EPOCHS`` of ``cfg``'s training on ``probe_size`` random examples,
    scores it with ``cfg.eval_mc_samples`` draws on a disjoint subset of equal
    size, and draws from its own derived seed, so repeats are bit-reproducible.

    Repeat r's score is started with :func:`vbnn.spare_core_worker`
    (``vclab-probe``) and joined after repeat r + 1's fit, before repeat
    r + 1's score is started, so at most one trained probe net and its eval
    batch wait; with the spare core taken, repeat r is scored here at that
    join. The bits are those of a serial loop, and so is the order of
    errors: repeat r's scoring error wins over repeat r + 1's training error.
    """
    accuracies, pending = [], None
    with spare_core_worker("vclab-probe") as start:
        for repeat in range(heuristic_cfg.probe_repeats):
            try:
                rng = make_rng(seed, "probe", repeat)
                train_idx, eval_idx = _subset_indices(len(task.train),
                                                      heuristic_cfg.probe_size, rng, 2)
                net = init_network(task.input_dim, hidden_dims, rng)
                net.ensure_head(0, task.n_classes, rng)
                fit(net, standard_prior(net), 0, task.train.subset(train_idx), beta=1.0,
                    epochs=PROBE_EPOCHS, batch_size=cfg.batch_size, lr=cfg.lr,
                    mc_samples=cfg.train_mc_samples, rng=rng)
            finally:
                # Repeat r - 1 is joined first, and its error wins, as in a
                # serial loop.
                if pending:
                    accuracies.append(pending())
            pending = start(_score_probe, net, 0, *task.train.take(eval_idx), rng,
                            cfg.eval_mc_samples)
        accuracies.append(pending())
    d = difficulty_from_accuracy(float(np.mean(accuracies)), task.chance_accuracy)
    return d, accuracies


def measure_similarity(task, net: VariationalNet, cfg: TrainConfig,
                       heuristic_cfg: HeuristicConfig, seed: int) -> tuple[float, float | None]:
    """Similarity s in [0, 1] of a task to what the net already knows.

    Draws its own ``probe_size`` subset of the task's training split from
    the ``similarity`` stream, scores it with ``cfg.eval_mc_samples`` draws
    through every existing head whose output arity matches, takes the
    accuracy a* farthest from chance a', and returns (norm(|a* - a'|, 1 - a'),
    a*). A network with no heads yet (first task) has nothing to say: s = 0.
    """
    candidate_heads = sorted(i for i, h in net.heads.items() if h.fan_out == task.n_classes)
    if not candidate_heads:
        return 0.0, None
    rng = make_rng(seed, "similarity")
    size = min(heuristic_cfg.probe_size, len(task.train))
    (eval_idx,) = _subset_indices(len(task.train), size, rng)
    x_eval, y_eval = task.train.take(eval_idx)
    chance = task.chance_accuracy
    a_star = chance
    for head_index in candidate_heads:
        acc = _score_probe(net, head_index, x_eval, y_eval,
                           make_rng(seed, "similarity-eval", head_index), cfg.eval_mc_samples)
        if abs(acc - chance) > abs(a_star - chance):
            a_star = acc
    s = norm_unit(abs(a_star - chance), 1.0 - chance)
    return s, a_star


def assess_task(task, net: VariationalNet, d_history: Sequence[float], cfg: TrainConfig,
                heuristic_cfg: HeuristicConfig, master_seed: int) -> HeuristicTrace:
    """Full assessment of stage len(d_history) + 1: probe, similarity, gap,
    beta. The probes get the hidden widths of ``net``'s trunk."""
    stage_seed = seed_from(master_seed, "assess", len(d_history) + 1)
    hidden_dims = [layer.fan_out for layer in net.trunk]
    d, raw = probe_difficulty(task, hidden_dims, cfg, heuristic_cfg, stage_seed)
    s, a_star = measure_similarity(task, net, cfg, heuristic_cfg, stage_seed)
    return HeuristicTrace(beta=compute_beta(d_history, d, s, heuristic_cfg), d=d, s=s,
                          delta_d=average_difficulty_gap(d_history), raw_accuracies=raw,
                          a_star=a_star)
