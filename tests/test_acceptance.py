"""Acceptance gate: one test per criterion, each printed as a pass/fail line.

Criteria 1, 2, 7, and 8 are dataset-free and always run. Criteria 3-6 need
the MNIST / CIFAR-10 files under the data directory (see scripts/fetch_data.py
and the VCLAB_DATA_DIR environment variable); they skip cleanly when the
files are absent and run the full desk-scale benchmarks when present.
"""

import math
import time

import numpy as np
import pytest

from conftest import DATA_DIR, requires_cifar, requires_mnist
from test_vbnn import float64_noise, flatten_grads, get_param_vector, set_param_vector
from vclab.cli import ExperimentConfig, read_results_csv, run_experiment
from vclab.continual import TrainConfig
from vclab.data import make_synthetic_blobs
from vclab.heuristics import (HeuristicConfig, compute_beta, measure_similarity,
                              probe_difficulty)
from vclab.numerics import finite_diff_grad, make_rng, seed_from
from vclab.vbnn import (advance_prior, backward_gradients, beta_elbo_loss, diag_gaussian_kl,
                        fit, init_network, kl_to_prior, standard_prior)

MASTER_SEED = 2024
TRIALS = 5


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = make_rng("acc1")
    net = init_network(10, [8], rng)
    net.ensure_head(0, 4, rng)
    prior_net = init_network(10, [8], make_rng("acc1-prior"))
    prior_net.ensure_head(0, 4, make_rng("acc1-prior-head"))
    for layer in [*prior_net.trunk, prior_net.heads[0]]:
        for a in layer.param_arrays():
            a += 0.3 * make_rng("acc1-jitter").standard_normal(a.shape)
    prior = advance_prior(prior_net)

    beta, n_task = 0.7, 64

    def max_relative_error(x, y, noise_tag):
        # float64 noise: the exact float64 pass that the oracle can check.
        noise = float64_noise(net, 0, 3, make_rng(noise_tag), len(x))
        _, cache = beta_elbo_loss(net, prior, 0, x, y, beta=beta, n_task=n_task, noise=noise)
        g_bp = flatten_grads(backward_gradients(net, prior, cache, y, beta=beta, n_task=n_task))

        p0 = get_param_vector(net, 0)

        def objective(vec):
            set_param_vector(net, 0, vec)
            loss, _ = beta_elbo_loss(net, prior, 0, x, y, beta=beta, n_task=n_task, noise=noise)
            return loss

        g_fd = finite_diff_grad(objective, p0, 1e-5)
        set_param_vector(net, 0, p0)
        rel = np.abs(g_bp - g_fd) / np.maximum(1e-6, np.maximum(np.abs(g_bp), np.abs(g_fd)))
        return float(rel.max())

    x = make_rng("acc1-x").random((2, 10))
    err = max_relative_error(x, np.array([1, 3]), "acc1-noise")
    assert err < 1e-4, f"max relative error {err:.2e}"
    # An all-zero input row has first-layer std 0: no division by it, and
    # no NaN, under every floating-point error raised.
    with np.errstate(all="raise"):
        err = max_relative_error(np.vstack([x, np.zeros(10)]), np.array([1, 3, 0]),
                                 "acc1-zero-row")
    assert err < 1e-4, f"max relative error with an all-zero row {err:.2e}"
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# Criterion 2: KL closed form vs Monte Carlo


def test_criterion_2_kl_oracle():
    start = time.monotonic()
    rng = make_rng("acc2")
    n_draws = 200_000
    for _ in range(50):
        mu1, mu0 = rng.uniform(-2, 2, size=2)
        lv1, lv0 = rng.uniform(-3, 1.5, size=2)
        closed = diag_gaussian_kl(np.array(mu1), np.array(lv1), mu0, lv0)
        w = mu1 + math.exp(0.5 * lv1) * rng.standard_normal(n_draws)
        log_q = -0.5 * (math.log(2 * math.pi) + lv1 + (w - mu1) ** 2 * math.exp(-lv1))
        log_p = -0.5 * (math.log(2 * math.pi) + lv0 + (w - mu0) ** 2 * math.exp(-lv0))
        ratio = log_q - log_p
        mc = float(ratio.mean())
        se = float(ratio.std(ddof=1)) / math.sqrt(n_draws)
        assert abs(closed - mc) < 3 * se, f"closed {closed} vs MC {mc} +- {se}"
    # exactness at q = prior
    mu = rng.standard_normal(40)
    lv = rng.standard_normal(40)
    assert diag_gaussian_kl(mu, lv, mu, lv) == 0.0
    net = init_network(6, [5], make_rng("acc2-net"))
    net.ensure_head(0, 3, make_rng("acc2-head"))
    assert kl_to_prior(net, advance_prior(net), 0) == 0.0
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# Criteria 3-6: desk-scale benchmark replications (need dataset files)


def run_benchmark(tmp_path, experiment, model, trials=TRIALS, seed=MASTER_SEED):
    cfg = ExperimentConfig(experiment=experiment, model=model, trials=trials,
                           master_seed=seed, data_dir=str(DATA_DIR),
                           out_dir=str(tmp_path))
    return read_results_csv(run_experiment(cfg))


def final_stage_averages(rows, n_stages):
    """Per-trial average accuracy at the final stage."""
    by_trial = {}
    for r in rows:
        if r.stage == n_stages:
            by_trial.setdefault(r.trial, []).append(r.accuracy)
    return {trial: float(np.mean(accs)) for trial, accs in sorted(by_trial.items())}


def mean_final(rows, n_stages):
    return float(np.mean(list(final_stage_averages(rows, n_stages).values())))


@requires_mnist
def test_criterion_3_split_mnist_custom(tmp_path):
    auto = run_benchmark(tmp_path, "split_custom", "auto")
    beta1 = run_benchmark(tmp_path, "split_custom", "gvcl:1")
    auto_final = final_stage_averages(auto, 5)
    beta1_final = final_stage_averages(beta1, 5)
    assert np.mean(list(auto_final.values())) >= 0.960
    assert 0.91 <= np.mean(list(beta1_final.values())) <= 0.98
    wins = sum(auto_final[t] >= beta1_final[t] for t in auto_final)
    assert wins >= 4, f"AutoVCL beat beta=1 in only {wins}/5 trials"


@requires_mnist
def test_criterion_4_permuted_mnist(tmp_path):
    auto = run_benchmark(tmp_path, "permuted", "auto")
    low = run_benchmark(tmp_path, "permuted", "gvcl:0.01")
    high = run_benchmark(tmp_path, "permuted", "gvcl:100")
    assert 0.89 <= mean_final(auto, 10) <= 0.93
    assert mean_final(low, 10) < 0.70
    assert 0.65 <= mean_final(high, 10) <= 0.80
    for r in auto:
        assert abs(math.log10(r.beta)) <= 1.5, \
            f"trial {r.trial} stage {r.stage}: log10(beta)={math.log10(r.beta):.2f}"


@requires_mnist
@requires_cifar
def test_criterion_5_mixed_mnist_cifar(tmp_path):
    auto = run_benchmark(tmp_path, "mixed", "auto")
    beta1 = run_benchmark(tmp_path, "mixed", "gvcl:1")
    beta100 = run_benchmark(tmp_path, "mixed", "gvcl:100")
    assert 0.81 <= mean_final(auto, 10) <= 0.89
    assert mean_final(auto, 10) >= mean_final(beta100, 10) >= mean_final(beta1, 10)
    stage1 = [r.accuracy for r in auto if r.stage == 1]
    assert float(np.mean(stage1)) >= 0.998


@requires_mnist
def test_criterion_6_forgetting_pattern(tmp_path):
    # Standard 0/1, 2/3, ... split under vanilla VCL: 0/1 endures, 2/3 fades.
    from vclab.continual import run_sequence
    from vclab.data import STANDARD_SPLIT_PAIRS, load_mnist, make_split_tasks

    mnist = load_mnist(DATA_DIR)
    cfg = TrainConfig(beta_mode="fixed", beta=1.0)
    task01_final, task23_stage2, task23_final = [], [], []
    for trial in range(TRIALS):
        tasks = make_split_tasks(*mnist, STANDARD_SPLIT_PAIRS)
        matrix, _ = run_sequence(tasks, (256, 256), cfg, HeuristicConfig(),
                                 MASTER_SEED + trial)
        _, stage2, *_, final = matrix.rows()
        task01_final.append(final[0])
        task23_stage2.append(stage2[1])
        task23_final.append(final[1])
    assert float(np.mean(task01_final)) >= 0.97
    drop = float(np.mean(task23_stage2)) - float(np.mean(task23_final))
    assert drop >= 0.03, f"2/3 accuracy dropped only {drop:.3f}"


# ---------------------------------------------------------------------------
# Criterion 7: heuristic properties on synthetic data (the CI gate)


def test_criterion_7_heuristic_properties():
    start = time.monotonic()
    cfg = HeuristicConfig()  # full defaults: probe 1000, 10 repeats
    train_cfg = TrainConfig()  # the probes' batch 256, lr 1e-3, 5 and 20 samples
    arch = (64, 64)

    random_label = make_synthetic_blobs(0.0, 0.0, 2048, make_rng("acc7", "rand"))
    d_hard, _ = probe_difficulty(random_label, arch, train_cfg, cfg, seed_from("acc7", 1))
    assert 0.8 <= d_hard <= 1.0, f"random-label blobs scored d={d_hard}"

    separable = make_synthetic_blobs(10.0, 0.0, 2048, make_rng("acc7", "sep"))
    d_easy, _ = probe_difficulty(separable, arch, train_cfg, cfg, seed_from("acc7", 2))
    assert 0.0 <= d_easy <= 0.2, f"separable blobs scored d={d_easy}"

    # similarity against a trained model: exact repeat and label-flipped twin
    base = make_synthetic_blobs(8.0, 0.0, 2048, make_rng("acc7", "base"))
    net = init_network(784, arch, make_rng("acc7", "net"))
    net.ensure_head(0, 2, make_rng("acc7", "head"))
    fit(net, standard_prior(net), 0, base.train, beta=1.0, epochs=10,
        batch_size=256, lr=0.001, mc_samples=5, rng=make_rng("acc7", "fit"))
    repeat = make_synthetic_blobs(8.0, 0.0, 2048, make_rng("acc7", "rep"))
    flipped = make_synthetic_blobs(8.0, math.pi, 2048, make_rng("acc7", "flip"))
    s_repeat, _ = measure_similarity(repeat, net, train_cfg, cfg, seed_from("acc7", 3))
    s_flipped, _ = measure_similarity(flipped, net, train_cfg, cfg, seed_from("acc7", 4))
    assert s_repeat >= 0.8, f"repeat-task similarity {s_repeat}"
    assert s_flipped >= 0.8, f"flipped-twin similarity {s_flipped}"

    # hand-computed beta schedule values
    assert compute_beta([], 0.5, 0.0, cfg) == pytest.approx(1.0, abs=1e-6)
    assert compute_beta([0.4], 0.4, 0.0, cfg) == pytest.approx(1.0, abs=1e-6)
    assert compute_beta([0.2, 0.8], 0.8, 0.0, cfg) == pytest.approx(
        math.exp(5.0 * (0.8 - 0.8 / 2.2)), abs=1e-6)
    assert compute_beta([0.2, 0.8], 0.8, 0.0, cfg) == pytest.approx(8.86, abs=5e-3)
    assert compute_beta([0.1], 0.1, 0.6, cfg) == pytest.approx(math.exp(3.0), abs=1e-6)
    assert compute_beta([0.1], 0.1, 0.6, cfg) == pytest.approx(20.09, abs=5e-3)

    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# Criterion 8: byte-identical reruns


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        cfg = ExperimentConfig(experiment="synthetic", model="auto", trials=1,
                               master_seed=MASTER_SEED, out_dir=str(tmp_path / name))
        outputs.append(run_experiment(cfg).read_bytes())
    assert outputs[0] == outputs[1]
