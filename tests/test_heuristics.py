import dataclasses
import itertools
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spare_core
import vclab.heuristics as heuristics
import vclab.vbnn as vbnn
from vclab.continual import TrainConfig, run_sequence
from vclab.data import make_synthetic_blobs
from vclab.heuristics import (BETA_MAX, BETA_MIN, HeuristicConfig, HeuristicTrace,
                              assess_task, average_difficulty_gap, compute_beta,
                              difficulty_from_accuracy, measure_similarity, norm_unit,
                              probe_difficulty)
from vclab.numerics import NumericError, make_rng, seed_from
from vclab.vbnn import fit, init_network, posterior_predict, standard_prior

# Small probe budget for unit tests; acceptance re-runs the defaults.
FAST = HeuristicConfig(probe_size=256, probe_repeats=4)
FAST_TRAIN = TrainConfig(batch_size=64)


def blob_task(separation, rotation=0.0, n=640, tag="t"):
    return make_synthetic_blobs(separation, rotation, n, make_rng("hblob", tag))


class TestNormUnit:
    def test_anchors(self):
        assert norm_unit(0.0, 0.5) == 0.0
        assert norm_unit(0.5, 0.5) == 1.0
        assert norm_unit(0.9, 0.5) == 1.0  # clamped above
        assert norm_unit(-0.1, 0.5) == 0.0  # clamped below

    def test_midpoint(self):
        assert norm_unit(0.25, 0.5) == pytest.approx(0.5)

    def test_bad_hi(self):
        with pytest.raises(ValueError):
            norm_unit(0.1, 0.0)

    @given(st.floats(0, 1), st.floats(0.01, 1))
    @settings(max_examples=50, deadline=None)
    def test_range(self, x, hi):
        assert 0.0 <= norm_unit(x, hi) <= 1.0


class TestDifficultyGap:
    def test_examples(self):
        assert average_difficulty_gap([]) == 0.0
        assert average_difficulty_gap([0.3]) == 0.0
        assert average_difficulty_gap([0.2, 0.8]) == pytest.approx(0.6)
        assert average_difficulty_gap([0.2, 0.8, 0.2]) == pytest.approx(0.6)


class TestDifficultyFromAccuracy:
    def test_formula_arithmetic(self):
        # chance 0.5, mean accuracy 0.9: improvement 0.8
        assert difficulty_from_accuracy(0.9, 0.5) == pytest.approx(0.2)
        # ten classes, mean accuracy 0.55: improvement 0.5
        assert difficulty_from_accuracy(0.55, 0.1) == pytest.approx(0.5)

    def test_clamped(self):
        assert difficulty_from_accuracy(0.3, 0.5) == 1.0  # below chance
        assert difficulty_from_accuracy(1.0, 0.5) == 0.0


class TestComputeBeta:
    CFG = HeuristicConfig()

    def test_first_task(self):
        assert compute_beta([], 0.7, 0.0, self.CFG) == 1.0

    def test_equal_difficulty_keeps_beta_one(self):
        assert compute_beta([0.4], 0.4, 0.0, self.CFG) == pytest.approx(1.0, abs=1e-6)

    def test_damping_hand_value(self):
        # delta_d = 0.6, denominator 1 + 0.6*2 = 2.2
        expected = math.exp(5.0 * (0.8 - 0.8 / 2.2))
        beta = compute_beta([0.2, 0.8], 0.8, 0.0, self.CFG)
        assert beta == pytest.approx(expected, abs=1e-6)
        assert beta == pytest.approx(8.86, abs=5e-3)

    def test_similarity_raises_beta_hand_value(self):
        beta = compute_beta([0.1], 0.1, 0.6, self.CFG)
        assert beta == pytest.approx(math.exp(3.0), abs=1e-6)
        assert beta == pytest.approx(20.09, abs=5e-3)

    def test_clamped_to_safe_range(self):
        assert compute_beta([1.0], 0.0, 1.0, self.CFG) == BETA_MAX
        assert compute_beta([0.0], 1.0, 0.0, HeuristicConfig(lam=50.0)) == BETA_MIN

    def test_large_lam_clamps_without_overflow(self):
        for lam in (1000.0, 1e308):
            assert compute_beta([0.5], 0.0, 0.9, HeuristicConfig(lam=lam)) == BETA_MAX

    @given(st.floats(0.2, 0.8), st.floats(0.2, 0.8), st.floats(0.05, 0.3))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_difficulty_and_similarity(self, d, s, step):
        cfg = HeuristicConfig(lam=1.0)  # keeps the exponent inside the clamp
        hist = [0.5, 0.6]
        lo_d = compute_beta(hist, min(d + step, 1.0), s, cfg)
        hi_d = compute_beta(hist, d, s, cfg)
        assert hi_d > lo_d  # harder task, smaller beta
        lo_s = compute_beta(hist, d, s, cfg)
        hi_s = compute_beta(hist, d, min(s + step, 1.0), cfg)
        assert hi_s > lo_s  # more similar task, larger beta


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            HeuristicConfig(lam=0.0)
        with pytest.raises(ValueError):
            HeuristicConfig(probe_size=0)
        with pytest.raises(ValueError):
            HeuristicConfig(probe_repeats=0)


class TestProbeDifficulty:
    def test_unlearnable_task_scores_hard(self):
        d, accs = probe_difficulty(blob_task(0.0, tag="hard"), (64,), FAST_TRAIN, FAST,
                                   seed_from(1))
        assert 0.8 <= d <= 1.0
        assert abs(np.mean(accs) - 0.5) < 0.15

    def test_separable_task_scores_easy(self):
        d, accs = probe_difficulty(blob_task(10.0, tag="easy"), (64,), FAST_TRAIN, FAST,
                                   seed_from(2))
        assert 0.0 <= d <= 0.2
        assert np.mean(accs) > 0.9

    def test_bit_reproducible(self):
        task = blob_task(5.0, tag="repro")
        a = probe_difficulty(task, (16,), FAST_TRAIN, FAST, seed_from(4))
        b = probe_difficulty(task, (16,), FAST_TRAIN, FAST, seed_from(4))
        assert a == b

    def test_too_little_data(self):
        with pytest.raises(ValueError):
            probe_difficulty(blob_task(5.0, n=300, tag="small"), (16,), FAST_TRAIN, FAST,
                             seed_from(5))


def serial_probe_difficulty(task, hidden_dims, cfg, heuristic_cfg, seed, record):
    """The probe loop with each repeat scored right after its fit, on this
    thread; ``record(probs)`` sees each repeat's predictions."""
    accuracies = []
    for repeat in range(heuristic_cfg.probe_repeats):
        rng = make_rng(seed, "probe", repeat)
        train_idx, eval_idx = heuristics._subset_indices(len(task.train),
                                                         heuristic_cfg.probe_size, rng, 2)
        net = init_network(task.input_dim, hidden_dims, rng)
        net.ensure_head(0, task.n_classes, rng)
        fit(net, standard_prior(net), 0, task.train.subset(train_idx), beta=1.0,
            epochs=heuristics.PROBE_EPOCHS, batch_size=cfg.batch_size, lr=cfg.lr,
            mc_samples=cfg.train_mc_samples, rng=rng)
        x_eval, y_eval = task.train.take(eval_idx)
        probs = posterior_predict(net, 0, x_eval, rng, cfg.eval_mc_samples)
        record(probs)
        accuracies.append(float((probs.argmax(axis=1) == y_eval).mean()))
    return difficulty_from_accuracy(float(np.mean(accuracies)), task.chance_accuracy), accuracies


def wrap_probe_calls(monkeypatch, before_fit=None, before_predict=None, after_predict=None):
    """Route ``heuristics.fit`` and ``heuristics.posterior_predict`` through
    the given hooks; each gets the call's index, counted from 0."""
    real_fit, real_predict = heuristics.fit, heuristics.posterior_predict
    fits, predicts = itertools.count(), itertools.count()

    def hooked_fit(*args, **kwargs):
        if before_fit:
            before_fit(next(fits))
        return real_fit(*args, **kwargs)

    def hooked_predict(*args):
        call = next(predicts)
        if before_predict:
            before_predict(call)
        probs = real_predict(*args)
        if after_predict:
            after_predict(call, probs)
        return probs

    monkeypatch.setattr(heuristics, "fit", hooked_fit)
    monkeypatch.setattr(heuristics, "posterior_predict", hooked_predict)


def pipeline_task():
    """Overlapping blobs, so the probe repeats score differently."""
    return blob_task(1.5, tag="pipeline")


def probe_threads():
    return [t for t in threading.enumerate() if t.name.startswith("vclab-probe")]


class TestPipelinedProbes:
    """Repeat r is scored on the probe scorer while repeat r + 1 trains."""

    CFG = HeuristicConfig(probe_size=256, probe_repeats=4)

    def test_same_bits_as_a_serial_loop_with_the_spare_core_free_or_taken(self, monkeypatch):
        task, seed = pipeline_task(), seed_from(12)
        reference = []
        expected = serial_probe_difficulty(task, (16,), FAST_TRAIN, self.CFG, seed,
                                           lambda p: reference.append(p.tobytes()))
        assert len(set(expected[1])) > 1  # the repeats differ, so order matters
        seen = []
        wrap_probe_calls(monkeypatch, after_predict=lambda call, probs: seen.append(
            (threading.current_thread().name, probs.tobytes())))
        free = probe_difficulty(task, (16,), FAST_TRAIN, self.CFG, seed)
        assert not vbnn.SPARE_CORE.locked() and not probe_threads()
        assert seen == [("vclab-probe_0", p) for p in reference]
        seen.clear()
        with spare_core("taken"):
            taken = probe_difficulty(task, (16,), FAST_TRAIN, self.CFG, seed)
        assert seen == [(threading.current_thread().name, p) for p in reference]
        assert free == taken == expected

    def test_at_most_one_scored_probe_is_pending(self, monkeypatch):
        # A slow scorer would let a pipeline that never joins train ahead.
        lock, trained, scored, overlapped = threading.Lock(), [0], [0], []

        def before_fit(call):
            with lock:
                assert trained[0] - scored[0] <= 1
                overlapped.append(trained[0] > scored[0])
                trained[0] += 1

        def before_predict(call):
            with lock:
                assert trained[0] - scored[0] in (1, 2)
            time.sleep(0.05)

        def after_predict(call, probs):
            with lock:
                scored[0] += 1

        # ``trained`` counts fits begun, so while repeat r + 1 trains, repeat
        # r's score is the one pending.
        wrap_probe_calls(monkeypatch, before_fit, before_predict, after_predict)
        probe_difficulty(pipeline_task(), (16,), FAST_TRAIN, self.CFG, seed_from(13))
        assert trained[0] == scored[0] == self.CFG.probe_repeats
        assert any(overlapped)  # some repeat trained while another was scored

    def test_a_scoring_overflow_is_a_numeric_error_during_assessment(self, monkeypatch):
        # The scorer starts under the caller's error state, so the overflow
        # raises there and surfaces from the run as the stage's error.
        threads = []

        def overflow(call):
            threads.append(threading.current_thread().name)
            np.exp(np.float32(100.0))

        wrap_probe_calls(monkeypatch, before_predict=overflow)
        cfg = dataclasses.replace(FAST_TRAIN, epochs=1, eval_mc_samples=5, beta_mode="auto")
        with pytest.raises(NumericError, match="^stage 1: overflow encountered in exp "
                                               "during assessment$"):
            run_sequence([pipeline_task()], (16,), cfg, self.CFG, master_seed=14)
        assert threads == ["vclab-probe_0"] and not probe_threads()

    @pytest.mark.parametrize("core", ["free", "taken"])
    @pytest.mark.parametrize("score_fails", [False, True], ids=["fit-error", "score-error"])
    def test_a_fit_error_while_a_probe_is_scored_leaves_no_probe_thread(self, monkeypatch,
                                                                        score_fails, core):
        # Repeat 1's fit fails while repeat 0 is scored on the worker, or,
        # with the spare core taken, before repeat 0 is scored here at its
        # join. A failing score came first in a serial loop, so its error wins.
        scoring = threading.Event()

        def before_fit(call):
            if call == 1:
                if core == "free":
                    assert scoring.wait(30)
                else:
                    assert not scoring.is_set()
                raise RuntimeError("fit failed")

        def before_predict(call):
            scoring.set()
            time.sleep(0.05)
            if score_fails:
                raise RuntimeError("score failed")

        wrap_probe_calls(monkeypatch, before_fit, before_predict)
        with spare_core(core), pytest.raises(
                RuntimeError, match="score failed" if score_fails else "fit failed"):
            probe_difficulty(pipeline_task(), (16,), FAST_TRAIN, self.CFG, seed_from(15))
        assert scoring.is_set() and not probe_threads() and not vbnn.SPARE_CORE.locked()


def train_blob_net(task, hidden=(64,), epochs=5, seed="sim"):
    net = init_network(784, hidden, make_rng(seed, "net"))
    net.ensure_head(task.head_index, 2, make_rng(seed, "head"))
    fit(net, standard_prior(net), task.head_index, task.train, beta=1.0,
        epochs=epochs, batch_size=128, lr=0.001, mc_samples=3, rng=make_rng(seed, "fit"))
    return net


class TestMeasureSimilarity:
    def test_first_task_is_zero(self):
        net = init_network(784, (16,), make_rng("empty"))
        s, a_star = measure_similarity(blob_task(5.0), net, FAST_TRAIN, FAST, seed_from(6))
        assert s == 0.0 and a_star is None

    def test_untrained_head_near_zero(self):
        net = init_network(784, (16,), make_rng("raw"))
        net.ensure_head(0, 2, make_rng("rawhead"))
        s, a_star = measure_similarity(blob_task(5.0, tag="u"), net, FAST_TRAIN, FAST,
                                       seed_from(7))
        assert s <= 0.1
        assert abs(a_star - 0.5) <= 0.05

    def test_repeat_task_scores_high(self):
        trained = train_blob_net(blob_task(8.0, tag="m1"))
        repeat = blob_task(8.0, tag="m2")
        s, a_star = measure_similarity(repeat, trained, FAST_TRAIN, FAST, seed_from(8))
        assert s >= 0.8
        assert a_star > 0.9

    def test_flipped_labels_score_high(self):
        trained = train_blob_net(blob_task(8.0, tag="m3"))
        flipped = blob_task(8.0, rotation=math.pi, tag="m4")
        s, a_star = measure_similarity(flipped, trained, FAST_TRAIN, FAST, seed_from(9))
        assert s >= 0.8
        assert a_star < 0.1  # anti-correlated predictions

    def test_picks_most_informative_head(self):
        task = blob_task(8.0, tag="pick")
        net = train_blob_net(task)
        net.ensure_head(1, 2, make_rng("blank"))  # uninformative second head
        s_multi, a_star = measure_similarity(task, net, FAST_TRAIN, FAST, seed_from(10))
        assert a_star > 0.9  # chose the trained head, not the blank one

    def test_arity_mismatch_ignored(self):
        net = init_network(784, (16,), make_rng("arity"))
        net.ensure_head(0, 10, make_rng("arityhead"))  # 10-way head
        s, a_star = measure_similarity(blob_task(5.0, tag="a"), net, FAST_TRAIN, FAST,
                                       seed_from(11))
        assert s == 0.0 and a_star is None


class TestAssessTask:
    def test_trace_keeps_only_what_the_assessment_measured(self):
        # The stage is the trace's place in the list, chance is the task's.
        assert [f.name for f in dataclasses.fields(HeuristicTrace)] == [
            "beta", "d", "s", "delta_d", "raw_accuracies", "a_star"]

    def test_trace_is_consistent(self):
        task = blob_task(6.0, tag="assess")
        net = train_blob_net(blob_task(6.0, tag="assess-prev"))
        trace = assess_task(task, net, [0.3], FAST_TRAIN, FAST, master_seed=99)
        assert 0.0 <= trace.d <= 1.0 and 0.0 <= trace.s <= 1.0
        assert trace.delta_d == 0.0
        assert trace.beta == pytest.approx(
            compute_beta([0.3], trace.d, trace.s, FAST), rel=1e-12)
        assert len(trace.raw_accuracies) == FAST.probe_repeats

    def test_probes_train_and_score_with_the_run_settings(self, monkeypatch):
        fits, predicts = [], []
        real_predict = heuristics.posterior_predict

        def recording_fit(net, *args, **kwargs):
            fits.append({**kwargs, "widths": [layer.fan_out for layer in net.trunk]})
            return fit(net, *args, **kwargs)

        def recording_predict(net, head_index, x, rng, n_samples):
            predicts.append(n_samples)
            return real_predict(net, head_index, x, rng, n_samples)

        monkeypatch.setattr(heuristics, "fit", recording_fit)
        monkeypatch.setattr(heuristics, "posterior_predict", recording_predict)
        cfg = TrainConfig(batch_size=64, lr=0.002, train_mc_samples=3, eval_mc_samples=7)
        net = init_network(784, (16,), make_rng("run-settings"))
        net.ensure_head(0, 2, make_rng("run-settings", "head"))
        assess_task(blob_task(6.0, tag="run-settings"), net, [0.3], cfg,
                    HeuristicConfig(probe_size=256, probe_repeats=2), master_seed=5)
        # The probe networks take their hidden widths from the run's trunk.
        assert [(f["epochs"], f["batch_size"], f["lr"], f["mc_samples"], f["widths"])
                for f in fits] == [(1, 64, 0.002, 3, [16])] * 2
        assert predicts == [7] * 3  # two probe evaluations, then the one matching head
