import dataclasses

import numpy as np
import pytest

from test_vbnn import with_one_huge_sigma
import vclab.continual as continual
from vclab.continual import AccuracyMatrix, TrainConfig, evaluate, run_sequence, train_on_task
from vclab.data import Dataset, TaskView, make_permuted_tasks, make_synthetic_blobs
from vclab.heuristics import HeuristicConfig, HeuristicTrace
from vclab.numerics import ConfigError, NumericError, make_rng
from vclab.vbnn import (advance_prior, init_network, load_snapshot, posterior_predict,
                        standard_prior)

FAST_TRAIN = TrainConfig(epochs=3, batch_size=128, train_mc_samples=3, eval_mc_samples=5)
FAST_HEUR = HeuristicConfig(probe_size=256, probe_repeats=2)


def blob_task(separation, rotation=0.0, n=640, head_index=0, tag="c"):
    return make_synthetic_blobs(separation, rotation, n, make_rng("cblob", tag),
                                head_index=head_index)


def fresh_net(task, hidden=(32,), seed="net"):
    net = init_network(task.input_dim, hidden, make_rng(seed))
    net.ensure_head(task.head_index, task.n_classes, make_rng(seed, "head"))
    return net


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(beta_mode="sometimes")
        with pytest.raises(ValueError):
            TrainConfig(beta_mode="fixed", beta=0.0)


class TestAccuracyMatrix:
    def test_lower_triangular_occupancy(self):
        m = AccuracyMatrix()
        m.add_stage([0.9])
        m.add_stage([0.8, 0.95])
        assert m.rows() == [[0.9], [0.8, 0.95]]
        with pytest.raises(ValueError):
            m.add_stage([0.1])  # stage 3 needs 3 entries


class TestTrainOnTask:
    def test_learns_separable_blobs(self):
        task = blob_task(8.0, tag="learn")
        net = fresh_net(task)
        train_on_task(net, standard_prior(net), task, 1.0, FAST_TRAIN, make_rng("tr"))
        acc = evaluate(net, task, FAST_TRAIN, make_rng("ev"))
        assert acc > 0.95

    def test_empty_dataset_rejected(self):
        task = blob_task(5.0, tag="empty")
        empty = type(task.train)(images=task.train.images, rows=np.empty(0, dtype=int),
                                 labels=np.empty(0, dtype=int))
        import dataclasses
        task = dataclasses.replace(task, train=empty)
        net = fresh_net(task)
        with pytest.raises(ValueError):
            train_on_task(net, standard_prior(net), task, 1.0, FAST_TRAIN, make_rng("tr"))

    def test_huge_beta_freezes_trunk(self):
        # After one task, beta at the clamp ceiling pins the trunk to the prior.
        first = blob_task(8.0, tag="freeze1", head_index=0)
        second = blob_task(8.0, rotation=1.0, tag="freeze2", head_index=1)
        net = fresh_net(first)
        train_on_task(net, standard_prior(net), first, 1.0, FAST_TRAIN, make_rng("f1"))
        prior = advance_prior(net)
        before = np.concatenate([layer.flat[0] for layer in net.trunk])  # means, weights + biases
        net.ensure_head(1, 2, make_rng("f2h"))
        train_on_task(net, prior, second, 1e3, FAST_TRAIN, make_rng("f2"))
        drift = np.abs(np.concatenate([layer.flat[0] for layer in net.trunk]) - before).max()
        assert drift < 0.01

    def test_inactive_head_bit_stable(self):
        first = blob_task(8.0, tag="stable1", head_index=0)
        second = blob_task(8.0, rotation=2.0, tag="stable2", head_index=1)
        net = fresh_net(first)
        train_on_task(net, standard_prior(net), first, 1.0, FAST_TRAIN, make_rng("s1"))
        head0 = [a.copy() for a in net.heads[0].param_arrays()]
        net.ensure_head(1, 2, make_rng("s2h"))
        train_on_task(net, advance_prior(net), second, 1.0, FAST_TRAIN, make_rng("s2"))
        for before, after in zip(head0, net.heads[0].param_arrays()):
            assert np.array_equal(before, after)


class TestEvaluate:
    @pytest.mark.parametrize("trained", [False, True], ids=["untrained", "trained"])
    def test_labels_independent_of_inputs_score_near_one_half(self, trained):
        # Each of the 160 test inputs appears twice, once per label, so the
        # labels carry nothing about the inputs: whatever a net predicts,
        # half the 320 rows are right. Both copies share one chunk and so
        # one set of weight draws; the bounds leave room for a tie that
        # BLAS rounds apart.
        task = blob_task(6.0, tag="chance")
        rows = np.tile(task.test.rows, 2)
        labels = np.repeat([0, 1], len(task.test))
        task = dataclasses.replace(task, test=dataclasses.replace(task.test, rows=rows,
                                                                  labels=labels))
        net = fresh_net(task)
        if trained:
            train_on_task(net, standard_prior(net), task, 1.0, FAST_TRAIN, make_rng("ct"))
        assert len(task.test) == 320 <= continual.EVAL_CHUNK
        acc = evaluate(net, task, FAST_TRAIN, make_rng("ce"))
        assert 0.4 <= acc <= 0.6

    def test_memorizable_task_is_perfect(self):
        task = blob_task(12.0, n=256, tag="perfect")
        net = fresh_net(task)
        cfg = TrainConfig(epochs=10, batch_size=64, train_mc_samples=3, eval_mc_samples=10)
        train_on_task(net, standard_prior(net), task, 1.0, cfg, make_rng("pe"))
        assert evaluate(net, task, cfg, make_rng("pev")) == 1.0

    def test_deterministic_given_seed(self):
        task = blob_task(4.0, tag="det")
        net = fresh_net(task)
        a = evaluate(net, task, FAST_TRAIN, make_rng("same", 1))
        b = evaluate(net, task, FAST_TRAIN, make_rng("same", 1))
        assert a == b

    def test_split_predicted_chunk_by_chunk(self, monkeypatch):
        # Test splits here are smaller than EVAL_CHUNK; shrink it so the split
        # takes three chunks, the last one short.
        monkeypatch.setattr(continual, "EVAL_CHUNK", 16)
        task = make_synthetic_blobs(4.0, 0.0, 160, make_rng("cblob", "chunks"), n_test=40)
        net = fresh_net(task)
        take, taken = TaskView.take, []

        def counting_take(view, idx):
            taken.append(len(idx))
            return take(view, idx)

        monkeypatch.setattr(TaskView, "take", counting_take)
        acc = evaluate(net, task, FAST_TRAIN, make_rng("chunks", 1))
        assert taken == [16, 16, 8]
        rng, correct = make_rng("chunks", 1), 0
        for start in (0, 16, 32):
            x, y = take(task.test, np.arange(start, min(start + 16, 40)))
            probs = posterior_predict(net, task.head_index, x, rng, FAST_TRAIN.eval_mc_samples)
            correct += int((probs.argmax(axis=1) == y).sum())
        assert acc == correct / 40

    def test_missing_head(self):
        task = blob_task(4.0, head_index=3, tag="miss")
        net = init_network(task.input_dim, (8,), make_rng("m"))
        with pytest.raises(KeyError):
            evaluate(net, task, FAST_TRAIN, make_rng("me"))


def two_tasks():
    return [blob_task(8.0, tag="seq1", head_index=0),
            blob_task(8.0, rotation=0.2, tag="seq2", head_index=1)]


class TestRunSequence:
    def test_single_task_auto_base_case(self):
        tasks = [blob_task(8.0, tag="base")]
        cfg = TrainConfig(epochs=2, batch_size=128, train_mc_samples=2, eval_mc_samples=5,
                          beta_mode="auto")
        matrix, traces = run_sequence(tasks, (16,), cfg, FAST_HEUR, master_seed=5)
        assert len(matrix.rows()) == 1
        assert len(matrix.rows()[0]) == 1
        assert traces[0].beta == 1.0
        assert traces[0].s == 0.0

    def test_deterministic_from_master_seed(self):
        cfg = TrainConfig(epochs=2, batch_size=128, train_mc_samples=2, eval_mc_samples=5)
        m1, t1 = run_sequence(two_tasks(), (16,), cfg, FAST_HEUR, master_seed=9)
        m2, t2 = run_sequence(two_tasks(), (16,), cfg, FAST_HEUR, master_seed=9)
        assert m1.rows() == m2.rows()
        assert [tr.beta for tr in t1] == [tr.beta for tr in t2]

    def test_fixed_beta_one_identical_to_auto_with_beta_one(self, monkeypatch):
        # Vanilla VCL must be the auto code path with beta forced to 1: the
        # training streams are derived independently of probing, so stubbing
        # the assessment to produce beta=1 must reproduce the fixed run bit
        # for bit.
        def fake_assess(task, net, d_history, cfg, heuristic_cfg, master_seed):
            return HeuristicTrace(beta=1.0, d=0.5, s=0.0, delta_d=0.0)

        monkeypatch.setattr(continual, "assess_task", fake_assess)
        fixed_cfg = TrainConfig(epochs=2, batch_size=128, train_mc_samples=2,
                                eval_mc_samples=5, beta_mode="fixed", beta=1.0)
        auto_cfg = TrainConfig(epochs=2, batch_size=128, train_mc_samples=2,
                               eval_mc_samples=5, beta_mode="auto")
        m_fixed, _ = run_sequence(two_tasks(), (16,), fixed_cfg, FAST_HEUR, master_seed=11)
        m_auto, _ = run_sequence(two_tasks(), (16,), auto_cfg, FAST_HEUR, master_seed=11)
        assert m_fixed.rows() == m_auto.rows()

    def test_auto_mode_checks_every_probe_size_before_stage_1(self):
        tasks = [blob_task(6.0, tag="size1"), blob_task(6.0, n=100, head_index=1, tag="size2")]
        heur = HeuristicConfig(probe_size=64, probe_repeats=1)  # needs 128 examples per task
        stages = []
        auto_cfg = TrainConfig(epochs=1, batch_size=128, train_mc_samples=2, eval_mc_samples=5,
                               beta_mode="auto")
        with pytest.raises(ConfigError, match="probe_size 64 needs 128 training examples"):
            run_sequence(tasks, (16,), auto_cfg, heur, master_seed=17,
                         progress=lambda *stage: stages.append(stage))
        assert stages == []
        fixed_cfg = TrainConfig(epochs=1, batch_size=128, train_mc_samples=2, eval_mc_samples=5,
                                beta_mode="fixed", beta=1.0)
        matrix, _ = run_sequence(tasks, (16,), fixed_cfg, heur, master_seed=17)
        assert len(matrix.rows()) == 2

    def test_fixed_mode_skips_probes(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("probe ran in fixed mode")

        monkeypatch.setattr(continual, "assess_task", boom)
        cfg = TrainConfig(epochs=1, batch_size=128, train_mc_samples=2, eval_mc_samples=5,
                          beta_mode="fixed", beta=2.0)
        matrix, traces = run_sequence(two_tasks(), (16,), cfg, FAST_HEUR, master_seed=13)
        assert len(matrix.rows()) == 2
        assert all(tr.beta == 2.0 and tr.d is None for tr in traces)

    def test_snapshots_written_and_loadable(self, tmp_path):
        cfg = TrainConfig(epochs=1, batch_size=128, train_mc_samples=2, eval_mc_samples=5)
        run_sequence(two_tasks(), (16,), cfg, FAST_HEUR, master_seed=17,
                     snapshot_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["stage_01.snap", "stage_02.snap"]
        snap = load_snapshot(tmp_path / "stage_02.snap")
        assert len(snap.trunk) == 1
        assert sorted(snap.heads) == [0, 1]

    def test_each_snapshot_predicts_its_stage_of_the_run(self, tmp_path):
        tasks = [*two_tasks(), blob_task(8.0, rotation=0.4, tag="seq3", head_index=2)]
        cfg = TrainConfig(epochs=1, batch_size=128, train_mc_samples=2, eval_mc_samples=5,
                          beta_mode="fixed", beta=1.0)
        matrix, _ = run_sequence(tasks, (16,), cfg, FAST_HEUR, master_seed=23,
                                 snapshot_dir=tmp_path)
        for t, row in enumerate(matrix.rows(), start=1):
            snap = load_snapshot(tmp_path / f"stage_{t:02d}.snap")
            assert [evaluate(snap, tasks[i], cfg, make_rng(23, "eval", t, i))
                    for i in range(t)] == row

    def test_tasks_sharing_a_head_must_share_its_arity(self, monkeypatch):
        # A 2-class blob task then a 10-class permuted task, both on head 0.
        rng = make_rng("arity")
        ten_class = [Dataset(images=rng.random((n, 784)), labels=np.arange(n) % 10, split=split)
                     for n, split in ((60, "train"), (20, "test"))]
        tasks = [blob_task(8.0, tag="arity"), *make_permuted_tasks(*ten_class, 1, rng)]
        trained = []
        monkeypatch.setattr(continual, "train_on_task", lambda *a: trained.append(a))
        with pytest.raises(ConfigError, match="'permuted-0' has 10 classes, but head 0 is "
                                              "shared with a 2-class task"):
            run_sequence(tasks, (16,), FAST_TRAIN, FAST_HEUR, master_seed=19)
        assert trained == []

    @pytest.mark.parametrize("defect, match", [
        ("snapshot-dir-under-a-file", "afile is not a directory"),
        ("empty-train", "task 'blobs-sep8-rot0.2' has an empty train split"),
        ("empty-test", "task 'blobs-sep8-rot0.2' has an empty test split"),
    ], ids=["snapshot-dir-under-a-file", "empty-train", "empty-test"])
    def test_bad_input_is_a_config_error_before_stage_1(self, tmp_path, defect, match):
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        tasks = two_tasks()
        if defect.startswith("empty-"):
            split = defect.removeprefix("empty-")
            empty = getattr(tasks[1], split).subset(np.arange(0))
            tasks[1] = dataclasses.replace(tasks[1], **{split: empty})
        snapshot_dir = tmp_path / ("afile/snaps" if defect.startswith("snapshot") else "snaps")
        cfg = TrainConfig(epochs=1, batch_size=128, train_mc_samples=2, eval_mc_samples=5,
                          beta_mode="fixed", beta=1.0)
        stages = []
        with pytest.raises(ConfigError, match=match):
            run_sequence(tasks, (16,), cfg, FAST_HEUR, master_seed=17,
                         snapshot_dir=snapshot_dir, progress=lambda *a: stages.append(a))
        assert stages == []
        assert not list(tmp_path.rglob("*.snap"))

    def test_a_sigma_beyond_float32_is_a_numeric_error(self, monkeypatch):
        init = continual.init_network
        monkeypatch.setattr(continual, "init_network",
                            lambda *args: with_one_huge_sigma(init(*args)))
        cfg = TrainConfig(epochs=1, batch_size=128, train_mc_samples=2, eval_mc_samples=5,
                          beta_mode="fixed", beta=1.0)
        with pytest.raises(NumericError, match="^stage 1: overflow encountered in cast "
                                               "during training$"):
            run_sequence(two_tasks(), (16,), cfg, FAST_HEUR, master_seed=18)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            run_sequence([], (16,), FAST_TRAIN, FAST_HEUR, master_seed=1)
