"""The scripts under scripts/: the seed sweep's self-test at toy sizes, for
the benchmark's three workloads, and the grid script's checks of its output
paths."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


seed_sweep = load_script("seed_sweep")


def src_env(**extra):
    """The environment plus ``extra``, with this checkout's src/ first on PYTHONPATH."""
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}

# One epoch, one probe repeat, one training and two evaluation draws. With
# 32-row batches a 256-row probe trains for 8 steps and a 64-row one for 2.
TOY = {"epochs": "1", "probe_repeats": "1", "batch_size": "32", "probe_size": "256",
       "train_mc_samples": "1", "eval_mc_samples": "2"}
# Seeds per toy sweep. At 8, the smaller probe's stage-1 d moved 0.21 -> 0.62
# but reached only z = 2.47 of the 2.87 bound; at 16 it reaches 4.55.
TOY_SEEDS = 16


def toy_sweep(workdir, first_seed=0, seeds=TOY_SEEDS, **extra):
    return seed_sweep.sweep(ROOT, range(first_seed, first_seed + seeds), {**TOY, **extra},
                            workdir)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return toy_sweep(tmp_path_factory.mktemp("sweep"))


class TestSeedSweep:
    def test_identical_code_passes(self, base):
        # Identical code writes identical CSV bytes (criterion 8), so both
        # sides read the same numbers; constant metrics have zero spread.
        # Per stage t: avg_acc, acc_1 .. acc_t from stage 2 on, d, s and
        # log_beta.
        rows = seed_sweep.compare(base, base)
        assert len(rows) == 17
        assert all(r["ok"] and r["z"] == 0.0 for r in rows), seed_sweep.format_table(rows)

    def test_same_code_passes_under_disjoint_seeds(self, base, tmp_path):
        rows = seed_sweep.compare(base, toy_sweep(tmp_path, first_seed=8))
        assert all(r["ok"] for r in rows), seed_sweep.format_table(rows)
        assert any(r["z"] != 0.0 for r in rows)

    def test_a_smaller_probe_is_flagged(self, base, tmp_path):
        rows = seed_sweep.compare(base, toy_sweep(tmp_path, probe_size="64"))
        failed = {(r["stage"], r["metric"]) for r in rows if not r["ok"]}
        assert (1, "d") in failed, seed_sweep.format_table(rows)

    def test_a_cell_shift_the_average_hides_is_flagged(self):
        # Stage 2 trades task 1's accuracy for task 2's: the average holds.
        def side(a1, a2):
            return {seed: {2: seed_sweep.stage_metrics([a1 + 0.01 * (seed % 3), a2], 1.0,
                                                        None, None)}
                    for seed in range(8)}

        rows = seed_sweep.compare(side(0.9, 0.7), side(0.7, 0.9))
        assert [(r["metric"], r["ok"]) for r in rows] == [
            ("avg_acc", True), ("acc_1", False), ("acc_2", False), ("log_beta", True)]

    @pytest.mark.parametrize("workload, metrics", [
        ("split-fixed", ["avg_acc", "acc_1", "acc_2", "log_beta"]),
        ("permuted-auto", ["avg_acc", "acc_1", "acc_2", "d", "s", "log_beta"]),
    ])
    def test_a_benchmark_stand_in_passes_against_itself(self, tmp_path, workload, metrics):
        # Two seeds of the benchmark's tiny size; the table needs no more.
        result = seed_sweep.sweep(ROOT, range(2), {}, tmp_path, workload, "tiny")
        assert sorted(result) == [0, 1]
        assert list(result[0][2]) == metrics
        rows = seed_sweep.compare(result, result)
        assert all(r["ok"] and r["z"] == 0.0 for r in rows), seed_sweep.format_table(rows)

    def test_synthetic_auto_is_vclab_run(self, tmp_path):
        # The sweep runs perfbench's synthetic-auto with one trial; its
        # tables are those of the CLI's CSV at the same seed and settings.
        seed = 3
        flags = [arg for key, value in TOY.items() for arg in (f"--{key.replace('_', '-')}", value)]
        subprocess.run([sys.executable, "-m", "vclab.cli", "run", "--experiment", "synthetic",
                        "--model", "auto", "--trials", "1", "--seed", str(seed), *flags,
                        "--out-dir", str(tmp_path)],
                       env=src_env(**seed_sweep.ONE_BLAS_THREAD), check=True, capture_output=True)
        stages = {}
        with open(tmp_path / "synthetic_autovcl.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                stage = stages.setdefault(int(row["stage"]), {
                    "accuracy": [], "beta": float(row["beta"]), "d": float(row["d"]),
                    "s": float(row["s"])})
                stage["accuracy"].append(float(row["accuracy"]))
        cli = {t: seed_sweep.stage_metrics(r["accuracy"], r["beta"], r["d"], r["s"])
               for t, r in sorted(stages.items())}
        assert toy_sweep(tmp_path, first_seed=seed, seeds=1) == {seed: cli}

    @pytest.mark.parametrize("change_stages, message", [
        (3, "change seed 0 has stage 3 avg_acc, unlike base seed 0"),
        (1, "change seed 0 lacks stage 2 avg_acc, unlike base seed 0"),
    ])
    def test_tables_that_do_not_line_up_are_refused(self, monkeypatch, capsys, change_stages,
                                                    message):
        # As when the two checkouts' perfbench/worker.py sizes differ.
        def side(stages):
            return {seed: {t: seed_sweep.stage_metrics([0.9] * t, 1.0, None, None)
                           for t in range(1, stages + 1)}
                    for seed in range(8)}

        with pytest.raises(ValueError, match=message):
            seed_sweep.compare(side(2), side(change_stages))
        tables = iter([side(2), side(change_stages)])
        monkeypatch.setattr(seed_sweep, "sweep", lambda *args: next(tables))
        assert seed_sweep.main([str(ROOT), str(ROOT), "--seeds", "8"]) == 2
        assert capsys.readouterr() == ("", f"seed_sweep: the tables do not line up: {message}\n")

    def test_the_bound_is_bonferroni_corrected(self):
        assert seed_sweep.critical_z(1) == pytest.approx(1.96, abs=5e-3)
        assert seed_sweep.critical_z(12) == pytest.approx(2.87, abs=5e-3)

    def test_fewer_than_eight_seeds_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            seed_sweep.main([str(ROOT), str(ROOT), "--seeds", "7"])
        assert exc.value.code == 2
        assert "--seeds >= 8" in capsys.readouterr().err


def test_grid_onto_a_summary_directory_exits_1_before_training(tmp_path):
    (tmp_path / "synthetic_summary.csv").mkdir()
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_benchmarks.py"),
                           "--experiments", "synthetic", "--models", "gvcl:1", "--trials", "1",
                           "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: cannot write "), proc.stderr
    assert "Traceback" not in proc.stderr and "stage 1/" not in proc.stdout + proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["synthetic_summary.csv"]
