"""The scripts under scripts/: the seed sweep's self-test at toy sizes, for
the CLI workload and the benchmark's two stand-ins, and the grid script's
checks of its output paths."""

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

# One epoch, one probe repeat, one training and two evaluation draws. With
# 32-row batches a 256-row probe trains for 8 steps and a 64-row one for 2.
TOY = ["--epochs", "1", "--probe-repeats", "1", "--batch-size", "32", "--probe-size", "256",
       "--train-mc-samples", "1", "--eval-mc-samples", "2"]
# Seeds per toy sweep. At 8, the smaller probe's stage-1 d moved 0.21 -> 0.62
# but reached only z = 2.47 of the 2.87 bound; at 16 it reaches 4.55.
TOY_SEEDS = 16


def toy_sweep(workdir, first_seed=0, extra=()):
    return seed_sweep.sweep(ROOT, range(first_seed, first_seed + TOY_SEEDS), [*TOY, *extra],
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
        rows = seed_sweep.compare(base, toy_sweep(tmp_path, extra=["--probe-size", "64"]))
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
        result = seed_sweep.sweep(ROOT, range(2), [], tmp_path, workload, "tiny")
        assert sorted(result) == [0, 1]
        assert list(result[0][2]) == metrics
        rows = seed_sweep.compare(result, result)
        assert all(r["ok"] and r["z"] == 0.0 for r in rows), seed_sweep.format_table(rows)

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
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_benchmarks.py"),
                           "--experiments", "synthetic", "--models", "gvcl:1", "--trials", "1",
                           "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: cannot write "), proc.stderr
    assert "Traceback" not in proc.stderr and "stage 1/" not in proc.stdout + proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["synthetic_summary.csv"]
