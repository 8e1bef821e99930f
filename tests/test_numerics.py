import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclab.numerics import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, CHUNK, NumericError, adam_step,
                            atomic_write, chunks, finite_diff_grad, make_rng, seed_from)


def zeros2(p):
    """Adam's two moments for ``p``, both zero."""
    return np.zeros_like(p), np.zeros_like(p)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = np.array([1.0, -2.0])
        m, v = zeros2(p)
        adam_step(p, np.zeros(2), m, v, 1, 0.001)
        assert p.tolist() == [1.0, -2.0]
        assert m.tolist() == v.tolist() == [0.0, 0.0]

    def test_first_step_hand_value(self):
        # grad 1 at step 1: m_hat = v_hat = 1, so the update is -lr/(1+eps).
        p = np.array([0.0])
        adam_step(p, np.array([1.0]), *zeros2(p), 1, 0.001)
        assert abs(p[0] + 0.001) < 1e-6

    def test_two_steps_hand_value(self):
        # Constant unit gradient: bias correction keeps each step at ~ -lr.
        p = np.array([0.0])
        m, v = zeros2(p)
        adam_step(p, np.array([1.0]), m, v, 1, 0.001)
        adam_step(p, np.array([1.0]), m, v, 2, 0.001)
        assert abs(p[0] + 0.002) < 1e-5

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_lr_zero_is_identity(self, seed):
        rng = make_rng("adam-lr0", seed)
        p = rng.standard_normal(5)
        before = p.copy()
        adam_step(p, rng.standard_normal(5), *zeros2(p), 1, 0.0)
        assert np.array_equal(p, before)

    @pytest.mark.parametrize("grad, m, t", [
        (np.zeros(4), np.zeros(3), 1),
        (np.zeros(3), np.zeros(4), 1),
        (np.zeros(3), np.zeros(3), 0),
    ], ids=["grad", "moment", "step-zero"])
    def test_shape_mismatch(self, grad, m, t):
        # t = 0 would divide by 1 - b1 ** 0 = 0 in the bias correction.
        with pytest.raises(ValueError):
            adam_step(np.zeros(3), grad, m, np.zeros(3), t, 0.001)

    @pytest.mark.parametrize("p, m", [
        (np.zeros((4, 3)).T, np.zeros((3, 4))),
        (np.zeros((3, 4)), np.zeros((4, 3)).T),
    ], ids=["param", "moment"])
    def test_non_contiguous_param_rejected(self, p, m):
        # A flat view of it would be a copy, and the update would be lost.
        with pytest.raises(ValueError):
            adam_step(p, np.ones(p.shape), m, np.zeros((3, 4)), 1, 0.001)

    def test_chunked_update_equals_whole_array_expressions(self):
        # 80000 elements span three chunks; the update must keep every bit of
        # the textbook whole-array form.
        rng = make_rng("adam-chunks")
        p = rng.standard_normal((2, 40_000))
        state_m, state_v = zeros2(p)
        ref_p, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        for t in range(1, 4):
            g = rng.standard_normal(p.shape)
            adam_step(p, g, state_m, state_v, t, 0.01)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + ((1.0 - b2) * g) * g
            ref_p -= (0.01 * (m / (1.0 - b1 ** t))) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            assert np.array_equal(p, ref_p)
            assert np.array_equal(state_m, m) and np.array_equal(state_v, v)


class TestChunks:
    @pytest.mark.parametrize("n", [0, 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parts_cover_the_range_and_share_one_scratch(self, n, rows, dtype):
        pairs = list(chunks(np.empty(n, dtype), rows))
        covered = [i for part, _ in pairs for i in range(n)[part]]
        assert covered == list(range(n))
        for part, scratch in pairs:
            assert scratch.shape == (rows, len(range(n)[part]))
            assert scratch.dtype == dtype
            assert scratch.base is not None and scratch.base is pairs[0][1].base


class TestAtomicWrite:
    def test_creates_missing_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write("done\n")
        assert path.read_text(encoding="utf-8") == "done\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["out.txt"]

    def test_a_directory_at_the_old_temp_name_blocks_nothing(self, tmp_path):
        path = tmp_path / "out.txt"
        (tmp_path / "out.txt.tmp").mkdir()
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write("done\n")
        assert path.read_text(encoding="utf-8") == "done\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "out.txt.tmp"]
        assert list((tmp_path / "out.txt.tmp").iterdir()) == []

    def test_a_failed_write_removes_only_its_own_temp_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        (tmp_path / "out.bin.tmp").mkdir()
        with pytest.raises(RuntimeError, match="interrupted"):
            with atomic_write(path, "wb") as fh:
                fh.write(b"new")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.bin.tmp"]


class TestGaussianSample:
    def test_same_seed_same_stream(self):
        a = make_rng(42).standard_normal((5, 7))
        b = make_rng(42).standard_normal((5, 7))
        assert np.array_equal(a, b)

    def test_stream_advances(self):
        rng = make_rng(42)
        assert not np.array_equal(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))

    def test_moments_over_ten_seeds(self):
        # 1e6 draws: CLT bounds at ~3 sigma are (+-0.01) for the mean and
        # (0.99, 1.01) for the variance.
        for seed in range(10):
            draws = make_rng("moments", seed).standard_normal((1000, 1000))
            assert -0.01 < draws.mean() < 0.01
            assert 0.99 < draws.var() < 1.01

    def test_seed_from_is_stable(self):
        assert seed_from(1, "probe", 2) == seed_from(1, "probe", 2)
        assert seed_from(1, "probe", 2) != seed_from(1, "probe", 3)
        assert seed_from(12, "x") != seed_from(1, "2x")


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]))
        assert abs(grad[0] - 6.0) < 1e-6

    def test_constant(self):
        grad = finite_diff_grad(lambda v: 4.2, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(grad, np.zeros(3))

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda v: float("nan"), np.array([1.0]))
