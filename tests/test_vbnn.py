import dataclasses
import errno
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclab import vbnn
from vclab.data import TaskView
from vclab.numerics import CHUNK, NumericError, adam_step, finite_diff_grad, make_rng
from vclab.vbnn import (INIT_LOGVAR, advance_prior, backward_gradients,
                        beta_elbo_loss, diag_gaussian_kl, fit, forward_with_noise,
                        init_network, kl_to_prior, load_snapshot, posterior_predict,
                        sample_noise, save_snapshot)


def random_net(seed, input_dim=4, hidden=(3,), out=2, heads=(0,), jitter=0.0):
    rng = make_rng("net", seed)
    net = init_network(input_dim, hidden, rng)
    for h in heads:
        net.ensure_head(h, out, rng)
    if jitter:
        for layer in [*net.trunk, *net.heads.values()]:
            for a in layer.param_arrays():
                a += jitter * rng.standard_normal(a.shape)
    return net


def wide_net(seed, jitter=0.0):
    """A 784-64-2 net: its first layer's (2, n) buffer has 50240 entries per
    row, more than ``numerics.CHUNK``."""
    return random_net(seed, input_dim=784, hidden=(64,), out=2, jitter=jitter)


# exp(180 / 2) is about 1.2e39: finite in float64, beyond float32's 3.4e38.
HUGE_LOGVAR = 180.0


def with_one_huge_sigma(net):
    """``net`` with its first weight's log-variance at ``HUGE_LOGVAR``."""
    net.trunk[0].logvar_w[0, 0] = HUGE_LOGVAR
    return net


def whole_view(x, y):
    """A view of every row of ``x``, in order, for :func:`fit`."""
    return TaskView(images=x, rows=np.arange(len(x)), labels=np.asarray(y))


def get_param_vector(net: vbnn.VariationalNet, head_index: int) -> np.ndarray:
    """All trainable parameters as one flat vector, layer by layer, each
    layer's ``flat`` buffer in row-major order."""
    return np.concatenate([layer.flat.ravel() for layer in net.active_layers(head_index)])


def set_param_vector(net: vbnn.VariationalNet, head_index: int, vec: np.ndarray) -> None:
    """Inverse of :func:`get_param_vector`."""
    pos = 0
    for layer in net.active_layers(head_index):
        layer.flat[...] = vec[pos:pos + layer.flat.size].reshape(layer.flat.shape)
        pos += layer.flat.size
    if pos != vec.size:
        raise ValueError(f"vector has {vec.size} entries, net expects {pos}")


def flatten_grads(grads: list[vbnn.VariationalLayer]) -> np.ndarray:
    return np.concatenate([g.flat.ravel() for g in grads])


def zero_noise(net, head_index, batch_size):
    """One all-zero noise sample: the forward pass collapses to the mean network."""
    return [(np.zeros((1, batch_size if li == 0 else layer.fan_in, layer.fan_out)),
             np.zeros((1, layer.fan_out)))
            for li, layer in enumerate(net.active_layers(head_index))]


def float64_noise(net, head_index, n_samples, rng, batch_size):
    """:func:`sample_noise` cast to float64, for the exact float64 pass."""
    return [(eps_w.astype(np.float64), eps_b.astype(np.float64))
            for eps_w, eps_b in sample_noise(net, head_index, n_samples, rng, batch_size)]


def stacked_pre_activations(net, head_index, x, noise):
    """Every layer's (S, B, O) pre-activations, with the input, means and
    sigmas cast to the noise's dtype: the first layer's as std * eps_w +
    mean + b from its moments, each later layer's from stacked (S, I, O)
    weights."""
    dtype = noise[0][0].dtype
    x = x.astype(dtype)
    first, *later = net.active_layers(head_index)
    (eps_w, eps_b), *later_noise = noise
    mean = x @ first.mu_w.astype(dtype)
    std = np.sqrt(np.square(x) @ np.exp(first.logvar_w).astype(dtype))
    b = np.exp(0.5 * first.logvar_b).astype(dtype) * eps_b + first.mu_b.astype(dtype)
    pre = [std * eps_w + mean + b[:, None, :]]
    for layer, (eps_w, eps_b) in zip(later, later_noise):
        w = np.exp(0.5 * layer.logvar_w).astype(dtype) * eps_w
        w += layer.mu_w.astype(dtype)
        b = np.exp(0.5 * layer.logvar_b).astype(dtype) * eps_b
        b += layer.mu_b.astype(dtype)
        pre.append(np.maximum(pre[-1], 0.0) @ w + b[:, None, :])
    return pre


class TestInit:
    def test_split_architecture_shapes(self):
        net = init_network(784, [256, 256], make_rng(0))
        assert [(l.fan_in, l.fan_out) for l in net.trunk] == [(784, 256), (256, 256)]
        assert net.heads == {}
        head = net.ensure_head(0, 2, make_rng(1))
        assert (head.fan_in, head.fan_out) == (256, 2)

    def test_permuted_architecture_shapes(self):
        net = init_network(784, [100, 100], make_rng(0))
        assert [(l.fan_in, l.fan_out) for l in net.trunk] == [(784, 100), (100, 100)]
        assert net.ensure_head(0, 10, make_rng(1)).fan_out == 10

    def test_initial_variance_constant(self):
        net = random_net(3, heads=(0, 1))
        for layer in [*net.trunk, *net.heads.values()]:
            assert np.all(layer.logvar_w == INIT_LOGVAR)
            assert np.all(layer.logvar_b == INIT_LOGVAR)
            assert np.allclose(np.exp(layer.logvar_w), math.exp(-6.0))

    def test_layer_views_share_one_flat_buffer(self):
        layer = random_net(4, input_dim=3, hidden=(2,)).trunk[0]
        assert layer.flat.shape == (2, (3 + 1) * 2) and layer.flat.flags.c_contiguous
        layer.flat[...] = np.arange(16.0).reshape(2, 8)
        assert layer.mu_w.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert layer.mu_b.tolist() == [6.0, 7.0]
        assert layer.logvar_w.tolist() == [[8.0, 9.0], [10.0, 11.0], [12.0, 13.0]]
        assert layer.logvar_b.tolist() == [14.0, 15.0]
        layer.logvar_b[1] = -1.0
        assert layer.flat[1, 7] == -1.0
        with pytest.raises(ValueError):
            vbnn.VariationalLayer(np.zeros((2, 9)), 3, 2)
        with pytest.raises(ValueError):
            vbnn.VariationalLayer(np.zeros((8, 2)).T, 3, 2)  # right shape, not C-contiguous

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            init_network(0, [4], make_rng(0))
        with pytest.raises(ValueError):
            init_network(4, [0], make_rng(0))

    def test_head_width_is_the_last_trunk_width_and_needs_an_output(self):
        assert random_net(0, hidden=(3, 5)).heads[0].fan_in == 5
        net = init_network(4, [], make_rng(0))
        assert net.ensure_head(0, 3, make_rng(1)).fan_in == 4
        with pytest.raises(ValueError):
            net.ensure_head(1, 0, make_rng(1))

    def test_existing_head_keeps_its_arity(self):
        net = random_net(0, out=2)
        head = net.heads[0]
        assert net.ensure_head(0, 2, make_rng(1)) is head
        with pytest.raises(ValueError, match="head 0 has 2 outputs, not 10"):
            net.ensure_head(0, 10, make_rng(1))
        assert net.heads[0] is head

    def test_missing_head_lookup(self):
        with pytest.raises(KeyError):
            random_net(0).head(5)


class TestForward:
    def test_zero_noise_equals_mean_network(self):
        net = random_net(7, input_dim=5, hidden=(4, 3), out=2)
        x = make_rng("fx").random((6, 5))
        cache = forward_with_noise(net, 0, x, zero_noise(net, 0, 6))
        # independent recomputation with plain numpy
        act = x
        for layer in net.trunk:
            act = np.maximum(act @ layer.mu_w + layer.mu_b, 0.0)
        head = net.heads[0]
        expected = act @ head.mu_w + head.mu_b
        np.testing.assert_allclose(cache.logits[0], expected, atol=1e-12)

    def test_hand_computed_2_2_2(self):
        net = init_network(2, [2], make_rng(0))
        net.ensure_head(0, 2, make_rng(0))
        net.trunk[0].mu_w[...] = [[1.0, -1.0], [0.5, 2.0]]
        net.trunk[0].mu_b[...] = [0.1, -0.2]
        net.heads[0].mu_w[...] = [[1.0, 0.0], [-1.0, 1.0]]
        net.heads[0].mu_b[...] = [0.0, 0.5]
        cache = forward_with_noise(net, 0, np.array([[1.0, 2.0]]), zero_noise(net, 0, 1))
        # hidden = relu([2.1, 2.8]); logits = [2.1 - 2.8, 2.8 + 0.5]
        np.testing.assert_allclose(cache.logits[0, 0], [-0.7, 3.3], atol=1e-12)

    def test_same_seed_bit_identical(self):
        net = random_net(9)
        x = make_rng("fi").random((3, 4))
        a = forward_with_noise(net, 0, x, sample_noise(net, 0, 2, make_rng(55), 3)).logits
        b = forward_with_noise(net, 0, x, sample_noise(net, 0, 2, make_rng(55), 3)).logits
        assert np.array_equal(a, b)

    def test_sample_mean_of_weight_approaches_mu(self):
        # 1-1-1: with input 1 and a zero-variance zero bias the first
        # layer's pre-activations are drawn as its weights would be; the
        # head keeps its weight draws in the cache.
        net = init_network(1, [1], make_rng(0))
        net.ensure_head(0, 1, make_rng(0))
        for layer in net.active_layers(0):
            layer.mu_w[...] = 0.3
            layer.logvar_w[...] = -2.0  # sigma = e^-1
            layer.mu_b[...] = 0.0
            layer.logvar_b[...] = -np.inf
        noise = sample_noise(net, 0, 10_000, make_rng("mean"), 1)
        cache = forward_with_noise(net, 0, np.ones((1, 1)), noise)
        assert len(cache.weights) == 1
        se = math.exp(-1.0) / math.sqrt(10_000)
        for draws in (cache.pre[0][:, 0, 0], cache.weights[0][0][:, 0, 0]):
            assert abs(draws.mean() - 0.3) < 4 * se

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_computes_in_the_noise_dtype(self, dtype):
        net = random_net(11, input_dim=5, hidden=(4, 3), out=2, jitter=0.3)
        noise = [(w.astype(dtype), b.astype(dtype)) for w, b in
                 sample_noise(net, 0, 3, make_rng("dt"), 6)]
        cache = forward_with_noise(net, 0, make_rng("dtx").random((6, 5)), noise)
        assert cache.logits.dtype == dtype
        assert {a.dtype for a in [cache.x, *cache.pre]} == {np.dtype(dtype)}

    def test_fit_and_predict_draw_float32_noise(self):
        assert vbnn.NOISE_DTYPE == np.float32
        noise = sample_noise(random_net(12), 0, 2, make_rng("nd"), 5)
        assert {a.dtype for pair in noise for a in pair} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("n_samples", [1, 5])
    def test_streamed_first_layer_equals_stacked_reference(self, n_samples):
        net = random_net(10, input_dim=40, hidden=(24, 16), out=3, jitter=0.3)
        rng = make_rng("fs-logvar")
        for layer in net.active_layers(0):
            layer.logvar_w[...] = -2.0 + rng.standard_normal(layer.logvar_w.shape)
            layer.logvar_b[...] = -2.0 + rng.standard_normal(layer.logvar_b.shape)
        x = make_rng("fs").random((17, 40))
        noise = sample_noise(net, 0, n_samples, make_rng(12), 17)
        assert [w.shape for w, _ in noise] == [(n_samples, 17, 24), (n_samples, 24, 16),
                                               (n_samples, 16, 3)]
        cache = forward_with_noise(net, 0, x, noise)
        reference = stacked_pre_activations(net, 0, x, noise)
        assert len(cache.pre) == len(reference) == 3
        for got, want in zip(cache.pre, reference):
            assert np.array_equal(got, want)
        assert [w.shape for w, _ in cache.weights] == [(n_samples, 24, 16), (n_samples, 16, 3)]

    def test_first_layer_noise_must_fit_the_batch(self):
        net = random_net(13)
        with pytest.raises(ValueError, match="does not fit a batch of 3 rows"):
            forward_with_noise(net, 0, np.zeros((3, 4)), sample_noise(net, 0, 2, make_rng(1), 2))

    def test_missing_head(self):
        net = random_net(1)
        with pytest.raises(KeyError):
            forward_with_noise(net, 3, np.zeros((1, 4)), zero_noise(net, 0, 1))

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            posterior_predict(random_net(1), 0, np.zeros((1, 4)), make_rng(0), 0)


class TestKl:
    def test_identical_distributions_exact_zero(self):
        net = random_net(11, jitter=0.2)
        assert kl_to_prior(net, advance_prior(net), 0) == 0.0

    def test_scalar_hand_values(self):
        # KL(N(1,1) || N(0,1)) = 1/2
        assert diag_gaussian_kl(np.array(1.0), np.array(0.0), 0.0, 0.0) == pytest.approx(0.5)
        # KL(N(0,4) || N(0,1)) = (-ln4 + 4 - 1)/2
        expected = 0.5 * (-math.log(4.0) + 4.0 - 1.0)
        got = diag_gaussian_kl(np.array(0.0), np.array(math.log(4.0)), 0.0, 0.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.80685, abs=1e-5)

    def test_new_head_uses_standard_normal_prior(self):
        net = random_net(12)
        prior = advance_prior(net)
        net.ensure_head(1, 2, make_rng("h1"))  # created after the snapshot
        head = net.heads[1]
        expected = (diag_gaussian_kl(head.mu_w, head.logvar_w, np.zeros_like(head.mu_w),
                                     np.zeros_like(head.logvar_w))
                    + diag_gaussian_kl(head.mu_b, head.logvar_b, np.zeros_like(head.mu_b),
                                       np.zeros_like(head.logvar_b)))
        trunk_kl = kl_to_prior(net, prior, 0)  # trunk matches snapshot + head 0
        total = kl_to_prior(net, prior, 1)
        assert total == pytest.approx(expected, rel=1e-12)
        assert trunk_kl == pytest.approx(
            (diag_gaussian_kl(net.heads[0].mu_w, net.heads[0].logvar_w,
                              prior.heads[0].mu_w, prior.heads[0].logvar_w)
             + diag_gaussian_kl(net.heads[0].mu_b, net.heads[0].logvar_b,
                                prior.heads[0].mu_b, prior.heads[0].logvar_b)), abs=1e-12)

    def test_shape_mismatch(self):
        net = random_net(13)
        other = init_network(4, [5], make_rng(1))
        other.ensure_head(0, 2, make_rng(1))
        with pytest.raises(ValueError):
            kl_to_prior(net, advance_prior(other), 0)

    def test_a_layer_wider_than_a_chunk(self):
        # The chunk sums are summed, so the total may move in its last bits
        # against one whole-array sum, but KL(q || q) stays exactly 0.0.
        net, prior_net = wide_net(14, jitter=0.3), wide_net(15, jitter=0.3)
        (mu, logvar), (mu0, logvar0) = net.trunk[0].flat, prior_net.trunk[0].flat
        assert mu.size > CHUNK
        diff = logvar - logvar0
        whole = 0.5 * float(np.sum(-diff + np.exp(diff) + (mu - mu0) ** 2 * np.exp(-logvar0)
                                   - 1.0))
        assert diag_gaussian_kl(mu, logvar, mu0, logvar0) == pytest.approx(whole, rel=1e-12)
        assert kl_to_prior(net, advance_prior(net), 0) == 0.0
        assert kl_to_prior(net, advance_prior(prior_net), 0) > 0.0
        # The arguments do not broadcast: a scalar prior against a row, or
        # a row against an (I, O) array, is a size mismatch.
        layer = net.trunk[0]
        with pytest.raises(ValueError):
            diag_gaussian_kl(mu, logvar, 0.0, 0.0)
        with pytest.raises(ValueError):
            diag_gaussian_kl(layer.mu_w, layer.logvar_w, mu0, logvar0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_kl_nonnegative(self, seed):
        net = random_net(seed, jitter=0.5)
        prior_net = random_net(seed + 1, jitter=0.5)
        assert kl_to_prior(net, advance_prior(prior_net), 0) >= 0.0


class TestBetaElboLoss:
    def setup_method(self):
        self.net = random_net(20, input_dim=6, hidden=(5,), out=3)
        self.prior = advance_prior(random_net(21, input_dim=6, hidden=(5,), out=3, jitter=0.3))
        self.x = make_rng("lx").random((4, 6))
        self.y = np.array([0, 2, 1, 1])

    def loss(self, beta, n_task, noise, prior=None):
        return beta_elbo_loss(self.net, self.prior if prior is None else prior, 0, self.x,
                              self.y, beta=beta, n_task=n_task, noise=noise)[0]

    def test_loss_arithmetic(self):
        # At beta = 1e-300 the KL term is below half an ulp of the nll, so
        # that loss is the nll.
        noise = sample_noise(self.net, 0, 2, make_rng(1), 4)
        kl = kl_to_prior(self.net, self.prior, 0)
        assert kl > 0.0
        assert self.loss(2.0, 1000, noise) == self.loss(1e-300, 1000, noise) + 2.0 * kl / 1000

    def test_tiny_beta_approaches_nll(self):
        noise = sample_noise(self.net, 0, 2, make_rng(2), 4)
        logits = forward_with_noise(self.net, 0, self.x, noise).logits
        logp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        nll = -logp[:, np.arange(4), self.y].mean()
        assert self.loss(1e-12, 100, noise) == pytest.approx(nll, abs=1e-9)

    def test_net_equals_prior_gives_nll(self):
        prior = advance_prior(self.net)
        noise = sample_noise(self.net, 0, 1, make_rng(3), 4)
        assert kl_to_prior(self.net, prior, 0) == 0.0
        assert self.loss(5.0, 100, noise, prior) == self.loss(1e-300, 100, noise, prior)

    def test_monotone_in_beta_when_kl_positive(self):
        noise = sample_noise(self.net, 0, 2, make_rng(4), 4)
        losses = [beta_elbo_loss(self.net, self.prior, 0, self.x, self.y,
                                 beta=b, n_task=100, noise=noise)[0]
                  for b in (0.5, 1.0, 2.0, 10.0)]
        assert losses == sorted(losses)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            beta_elbo_loss(self.net, self.prior, 0, self.x, np.array([0, 1, 2, 3]),
                           beta=1.0, n_task=100, noise=sample_noise(self.net, 0, 1, make_rng(5), 4))

    def test_invalid_beta_and_n_task(self):
        noise = sample_noise(self.net, 0, 1, make_rng(6), 4)
        with pytest.raises(ValueError):
            beta_elbo_loss(self.net, self.prior, 0, self.x, self.y,
                           beta=0.0, n_task=100, noise=noise)
        with pytest.raises(ValueError):
            beta_elbo_loss(self.net, self.prior, 0, self.x, self.y,
                           beta=1.0, n_task=2, noise=noise)


def backprop_vs_finite_diff(net, prior, head, x, y, beta, n_task, n_samples, seed):
    """Max relative error between backprop and the central-difference oracle,
    with the reparameterization noise frozen in float64."""
    noise = float64_noise(net, head, n_samples, make_rng("gc", seed), len(x))
    _, cache = beta_elbo_loss(net, prior, head, x, y, beta=beta, n_task=n_task, noise=noise)
    g_bp = flatten_grads(backward_gradients(net, prior, cache, y, beta=beta, n_task=n_task))

    p0 = get_param_vector(net, head)

    def objective(vec):
        set_param_vector(net, head, vec)
        loss, _ = beta_elbo_loss(net, prior, head, x, y, beta=beta, n_task=n_task, noise=noise)
        return loss

    g_fd = finite_diff_grad(objective, p0, 1e-5)
    set_param_vector(net, head, p0)
    denom = np.maximum(1e-6, np.maximum(np.abs(g_bp), np.abs(g_fd)))
    return float(np.max(np.abs(g_bp - g_fd) / denom))


class TestBackward:
    def test_gradcheck_4_3_2_single_sample(self):
        net = random_net(30, input_dim=4, hidden=(3,), out=2)
        prior = advance_prior(random_net(31, input_dim=4, hidden=(3,), out=2, jitter=0.3))
        x = make_rng("g1").random((2, 4))
        y = np.array([1, 0])
        err = backprop_vs_finite_diff(net, prior, 0, x, y, 0.7, 50, 1, seed=1)
        assert err < 1e-4

    def test_gradcheck_new_head_standard_prior(self):
        net = random_net(32, input_dim=3, hidden=(3,), out=2)
        prior = advance_prior(net)
        net.ensure_head(1, 2, make_rng("nh"))
        x = make_rng("g2").random((2, 3))
        y = np.array([0, 1])
        err = backprop_vs_finite_diff(net, prior, 1, x, y, 2.0, 10, 2, seed=2)
        assert err < 1e-4

    def test_kl_gradient_vanishes_at_prior(self):
        net = random_net(33, jitter=0.2)
        prior = advance_prior(net)
        x = make_rng("g3").random((3, 4))
        y = np.array([0, 1, 0])
        noise = sample_noise(net, 0, 2, make_rng(77), 3)
        _, cache = beta_elbo_loss(net, prior, 0, x, y, beta=1.0, n_task=10, noise=noise)
        g1 = flatten_grads(backward_gradients(net, prior, cache, y, beta=1.0, n_task=10))
        g2 = flatten_grads(backward_gradients(net, prior, cache, y, beta=1e9, n_task=10))
        # At the KL minimum the KL part is exactly zero, so beta is irrelevant.
        assert np.array_equal(g1, g2)

    def test_kl_gradient_linear_in_beta(self):
        net = random_net(34, jitter=0.1)
        prior = advance_prior(random_net(35, jitter=0.4))
        x = make_rng("g4").random((3, 4))
        y = np.array([1, 1, 0])
        noise = sample_noise(net, 0, 2, make_rng(78), 3)
        _, cache = beta_elbo_loss(net, prior, 0, x, y, beta=1.0, n_task=10, noise=noise)
        g = [flatten_grads(backward_gradients(net, prior, cache, y, beta=b, n_task=10))
             for b in (1.0, 2.0, 3.0)]
        np.testing.assert_allclose(g[2] - g[1], g[1] - g[0], rtol=1e-9, atol=1e-15)

    def test_kl_part_across_chunks_has_the_whole_array_bits(self):
        # Against the posterior itself the KL part is exactly +0.0, so that
        # call gives the likelihood part alone.
        net, prior = wide_net(41, jitter=0.3), advance_prior(wide_net(42, jitter=0.3))
        x = make_rng("g9").random((8, 784))
        y = np.arange(8) % 2
        noise = sample_noise(net, 0, 2, make_rng(82), 8)
        _, cache = beta_elbo_loss(net, prior, 0, x, y, beta=3.0, n_task=100, noise=noise)
        likelihood = backward_gradients(net, advance_prior(net), cache, y, beta=3.0, n_task=100)
        grads = backward_gradients(net, prior, cache, y, beta=3.0, n_task=100)
        kl_scale = 3.0 / 100
        for g, lik, layer, p in zip(grads, likelihood, net.active_layers(0),
                                    prior.active_layers(0)):
            (mu, logvar), (mu0, logvar0) = layer.flat, p.flat
            assert g.flat[0].tobytes() == (
                lik.flat[0] + kl_scale * (mu - mu0) * np.exp(-logvar0)).tobytes()
            assert g.flat[1].tobytes() == (
                lik.flat[1] + kl_scale * 0.5 * (np.exp(logvar - logvar0) - 1.0)).tobytes()
        assert grads[0].flat.shape[1] > CHUNK

    def test_buffers_of_an_earlier_call_give_the_bits_of_fresh_ones(self):
        # Written over the first call's gradients, the second call's equal
        # those written into fresh zeros: nothing of the first leaks into
        # the second's per-sample sums.
        net = random_net(39, input_dim=6, hidden=(5, 4), out=3, jitter=0.3)
        prior = advance_prior(random_net(40, input_dim=6, hidden=(5, 4), out=3, jitter=0.3))
        x = make_rng("g8").random((7, 6))
        y = np.arange(7) % 3
        first, second = (beta_elbo_loss(net, prior, 0, x, y, beta=1.0, n_task=50,
                                        noise=sample_noise(net, 0, 3, make_rng(81, k), 7))[1]
                         for k in range(2))
        buffers = backward_gradients(net, prior, first, y, beta=1.0, n_task=50)
        before = [g.flat.copy() for g in buffers]
        reused = backward_gradients(net, prior, second, y, beta=1.0, n_task=50, out=buffers)
        fresh = backward_gradients(net, prior, second, y, beta=1.0, n_task=50)
        assert reused is buffers
        for r, f, b in zip(reused, fresh, before):
            assert r.flat.tobytes() == f.flat.tobytes()
            assert not np.array_equal(r.flat, b)

    def test_buffers_must_fit_the_layers(self):
        net = random_net(43)
        prior = advance_prior(net)
        y = np.array([0, 1])
        _, cache = beta_elbo_loss(net, prior, 0, make_rng("g10").random((2, 4)), y, beta=1.0,
                                  n_task=10, noise=sample_noise(net, 0, 1, make_rng(83), 2))
        buffers = [layer.zeros_like() for layer in net.active_layers(0)]
        for out in (buffers[:1], buffers[::-1]):
            with pytest.raises(ValueError, match="gradient buffers"):
                backward_gradients(net, prior, cache, y, beta=1.0, n_task=10, out=out)

    def test_stale_cache_rejected(self):
        net = random_net(36)
        prior = advance_prior(net)
        x = make_rng("g5").random((3, 4))
        y = np.array([0, 1, 0])
        _, cache = beta_elbo_loss(net, prior, 0, x, y, beta=1.0, n_task=10,
                                  noise=sample_noise(net, 0, 1, make_rng(1), 3))
        with pytest.raises(ValueError):
            backward_gradients(net, prior, cache, np.array([0, 1]), beta=1.0, n_task=10)

    def test_streamed_weight_gradients_equal_batched_reference(self):
        # The head's (S, I, O) per-sample weight gradients summed over axis 0,
        # as a stacked matmul would build them, and the first layer's two
        # matmuls through its moments; at the prior the KL part is +0.0.
        net = random_net(37, jitter=0.3)
        for layer in net.active_layers(0):
            layer.logvar_w[...] = -1.0
        prior = advance_prior(net)
        x = make_rng("g6").random((5, 4))
        y = np.array([0, 1, 1, 0, 1])
        noise = sample_noise(net, 0, 6, make_rng(79), 5)
        _, cache = beta_elbo_loss(net, prior, 0, x, y, beta=1.0, n_task=10, noise=noise)
        grads = backward_gradients(net, prior, cache, y, beta=1.0, n_task=10)
        d_z1 = vbnn.softmax(cache.logits)
        d_z1[:, np.arange(5), y] -= 1.0
        d_z1 *= 1.0 / (6 * 5)
        # The head: float32 per-sample gradients, summed over samples in float64.
        head = net.heads[0]
        d_w = np.maximum(cache.pre[0], 0.0).transpose(0, 2, 1) @ d_z1
        assert np.array_equal(grads[1].mu_w, d_w.sum(axis=0, dtype=np.float64) + 0.0)
        assert np.array_equal(grads[1].logvar_w, (d_w * noise[1][0]).sum(
            axis=0, dtype=np.float64) * (0.5 * np.exp(0.5 * head.logvar_w)) + 0.0)
        # The first layer: d_z summed over samples, then one matmul per row.
        first = net.trunk[0]
        d_z0 = (d_z1 @ cache.weights[0][0].transpose(0, 2, 1)) * (cache.pre[0] > 0)
        x32 = x.astype(np.float32)
        std = np.sqrt(np.square(x32) @ np.exp(first.logvar_w).astype(np.float32))
        assert np.array_equal(cache.std, std)
        d_std = (d_z0 * noise[0][0]).sum(axis=0) / (2 * std)
        assert np.array_equal(grads[0].mu_w, x32.T @ d_z0.sum(axis=0) + 0.0)
        assert np.array_equal(grads[0].logvar_w,
                              np.exp(first.logvar_w) * (np.square(x32).T @ d_std) + 0.0)

    def test_float32_gradients_match_float64_of_the_same_noise(self):
        # At the prior the KL part is 0, so this compares the likelihood
        # part alone. Per layer, every entry lies within 1e-5 of the layer's
        # largest float64 entry: about 80 float32 ulps; measured 1.5e-7.
        net = random_net(38, input_dim=30, hidden=(20, 10), out=4, jitter=0.3)
        rng = make_rng("g7-logvar")
        for layer in net.active_layers(0):
            layer.logvar_w[...] = -2.0 + rng.standard_normal(layer.logvar_w.shape)
        prior = advance_prior(net)
        x = make_rng("g7").random((16, 30))
        y = np.arange(16) % 4
        grads = {}
        for eps in (sample_noise(net, 0, 4, make_rng(80), 16),
                    float64_noise(net, 0, 4, make_rng(80), 16)):
            _, cache = beta_elbo_loss(net, prior, 0, x, y, beta=1.0, n_task=100, noise=eps)
            grads[cache.logits.dtype] = backward_gradients(net, prior, cache, y, beta=1.0,
                                                           n_task=100)
        for g32, g64 in zip(grads[np.dtype(np.float32)], grads[np.dtype(np.float64)]):
            assert g32.flat.dtype == np.float64
            scale = np.abs(g64.flat).max(axis=1, keepdims=True)
            assert np.all(np.abs(g32.flat - g64.flat) <= 1e-5 * scale)
            assert not np.array_equal(g32.flat, g64.flat)


def test_forward_cache_keeps_only_what_backward_cannot_derive():
    assert [f.name for f in dataclasses.fields(vbnn.ForwardCache)] == [
        "head_index", "x", "std", "noise", "weights", "pre"]


class TestFitMemory:
    @staticmethod
    def fit_peak_bytes(n_batches):
        net = random_net(60, input_dim=200, hidden=(50,), out=2)
        x = make_rng("fm").random((16 * n_batches, 200))
        y = np.arange(16 * n_batches) % 2
        tracemalloc.start()
        try:
            fit(net, advance_prior(net), 0, whole_view(x, y), beta=1.0, epochs=1,
                batch_size=16, lr=0.01, mc_samples=5, rng=make_rng("fm-fit"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_the_model_state_plus_one_step(self):
        # Model state: Adam's two moments and one gradient set, three copies
        # of the parameters. One step: its noise, batch and cache, and the
        # KL's (3, CHUNK) float64 scratch. A quarter of the parameters'
        # bytes covers small arrays and Python objects; whole-array KL
        # temporaries of this net's first layer exceed it.
        net = wide_net(61)
        prior = advance_prior(net)
        x = make_rng("fm").random((64, 784))
        y = np.arange(64) % 2
        params = sum(layer.flat.nbytes for layer in net.active_layers(0))
        noise = sample_noise(net, 0, 5, make_rng("fm-step"), 16)
        _, cache = beta_elbo_loss(net, prior, 0, x[:16], y[:16], beta=1.0, n_task=64,
                                  noise=noise)
        step = sum(a.nbytes for a in (*(a for pair in noise for a in pair), cache.x, cache.std,
                                      *cache.pre, *(a for pair in cache.weights for a in pair)))
        del noise, cache
        tracemalloc.start()
        try:
            fit(net, prior, 0, whole_view(x, y), beta=1.0, epochs=1, batch_size=16, lr=0.01,
                mc_samples=5, rng=make_rng("fm-fit"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * params + step + 3 * CHUNK * 8 + params / 4

    def test_one_step_alive_at_a_time(self):
        # A step's noise, cache or gradients still alive during the next
        # step would raise the peak by at least one step's gradients, which
        # are the size of the parameters.
        net = random_net(60, input_dim=200, hidden=(50,), out=2)
        step_grads = sum(layer.flat.nbytes for layer in net.active_layers(0))
        assert self.fit_peak_bytes(4) - self.fit_peak_bytes(1) < step_grads


def test_net_adam_advances_one_clock_per_step():
    # Three steps of a two-layer net: every layer is updated at t = 1, 2, 3.
    # A clock advanced once per layer would give them t = 1, 3, 5 and 2, 4, 6.
    net = random_net(70, jitter=0.2)
    ref = [layer.flat.copy() for layer in net.active_layers(0)]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in ref]
    optimizer = vbnn.NetAdam(net, 0, 0.01)
    rng = make_rng("net-adam")
    for t in (1, 2, 3):
        grads = [layer.zeros_like() for layer in net.active_layers(0)]
        for g in grads:
            g.flat[...] = rng.standard_normal(g.flat.shape)
        optimizer.step(grads)
        for p, g, (m, v) in zip(ref, grads, moments):
            adam_step(p, g.flat, m, v, t, 0.01)
    assert len(ref) == 2
    for layer, p in zip(net.active_layers(0), ref):
        assert np.array_equal(layer.flat, p)


def serial_fit(net, prior, head_index, x, y, *, beta, epochs, batch_size, lr, mc_samples,
               rng):
    """fit written out: per epoch one permutation, then per step float32
    noise per layer, eps_w (S, B, O) for the first layer and (S, I, O) for
    later ones, each layer's eps_b (S, O) after its eps_w."""
    n_task = len(x)
    optimizer = vbnn.NetAdam(net, head_index, lr)
    for _ in range(epochs):
        order = rng.permutation(n_task)
        for start in range(0, n_task, batch_size):
            idx = order[start:start + batch_size]
            noise = [(rng.standard_normal((mc_samples, len(idx) if li == 0 else layer.fan_in,
                                           layer.fan_out), dtype=np.float32),
                      rng.standard_normal((mc_samples, layer.fan_out), dtype=np.float32))
                     for li, layer in enumerate(net.active_layers(head_index))]
            _, cache = beta_elbo_loss(net, prior, head_index, x[idx], y[idx], beta=beta,
                                      n_task=n_task, noise=noise)
            optimizer.step(backward_gradients(net, prior, cache, y[idx], beta=beta,
                                              n_task=n_task))


class TestFitSchedule:
    @pytest.mark.parametrize("n, batch_size, epochs", [
        (48, 16, 1),    # whole batches
        (48, 16, 2),
        (50, 16, 2),    # a partial last batch
        (50, 50, 1),    # batch_size == len(data)
        (50, 128, 2),   # batch_size > len(data)
    ])
    def test_same_draws_and_bits_as_the_serial_schedule(self, n, batch_size, epochs):
        x = make_rng("sched", n).random((n, 6))
        y = np.arange(n) % 3
        kwargs = dict(beta=0.7, epochs=epochs, batch_size=batch_size, lr=0.01, mc_samples=3)
        serial_net = random_net(70, input_dim=6, hidden=(5, 4), out=3)
        net = random_net(70, input_dim=6, hidden=(5, 4), out=3)
        serial_rng, rng = make_rng("sched-fit"), make_rng("sched-fit")
        serial_fit(serial_net, advance_prior(serial_net), 0, x, y, rng=serial_rng, **kwargs)
        fit(net, advance_prior(net), 0, whole_view(x, y), rng=rng, **kwargs)
        assert rng.bit_generator.state == serial_rng.bit_generator.state
        for layer, serial_layer in zip(net.active_layers(0), serial_net.active_layers(0)):
            assert layer.flat.tobytes() == serial_layer.flat.tobytes()

    def test_every_step_draws_through_sample_noise(self, monkeypatch):
        calls = []
        real = vbnn.sample_noise

        def recorded(net, head_index, n_samples, rng, batch_size):
            calls.append((n_samples, batch_size))
            return real(net, head_index, n_samples, rng, batch_size)

        monkeypatch.setattr(vbnn, "sample_noise", recorded)
        x = make_rng("through").random((20, 4))
        net = random_net(75)
        fit(net, advance_prior(net), 0, whole_view(x, np.arange(20) % 2), beta=1.0, epochs=2,
            batch_size=8, lr=0.01, mc_samples=3, rng=make_rng("through-fit"))
        assert calls == [(3, 8), (3, 8), (3, 4)] * 2


class ScriptedRng:
    """``make_rng(tag)`` whose ``fail_at``-th standard_normal call raises."""

    def __init__(self, tag, fail_at=None):
        self._rng = make_rng(tag)
        self._left = fail_at
        self.error = RuntimeError("draw failed")

    def permutation(self, n):
        return self._rng.permutation(n)

    def standard_normal(self, *args, **kwargs):
        if self._left == 0:
            raise self.error
        if self._left is not None:
            self._left -= 1
        return self._rng.standard_normal(*args, **kwargs)


def error_of(function, *args, **kwargs):
    """What ``function(*args, **kwargs)`` raised, run on a watchdog thread
    that must finish within a minute, so a hang fails the test instead of
    stalling the suite."""
    raised = []

    def target():
        try:
            function(*args, **kwargs)
        except Exception as exc:
            raised.append(exc)

    watchdog = threading.Thread(target=target, daemon=True)
    watchdog.start()
    watchdog.join(timeout=60)
    assert not watchdog.is_alive(), f"{function.__name__} did not return"
    return raised[0] if raised else None


class TestFitFailures:
    def test_non_finite_loss_mid_epoch_raises_and_joins(self):
        n, batch_size = 64, 16
        x = make_rng("nan").random((n, 4))
        first_batch = make_rng("nan-fit").permutation(n)[:batch_size]
        x[np.setdiff1d(np.arange(n), first_batch)[0]] = np.nan
        net = random_net(71)
        before = get_param_vector(net, 0)
        threads = threading.active_count()
        error = error_of(fit, net, advance_prior(net), 0, whole_view(x, np.arange(n) % 2),
                         beta=1.0, epochs=2, batch_size=batch_size, lr=0.01, mc_samples=2,
                         rng=make_rng("nan-fit"))
        assert isinstance(error, NumericError) and "non-finite loss" in str(error)
        assert threading.active_count() == threads
        after = get_param_vector(net, 0)
        assert np.isfinite(after).all() and not np.array_equal(after, before)

    # Two layers and two steps per epoch make 8 draws an epoch: the first
    # draw, the first bias draw, and the second layer of epoch 2's first step.
    @pytest.mark.parametrize("fail_at", [0, 1, 10])
    def test_a_failing_draw_surfaces_its_exception(self, fail_at):
        x = make_rng("fail").random((12, 4))
        net, rng = random_net(72), ScriptedRng("failing", fail_at)
        threads = threading.active_count()
        error = error_of(fit, net, advance_prior(net), 0, whole_view(x, np.arange(12) % 2),
                         beta=1.0, epochs=2, batch_size=6, lr=0.01, mc_samples=2, rng=rng)
        assert error is rng.error
        assert threading.active_count() == threads


class TestFloat32Overflow:
    """A sigma that float64 holds and float32 cannot is an overflow in the
    cast, which a caller's ``np.errstate(over="raise")`` turns into an error."""

    def setup_method(self):
        self.net = with_one_huge_sigma(random_net(57, input_dim=6, hidden=(5,), out=2))
        self.x = make_rng("huge").random((8, 6))
        assert np.isfinite(np.exp(0.5 * self.net.trunk[0].logvar_w)).all()

    def fit(self):
        fit(self.net, advance_prior(self.net), 0, whole_view(self.x, np.arange(8) % 2),
            beta=1.0, epochs=1, batch_size=4, lr=0.01, mc_samples=2, rng=make_rng("huge-fit"))

    def test_fit_raises_and_joins(self):
        before = get_param_vector(self.net, 0)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            self.fit()
        assert np.array_equal(get_param_vector(self.net, 0), before)

    def test_a_first_layer_variance_beyond_float32_overflows_in_fit(self):
        # As in prediction, training casts the first layer's variance, and
        # exp(100) is beyond float32 while exp(100 / 2) is a float32 sigma.
        self.net.trunk[0].logvar_w[0, 0] = 100.0
        before = get_param_vector(self.net, 0)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            self.fit()
        assert np.array_equal(get_param_vector(self.net, 0), before)

    def test_posterior_predict_raises(self):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            posterior_predict(self.net, 0, self.x, make_rng("huge-predict"), 3)
        assert not predict_lane_alive()


class TestAdvancePrior:
    def test_kl_zero_immediately(self):
        net = random_net(40, jitter=0.3)
        assert kl_to_prior(net, advance_prior(net), 0) == 0.0

    def test_snapshot_survives_training(self):
        net = random_net(41, heads=(0,))
        snapshot = advance_prior(net)
        frozen = [a.copy() for layer in [*snapshot.trunk, snapshot.heads[0]]
                  for a in layer.param_arrays()]
        x = make_rng("ap").random((16, 4))
        y = (make_rng("apy").random(16) > 0.5).astype(int)
        fit(net, snapshot, 0, whole_view(x, y), beta=1.0, epochs=3, batch_size=8,
            lr=0.01, mc_samples=2, rng=make_rng("apf"))
        current = [a for layer in [*snapshot.trunk, snapshot.heads[0]]
                   for a in layer.param_arrays()]
        for before, after in zip(frozen, current):
            assert np.array_equal(before, after)
        assert kl_to_prior(net, snapshot, 0) > 0.0  # net actually moved

    def test_snapshot_arrays_read_only(self):
        snapshot = advance_prior(random_net(42))
        with pytest.raises(ValueError):
            snapshot.trunk[0].mu_w[0, 0] = 1.0

    def test_serialization_round_trip(self, tmp_path):
        net = random_net(43, heads=(0, 2), jitter=0.2)
        snapshot = advance_prior(net)
        path = tmp_path / "stage.snap"
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert kl_to_prior(net, loaded, 0) == 0.0
        assert kl_to_prior(net, loaded, 2) == 0.0
        for a, b in zip(snapshot.trunk[0].param_arrays(), loaded.trunk[0].param_arrays()):
            assert np.array_equal(a, b)
        assert sorted(loaded.heads) == [0, 2]

    def test_loaded_input_dim_is_the_first_layers_fan_in(self, tmp_path):
        path = tmp_path / "stage.snap"
        net = random_net(50, hidden=(), heads=(1,), jitter=0.2)  # one 4x2 head, no trunk
        save_snapshot(advance_prior(net), path)
        loaded = load_snapshot(path)
        assert (loaded.input_dim, loaded.trunk, sorted(loaded.heads)) == (4, (), [1])
        x = make_rng("nt").random((6, 4))
        assert np.array_equal(posterior_predict(loaded, 1, x, make_rng("ntp"), 3),
                              posterior_predict(net, 1, x, make_rng("ntp"), 3))
        save_snapshot(vbnn.VariationalNet(7, (), {}), path)
        empty = load_snapshot(path)
        assert (empty.input_dim, empty.trunk, empty.heads) == (0, (), {})

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "stage.snap"
        save_snapshot(advance_prior(random_net(46)), path)
        before = path.read_bytes()

        def disk_full(fd):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)  # fails once every byte is in the file
        with pytest.raises(OSError):
            save_snapshot(advance_prior(random_net(47, jitter=0.1)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["stage.snap"]

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_load_rejects_every_truncation(self, tmp_path):
        whole = tmp_path / "whole.snap"
        save_snapshot(advance_prior(random_net(44, jitter=0.1)), whole)  # 4-3-2
        blob = whole.read_bytes()
        assert len(blob) == 404
        cut = tmp_path / "cut.snap"
        for n in [*range(len(blob)), len(blob) + 1]:
            cut.write_bytes((blob + b"\x00")[:n])
            with pytest.raises(ValueError):
                load_snapshot(cut)

    @pytest.mark.parametrize("offset, value", [(8, 10**9), (12, 10**9), (16, 2**32 - 1), (28, 0)],
                             ids=["trunk-count", "head-count", "trunk-fan-in", "head-fan-in"])
    def test_load_rejects_forged_header(self, tmp_path, offset, value):
        path = tmp_path / "forged.snap"
        save_snapshot(advance_prior(random_net(45)), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            load_snapshot(path)

    @pytest.mark.parametrize("trunk, heads, message", [
        ([(4, 3)], {0: (5, 2)}, "head 0 takes 5 inputs, its input is 3 wide"),
        ([(4, 3), (4, 2)], {}, "trunk layer 1 takes 4 inputs, its input is 3 wide"),
        ([], {0: (4, 2), 1: (5, 2)}, "head 1 takes 5 inputs, its input is 4 wide"),
        ([(4, 3)], {0: (3, 0)}, "head 0 is 3x0"),
    ], ids=["head-after-trunk", "trunk-after-trunk", "head-without-trunk", "head-0-outputs"])
    def test_load_rejects_layers_that_do_not_chain(self, tmp_path, trunk, heads, message):
        def layer(fan_in, fan_out):
            return vbnn.VariationalLayer(np.zeros((2, (fan_in + 1) * fan_out)), fan_in, fan_out)

        path = tmp_path / "unchained.snap"
        save_snapshot(vbnn.VariationalNet(4, tuple(layer(*shape) for shape in trunk),
                                          {i: layer(*shape) for i, shape in heads.items()}), path)
        with pytest.raises(ValueError, match=message):
            load_snapshot(path)

    @pytest.mark.parametrize("offset, value", [(-8, math.nan), (-8, math.inf), (52, -math.inf)],
                             ids=["last-nan", "last-inf", "first-minus-inf"])
    def test_load_rejects_a_non_finite_parameter(self, tmp_path, offset, value):
        path = tmp_path / "nonfinite.snap"
        save_snapshot(advance_prior(random_net(49, jitter=0.1)), path)  # 4-3-2, floats from 52
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, offset % len(blob), value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="non-finite"):
            load_snapshot(path)


def predict_lane_alive():
    """Whether posterior_predict's lane, ``vclab-predict_0``, is running."""
    return any(t.name.startswith("vclab-predict_") for t in threading.enumerate())


def recording_softmax(monkeypatch, record):
    """Route vbnn.softmax through ``record(z)`` before the real softmax."""
    real = vbnn.softmax

    def softmax(z):
        record(z)
        return real(z)

    monkeypatch.setattr(vbnn, "softmax", softmax)


def lanes_stacked(net, x, seeds, n_samples):
    """posterior_predict's estimate with each lane's draws stacked.

    Lane k seeds a generator with ``seeds[k]`` and, for each of draws k,
    k + 2, ..., draws the (B, O) first-layer noise and the first bias's,
    then each later layer's eps_w and eps_b. The first layer takes
    std * eps + mean + b from its moments of x w and a sampled bias b; the
    lanes' float64 sums are added in lane order.
    """
    dtype = vbnn.NOISE_DTYPE
    first, *later = net.active_layers(0)
    x = x.astype(dtype)
    mean = x @ first.mu_w.astype(dtype)
    std = np.sqrt(np.square(x) @ np.exp(first.logvar_w).astype(dtype))
    shapes = [mean.shape, first.mu_b.shape,
              *(s for layer in later for s in (layer.mu_w.shape, layer.mu_b.shape))]
    total = np.zeros(mean.shape[:1] + (net.active_layers(0)[-1].fan_out,))
    for k, seed in enumerate(seeds):
        lane = np.random.default_rng(seed)
        draws = [[lane.standard_normal(s, dtype=dtype) for s in shapes]
                 for _ in range(k, n_samples, 2)]
        if not draws:
            continue
        eps, eps_b1, *later_eps = [np.stack(column) for column in zip(*draws)]
        b1 = np.exp(0.5 * first.logvar_b).astype(dtype) * eps_b1 + first.mu_b.astype(dtype)
        act = eps * std + mean + b1[:, None, :]                 # (S_k, B, O)
        for layer, eps_w, eps_b in zip(later, later_eps[::2], later_eps[1::2]):
            w = np.exp(0.5 * layer.logvar_w).astype(dtype) * eps_w + layer.mu_w.astype(dtype)
            b = np.exp(0.5 * layer.logvar_b).astype(dtype) * eps_b + layer.mu_b.astype(dtype)
            act = np.maximum(act, 0.0) @ w + b[:, None, :]
        total += vbnn.softmax(act).sum(axis=0, dtype=np.float64)
    return total / n_samples


def weight_sampled_logits(layers, x, n_samples, rng):
    """(S, B, O) logits in float64 with every weight and bias sampled whole
    per draw, ReLU between layers."""
    act = x
    for li, layer in enumerate(layers):
        w = layer.mu_w + np.exp(0.5 * layer.logvar_w) * rng.standard_normal(
            (n_samples, *layer.mu_w.shape))
        b = layer.mu_b + np.exp(0.5 * layer.logvar_b) * rng.standard_normal(
            (n_samples, layer.fan_out))
        act = (np.maximum(act, 0.0) if li else act) @ w + b[:, None, :]
    return act


class TestPosteriorPredict:
    @pytest.mark.parametrize("n_samples", [1, 2, 7, 20])
    def test_streamed_equals_batched_reference(self, n_samples):
        # Streamed lane by lane, one draw at a time, against every lane's
        # draws stacked, from the two seeds one rng.integers call gives.
        net = random_net(52, input_dim=6, hidden=(5, 4), out=3, jitter=0.3)
        rng = make_rng("logvar-jitter")
        for layer in net.active_layers(0):
            layer.logvar_w[...] = -2.0 + rng.standard_normal(layer.logvar_w.shape)
            layer.logvar_b[...] = -2.0 + rng.standard_normal(layer.logvar_b.shape)
        x = make_rng("pb").random((9, 6))
        rng, reference_rng = make_rng(8), make_rng(8)
        streamed = posterior_predict(net, 0, x, rng, n_samples)
        seeds = reference_rng.integers(2**63, size=2)
        assert streamed.tobytes() == lanes_stacked(net, x, seeds, n_samples).tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert not predict_lane_alive()

    def test_moments_match_weight_sampling(self, monkeypatch):
        # Training and prediction draw the first layer's pre-activations from
        # their moments, not through sampled weights: per row the same
        # Gaussian as weight sampling in float64 here, so the same expected
        # prediction. Every bound is 5 Monte Carlo standard errors.
        net = random_net(58, input_dim=6, hidden=(5,), out=3, jitter=0.3)
        rng = make_rng("moment-logvar")
        for layer in net.active_layers(0):
            layer.logvar_w[...] = -1.0 + 0.3 * rng.standard_normal(layer.logvar_w.shape)
            layer.logvar_b[...] = -1.0 + 0.3 * rng.standard_normal(layer.logvar_b.shape)
        x, n = make_rng("moment-x").random((8, 6)), 4000
        first = net.trunk[0]
        m = x @ first.mu_w + first.mu_b
        v = np.square(x) @ np.exp(first.logvar_w) + np.exp(first.logvar_b)
        weights = make_rng("moment-weights")
        # With the first layer as the only layer, softmax sees each draw's
        # pre-activations, from both lanes, and the forward pass's are pre[0].
        only_first = vbnn.VariationalNet(6, (), {0: first})
        drawn = []
        recording_softmax(monkeypatch, lambda z: drawn.append(z.astype(np.float64)))
        posterior_predict(only_first, 0, x, make_rng("moment-z"), n)
        trained = forward_with_noise(only_first, 0, x,
                                     sample_noise(only_first, 0, n, make_rng("moment-fit"), 8))
        sampled = weight_sampled_logits([first], x, n, weights)
        for z in (np.stack(drawn), trained.pre[0].astype(np.float64)):
            assert z.shape == sampled.shape == (n, 8, 5)
            assert np.all(np.abs(z.mean(axis=0) - m) < 5 * np.sqrt(v / n))
            assert np.all(np.abs(z.var(axis=0, ddof=1) - v) < 5 * v * np.sqrt(2 / (n - 1)))
            assert np.all(np.abs(z.mean(axis=0) - sampled.mean(axis=0)) < 5 * np.sqrt(2 * v / n))
            assert np.all(np.abs(z.var(axis=0, ddof=1) - sampled.var(axis=0, ddof=1))
                          < 5 * v * np.sqrt(4 / (n - 1)))

        predicted = posterior_predict(net, 0, x, make_rng("moment-predict"), n)
        sampled = vbnn.softmax(weight_sampled_logits(net.active_layers(0), x, n, weights))
        standard_error = np.sqrt(2 * sampled.var(axis=0, ddof=1) / n)
        assert np.all(np.abs(predicted - sampled.mean(axis=0)) < 5 * standard_error)

    def test_every_sample_runs_under_the_callers_error_state(self, monkeypatch):
        # np.errstate holds per thread: the lane must take the caller's, or an
        # overflow in an odd sample would only warn inside a run's stage guard.
        seen = []
        recording_softmax(monkeypatch, lambda z: seen.append(
            (threading.current_thread().name.startswith("vclab-predict_"), np.geterr())))
        net = random_net(54, input_dim=6, hidden=(5,), out=3)
        with np.errstate(divide="ignore", over="raise", under="warn", invalid="raise"):
            caller = np.geterr()
            posterior_predict(net, 0, make_rng("es").random((4, 6)), make_rng(11), 7)
        assert caller != np.geterr()
        assert sorted(seen, key=lambda e: e[0]) == [(False, caller)] * 4 + [(True, caller)] * 3

    def test_one_sample_starts_no_lane(self, monkeypatch):
        seen = []
        recording_softmax(monkeypatch, lambda z: seen.append(
            (threading.current_thread().name, predict_lane_alive())))
        net = random_net(56, input_dim=6, hidden=(5,), out=3)
        posterior_predict(net, 0, make_rng("one").random((4, 6)), make_rng(13), 1)
        assert seen == [(threading.current_thread().name, False)]

    @pytest.mark.parametrize("fail_at", [1, 3])
    def test_an_error_in_an_odd_sample_is_raised_here_and_joins(self, monkeypatch, fail_at):
        error, lane_calls = RuntimeError("sample failed"), []

        def fail_on_the_lane(z):
            if threading.current_thread().name.startswith("vclab-predict_"):
                lane_calls.append(z)
                if len(lane_calls) == fail_at:
                    raise error

        recording_softmax(monkeypatch, fail_on_the_lane)
        net = random_net(55, input_dim=6, hidden=(5,), out=3)
        threads = threading.active_count()
        raised = error_of(posterior_predict, net, 0, make_rng("err").random((4, 6)),
                          make_rng(12), 7)
        assert raised is error and len(lane_calls) == fail_at
        assert threading.active_count() == threads and not predict_lane_alive()

    def test_a_first_layer_variance_beyond_float32_overflows(self):
        # The first layer's variance is cast, not its sigma: exp(100) is
        # beyond float32, while exp(100 / 2) is a float32 sigma.
        net = random_net(59, input_dim=6, hidden=(5,), out=2)
        net.trunk[0].logvar_w[0, 0] = 100.0
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            posterior_predict(net, 0, make_rng("var").random((8, 6)), make_rng("var-predict"), 3)
        assert not predict_lane_alive()

    def test_rows_sum_to_one(self):
        net = random_net(50, input_dim=6, hidden=(5,), out=4, jitter=0.4)
        probs = posterior_predict(net, 0, make_rng("pp").random((8, 6)), make_rng(3), 7)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(8), rtol=0, atol=1e-7)
        assert np.all(probs >= 0)
