"""Mean-field Gaussian variational network with hand-written reverse-mode
gradients.

Every weight and bias is an independent Gaussian N(mu, exp(logvar)). The
first layer multiplies the shared (B, I) batch, so it is not sampled through
its weights: :func:`_first_layer_moments` gives the (B, O) mean x mu_w and
standard deviation sqrt(x^2 sigma_w^2) of x w, and a draw of x w is

    mean + std * eps,    eps ~ N(0, 1) of shape (B, O)

which for each row is the Gaussian that x w has under sampled w (the local
reparameterization trick). Every later weight and every bias is sampled
whole, w = mu + exp(logvar / 2) * eps, one draw per Monte Carlo sample
shared across the batch. Training and prediction follow this one rule. The
training objective for a batch is

    loss = nll + beta * kl / n_task

where nll is the mean negative log-likelihood over samples and batch and kl
is the closed-form KL from the current posterior to the running prior,
summed over the trunk and the active head in nats. Dividing the KL by the
task's training-set size makes per-batch gradients unbiased estimates of the
full per-task objective.

The likelihood part of the gradient flows pathwise through the draws into
(mu, logvar); the KL part is differentiated analytically.
``backward_gradients`` is verified against central finite differences with
frozen noise in the test suite -- there is no autodiff anywhere.

A network has one dtype, its buffers', float32 unless a test builds a
float64 net, and everything runs in it: the parameters, gradients, Adam's
moments, the prior, the noise and the Monte Carlo arithmetic. A snapshot
stores a float32 net's buffers as they are. A float64 net gives the exact
float64 pass that the finite-difference check differentiates.

Memory follows the Monte Carlo samples and the batch: ``fit`` holds the
parameters, Adam's two moments and one set of gradient buffers, which every
step overwrites, plus one step, plus the next step's noise. Each step's
(S, B, O) noise for the first layer and (S, I, O) noise for each later
layer is drawn with :func:`sample_noise` into one of two full-batch noise
sets, which ``fit`` allocates once and the steps take in turn, so the next
step's noise fills the set this step does not read. A step gathers its
batch from the task view, so the task is never materialized whole, and
releases its cache before the next step starts. Later layers keep their
(S, I, O) sampled weights, which their backward pass multiplies by; it
recomputes each hidden layer's input as the ReLU of the cached
pre-activation, one sample at a time, and sums the per-sample weight
gradients in sample order, the same bits as the stacked computation in the
same dtype. The first layer's sum over samples of
d_z * eps_w is taken the same way, and the ReLU's mask multiplies d_z in
place. The KL and its gradient, like Adam, walk each (2, n) buffer with
:func:`numerics.chunks`, whose few chunk-wide scratch rows replace
whole-buffer temporaries.

``posterior_predict`` computes the first layer's moments once per call and
runs each draw through a forward pass that keeps no backward cache. Draws
come in antithetic pairs (Hammersley & Morton 1956): one noise set makes a
draw at +eps and one at -eps, so S draws take ceil(S / 2) noise sets. Two
lanes each draw from their own generator, seeded from the call's ``rng``,
and take alternate pairs: this thread's, and one started with
:func:`spare_core_worker`. So prediction makes no (S, I, O) noise: its peak
memory is the two (B, O) moments, the square of one
:func:`numerics.row_blocks` block of the input, and per lane one noise set
and one draw's later-layer weights and activations. The lane sums are added
in a fixed order, so the bits do not depend on thread timing or on where
lane 1 ran.

Each layer keeps means and log-variances as the two rows of one (2, n)
buffer (see :class:`VariationalLayer`), and so do gradients, Adam moments
and priors: Adam, the KL, its gradient and the finite check are one
operation per layer. A head the prior lacks gets an all-zero, N(0, 1) prior.

Architecture is fixed: a shared trunk of affine+ReLU layers plus one affine
output head per task. Heads are created lazily; a head that is not active
contributes nothing to the KL and receives no updates.
"""

from __future__ import annotations

import itertools
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .numerics import DTYPE, NumericError, adam_step, atomic_write, chunks, row_blocks

if TYPE_CHECKING:
    from .data import TaskView

INIT_LOGVAR = -6.0
# Held by the one thread a run may add beside its own, a
# spare_core_worker's. Two cores have room for two busy threads.
SPARE_CORE = threading.Lock()


@contextmanager
def spare_core_worker(name: str):
    """A block that yields ``start(fn, *args)``, which returns a ``join()``
    that returns ``fn(*args)`` or raises its error.

    A ``start`` that takes :data:`SPARE_CORE` without waiting runs ``fn`` on
    the block's one worker thread, ``<name>_0``, made at the first such
    ``start`` under the calling thread's ``np.geterr()``, since
    ``np.errstate`` holds per thread. The worker releases the core as soon
    as ``fn`` ends; a ``start`` whose executor or submit fails releases it
    too. A ``start`` that finds the core taken runs nothing: ``fn`` runs on
    whichever thread calls ``join``. So a block opened in ``fn`` on a worker,
    which holds the core, starts no thread. Leaving the block joins the
    worker, and an outcome no ``join`` asked for is dropped. Callers start
    only work whose bits do not depend on the thread that runs it, and join
    it where a serial loop would have run it, so errors surface in that
    order too.
    """
    executor = None

    def run_then_release(fn, *args):
        try:
            return fn(*args)
        finally:
            SPARE_CORE.release()

    def start(fn, *args):
        nonlocal executor
        if not SPARE_CORE.acquire(blocking=False):
            return partial(fn, *args)
        try:
            if executor is None:
                executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix=name,
                                              initializer=partial(np.seterr, **np.geterr()))
            return executor.submit(run_then_release, fn, *args).result
        except BaseException:
            SPARE_CORE.release()
            raise

    try:
        yield start
    finally:
        if executor is not None:
            executor.shutdown()


class VariationalLayer:
    """One affine layer's variational parameters in a single (2, n) buffer.

    ``flat`` is C-contiguous float32 or float64 of shape
    (2, (fan_in + 1) * fan_out), and its dtype is the layer's: row 0 holds
    the means and row 1 the log-variances, each as the flattened
    (fan_in, fan_out) weights followed by the fan_out biases. ``mu_w``,
    ``logvar_w``, ``mu_b`` and ``logvar_b`` are views into it, so writes
    through either side are seen by the other. Views of a read-only buffer
    are read-only.
    """

    def __init__(self, flat: np.ndarray, fan_in: int, fan_out: int):
        if (flat.shape != (2, (fan_in + 1) * fan_out) or not flat.flags.c_contiguous
                or flat.dtype not in (np.float32, np.float64)):
            raise ValueError(f"need a C-contiguous float32 or float64 (2, "
                             f"{(fan_in + 1) * fan_out}) buffer for a {fan_in}x{fan_out} layer, "
                             f"got {flat.dtype} {flat.shape}")
        self.flat, self.fan_in, self.fan_out = flat, fan_in, fan_out
        n_w = fan_in * fan_out
        self.mu_w, self.logvar_w = (row[:n_w].reshape(fan_in, fan_out) for row in flat)
        self.mu_b, self.logvar_b = flat[:, n_w:]

    @classmethod
    def read_only(cls, flat: np.ndarray, fan_in: int, fan_out: int) -> "VariationalLayer":
        """A layer over ``flat``, which is made read-only."""
        flat.flags.writeable = False
        return cls(flat, fan_in, fan_out)

    def zeros_like(self) -> "VariationalLayer":
        return VariationalLayer(np.zeros_like(self.flat), self.fan_in, self.fan_out)

    def frozen_copy(self) -> "VariationalLayer":
        return VariationalLayer.read_only(self.flat.copy(), self.fan_in, self.fan_out)


def _init_layer(fan_in: int, fan_out: int, rng: np.random.Generator,
                dtype: np.dtype = DTYPE) -> VariationalLayer:
    # Mean init N(0, 0.1^2), drawn in float64 and rounded to ``dtype``; logvar
    # -6 starts training near-deterministic. The 0.1 scale must stay large
    # enough for one-epoch difficulty probes to learn through the trunk.
    layer = VariationalLayer(np.full((2, (fan_in + 1) * fan_out), INIT_LOGVAR, dtype),
                             fan_in, fan_out)
    layer.mu_w[...] = 0.1 * rng.standard_normal((fan_in, fan_out))
    layer.mu_b[...] = 0.0
    return layer


class VariationalNet:
    """Shared variational trunk plus per-task variational heads, all of one
    ``dtype`` (``DTYPE`` for a net with no layers)."""

    def __init__(self, input_dim: int, trunk: Sequence[VariationalLayer],
                 heads: dict[int, VariationalLayer]):
        dtypes = {layer.flat.dtype for layer in [*trunk, *heads.values()]}
        if len(dtypes) > 1:
            raise ValueError(f"one net's layers need one dtype, got {sorted(map(str, dtypes))}")
        self.input_dim = input_dim
        self.trunk = trunk
        self.heads = heads
        self.dtype = dtypes.pop() if dtypes else DTYPE

    @property
    def trunk_width(self) -> int:
        """Width of the representation consumed by every head."""
        return self.trunk[-1].fan_out if self.trunk else self.input_dim

    def head(self, head_index: int) -> VariationalLayer:
        try:
            return self.heads[head_index]
        except KeyError:
            raise KeyError(f"no head {head_index}; existing heads: {sorted(self.heads)}") from None

    def ensure_head(self, head_index: int, n_out: int,
                    rng: np.random.Generator) -> VariationalLayer:
        """Create an ``n_out``-way head in the net's dtype if missing (fresh
        init, N(0,1) prior implied); an existing head must already have
        ``n_out`` outputs."""
        if n_out < 1:
            raise ValueError(f"a head needs >= 1 outputs, got {n_out}")
        if head_index not in self.heads:
            self.heads[head_index] = _init_layer(self.trunk_width, n_out, rng, self.dtype)
        head = self.heads[head_index]
        if head.fan_out != n_out:
            raise ValueError(f"head {head_index} has {head.fan_out} outputs, not {n_out}")
        return head

    def active_layers(self, head_index: int) -> list[VariationalLayer]:
        """Trunk layers followed by the given head: the trainable set."""
        return [*self.trunk, self.head(head_index)]


def init_network(input_dim: int, hidden_dims: Sequence[int],
                 rng: np.random.Generator) -> VariationalNet:
    """Fresh network with no heads yet; heads are added lazily per task."""
    widths = [input_dim, *hidden_dims]
    if any(int(d) < 1 for d in widths):
        raise ValueError(f"all dimensions must be >= 1, got {widths}")
    trunk = [_init_layer(fan_in, fan_out, rng) for fan_in, fan_out in zip(widths, widths[1:])]
    return VariationalNet(input_dim, trunk, {})


# ---------------------------------------------------------------------------
# Priors: the running prior q_{t-1} is a VariationalNet with a tuple trunk
# and read-only arrays; a head it lacks has an N(0, 1) prior.


def standard_prior(net: VariationalNet) -> VariationalNet:
    """N(0, 1) prior on every trunk parameter (used before the first task):
    one read-only zero buffer per layer."""
    return VariationalNet(net.input_dim, tuple(
        VariationalLayer.read_only(np.zeros_like(layer.flat), layer.fan_in, layer.fan_out)
        for layer in net.trunk), {})


def advance_prior(net: VariationalNet) -> VariationalNet:
    """Deep-copy the current posterior; the copy is immutable thereafter."""
    return VariationalNet(net.input_dim, tuple(layer.frozen_copy() for layer in net.trunk),
                          {i: h.frozen_copy() for i, h in net.heads.items()})


def _prior_layers(net: VariationalNet, prior: VariationalNet,
                 head_index: int) -> list[VariationalLayer]:
    """The prior of each of ``net.active_layers(head_index)``.

    A head the prior does not have gets an all-zero layer: mean 0 and
    log-variance 0, the N(0, 1) prior of a new head.
    """
    head = net.head(head_index)
    priors = [*prior.trunk, prior.heads.get(head_index) or head.zeros_like()]
    for layer, p in zip([*net.trunk, head], priors, strict=True):
        if (p.fan_in, p.fan_out) != (layer.fan_in, layer.fan_out):
            raise ValueError(f"prior shape {(p.fan_in, p.fan_out)} does not match layer "
                             f"{(layer.fan_in, layer.fan_out)}")
    return priors


def diag_gaussian_kl(mu: np.ndarray, logvar: np.ndarray,
                     prior_mu: np.ndarray, prior_logvar: np.ndarray) -> float:
    """Closed-form KL(N(mu, e^logvar) || N(prior_mu, e^prior_logvar)), summed.

    The arguments are read flat and must have one size. Each term is
    -diff + exp(diff) + (mu - prior_mu)^2 exp(-prior_logvar) - 1 with
    diff = logvar - prior_logvar, evaluated in that order in ``mu``'s dtype
    over the chunks of :func:`numerics.chunks` with three scratch rows, so no
    temporary is the size of a layer. Each chunk's terms are summed in
    float64 and the chunk sums added in order, which can move the last bits
    against one whole-array sum. KL(q || q) is exactly 0.0 in floating point.
    """
    mu, logvar, prior_mu, prior_logvar = args = [np.asarray(a).reshape(-1) for a in (
        mu, logvar, prior_mu, prior_logvar)]
    if len({a.size for a in args}) > 1:
        raise ValueError(f"sizes differ: {[a.size for a in args]}")
    total = 0.0
    for part, (diff, terms, other) in chunks(mu, 3):
        np.subtract(logvar[part], prior_logvar[part], out=diff)
        np.exp(diff, out=terms)
        terms -= diff
        np.subtract(mu[part], prior_mu[part], out=other)
        np.square(other, out=other)
        np.negative(prior_logvar[part], out=diff)
        other *= np.exp(diff, out=diff)
        terms += other
        terms -= 1.0
        total += terms.sum(dtype=np.float64)
    return 0.5 * float(total)


def _add_kl_gradient(grad: VariationalLayer, layer: VariationalLayer, prior: VariationalLayer,
                     scale: float) -> None:
    """Add ``scale`` times the KL's gradient to ``grad``, in place:

        dKL/dmu     = (mu - mu0) / var0
        dKL/dlogvar = (exp(logvar)/var0 - 1) / 2

    as ``scale * (mu - mu0) * exp(-logvar0)`` and
    ``scale * 0.5 * (exp(logvar - logvar0) - 1)``, in the layer's dtype over
    the chunks of :func:`numerics.chunks` with two scratch rows: the bits of
    the whole-array expressions. Against a new head's all-zero prior, mu - 0.0,
    exp(-0.0) and logvar - 0.0 change no bit.
    """
    (mu, logvar), (mu0, logvar0), (g_mu, g_logvar) = layer.flat, prior.flat, grad.flat
    for part, (term, factor) in chunks(mu, 2):
        np.subtract(mu[part], mu0[part], out=term)
        term *= scale
        np.negative(logvar0[part], out=factor)
        term *= np.exp(factor, out=factor)
        g_mu[part] += term
        np.subtract(logvar[part], logvar0[part], out=term)
        np.exp(term, out=term)
        term -= 1.0
        term *= scale * 0.5
        g_logvar[part] += term


def kl_to_prior(net: VariationalNet, prior: VariationalNet, active_head: int) -> float:
    """Total KL in nats over trunk + active head; inactive heads contribute 0."""
    return float(sum(diag_gaussian_kl(*layer.flat, *p.flat) for layer, p in
                     zip(net.active_layers(active_head), _prior_layers(net, prior, active_head))))


# ---------------------------------------------------------------------------
# Reparameterized forward pass


@dataclass
class ForwardCache:
    """Everything the matching backward pass needs, including the noise."""

    head_index: int
    x: np.ndarray                                 # the (B, I) batch, the first layer's input
    std: np.ndarray                               # the first layer's (B, O) std of x w
    noise: list[tuple[np.ndarray, np.ndarray]]    # see sample_noise
    weights: list[tuple[np.ndarray, np.ndarray]]  # per layer after the first: w (S,I,O), b (S,O)
    pre: list[np.ndarray]                         # pre-activations per layer (S,B,out)

    @property
    def logits(self) -> np.ndarray:
        return self.pre[-1]


def _empty_noise(net: VariationalNet, head_index: int, n_samples: int,
                 batch_size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Uninitialized buffers of :func:`sample_noise`'s shapes."""
    return [(np.empty((n_samples, batch_size if li == 0 else layer.fan_in, layer.fan_out),
                      net.dtype), np.empty((n_samples, layer.fan_out), net.dtype))
            for li, layer in enumerate(net.active_layers(head_index))]


def sample_noise(net: VariationalNet, head_index: int, n_samples: int,
                 rng: np.random.Generator, batch_size: int,
                 out: list[tuple[np.ndarray, np.ndarray]] | None = None,
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Standard-normal noise in the net's dtype for a batch of ``batch_size``
    rows: per layer of trunk + head, (eps_w, eps_b) with eps_b of shape
    (S, O). The first layer's eps_w is (S, B, O), for its pre-activations;
    each later layer's is (S, I, O), for its weights. Each array is drawn
    in that order with one ``rng.standard_normal`` call.

    Without ``out`` the arrays are fresh. With ``out``, a noise set of these
    shapes for a batch of at least ``batch_size`` rows, they are views of its
    buffers, with the same bits: the first layer's eps_w is the C-contiguous
    (S, B, O) prefix of its buffer.
    """
    noise = []
    if out is None:
        out = _empty_noise(net, head_index, n_samples, batch_size)
    for li, (eps_w, eps_b) in enumerate(out):
        if li == 0:
            shape = (n_samples, batch_size, eps_w.shape[2])
            eps_w = eps_w.reshape(-1)[:np.prod(shape)].reshape(shape)
        noise.append((rng.standard_normal(dtype=net.dtype, out=eps_w),
                      rng.standard_normal(dtype=net.dtype, out=eps_b)))
    return noise


def _means_and_sigmas(layers: Sequence[VariationalLayer]) -> list[tuple]:
    """Each layer's (mu_w, sigma_w, mu_b, sigma_b), sigma = exp(logvar / 2)
    in the layer's dtype, where a sigma beyond its range overflows."""
    return [(layer.mu_w, np.exp(0.5 * layer.logvar_w), layer.mu_b, np.exp(0.5 * layer.logvar_b))
            for layer in layers]


def _first_layer_moments(layer: VariationalLayer, x: np.ndarray) -> tuple:
    """The (B, O) mean x mu_w and std sqrt(x^2 sigma_w^2) of x w, and the
    layer's (mu_b, sigma_b), all in the layer's dtype, which ``x`` has.

    sigma_w^2 = exp(logvar_w) is taken, not sigma_w, so in a float32 layer a
    log-variance in (88.7, 177] overflows here although its sigma would not.
    x^2 sigma_w^2 is multiplied in the row blocks of
    :func:`numerics.row_blocks` into the std's own buffer, so no (B, I)
    square is whole; each row has the bits of the whole product.
    """
    mean = x @ layer.mu_w
    var_w = np.exp(layer.logvar_w)
    mu_b, sigma_b = layer.mu_b, np.exp(0.5 * layer.logvar_b)
    std = np.empty_like(mean)
    for rows in row_blocks(x.shape[0]):
        np.matmul(np.square(x[rows]), var_w, out=std[rows])
    return mean, np.sqrt(std, out=std), mu_b, sigma_b


def _as_input(net: VariationalNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"input shape {x.shape} does not match input_dim {net.input_dim}")
    return x.astype(net.dtype, copy=False)


def forward_with_noise(net: VariationalNet, head_index: int, x: np.ndarray,
                       noise: list[tuple[np.ndarray, np.ndarray]]) -> ForwardCache:
    """Forward pass with the given noise (see :func:`sample_noise`); ReLU
    between trunk layers, linear head.

    Everything runs in the net's dtype, which the noise must have (a
    ``ValueError`` otherwise); the batch is cast to it.

    The first layer's pre-activations are std * eps_w + mean + b, from its
    moments (see :func:`_first_layer_moments`) and a sampled bias b. Later
    layers sample their weights and keep them for the backward pass.
    """
    first, *later = net.active_layers(head_index)
    if len(noise) != len(later) + 1:
        raise ValueError(f"noise for {len(noise)} layers, net has {len(later) + 1}")
    dtypes = {a.dtype for pair in noise for a in pair}
    if dtypes != {net.dtype}:
        raise ValueError(f"noise of {sorted(map(str, dtypes))} for a {net.dtype} net")
    (eps_w, eps_b), *later_noise = noise
    x = _as_input(net, x)
    if eps_w.shape[1:] != (x.shape[0], first.fan_out):
        raise ValueError(f"first-layer noise {eps_w.shape} does not fit a batch of "
                         f"{x.shape[0]} rows and {first.fan_out} outputs")
    mean, std, mu_b, sigma_b = _first_layer_moments(first, x)
    z = std * eps_w                                 # (S, B, O)
    z += mean
    z += (sigma_b * eps_b + mu_b)[:, None, :]
    weights, pre = [], [z]
    for (mu_w, sigma_w, mu_b, sigma_b), (eps_w, eps_b) in zip(
            _means_and_sigmas(later), later_noise):
        w = sigma_w * eps_w                         # (S, I, O)
        w += mu_w
        b = sigma_b * eps_b                         # (S, O)
        b += mu_b
        z = np.maximum(pre[-1], 0.0) @ w            # (S, B, O)
        z += b[:, None, :]
        weights.append((w, b))
        pre.append(z)
    return ForwardCache(head_index=head_index, x=x, std=std, noise=noise, weights=weights,
                        pre=pre)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(z))


# ---------------------------------------------------------------------------
# Loss and gradients


def _check_labels(y: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"labels out of range [0, {n_classes}): {y.min()}..{y.max()}")
    return y.astype(np.int64)


def beta_elbo_loss(net: VariationalNet, prior: VariationalNet, head_index: int,
                   x: np.ndarray, y: np.ndarray, *, beta: float, n_task: int,
                   noise: list[tuple[np.ndarray, np.ndarray]],
                   ) -> tuple[float, ForwardCache]:
    """Negative beta-ELBO of one batch under the given reparameterization
    noise (see :func:`sample_noise`), plus the cache for backward."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    x = np.asarray(x)
    if n_task < x.shape[0]:
        raise ValueError(f"n_task {n_task} smaller than batch {x.shape[0]}")
    cache = forward_with_noise(net, head_index, x, noise)
    y = _check_labels(y, cache.logits.shape[-1])
    logp = _log_softmax(cache.logits)                       # (S, B, O)
    picked = logp[:, np.arange(y.size), y]                  # (S, B)
    nll = -float(picked.mean())
    kl = kl_to_prior(net, prior, head_index)
    loss = nll + beta * kl / n_task
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss: nll={nll}, kl={kl}")
    return loss, cache


def backward_gradients(net: VariationalNet, prior: VariationalNet, cache: ForwardCache,
                       y: np.ndarray, *, beta: float, n_task: int,
                       out: list[VariationalLayer] | None = None) -> list[VariationalLayer]:
    """Exact gradients of the batch loss for every (mu, logvar) of trunk + head.

    Each gradient is a :class:`VariationalLayer` holding d loss / d param in
    the place of the param. They are written into ``out``, one layer per
    layer of trunk + head, which is returned; every entry is overwritten, so
    what ``out`` held before does not matter. Without ``out`` they are
    written into fresh zeros. Combines the pathwise likelihood gradient, using
    the cached noise, with the analytic KL gradient (see
    :func:`_add_kl_gradient`).

    A later layer's gradient flows through w = mu + sigma * eps_w. The first
    layer's flows through its pre-activations std * eps_w + mean, with
    mean = x mu_w and std^2 = x^2 sigma_w^2, as two matmuls:

        d mu_w     = x^T sum_s d_z
        d logvar_w = sigma_w^2 * (x^2)^T (sum_s d_z * eps_w / (2 std))

    where a row with std 0 (an all-zero input row) contributes 0. The sum
    over samples of d_z * eps_w is taken sample by sample, in sample order.

    ``d_z``, the per-sample gradients, their sums and the KL part are in
    the net's dtype.
    """
    layers = net.active_layers(cache.head_index)
    y = _check_labels(y, cache.logits.shape[-1])
    n_samples, batch_size = cache.logits.shape[:2]
    if y.size != batch_size:
        raise ValueError(f"stale cache: batch size {batch_size}, labels {y.size}")
    shapes = [(batch_size, layers[0].fan_out), *(layer.mu_w.shape for layer in layers[1:])]
    if (cache.x.shape[1] != layers[0].fan_in
            or [eps_w.shape[1:] for eps_w, _ in cache.noise] != shapes):
        raise ValueError("stale cache: layer shapes changed since forward pass")
    scale = 1.0 / (n_samples * batch_size)
    d_z = softmax(cache.logits)
    d_z[:, np.arange(y.size), y] -= 1.0
    d_z *= scale

    kl_scale = beta / n_task
    priors = _prior_layers(net, prior, cache.head_index)
    if out is None:
        grads = [layer.zeros_like() for layer in layers]
    elif [g.flat.shape for g in out] == [layer.flat.shape for layer in layers]:
        grads = out
    else:
        raise ValueError("gradient buffers do not match the layers of trunk + head")
    for li in range(len(layers) - 1, -1, -1):
        layer, g, pl = layers[li], grads[li], priors[li]
        eps_w, eps_b = cache.noise[li]
        d_b = d_z.sum(axis=1)                       # (S, O)
        g.mu_b[...] = d_b.sum(axis=0)
        g.logvar_b[...] = (d_b * eps_b).sum(axis=0) * (0.5 * np.exp(0.5 * layer.logvar_b))
        if li == 0:
            g.mu_w[...] = cache.x.T @ d_z.sum(axis=0)
            # Summed from +0.0 in sample order, as numpy's axis-0 reduction
            # of the stacked (S, B, O) product does, without building it.
            d_std = np.zeros_like(cache.std)        # (B, O)
            for s in range(n_samples):
                d_std += d_z[s] * eps_w[s]
            del d_z                                 # not needed past here
            d_var = np.divide(d_std, 2 * cache.std, out=np.zeros_like(d_std),
                              where=cache.std > 0)
            np.exp(layer.logvar_w, out=g.logvar_w)
            g.logvar_w *= np.square(cache.x).T @ d_var
        else:
            # Per-sample weight gradients, summed in sample order from +0.0
            # as numpy's axis-0 reduction does: the same bits as summing a
            # stacked (S, I, O) gradient, without building it. The input is
            # the ReLU of the previous pre-activation, recomputed per sample.
            g.mu_w[...] = 0.0
            g.logvar_w[...] = 0.0
            for s in range(n_samples):
                d_w = np.maximum(cache.pre[li - 1][s], 0.0).T @ d_z[s]  # (I, O)
                g.mu_w += d_w
                d_w *= eps_w[s]
                g.logvar_w += d_w
            g.logvar_w *= 0.5 * np.exp(0.5 * layer.logvar_w)
        _add_kl_gradient(g, layer, pl, kl_scale)
        if li > 0:
            w, _ = cache.weights[li - 1]
            d_z = d_z @ w.transpose(0, 2, 1)        # (S, B, I), then the ReLU's mask
            d_z *= cache.pre[li - 1] > 0
    return grads


class NetAdam:
    """Adam over the trunk plus one head: each layer's moments, allocated m then v, layer
    by layer, and one step count and one learning rate for them all."""

    def __init__(self, net: VariationalNet, head_index: int, lr: float):
        self._layers = net.active_layers(head_index)
        self._moments = [(np.zeros_like(layer.flat), np.zeros_like(layer.flat))
                         for layer in self._layers]
        self.step_count, self.lr = 0, lr

    def step(self, grads: list[VariationalLayer]) -> None:
        self.step_count += 1
        for layer, grad, (m, v) in zip(self._layers, grads, self._moments, strict=True):
            adam_step(layer.flat, grad.flat, m, v, self.step_count, self.lr)


def fit(net: VariationalNet, prior: VariationalNet, head_index: int, data: TaskView, *,
        beta: float, epochs: int, batch_size: int, lr: float, mc_samples: int,
        rng: np.random.Generator) -> None:
    """Train trunk + head with Adam on the per-batch negative beta-ELBO.

    Data is reshuffled every epoch from ``rng``; the last partial batch is
    kept; the KL is divided by the task size ``len(data)``. Each step gathers
    its batch from the view with ``data.take``, so the task is never
    materialized whole, and its cache is released before the next step
    starts. The first step's gradient buffers take every later step's
    gradients too.

    Every draw comes from ``rng`` in the serial order: per epoch
    ``rng.permutation(n_task)``, then per step its noise, drawn with
    :func:`sample_noise` into two full-batch noise sets allocated here, so
    step k + 1's noise fills the set step k does not read. The first step is
    drawn here; each step starts the next one's draws with
    :func:`spare_core_worker` (``vclab-noise``) before it computes, and joins
    them after. Only one draw is ever in flight, so the generator is consumed
    in the serial order. A step's error wins over its pending draw's, whose
    outcome is dropped, as a serial loop would never have made that draw.
    Each step's loss must be finite (``NumericError`` otherwise). One code
    path serves fixed and scheduled beta.
    """
    n_task = len(data)
    if n_task == 0:
        raise ValueError("empty dataset")
    optimizer = NetAdam(net, head_index, lr)
    grads = None
    noise_sets = [_empty_noise(net, head_index, mc_samples, min(batch_size, n_task))
                  for _ in range(2)]

    def training_draws():
        sets = itertools.cycle(noise_sets)
        for _ in range(epochs):
            order = rng.permutation(n_task)
            for start in range(0, n_task, batch_size):
                idx = order[start:start + batch_size]
                yield idx, sample_noise(net, head_index, mc_samples, rng, len(idx),
                                        out=next(sets))

    draws = training_draws()
    with spare_core_worker("vclab-noise") as start:
        step = next(draws)
        while step is not None:
            ahead = start(next, draws, None)
            idx, noise = step
            x, y = data.take(idx)
            _, cache = beta_elbo_loss(net, prior, head_index, x, y, beta=beta, n_task=n_task,
                                      noise=noise)
            grads = backward_gradients(net, prior, cache, y, beta=beta, n_task=n_task,
                                       out=grads)
            optimizer.step(grads)
            # Made in the first step's backward pass, the gradient buffers
            # sit above that step's working memory on the heap, so glibc
            # cannot trim what later steps free below them and fault it back
            # in on the next step. Made before the loop, they let split-fixed
            # (seed 4242, 2-core VM, transparent huge pages off) take 145k
            # minor faults a run instead of 56k.
            del cache
            step = ahead()


def posterior_predict(net: VariationalNet, head_index: int, x: np.ndarray,
                      rng: np.random.Generator, n_eval_samples: int) -> np.ndarray:
    """Posterior-predictive class probabilities: softmax averaged over draws.

    Each draw takes the first layer's pre-activations from its moments and a
    sampled bias, as :func:`forward_with_noise` does, and samples every later
    layer's weights. The S draws come from ceil(S / 2) noise sets: pair j is
    draws 2j and 2j + 1, at +eps and then -eps of set j, and with odd S the
    last pair is the one +eps draw S - 1. Each draw is an exact posterior
    sample, so the average stays unbiased. ``rng`` only seeds the two lanes,
    with one ``rng.integers(2**63, size=2)`` call. Lane k takes pairs k,
    k + 2, ...: for each it draws first the (B, O) first-layer eps and the
    first bias's eps, then each later layer's eps_w and eps_b, all in the
    net's dtype; it sums its draws' softmax in float64, in draw order.
    Lane 1 is started with :func:`spare_core_worker` (``vclab-predict``),
    lane 0 runs here, and lane 1 is joined after it; S <= 2 makes one pair
    and starts no lane. The result is (lane 0 + lane 1) / S.
    """
    if n_eval_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x, dtype = _as_input(net, x), net.dtype
    first, *later_layers = net.active_layers(head_index)
    mean, std, mu_b1, sigma_b1 = _first_layer_moments(first, x)
    later = _means_and_sigmas(later_layers)
    seeds = rng.integers(2**63, size=2)
    n_pairs = (n_eval_samples + 1) // 2

    def lane(k: int) -> np.ndarray:
        draws = np.random.default_rng(seeds[k])
        total = np.zeros((x.shape[0], net.head(head_index).fan_out))
        for pair in range(k, n_pairs, 2):
            # One noise set, scaled by the sigmas, makes the pair's draw at
            # +eps and then its draw at -eps; with odd S the last pair is one
            # +eps draw.
            z1 = std * draws.standard_normal(mean.shape, dtype=dtype)
            z1_b = sigma_b1 * draws.standard_normal(mu_b1.shape, dtype=dtype)
            z_later = [(sigma_w * draws.standard_normal(mu_w.shape, dtype=dtype),
                        sigma_b * draws.standard_normal(mu_b.shape, dtype=dtype))
                       for mu_w, sigma_w, mu_b, sigma_b in later]
            for shift in (np.add, np.subtract)[:n_eval_samples - 2 * pair]:
                act = shift(mean, z1)
                act += shift(mu_b1, z1_b)
                for (mu_w, _, mu_b, _), (z_w, z_b) in zip(later, z_later):
                    act = np.maximum(act, 0.0) @ shift(mu_w, z_w) + shift(mu_b, z_b)
                total += softmax(act)
        return total

    if n_pairs == 1:
        return lane(0) / n_eval_samples
    with spare_core_worker("vclab-predict") as start:
        odd = start(lane, 1)
        total = lane(0)
        total += odd()
    return total / n_eval_samples


# ---------------------------------------------------------------------------
# Snapshot serialization
#
# Binary layout (little-endian), documented here and in the README:
#   magic   8 bytes  b"VCLSNAP2"
#   u32     number of trunk layers T
#   u32     number of heads H
#   T x (u32 fan_in, u32 fan_out)               trunk shapes in order
#   H x (u32 head_index, u32 fan_in, u32 fan_out)  heads sorted by index
#   then for each trunk layer, then each head (same order):
#       its (2, (fan_in + 1) * fan_out) buffer as raw float32, row 0 the
#       means and row 1 the log-variances, each the weights then the biases

SNAPSHOT_MAGIC = b"VCLSNAP2"


def save_snapshot(snapshot: VariationalNet, path) -> None:
    """Write a float32 network in the flat binary format described above,
    atomically, each layer's buffer as it is; a net of another dtype is a
    ValueError."""
    if snapshot.dtype != DTYPE:
        raise ValueError(f"a snapshot holds a {DTYPE} net, not a {snapshot.dtype} one")
    head_items = sorted(snapshot.heads.items())
    with atomic_write(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", len(snapshot.trunk), len(head_items)))
        for layer in snapshot.trunk:
            fh.write(struct.pack("<II", layer.fan_in, layer.fan_out))
        for index, layer in head_items:
            fh.write(struct.pack("<III", index, layer.fan_in, layer.fan_out))
        for layer in [*snapshot.trunk, *(h for _, h in head_items)]:
            fh.write(np.ascontiguousarray(layer.flat, dtype="<f4"))


def load_snapshot(path) -> VariationalNet:
    """Read a snapshot written by :func:`save_snapshot` as a read-only
    ``DTYPE`` (float32) network that can predict, bit for bit: each layer's
    buffer is a view of the file's bytes. ``input_dim`` is the first stored
    layer's ``fan_in`` (0 for a file with no layers).

    Raises ValueError on a ``VCLSNAP1`` (float64) file, naming that format,
    and on a truncated or corrupt file: every length is checked against the
    header counts before anything is unpacked, the header's layers must
    chain (each trunk layer takes the previous one's outputs, each head the
    trunk's, and no width is 0), and every parameter must be finite.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] == b"VCLSNAP1":
        raise ValueError(f"{path} is in VCLSNAP1, the float64 snapshot format, which is no "
                         f"longer read; snapshots are {SNAPSHOT_MAGIC.decode()} now")
    if blob[:8] != SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {blob[:8]!r}")
    if len(blob) < 16:
        raise ValueError(f"snapshot header truncated at {len(blob)} bytes")
    n_trunk, n_heads = struct.unpack_from("<II", blob, 8)
    pos = 16 + 8 * n_trunk + 12 * n_heads
    if pos > len(blob):
        raise ValueError(f"snapshot header lists {n_trunk} trunk layers and {n_heads} heads, "
                         f"which needs {pos} bytes; the file has {len(blob)}")
    trunk_shapes = [struct.unpack_from("<II", blob, 16 + 8 * i) for i in range(n_trunk)]
    head_shapes = [struct.unpack_from("<III", blob, 16 + 8 * n_trunk + 12 * i)
                   for i in range(n_heads)]
    if len({index for index, _, _ in head_shapes}) != n_heads:
        raise ValueError("snapshot header repeats a head index")
    shapes = [*trunk_shapes, *((fi, fo) for _, fi, fo in head_shapes)]
    input_dim = width = shapes[0][0] if shapes else 0
    names = [f"trunk layer {k}" for k in range(n_trunk)] + [f"head {i}" for i, _, _ in head_shapes]
    for k, (name, (fan_in, fan_out)) in enumerate(zip(names, shapes)):
        if min(fan_in, fan_out) < 1:
            raise ValueError(f"snapshot {name} is {fan_in}x{fan_out}; each width must be >= 1")
        if fan_in != width:
            raise ValueError(f"snapshot {name} takes {fan_in} inputs, its input is {width} wide")
        if k < n_trunk:
            width = fan_out
    sizes = [2 * (fi + 1) * fo for fi, fo in shapes]
    expected = pos + 4 * sum(sizes)
    if expected != len(blob):
        raise ValueError(f"snapshot should be {expected} bytes for the shapes in its header, "
                         f"file has {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4", offset=pos).astype(DTYPE, copy=False)
    if not np.isfinite(values).all():
        raise ValueError("snapshot has a non-finite parameter")
    parts = np.split(values, np.cumsum(sizes)[:-1])
    layers = [VariationalLayer.read_only(part.reshape(2, -1), fan_in, fan_out)
              for part, (fan_in, fan_out) in zip(parts, shapes)]
    heads = {index: layer for (index, _, _), layer in zip(head_shapes, layers[n_trunk:])}
    return VariationalNet(input_dim, tuple(layers[:n_trunk]), heads)
