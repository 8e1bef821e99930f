"""vclab: variational continual learning with an automatically scheduled
KL weight derived from measured task difficulty and similarity."""

from .continual import AccuracyMatrix, TrainConfig, evaluate, run_sequence, train_on_task
from .data import (Dataset, TaskSpec, TaskView, load_cifar10_gray28, load_mnist,
                   make_mixed_sequence, make_permuted_tasks, make_split_tasks,
                   make_synthetic_blobs)
from .heuristics import (HeuristicConfig, HeuristicTrace, average_difficulty_gap,
                         compute_beta, measure_similarity, norm_unit, probe_difficulty)
from .numerics import NumericError, adam_step, finite_diff_grad, make_rng
from .vbnn import (VariationalLayer, VariationalNet, advance_prior, backward_gradients,
                   beta_elbo_loss, diag_gaussian_kl, init_network, kl_to_prior,
                   load_snapshot, posterior_predict, save_snapshot, standard_prior)

__version__ = "0.1.0"
