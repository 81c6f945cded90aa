"""Prediction read-back for every model kind: a row's prediction does not
depend on the rows predicted with it, and a large prediction holds the input
plus a few row blocks, not every layer of every row."""

import tracemalloc

import numpy as np
import pytest

from usnrt.baselines import EnsembleModel, HnnModel, ensemble_predict_arrays
from usnrt.nn_core import BLOCK_ROWS, Activation, Mlp, predict_sigma
from usnrt.tree import InternalNode, LeafNode, UsnrtConfig, UsnrtModel

D = 8


def _leaf(region_id):
    mean_net = Mlp([D, 32, 16, 1], seed=region_id)
    sigma_net = Mlp([D, 32, 16, 1], output_activation=Activation.SOFTPLUS, seed=100 + region_id)
    return LeafNode(region_id, mean_net, sigma_net, train_count=10, residual_std=1.0)


def _hnn(seed):
    return HnnModel(
        mean_net=Mlp([D, 64, 32, 1], Activation.RELU, Activation.LINEAR, seed=seed),
        sigma_net=Mlp([D, 64, 32, 1], Activation.TANH, Activation.SOFTPLUS, seed=100 + seed),
    )


MODELS = {
    # Three leaves: x0 <= 0 splits first, then x1 <= 0.5 on the right.
    "usnrt": lambda: UsnrtModel(
        InternalNode(0, 0.0, 0.001, _leaf(1), InternalNode(1, 0.5, 0.002, _leaf(2), _leaf(3))),
        UsnrtConfig(),
        None,
    ),
    "hnn": lambda: _hnn(1),
    "ensemble": lambda: EnsembleModel([_hnn(seed) for seed in (1, 2, 3)]),
}


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", MODELS)
def test_a_row_predicts_alone_as_within_a_call(kind):
    """predict_arrays row by row equals predict_arrays on the same rows four
    at a time. A lone row, or a leaf routed fewer than 4 rows, runs padded to
    4 rows, so it takes BLAS's matrix kernels, not its vector kernels. (In a
    call whose leaf group is not a multiple of 4 rows, the group's last rows
    still take BLAS's edge kernels, which may round differently.)"""
    model = MODELS[kind]()
    X = np.random.default_rng(4).uniform(-1.0, 1.0, (200, D))
    for start in range(0, X.shape[0], 4):
        mu, sigma = model.predict_arrays(X[start : start + 4])
        for i in range(4):
            alone = model.predict_arrays(X[start + i : start + i + 1])
            assert (alone[0][0], alone[1][0]) == (mu[i], sigma[i]), f"row {start + i}"


@pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 2, 3 * BLOCK_ROWS + 5])
def test_ensemble_moment_matching_in_blocks_equals_one_pass(n):
    """The blocked aggregation gives the bits of moment matching all rows at
    once from the members' outputs."""
    model = MODELS["ensemble"]()
    X = np.random.default_rng(n).uniform(-1.0, 1.0, (n, D))
    mu_stack = np.stack([member.mean_net.forward(X)[:, 0] for member in model.members])
    sigma_stack = np.stack([predict_sigma(member.sigma_net, X) for member in model.members])
    mu_bar = mu_stack[0] + np.mean(mu_stack - mu_stack[0], axis=0)
    variance_excess = np.mean(sigma_stack**2 - sigma_stack[0] ** 2, axis=0)
    ratio = (variance_excess + np.mean((mu_stack - mu_bar) ** 2, axis=0)) / sigma_stack[0] ** 2
    sigma_bar = sigma_stack[0] * np.sqrt(np.maximum(1.0 + ratio, 0.0))
    mu, sigma = ensemble_predict_arrays(model, X)
    assert mu.tobytes() == mu_bar.tobytes()
    assert sigma.tobytes() == sigma_bar.tobytes()


@pytest.mark.parametrize("kind, widest", [("usnrt", 32), ("ensemble", 64)])
def test_prediction_holds_the_input_and_a_few_blocks(kind, widest):
    """40,000 rows: the traced peak stays under the bytes of X plus four
    blocks of the widest layer. Running each leaf, or each member, over all
    its rows at once holds its whole hidden layers: 9.5 MiB for this tree
    and 32 MiB for this ensemble, against 2.4 MiB of X."""
    model = MODELS[kind]()
    X = np.random.default_rng(9).uniform(-1.0, 1.0, (40_000, D))
    peak = _traced_peak(lambda: model.predict_arrays(X))
    assert peak < X.nbytes + 4 * BLOCK_ROWS * widest * X.itemsize, f"traced peak {peak / 2**20:.1f} MiB"
