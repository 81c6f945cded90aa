"""Prediction read-back for every model kind: a row's prediction does not
depend on the rows predicted with it, and a large prediction holds the input
plus a few row blocks, not every layer of every row."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import usnrt
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


# Call sizes around the block boundaries, and a larger odd one.
SIZES = (1, 2, 3, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 10_001)


def _predictors(kind):
    """Functions from rows to the arrays a kind predicts for them: a network
    of each pair of hidden and output activations, or one model's
    predict_arrays."""
    if kind == "forward":
        nets = [Mlp([D, 32, 16, 1], hidden, output, seed=3) for hidden, output in itertools.product(Activation, repeat=2)]
        return [lambda X, net=net: (net.forward(X),) for net in nets]
    return [MODELS[kind]().predict_arrays]


def rows_that_depend_on_the_call(kind) -> list:
    """[predictor, n, row] of each row whose prediction in one call over the
    first n rows differs in any bit from its prediction alone."""
    X = np.random.default_rng(8).uniform(-2.0, 2.0, (max(SIZES), D))
    differ = []
    for index, predict in enumerate(_predictors(kind)):
        alone = np.concatenate([np.column_stack(predict(X[row : row + 1])) for row in range(X.shape[0])])
        for n in SIZES:
            together = np.column_stack(predict(X[:n]))
            bits_differ = together.view(np.uint64) != alone[:n].view(np.uint64)
            differ += [[index, n, int(row)] for row in np.flatnonzero(bits_differ.any(axis=1))]
    return differ


@pytest.mark.parametrize("coretype", [None, "Haswell"], ids=["default-kernels", "haswell-kernels"])
@pytest.mark.parametrize("kind", ["forward", *MODELS])
def test_a_row_predicts_alone_as_within_any_call(kind, coretype):
    """Each row predicted alone gets the bits it gets in one call over 1 to
    10,001 rows: every pass runs its blocks padded to whole 4-row groups, so
    BLAS computes each row by its matrix kernel, never by the edge kernels
    of a product's last rows. Runs in a fresh interpreter with one BLAS
    thread, since a multithreaded BLAS splits a large product among its
    threads at rows that need not be multiples of 4; and under OpenBLAS's
    Haswell kernels (which AVX2-only and AMD Zen CPUs get) as well as the
    ones it picks for the CPU it runs on."""
    threads = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    paths = [str(Path(usnrt.__file__).resolve().parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **threads, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    script = f"import json, test_predict; print(json.dumps(test_predict.rows_that_depend_on_the_call({kind!r})))"
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == []


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
