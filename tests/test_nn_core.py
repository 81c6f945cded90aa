"""Network engine tests: forward contracts, training behaviour, gradient
correctness against central finite differences, determinism, and bit
identity with a textbook reference trainer."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from usnrt.nn_core import (
    BLOCK_ROWS,
    SIGMA_FLOOR,
    Activation,
    Mlp,
    TrainConfig,
    TrainingError,
    average_nll,
    check_rows,
    nll_loss,
    predict_sigma,
    row_blocks,
    train_mse,
    train_nll_fixed_mean,
    train_nll_fixed_mean_lockstep,
    train_nll_fixed_sigma,
    train_nll_fixed_sigma_lockstep,
    validation_split,
)
from usnrt.nn_core import _forward_cached, _MseObjective, _NllMeanObjective, _NllSigmaObjective, _run_training, _Stack

from conftest import finite_difference_worst


def zero_net(layer_sizes, output_activation=Activation.LINEAR):
    net = Mlp(layer_sizes, output_activation=output_activation, seed=0)
    net.weights = [np.zeros_like(W) for W in net.weights]
    net.biases = [np.zeros_like(b) for b in net.biases]
    return net


class TestForward:
    def test_zero_weights_give_zero_output(self):
        net = zero_net([3, 5, 2])
        out = net.forward([[0.3, -0.7, 2.1]])
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_identity_single_layer(self):
        net = zero_net([3, 3])
        net.weights = [np.eye(3)]
        x = np.array([[0.25, -1.5, 7.0]])
        assert np.array_equal(net.forward(x), x)

    def test_softplus_neuron(self):
        # One neuron, W=[2], b=[1], softplus output: x=0 -> ln(1 + e).
        net = Mlp([1, 1], output_activation=Activation.SOFTPLUS, seed=0)
        net.weights = [np.array([[2.0]])]
        net.biases = [np.array([1.0])]
        out = net.forward([[0.0]])
        assert out[0, 0] == pytest.approx(1.3132616875182228, abs=1e-12)

    def test_batch_matches_per_row(self):
        # The 11 rows run as 12, the last one repeated, and a lone row as 4
        # copies of itself, so BLAS computes every row by the same kernel.
        net = Mlp([4, 7, 3, 1], seed=9)
        X = np.random.default_rng(2).normal(size=(11, 4))
        batch = net.forward(X)
        rows = np.array([net.forward(row[None, :])[0] for row in X])
        assert batch.tobytes() == rows.tobytes()

    def test_repeat_call_bit_identical(self):
        net = Mlp([4, 7, 3, 1], seed=9)
        X = np.random.default_rng(2).normal(size=(11, 4))
        assert np.array_equal(net.forward(X), net.forward(X))

    @pytest.mark.parametrize("hidden", list(Activation), ids=lambda act: act.value)
    @pytest.mark.parametrize("output", list(Activation), ids=lambda act: act.value)
    def test_forward_equals_the_training_pass_bit_for_bit(self, hidden, output):
        net = Mlp([3, 7, 5, 2], hidden, output, seed=4)
        X = 3.0 * np.random.default_rng(5).normal(size=(64, 3))
        before = X.copy()
        stack = _Stack(net.layer_sizes, net._flatten()[None])
        _, post = _forward_cached(stack.weights, stack.biases, net._activations(), X[None])
        assert net.forward(X).tobytes() == post[-1][0].tobytes()
        assert np.array_equal(X, before)

    def test_forward_holds_only_the_live_layer(self):
        """50,000 rows through [8, 64, 32, 1]: the traced peak stays below the
        output plus twice one row block's 64- and 32-wide layers. The pass
        runs in blocks, each holding only its live layer; one pass over all
        rows holds 1.5 times the 64-wide layer's output, about 37 MiB, and
        keeping every layer's pre-activation and activation about 3 times."""
        net = Mlp([8, 64, 32, 1], seed=1)
        X = np.random.default_rng(6).normal(size=(50_000, 8))
        tracemalloc.start()
        try:
            net.forward(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.shape[0] * X.itemsize + 2 * BLOCK_ROWS * (64 + 32) * X.itemsize

    def test_dimension_mismatch(self):
        net = Mlp([4, 3, 1], seed=0)
        with pytest.raises(ValueError):
            net.forward([1.0, 2.0])

    def test_invalid_layer_sizes(self):
        with pytest.raises(ValueError):
            Mlp([4])
        with pytest.raises(ValueError):
            Mlp([4, 0, 1])

    def test_single_vector_rejected(self):
        # One input form: an (n, d) batch, even for one row.
        net = Mlp([4, 3, 1], seed=0)
        with pytest.raises(ValueError, match=r"expected an \(n, 4\) batch"):
            net.forward(np.ones(4))


class TestBlocks:
    @pytest.mark.parametrize(
        "n, sizes",
        [
            (0, []),
            (1, [1]),
            (BLOCK_ROWS, [BLOCK_ROWS]),
            (BLOCK_ROWS + 3, [BLOCK_ROWS, 3]),
            (BLOCK_ROWS + 4, [BLOCK_ROWS, 4]),
            (2 * BLOCK_ROWS + 1, [BLOCK_ROWS, BLOCK_ROWS, 1]),
            (3 * BLOCK_ROWS, [BLOCK_ROWS] * 3),
        ],
    )
    def test_row_blocks_cover_the_rows_in_order(self, n, sizes):
        blocks = row_blocks(n)
        assert [b.stop - b.start for b in blocks] == sizes
        assert [b.start for b in blocks] == list(range(0, n, BLOCK_ROWS))

    def test_no_rows_give_an_empty_output(self):
        net = Mlp([3, 5, 2], seed=0)
        assert net.forward(np.empty((0, 3))).shape == (0, 2)


class TestCheckRows:
    def test_float_arrays_in_keyword_order(self):
        X, b, a = check_rows([[1, 2], [3, 4]], 2, b=[5, 6], a=(7, 8))
        assert X.dtype == b.dtype == a.dtype == np.float64
        assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(b, [5.0, 6.0]) and np.array_equal(a, [7.0, 8.0])
        (X_only,) = check_rows(np.zeros((3, 5)))
        assert X_only.shape == (3, 5)

    @pytest.mark.parametrize(
        "X, width, vectors, message",
        [
            (np.zeros(3), None, {}, "X must be a 2-d sample matrix"),
            (np.zeros((2, 3)), 2, {}, "X has width 3, model expects 2"),
            (np.array([[0.0, np.nan]]), None, {}, "features must be finite"),
            (np.array([[0.0, -np.inf]]), 2, {}, "features must be finite"),
            (np.zeros((2, 1)), None, {"y": np.zeros(3)}, "y must be a vector matching the rows of X"),
            (np.zeros((2, 1)), None, {"y": np.zeros((2, 1))}, "y must be a vector matching the rows of X"),
            (np.zeros((2, 1)), None, {"y": [0.0, np.nan]}, "y must be finite"),
            (np.zeros((2, 1)), None, {"y": [0.0, 1.0], "residuals": [np.inf, 0.0]}, "residuals must be finite"),
        ],
        ids=["1-d", "width", "nan-feature", "inf-feature", "short", "column", "nan-y", "inf-residual"],
    )
    def test_error_names_the_argument(self, X, width, vectors, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_rows(X, width, **vectors)


class TestTrainMse:
    def test_constant_labels(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (400, 2))
        y = np.full(400, 0.7)
        net = Mlp([2, 8, 1], seed=1)
        net, log = train_mse(net, X, y, TrainConfig(max_epochs=120, patience=10, seed=3))
        assert min(log.val_losses) < 1e-3
        assert np.all(np.abs(net.forward(X)[:, 0] - 0.7) < 0.05)

    def test_noiseless_linear_target(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (1000, 1))
        y = 3.0 * X[:, 0] + 1.0
        net = Mlp([1, 16, 1], seed=2)
        net, log = train_mse(net, X, y, TrainConfig(max_epochs=250, patience=15, seed=4))
        assert min(log.val_losses) < 1e-2

    def test_determinism_bit_exact(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (200, 3))
        y = X.sum(axis=1) + 0.1 * rng.standard_normal(200)
        cfg = TrainConfig(max_epochs=40, patience=5, seed=11)
        first, _ = train_mse(Mlp([3, 6, 1], seed=7), X, y, cfg)
        second, _ = train_mse(Mlp([3, 6, 1], seed=7), X, y, cfg)
        for a, b in zip(first.weights + first.biases, second.weights + second.biases):
            assert np.array_equal(a, b)

    def test_returned_weights_hit_min_val_loss(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, (300, 2))
        y = np.sin(2.0 * X[:, 0]) + 0.2 * rng.standard_normal(300)
        cfg = TrainConfig(max_epochs=60, patience=8, seed=13)
        net, log = train_mse(Mlp([2, 10, 1], seed=3), X, y, cfg)
        # Recompute the validation loss of the restored weights.
        order = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0])).permutation(300)
        val_idx = order[: max(1, int(300 * cfg.validation_fraction))]
        recomputed = float(np.mean((net.forward(X[val_idx])[:, 0] - y[val_idx]) ** 2))
        assert recomputed == min(log.val_losses)

    def test_empty_and_non_finite_rejected(self):
        net = Mlp([2, 4, 1], seed=0)
        cfg = TrainConfig()
        with pytest.raises(ValueError):
            train_mse(net, np.empty((0, 2)), np.empty(0), cfg)
        X = np.ones((50, 2))
        y = np.ones(50)
        y[3] = np.nan
        with pytest.raises(ValueError):
            train_mse(net, X, y, cfg)

    def test_too_few_rows_for_split(self):
        net = Mlp([1, 2, 1], seed=0)
        with pytest.raises(ValueError):
            train_mse(net, np.ones((4, 1)), np.ones(4), TrainConfig(validation_fraction=0.2))


class TestTrainNllFixedMean:
    def test_constant_residual_magnitude_recovers_sigma(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (600, 2))
        r = 0.8
        y = np.where(np.arange(600) % 2 == 0, r, -r)
        mean_net = zero_net([2, 1])
        sigma_net = Mlp([2, 6, 1], output_activation=Activation.SOFTPLUS, seed=4)
        sigma_net, _ = train_nll_fixed_mean(
            sigma_net, mean_net, X, y, TrainConfig(max_epochs=250, patience=20, seed=5)
        )
        learned = predict_sigma(sigma_net, X)
        assert np.all(np.abs(learned - r) / r < 0.1)

    def test_mean_net_untouched(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, (150, 2))
        y = rng.standard_normal(150)
        mean_net = Mlp([2, 5, 1], seed=6)
        before = [p.copy() for p in mean_net.weights + mean_net.biases]
        sigma_net = Mlp([2, 5, 1], output_activation=Activation.SOFTPLUS, seed=7)
        train_nll_fixed_mean(sigma_net, mean_net, X, y, TrainConfig(max_epochs=15, seed=8))
        for a, b in zip(before, mean_net.weights + mean_net.biases):
            assert np.array_equal(a, b)

    def test_requires_softplus_output(self):
        sigma_net = Mlp([2, 4, 1], output_activation=Activation.LINEAR, seed=0)
        mean_net = zero_net([2, 1])
        with pytest.raises(ValueError):
            train_nll_fixed_mean(sigma_net, mean_net, np.ones((50, 2)), np.ones(50), TrainConfig())

    def test_sigma_floor_positivity(self):
        sigma_net = Mlp([2, 6, 1], output_activation=Activation.SOFTPLUS, seed=10)
        # Drive the output strongly negative: predictions stay above the floor.
        sigma_net.biases[-1][:] = -40.0
        X = np.random.default_rng(3).uniform(-100.0, 100.0, size=(500, 2))
        sigma = predict_sigma(sigma_net, X)
        assert np.all(sigma > SIGMA_FLOOR * 0.999999)
        assert np.all(sigma > 0.0)


class TestGradients:
    @staticmethod
    def finite_difference_check(net, X, objective, tol=1e-4):
        worst = finite_difference_worst(net, X, objective)
        assert worst < tol, f"worst relative gradient error {worst}"

    def test_mse_gradients_random_nets(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            sizes = [int(rng.integers(1, 5))]
            for _ in range(int(rng.integers(1, 3))):
                sizes.append(int(rng.integers(2, 12)))
            sizes.append(1)
            net = Mlp(sizes, seed=trial)
            X = rng.uniform(-1, 1, (5, sizes[0]))
            y = rng.normal(size=(5, 1))
            self.finite_difference_check(net, X, _MseObjective(y[None]))

    def test_nll_sigma_gradients_random_nets(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            sizes = [int(rng.integers(1, 5)), int(rng.integers(2, 12)), 1]
            net = Mlp(sizes, output_activation=Activation.SOFTPLUS, seed=trial)
            X = rng.uniform(-1, 1, (5, sizes[0]))
            residuals = rng.normal(size=5)
            self.finite_difference_check(net, X, _NllSigmaObjective(residuals[None]))

    def test_nll_mean_gradients(self):
        rng = np.random.default_rng(23)
        net = Mlp([3, 8, 1], seed=5)
        X = rng.uniform(-1, 1, (6, 3))
        y = rng.normal(size=6)
        sigma = rng.uniform(0.3, 2.0, size=6)
        self.finite_difference_check(net, X, _NllMeanObjective(y[None], sigma[None]))


class TestTrainNllFixedSigma:
    def test_reduces_to_weighted_fit(self):
        rng = np.random.default_rng(30)
        X = rng.uniform(-1, 1, (500, 1))
        y = 2.0 * X[:, 0] - 0.5
        net = Mlp([1, 8, 1], seed=2)
        net, log = train_nll_fixed_sigma(
            net, np.ones(500), X, y, TrainConfig(max_epochs=200, patience=15, seed=3)
        )
        assert float(np.mean((net.forward(X)[:, 0] - y) ** 2)) < 5e-2

    def test_rejects_bad_sigma(self):
        net = Mlp([1, 4, 1], seed=0)
        X = np.ones((50, 1))
        y = np.ones(50)
        with pytest.raises(ValueError):
            train_nll_fixed_sigma(net, np.zeros(50), X, y, TrainConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_sigma(self, bad):
        sigma = np.ones(50)
        sigma[7] = bad
        with pytest.raises(ValueError, match="sigma_values must be finite"):
            train_nll_fixed_sigma(Mlp([1, 4, 1], seed=0), sigma, np.ones((50, 1)), np.ones(50), TrainConfig())


class TestNllLoss:
    def test_zero_residual_unit_sigma(self):
        assert nll_loss(1.3, 1.3, 1.0) == 0.0

    def test_unit_residual(self):
        assert nll_loss(1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_hand_value(self):
        assert nll_loss(2.0, 0.0, 2.0) == pytest.approx(1.1931471805599453, abs=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            nll_loss(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            nll_loss(0.0, 0.0, -1.0)

    def test_average_matches_scalar(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=9)
        mu = rng.normal(size=9)
        sigma = rng.uniform(0.2, 2.0, size=9)
        expected = np.mean([nll_loss(a, b, c) for a, b, c in zip(y, mu, sigma)])
        assert average_nll(y, mu, sigma) == pytest.approx(expected, rel=1e-12)


def _reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# (activation, derivative in the pre-activation z), written out plainly.
_REFERENCE_ACTIVATIONS = {
    Activation.TANH: (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    Activation.RELU: (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(float)),
    Activation.LINEAR: (lambda z: z, np.ones_like),
    Activation.SOFTPLUS: (lambda z: np.logaddexp(0.0, z), _reference_sigmoid),
}


def reference_fit(net, X, loss, loss_grad, cfg):
    """Textbook mini-batch Adam with early stopping: per-layer forward and
    backward passes on separate arrays and one Adam update per array. Same
    split, shuffles and stopping rule as the engine; returns (weights,
    biases, TrainLog fields)."""
    weights = [W.copy() for W in net.weights]
    biases = [b.copy() for b in net.biases]
    acts = [net.hidden_activation] * (len(weights) - 1) + [net.output_activation]

    def forward(Xb):
        pre, post = [], [Xb]
        for W, b, act in zip(weights, biases, acts):
            pre.append(post[-1] @ W + b)
            post.append(_REFERENCE_ACTIVATIONS[act][0](pre[-1]))
        return pre, post

    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    val_idx, train_idx = validation_split(X.shape[0], cfg)
    best_val, best, best_epoch, since_best = math.inf, None, -1, 0
    train_losses, val_losses = [], []
    for epoch in range(cfg.max_epochs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, epoch]))
        shuffled = train_idx[rng.permutation(train_idx.size)]
        total = 0.0
        for start in range(0, shuffled.size, cfg.batch_size):
            batch = shuffled[start : start + cfg.batch_size]
            pre, post = forward(X[batch])
            value = loss(post[-1], batch)
            delta = loss_grad(post[-1], batch)
            grads_w, grads_b = [None] * len(weights), [None] * len(weights)
            for i in range(len(weights) - 1, -1, -1):
                delta = delta * _REFERENCE_ACTIVATIONS[acts[i]][1](pre[i])
                grads_w[i] = post[i].T @ delta
                grads_b[i] = delta.sum(axis=0)
                if i:
                    delta = delta @ weights[i].T
            t += 1
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for p, g, mp, vp in zip(params, grads_w + grads_b, m, v):
                mp *= 0.9
                mp += (1.0 - 0.9) * g
                vp *= 0.999
                vp += (1.0 - 0.999) * g * g
                p -= cfg.learning_rate * (mp / c1) / (np.sqrt(vp / c2) + 1e-8)
            total += value * batch.size
        train_losses.append(total / shuffled.size)
        val_losses.append(loss(forward(X[val_idx])[1][-1], val_idx))
        if val_losses[-1] < best_val:
            best_val, best_epoch, since_best = val_losses[-1], epoch, 0
            best = [p.copy() for p in params]
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    n = len(weights)
    log = dict(
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
        n_train=int(train_idx.size),
        n_val=int(val_idx.size),
    )
    return best[:n], best[n:], log


class TestReferenceBitIdentity:
    """The engine's flat-buffer loop must reproduce the textbook trainer bit
    for bit, including a ragged last batch (163 training rows, batch 16)."""

    cfg = TrainConfig(batch_size=16, learning_rate=0.02, max_epochs=12, patience=3, seed=4)

    @staticmethod
    def data():
        rng = np.random.default_rng(40)
        X = rng.uniform(-1, 1, (203, 3))
        y = np.sin(2.0 * X[:, 0]) + np.where(X[:, 1] > 0, 0.8, 0.1) * rng.standard_normal(203)
        return X, y

    def assert_identical(self, net, log, expected):
        weights, biases, expected_log = expected
        assert expected_log["n_train"] % self.cfg.batch_size != 0
        for got, want in zip(net.weights + net.biases, weights + biases):
            assert np.array_equal(got, want)
        assert vars(log) == expected_log

    def test_train_mse_tanh(self):
        X, y = self.data()
        net = Mlp([3, 12, 6, 1], seed=41)
        targets = y[:, None]

        def loss(out, idx):
            diff = out - targets[idx]
            return float(np.mean(np.sum(diff * diff, axis=1)))

        def grad(out, idx):
            return 2.0 * (out - targets[idx]) / out.shape[0]

        expected = reference_fit(net, X, loss, grad, self.cfg)
        net, log = train_mse(net, X, y, self.cfg)
        self.assert_identical(net, log, expected)

    def test_train_nll_fixed_mean_softplus_output(self):
        X, y = self.data()
        mean_net = Mlp([3, 5, 1], seed=42)
        net = Mlp([3, 10, 1], output_activation=Activation.SOFTPLUS, seed=43)
        r = y - mean_net.forward(X)[:, 0]

        def loss(out, idx):
            sigma = out[:, 0] + SIGMA_FLOOR
            return float(
                np.mean(np.log(sigma * sigma) / 2.0 + r[idx] * r[idx] / (2.0 * sigma * sigma))
            )

        def grad(out, idx):
            sigma = out[:, 0] + SIGMA_FLOOR
            return ((1.0 / sigma - r[idx] * r[idx] / sigma**3) / out.shape[0])[:, None]

        expected = reference_fit(net, X, loss, grad, self.cfg)
        net, log = train_nll_fixed_mean(net, mean_net, X, y, self.cfg)
        self.assert_identical(net, log, expected)

    def test_train_nll_fixed_sigma_relu_hidden(self):
        X, y = self.data()
        sigma = np.random.default_rng(44).uniform(0.2, 1.5, size=203)
        net = Mlp([3, 12, 6, 1], hidden_activation=Activation.RELU, seed=45)

        def loss(out, idx):
            s = sigma[idx]
            r = y[idx] - out[:, 0]
            return float(np.mean(np.log(s * s) / 2.0 + r * r / (2.0 * s * s)))

        def grad(out, idx):
            s = sigma[idx]
            return (((out[:, 0] - y[idx]) / (s * s)) / out.shape[0])[:, None]

        expected = reference_fit(net, X, loss, grad, self.cfg)
        net, log = train_nll_fixed_sigma(net, sigma, X, y, self.cfg)
        self.assert_identical(net, log, expected)


class TestLockstep:
    """A stack of networks trained in lockstep ends, member by member, with
    the weights and log each network gets when trained alone, bit for bit:
    163 training rows in batches of 16 leave a ragged last batch, and at
    these seeds a member stops by patience while another trains on."""

    cfg = TrainConfig(batch_size=16, learning_rate=0.02, max_epochs=14, patience=3)
    seeds = (4, 7, 12)

    @staticmethod
    def data():
        return TestReferenceBitIdentity.data()

    def solo_cfg(self, k):
        return replace(self.cfg, seed=self.seeds[k])

    @staticmethod
    def nets(sizes, seed, **activations):
        return [Mlp(sizes, seed=seed + k, **activations) for k in range(3)]

    def assert_matches_alone(self, stacked, outcomes, alone):
        """alone(k) trains a fresh copy of network k by itself."""
        epochs = []
        for k, (net, log) in enumerate(zip(stacked, outcomes)):
            solo_net, solo_log = alone(k)
            for got, want in zip(net.weights + net.biases, solo_net.weights + solo_net.biases):
                assert np.array_equal(got, want)
            assert vars(log) == vars(solo_log)
            epochs.append(len(log.train_losses))
        assert outcomes[0].n_train % self.cfg.batch_size != 0
        assert min(epochs) < max(epochs), epochs  # one left the stack, another trained on

    def test_mse(self):
        X, y = self.data()
        nets = self.nets([3, 12, 6, 1], 60)
        outcomes = _run_training(nets, X, _MseObjective(np.stack([y, -y, 2.0 * y])[:, :, None]), self.cfg, self.seeds)
        targets = (y, -y, 2.0 * y)
        self.assert_matches_alone(
            nets, outcomes, lambda k: train_mse(self.nets([3, 12, 6, 1], 60)[k], X, targets[k], self.solo_cfg(k))
        )

    def test_nll_sigma(self):
        X, y = self.data()
        means = [Mlp([3, 5, 1], seed=70 + k) for k in range(3)]
        nets = self.nets([3, 10, 1], 80, output_activation=Activation.SOFTPLUS)
        outcomes = train_nll_fixed_mean_lockstep(nets, means, X, y, self.cfg, self.seeds)
        self.assert_matches_alone(
            nets,
            outcomes,
            lambda k: train_nll_fixed_mean(
                self.nets([3, 10, 1], 80, output_activation=Activation.SOFTPLUS)[k], means[k], X, y, self.solo_cfg(k)
            ),
        )

    def test_nll_mean(self):
        X, y = self.data()
        sigmas = [np.random.default_rng(90 + k).uniform(0.2, 1.5, size=203) for k in range(3)]
        nets = self.nets([3, 12, 6, 1], 100, hidden_activation=Activation.RELU)
        outcomes = train_nll_fixed_sigma_lockstep(nets, sigmas, X, y, self.cfg, self.seeds)
        self.assert_matches_alone(
            nets,
            outcomes,
            lambda k: train_nll_fixed_sigma(
                self.nets([3, 12, 6, 1], 100, hidden_activation=Activation.RELU)[k], sigmas[k], X, y, self.solo_cfg(k)
            ),
        )

    def test_a_non_finite_loss_stops_only_its_network(self):
        """Member 1's target is NaN in a row of its third batch of epoch 0
        and infinite in a row of its fifth: it fails with the first non-finite
        loss and leaves the stack at the end of the epoch, and the members
        before and after it train on as they do alone."""
        X, y = self.data()
        _, train_idx = validation_split(X.shape[0], self.solo_cfg(1))
        order = np.random.default_rng(np.random.SeedSequence([self.seeds[1], 1, 0])).permutation(train_idx.size)
        broken = y.copy()
        broken[train_idx[order[2 * self.cfg.batch_size]]] = np.nan
        broken[train_idx[order[4 * self.cfg.batch_size]]] = np.inf
        targets = (y, broken, y)
        nets = self.nets([3, 12, 6, 1], 60)
        outcomes = _run_training(nets, X, _MseObjective(np.stack(targets)[:, :, None]), self.cfg, self.seeds)
        assert isinstance(outcomes[1], TrainingError)
        assert str(outcomes[1]) == "non-finite loss nan at epoch 0"
        for k in (0, 2):
            solo_net, solo_log = train_mse(self.nets([3, 12, 6, 1], 60)[k], X, y, self.solo_cfg(k))
            assert vars(outcomes[k]) == vars(solo_log)
            for got, want in zip(nets[k].weights + nets[k].biases, solo_net.weights + solo_net.biases):
                assert np.array_equal(got, want)

    def test_a_failed_network_trains_on_quietly_to_the_end_of_its_epoch(self):
        """Member 1's frozen mean network outputs NaN, so each of its batch
        losses is NaN. Its output gradient is zeroed, so its weights stay
        finite for the rest of the epoch and its Softplus output raises no
        RuntimeWarning; it fails with its first loss, and member 0 trains as
        it does alone."""
        X, y = self.data()
        means = [Mlp([3, 5, 1], seed=70 + k) for k in range(2)]
        means[1].biases[-1][:] = np.nan
        nets = self.nets([3, 10, 1], 80, output_activation=Activation.SOFTPLUS)[:2]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcomes = train_nll_fixed_mean_lockstep(nets, means, X, y, self.cfg, self.seeds[:2])
        assert str(outcomes[1]) == "non-finite loss nan at epoch 0"
        solo_net, solo_log = train_nll_fixed_mean(
            self.nets([3, 10, 1], 80, output_activation=Activation.SOFTPLUS)[0], means[0], X, y, self.solo_cfg(0)
        )
        assert vars(outcomes[0]) == vars(solo_log)
        for got, want in zip(nets[0].weights + nets[0].biases, solo_net.weights + solo_net.biases):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "nets",
        [[Mlp([3, 4, 1]), Mlp([3, 5, 1])], [Mlp([3, 4, 1]), Mlp([3, 4, 1], Activation.RELU)]],
        ids=["sizes", "activations"],
    )
    def test_a_stack_needs_one_shape_and_one_config(self, nets):
        X, y = self.data()
        with pytest.raises(ValueError, match="one shape"):
            _run_training(nets, X, _MseObjective(np.stack([y, y])[:, :, None]), TrainConfig(), [0, 1])


def test_activations_are_looked_up_once_per_run(monkeypatch):
    """Enum hashing is Python code, so a run resolves each layer's activation
    once, not per step: a 1-epoch and a 6-epoch run hash as often."""
    calls = []
    original = Activation.__hash__
    monkeypatch.setattr(Activation, "__hash__", lambda act: calls.append(act) or original(act))
    X, y = TestReferenceBitIdentity.data()
    counts = []
    for epochs in (1, 6):
        calls.clear()
        train_mse(Mlp([3, 6, 4, 1], seed=1), X, y, TrainConfig(batch_size=16, max_epochs=epochs, patience=epochs))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4


class TestParameterBuffers:
    cfg = TrainConfig(max_epochs=3, patience=3, seed=50)

    @staticmethod
    def data():
        rng = np.random.default_rng(51)
        X = rng.uniform(-1, 1, (120, 2))
        return X, X[:, 0] - X[:, 1] + 0.1 * rng.standard_normal(120)

    def test_assigned_lists_are_trained(self):
        X, y = self.data()
        retrained = Mlp([2, 6, 1], seed=52)
        train_mse(retrained, X, y, self.cfg)
        retrained.weights = [np.full_like(W, 0.1) for W in retrained.weights]
        retrained.biases = [np.zeros_like(b) for b in retrained.biases]
        train_mse(retrained, X, y, self.cfg)

        fresh = Mlp([2, 6, 1], seed=52)
        fresh.weights = [np.full_like(W, 0.1) for W in fresh.weights]
        fresh.biases = [np.zeros_like(b) for b in fresh.biases]
        train_mse(fresh, X, y, self.cfg)
        for a, b in zip(retrained.weights + retrained.biases, fresh.weights + fresh.biases):
            assert np.array_equal(a, b)

    def test_alternately_trained_nets_share_no_buffer(self):
        X, y = self.data()
        mean_net = Mlp([2, 6, 1], hidden_activation=Activation.RELU, seed=54)
        sigma_net = Mlp([2, 6, 1], output_activation=Activation.SOFTPLUS, seed=55)
        for _ in range(2):
            train_nll_fixed_sigma(mean_net, predict_sigma(sigma_net, X), X, y, self.cfg)
            mean_before = [p.copy() for p in mean_net.weights + mean_net.biases]
            train_nll_fixed_mean(sigma_net, mean_net, X, y, self.cfg)
            for a, b in zip(mean_net.weights + mean_net.biases, mean_before):
                assert np.array_equal(a, b)
        for p in mean_net.weights + mean_net.biases:
            for q in sigma_net.weights + sigma_net.biases:
                assert not np.shares_memory(p, q)
