"""Heteroscedastic-network baseline and deep-ensemble aggregation tests."""

import numpy as np
import pytest

from usnrt import baselines
from usnrt.baselines import (
    ENSEMBLE_MEMBERS,
    EnsembleModel,
    HnnModel,
    ensemble_predict_arrays,
    train_ensemble,
    train_hnn,
)
from usnrt.model_io import load_model, save_model
from usnrt.nn_core import Activation, Mlp, TrainConfig, check_rows

from conftest import fast_train_cfg


def constant_hnn(mean_value, sigma_softplus_bias, width=2):
    mean_net = Mlp([width, 1], seed=0)
    mean_net.weights = [np.zeros((width, 1))]
    mean_net.biases = [np.array([mean_value])]
    sigma_net = Mlp([width, 1], output_activation=Activation.SOFTPLUS, seed=0)
    sigma_net.weights = [np.zeros((width, 1))]
    sigma_net.biases = [np.array([sigma_softplus_bias])]
    return HnnModel(mean_net=mean_net, sigma_net=sigma_net)


class TestTrainHnn:
    def test_homoscedastic_linear_recovery(self):
        rng = np.random.default_rng(0)
        n = 1500
        X = rng.uniform(-1, 1, (n, 1))
        slope, intercept, noise = 2.5, 1.0, 0.3
        y = slope * X[:, 0] + intercept + noise * rng.standard_normal(n)
        model = train_hnn(X, y, TrainConfig(max_epochs=250, patience=15, seed=1))

        grid = np.linspace(-1, 1, 200)[:, None]
        mu, sigma = model.predict_arrays(grid)
        fitted_slope = np.polyfit(grid[:, 0], mu, 1)[0]
        assert abs(fitted_slope - slope) / slope < 0.05
        assert abs(sigma.mean() - noise) / noise < 0.15

    def test_determinism(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (300, 2))
        y = X.sum(axis=1) + 0.2 * rng.standard_normal(300)
        cfg = fast_train_cfg(seed=5, max_epochs=30, patience=5)
        a = train_hnn(X, y, cfg, hidden=[6])
        b = train_hnn(X, y, cfg, hidden=[6])
        for nets in (("mean_net",), ("sigma_net",)):
            for name in nets:
                na, nb = getattr(a, name), getattr(b, name)
                for wa, wb in zip(na.weights + na.biases, nb.weights + nb.biases):
                    assert np.array_equal(wa, wb)

    def test_round_nll_tendency_non_increasing(self):
        # Statistical tendency across seeds; early stopping adds noise.
        rng = np.random.default_rng(3)
        n = 600
        X = rng.uniform(-1, 1, (n, 2))
        y = np.sin(2 * X[:, 0]) + (0.2 + 0.4 * (X[:, 1] > 0)) * rng.standard_normal(n)
        wins = 0
        for seed in range(10):
            model = train_hnn(
                X, y, fast_train_cfg(seed=seed, max_epochs=60, patience=8), hidden=[8]
            )
            first, second = model.train_log["round_val_nll"]
            wins += second <= first + 1e-9
        assert wins >= 8

    def test_default_hidden_sizes_follow_dimension(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, (200, 3))
        y = X.sum(axis=1)
        model = train_hnn(X, y, fast_train_cfg(seed=0, max_epochs=5, patience=3))
        assert model.mean_net.layer_sizes == [3, 24, 12, 1]
        assert model.sigma_net.layer_sizes == [3, 24, 12, 1]
        assert model.mean_net.hidden_activation is Activation.RELU
        assert model.sigma_net.hidden_activation is Activation.TANH
        assert model.sigma_net.output_activation is Activation.SOFTPLUS


class TestEnsembleAggregation:
    def test_identical_members_reproduce_exactly(self):
        member = constant_hnn(0.37, 1.234)
        member.mean_net.weights = [np.random.default_rng(1).normal(size=(2, 1))]
        member.sigma_net.weights = [np.random.default_rng(2).normal(size=(2, 1))]
        ensemble = EnsembleModel(members=[member] * 5)
        X = np.random.default_rng(3).uniform(-3, 3, (500, 2))
        mu_single, sigma_single = member.predict_arrays(X)
        mu_agg, sigma_agg = ensemble_predict_arrays(ensemble, X)
        assert np.array_equal(mu_agg, mu_single)
        assert np.array_equal(sigma_agg, sigma_single)

    def test_two_member_hand_example(self):
        # Means -1 and +1 with sigma -> 0: mixture variance tends to 1.
        eps_bias = -13.0  # softplus(-13) ~ 2.3e-6
        low = constant_hnn(-1.0, eps_bias)
        high = constant_hnn(1.0, eps_bias)
        ensemble = EnsembleModel(members=[low, high])
        X = np.zeros((4, 2))
        mu, sigma = ensemble_predict_arrays(ensemble, X)
        for m, s in zip(mu, sigma):
            assert m == pytest.approx(0.0, abs=1e-15)
            assert s == pytest.approx(1.0, abs=1e-9)

    def test_aggregated_variance_dominates_mean_member_variance(self):
        rng = np.random.default_rng(7)
        members = [
            constant_hnn(float(rng.normal()), float(rng.uniform(-2, 2)))
            for _ in range(5)
        ]
        ensemble = EnsembleModel(members=members)
        X = rng.uniform(-1, 1, (50, 2))
        _, sigma_bar = ensemble_predict_arrays(ensemble, X)
        member_sigmas = np.stack([m.predict_arrays(X)[1] for m in members])
        mean_var = np.mean(member_sigmas**2, axis=0)
        assert np.all(sigma_bar**2 >= mean_var * (1.0 - 1e-12))

    def test_non_finite_features_rejected(self):
        member = constant_hnn(0.5, 0.0)
        ensemble = EnsembleModel(members=[member, constant_hnn(-0.5, 1.0)])
        X = np.array([[0.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            member.predict_arrays(X)
        with pytest.raises(ValueError, match="finite"):
            ensemble_predict_arrays(ensemble, X)
        with pytest.raises(ValueError, match="finite"):
            ensemble.predict_arrays(X)

    def test_features_checked_once_per_prediction(self, monkeypatch):
        """The ensemble checks X once and runs every member on the checked
        array; a member predicting on its own still checks X itself."""
        calls = []

        def counting_check_rows(*args, **kwargs):
            calls.append(args[1:])
            return check_rows(*args, **kwargs)

        monkeypatch.setattr(baselines, "check_rows", counting_check_rows)
        members = [constant_hnn(0.1 * j, 0.2 * j) for j in range(ENSEMBLE_MEMBERS)]
        X = np.random.default_rng(4).uniform(-1, 1, (20, 2))
        EnsembleModel(members=members).predict_arrays(X)
        assert calls == [(2,)]
        members[0].predict_arrays(X)
        assert calls == [(2,), (2,)]

    def test_training_gives_distinct_members(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (300, 2))
        y = X[:, 0] + 0.3 * rng.standard_normal(300)
        ensemble = train_ensemble(
            X, y, fast_train_cfg(seed=9, max_epochs=10, patience=3),
            n_members=3, hidden=[6],
        )
        assert len(ensemble.members) == 3
        w0 = ensemble.members[0].mean_net.weights[0]
        w1 = ensemble.members[1].mean_net.weights[0]
        assert not np.array_equal(w0, w1)

    def test_default_member_count_is_five(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, (150, 1))
        y = X[:, 0]
        ensemble = train_ensemble(
            X, y, fast_train_cfg(seed=11, max_epochs=3, patience=2), hidden=[4]
        )
        assert len(ensemble.members) == 5


class TestSerialization:
    def test_hnn_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, (200, 2))
        y = X.sum(axis=1) + 0.1 * rng.standard_normal(200)
        model = train_hnn(X, y, fast_train_cfg(seed=13, max_epochs=10, patience=3), hidden=[6])
        path = tmp_path / "hnn.json"
        save_model(model, path)
        clone = load_model(path)
        mu_a, s_a = model.predict_arrays(X)
        mu_b, s_b = clone.predict_arrays(X)
        assert np.array_equal(mu_a, mu_b)
        assert np.array_equal(s_a, s_b)

    def test_ensemble_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        X = rng.uniform(-1, 1, (150, 2))
        y = X[:, 0]
        ensemble = train_ensemble(
            X, y, fast_train_cfg(seed=15, max_epochs=5, patience=2),
            n_members=2, hidden=[4],
        )
        path = tmp_path / "ens.json"
        save_model(ensemble, path)
        clone = load_model(path)
        mu_a, s_a = ensemble_predict_arrays(ensemble, X)
        mu_b, s_b = ensemble_predict_arrays(clone, X)
        assert np.array_equal(mu_a, mu_b)
        assert np.array_equal(s_a, s_b)
