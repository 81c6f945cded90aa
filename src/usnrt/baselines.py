"""Variance-network baselines on the shared engine: alternating-trained
heteroscedastic networks (HNN) and their moment-matched deep ensembles."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import model_io
from .data import PreprocessState
from .nn_core import (
    Activation,
    Mlp,
    TrainConfig,
    TrainingError,
    average_nll,
    check_rows,
    default_hidden,
    derived_seed,
    predict_sigma,
    train_nll_fixed_mean,
    train_nll_fixed_sigma,
)
from .parallel import fork_map

__all__ = [
    "EnsembleModel",
    "HnnModel",
    "ensemble_predict_arrays",
    "train_ensemble",
    "train_hnn",
]


# Defaults of train_hnn's rounds and train_ensemble's n_members.
HNN_ROUNDS = 2
ENSEMBLE_MEMBERS = 5


@dataclass
class HnnModel:
    """Two networks sharing hidden sizes [8d, 4d]: a ReLU mean network with a
    linear output and a Tanh sigma network with a Softplus output."""

    model_kind = "hnn"

    mean_net: Mlp
    sigma_net: Mlp
    preprocess: PreprocessState | None = None
    train_log: dict = field(default_factory=dict, repr=False, compare=False)

    def predict_arrays(self, X, denormalize: bool = True):
        (X,) = check_rows(X, self.mean_net.input_dim)
        mu, sigma = self._forward(X)
        if denormalize and self.preprocess is not None:
            mu = self.preprocess.denormalize_mean(mu)
            sigma = self.preprocess.denormalize_sigma(sigma)
        return mu, sigma

    def _forward(self, X: np.ndarray):
        """(mu, sigma) on the training scale for an X already checked."""
        mu = self.mean_net.forward(X)[:, 0]
        return mu, predict_sigma(self.sigma_net, X)

    def to_payload(self) -> dict:
        return {
            "mean_net": model_io.encode_mlp(self.mean_net),
            "sigma_net": model_io.encode_mlp(self.sigma_net),
        }

    @classmethod
    def from_payload(cls, payload: dict, preprocess: PreprocessState | None) -> "HnnModel":
        """Decode a model file body (or an ensemble member), rejecting
        networks that do not map the preprocessing state's encoded width
        (without one, the mean network's input width) to one output."""
        model = cls(
            mean_net=model_io.decode_mlp(payload["mean_net"]),
            sigma_net=model_io.decode_mlp(payload["sigma_net"]),
            preprocess=preprocess,
        )
        width = model.mean_net.input_dim if preprocess is None else preprocess.encoded_width
        model_io.check_networks("hnn", width, model.mean_net, model.sigma_net)
        return model


@dataclass
class EnsembleModel:
    """Independently seeded HNNs aggregated into one Gaussian per sample."""

    model_kind = "ensemble"

    members: list[HnnModel]
    preprocess: PreprocessState | None = None

    @property
    def train_log(self) -> dict:
        return {"members": [member.train_log for member in self.members]}

    def predict_arrays(self, X, denormalize: bool = True):
        return ensemble_predict_arrays(self, X, denormalize)

    def to_payload(self) -> dict:
        return {"members": [member.to_payload() for member in self.members]}

    @classmethod
    def from_payload(cls, payload: dict, preprocess: PreprocessState | None) -> "EnsembleModel":
        """Decode a model file body; every member's networks must fit the
        preprocessing state, which the members do not hold themselves."""
        members = payload["members"]
        if not isinstance(members, list) or not members:
            raise model_io.ModelFormatError("ensemble model holds no members")
        model = cls(
            members=[HnnModel.from_payload(entry, None) for entry in members],
            preprocess=preprocess,
        )
        width = model.members[0].mean_net.input_dim if preprocess is None else preprocess.encoded_width
        for j, member in enumerate(model.members):
            model_io.check_networks(f"member {j}", width, member.mean_net, member.sigma_net)
        return model


def train_hnn(
    X,
    y,
    cfg: TrainConfig,
    hidden: list[int] | None = None,
    preprocess: PreprocessState | None = None,
    rounds: int = HNN_ROUNDS,
) -> HnnModel:
    """Alternating heteroscedastic-network training.

    The sigma predictions start fixed at 1, so the first mean phase reduces
    to half the MSE plus a constant; each round then trains the mean network
    under the Gaussian NLL with per-sample sigmas frozen, followed by the
    sigma network with the mean frozen. Two rounds total by default, early
    stopping inside every phase. cfg.seed drives all initialisation, splits,
    and shuffles. A phase that cannot train raises TrainingError naming the
    round and the phase.
    """
    X, y = check_rows(X, y=y)
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    hidden = default_hidden(hidden, preprocess.d_raw if preprocess is not None else X.shape[1], 8)
    base = cfg.seed
    mean_net = Mlp(
        [X.shape[1], *hidden, 1],
        hidden_activation=Activation.RELU,
        output_activation=Activation.LINEAR,
        seed=derived_seed(base, 0),
    )
    sigma_net = Mlp(
        [X.shape[1], *hidden, 1],
        hidden_activation=Activation.TANH,
        output_activation=Activation.SOFTPLUS,
        seed=derived_seed(base, 1),
    )
    # Fixed monitoring subset for the round-boundary NLL trajectory. Phases
    # still train on all rows (each holds out its own validation split).
    monitor = np.random.default_rng(derived_seed(base, 2)).permutation(X.shape[0])
    monitor = monitor[: max(1, X.shape[0] // 5)]

    sigma_values = np.ones(X.shape[0])
    round_val_nll: list[float] = []
    phase_epochs: list[dict] = []
    for rnd in range(rounds):
        # One derived seed per round: the sigma phase then validates on the
        # rows held out of the mean phase, keeping its early stopping honest.
        phase_cfg = replace(cfg, seed=derived_seed(base, 3, rnd))
        try:
            phase = "mean"
            _, mean_log = train_nll_fixed_sigma(mean_net, sigma_values, X, y, phase_cfg)
            phase = "sigma"
            _, sigma_log = train_nll_fixed_mean(sigma_net, mean_net, X, y, phase_cfg)
        except (TrainingError, ValueError) as exc:
            raise TrainingError(f"hnn round {rnd}, {phase} phase: {exc}") from exc
        sigma_values = predict_sigma(sigma_net, X)
        mu_monitor = mean_net.forward(X[monitor])[:, 0]
        round_val_nll.append(average_nll(y[monitor], mu_monitor, sigma_values[monitor]))
        phase_epochs.append(
            {
                "round": rnd,
                "mean_epochs": len(mean_log.train_losses),
                "sigma_epochs": len(sigma_log.train_losses),
            }
        )
    return HnnModel(
        mean_net=mean_net,
        sigma_net=sigma_net,
        preprocess=preprocess,
        train_log={"round_val_nll": round_val_nll, "phases": phase_epochs},
    )


def train_ensemble(
    X,
    y,
    cfg: TrainConfig,
    n_members: int = ENSEMBLE_MEMBERS,
    hidden: list[int] | None = None,
    preprocess: PreprocessState | None = None,
    rounds: int = HNN_ROUNDS,
) -> EnsembleModel:
    """Train n_members HNNs that differ only in their derived seeds, as
    independent tasks of fork_map (in worker processes when it runs a pool).
    The members hold no preprocessing state; the ensemble holds it once."""
    if n_members < 1:
        raise ValueError("n_members must be at least 1")
    X, y = check_rows(X, y=y)
    hidden = default_hidden(hidden, preprocess.d_raw if preprocess is not None else X.shape[1], 8)

    def member(j: int) -> HnnModel:
        return train_hnn(X, y, replace(cfg, seed=derived_seed(cfg.seed, 100 + j)), hidden=hidden, rounds=rounds)

    return EnsembleModel(members=fork_map(member, n_members), preprocess=preprocess)


def ensemble_predict_arrays(model: EnsembleModel, X, denormalize: bool = True):
    """Gaussian-mixture moment matching across members, as (mu, sigma) arrays.

    The aggregated mean is the member average and the aggregated variance is
    the mean member variance plus the dispersion of member means. Both are
    computed anchored at member 0, so an ensemble of identical members
    reproduces that member's output exactly. X is checked once, against
    member 0's width, which every member shares.
    """
    (X,) = check_rows(X, model.members[0].mean_net.input_dim)
    mus = []
    sigmas = []
    for member in model.members:
        mu, sigma = member._forward(X)
        mus.append(mu)
        sigmas.append(sigma)
    mu_stack = np.stack(mus)
    sigma_stack = np.stack(sigmas)

    mu_bar = mu_stack[0] + np.mean(mu_stack - mu_stack[0], axis=0)
    deviations = mu_stack - mu_bar
    variance_excess = np.mean(sigma_stack**2 - sigma_stack[0] ** 2, axis=0)
    ratio = (variance_excess + np.mean(deviations**2, axis=0)) / sigma_stack[0] ** 2
    sigma_bar = sigma_stack[0] * np.sqrt(np.maximum(1.0 + ratio, 0.0))

    if denormalize and model.preprocess is not None:
        mu_bar = model.preprocess.denormalize_mean(mu_bar)
        sigma_bar = model.preprocess.denormalize_sigma(sigma_bar)
    return mu_bar, sigma_bar
