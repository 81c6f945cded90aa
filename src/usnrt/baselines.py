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
    train_nll_fixed_mean,  # unused here, but perfbench/tracing.py wraps this name and the next in this module
    train_nll_fixed_mean_lockstep,
    train_nll_fixed_sigma,
    train_nll_fixed_sigma_lockstep,
)
from .parallel import fork_map, pool_size

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
    hidden = default_hidden(hidden, preprocess.d_raw if preprocess is not None else X.shape[1], 8)
    (model,) = _train_hnns(X, y, [cfg], hidden, rounds)
    model.preprocess = preprocess
    return model


def _train_hnns(X: np.ndarray, y: np.ndarray, cfgs: list[TrainConfig], hidden: list[int], rounds: int) -> list:
    """One HNN per config, as train_hnn trains it, on checked X and y; the
    configs differ only in the seed. Every phase trains the members' networks
    in lockstep. A member whose phase fails drops out and the others go on;
    then the TrainingError of the lowest-index failed member is raised, the
    error a member-by-member loop would raise."""
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    sizes = [X.shape[1], *hidden, 1]
    mean_nets = [
        Mlp(sizes, Activation.RELU, Activation.LINEAR, seed=derived_seed(cfg.seed, 0)) for cfg in cfgs
    ]
    sigma_nets = [
        Mlp(sizes, Activation.TANH, Activation.SOFTPLUS, seed=derived_seed(cfg.seed, 1)) for cfg in cfgs
    ]
    # Fixed monitoring subset for the round-boundary NLL trajectory. Phases
    # still train on all rows (each holds out its own validation split).
    monitors = [
        np.random.default_rng(derived_seed(cfg.seed, 2)).permutation(X.shape[0])[: max(1, X.shape[0] // 5)]
        for cfg in cfgs
    ]
    sigma_values = [np.ones(X.shape[0])] * len(cfgs)
    logs = [{"round_val_nll": [], "phases": []} for _ in cfgs]
    failures: dict[int, tuple[str, Exception]] = {}
    active = list(range(len(cfgs)))
    for rnd in range(rounds):
        # One derived seed per round: the sigma phase then validates on the
        # rows held out of the mean phase, keeping its early stopping honest.
        phase_cfgs = {j: replace(cfgs[j], seed=derived_seed(cfgs[j].seed, 3, rnd)) for j in active}
        epochs = {j: {"round": rnd} for j in active}
        for phase in ("mean", "sigma"):
            if not active:
                break
            train_cfgs = [phase_cfgs[j] for j in active]
            try:
                if phase == "mean":
                    outcomes = train_nll_fixed_sigma_lockstep(
                        [mean_nets[j] for j in active], [sigma_values[j] for j in active], X, y, train_cfgs
                    )
                else:
                    outcomes = train_nll_fixed_mean_lockstep(
                        [sigma_nets[j] for j in active], [mean_nets[j] for j in active], X, y, train_cfgs
                    )
            except (TrainingError, ValueError) as exc:  # a fault of the inputs every member shares
                outcomes = [exc] * len(active)
            for j, outcome in zip(active, outcomes):
                if isinstance(outcome, Exception):
                    failures[j] = (f"hnn round {rnd}, {phase} phase: {outcome}", outcome)
                else:
                    epochs[j][f"{phase}_epochs"] = len(outcome.train_losses)
            active = [j for j in active if j not in failures]
        for j in active:
            sigma_values[j] = predict_sigma(sigma_nets[j], X)
            mu_monitor = mean_nets[j].forward(X[monitors[j]])[:, 0]
            logs[j]["round_val_nll"].append(average_nll(y[monitors[j]], mu_monitor, sigma_values[j][monitors[j]]))
            logs[j]["phases"].append(epochs[j])
    if failures:
        message, cause = failures[min(failures)]
        raise TrainingError(message) from cause
    return [HnnModel(mean_net=m, sigma_net=s, train_log=log) for m, s, log in zip(mean_nets, sigma_nets, logs)]


def train_ensemble(
    X,
    y,
    cfg: TrainConfig,
    n_members: int = ENSEMBLE_MEMBERS,
    hidden: list[int] | None = None,
    preprocess: PreprocessState | None = None,
    rounds: int = HNN_ROUNDS,
) -> EnsembleModel:
    """Train n_members HNNs that differ only in their derived seeds. The
    members are split into contiguous chunks, one per worker process that
    fork_map starts (one chunk when it runs serially), and each chunk trains
    in lockstep. The members hold no preprocessing state; the ensemble holds
    it once."""
    if n_members < 1:
        raise ValueError("n_members must be at least 1")
    X, y = check_rows(X, y=y)
    hidden = default_hidden(hidden, preprocess.d_raw if preprocess is not None else X.shape[1], 8)
    cfgs = [replace(cfg, seed=derived_seed(cfg.seed, 100 + j)) for j in range(n_members)]
    chunks = np.array_split(np.arange(n_members), pool_size(n_members))

    def chunk(i: int) -> list[HnnModel]:
        return _train_hnns(X, y, [cfgs[j] for j in chunks[i]], hidden, rounds)

    return EnsembleModel(members=[m for models in fork_map(chunk, len(chunks)) for m in models], preprocess=preprocess)


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
