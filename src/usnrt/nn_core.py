"""Minimal feed-forward network engine.

Forward/backward passes, mean-squared-error and Gaussian negative
log-likelihood objectives, Adam, mini-batching, and validation-based early
stopping. Everything runs in float64 and is deterministic given the seeds:
the validation split and the per-epoch batch shuffles are all derived from
the training seed, so identical (data, config, seed) reproduce identical
weights bit for bit.

Parameter layout: a training run first packs the network's parameters into
one flat float64 buffer, layer by layer, W0 (row-major, fan_in x fan_out),
b0, W1, b1, ..., and `Mlp.weights` / `Mlp.biases` become views of it. The
gradient and the two Adam moments are flat buffers of the same layout, so
the backward pass writes each layer's gradient straight into its slot, one
Adam step is a few whole-buffer operations, and a snapshot is one copy.
Assigning fresh arrays to `weights` / `biases` stays allowed: the next
training run packs whatever they hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "SIGMA_FLOOR",
    "Activation",
    "Mlp",
    "TrainConfig",
    "TrainLog",
    "TrainingError",
    "average_nll",
    "check_rows",
    "coerce_fields",
    "coerce_value",
    "default_hidden",
    "derived_seed",
    "nll_loss",
    "predict_sigma",
    "train_mse",
    "train_nll_fixed_mean",
    "train_nll_fixed_sigma",
    "validation_split",
]

# Additive floor on predicted standard deviations. The NLL diverges as
# sigma -> 0, so every sigma-prediction path reports softplus(z) + SIGMA_FLOOR.
SIGMA_FLOOR = 1e-6


class TrainingError(RuntimeError):
    """An optimisation run produced a non-finite loss."""


class Activation(Enum):
    TANH = "tanh"
    RELU = "relu"
    LINEAR = "linear"
    SOFTPLUS = "softplus"


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows.
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


_APPLY = {
    Activation.TANH: np.tanh,
    Activation.RELU: lambda z: np.maximum(z, 0.0),
    Activation.LINEAR: lambda z: z,
    Activation.SOFTPLUS: _softplus,
}


def _times_derivative(act: Activation, delta: np.ndarray, z: np.ndarray, a: np.ndarray):
    """delta * act'(z), taking the derivative from the activation a = act(z)
    where it can: tanh' = 1 - a^2, relu' = [a > 0], linear' = 1."""
    if act is Activation.TANH:
        return delta * (1.0 - a * a)
    if act is Activation.RELU:
        return delta * (a > 0.0)
    if act is Activation.SOFTPLUS:
        return delta * _sigmoid(z)
    return delta


class Mlp:
    """Fully connected network with one activation shared by all hidden
    layers and a separate output activation.

    Weights are Xavier-uniform at construction (limit sqrt(6 / (fan_in +
    fan_out)), suited to the Tanh hidden layers used throughout); biases
    start at zero. Weight matrices have shape (fan_in, fan_out).
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation: Activation = Activation.TANH,
        output_activation: Activation = Activation.LINEAR,
        seed: int = 0,
    ):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("layer_sizes needs input and output dims, all positive")
        self.layer_sizes = sizes
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            limit = math.sqrt(6.0 / (n_in + n_out))
            self.weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
            self.biases.append(np.zeros(n_out))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, X) -> np.ndarray:
        """Apply the network to an (n, d) batch."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected an (n, {self.input_dim}) batch, got shape {X.shape}")
        return self._forward_cached(X)[1][-1]

    def _forward_cached(self, X: np.ndarray):
        """Forward pass keeping pre-activations and activations per layer."""
        pre: list[np.ndarray] = []
        post: list[np.ndarray] = [X]
        a = X
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W
            z += b
            act = self.output_activation if i == last else self.hidden_activation
            a = _APPLY[act](z)
            pre.append(z)
            post.append(a)
        return pre, post

    def _backward(self, pre, post, grad_output, out=None):
        """Parameter gradients of a scalar loss given d(loss)/d(outputs).

        out, a (weights, biases) pair of arrays shaped like the parameters,
        receives the gradients when given (a training run passes views of
        its flat gradient buffer); otherwise new arrays are returned.
        """
        if out is None:
            out = [np.empty_like(W) for W in self.weights], [np.empty_like(b) for b in self.biases]
        grads_w, grads_b = out
        last = len(self.weights) - 1
        delta = grad_output
        for i in range(last, -1, -1):
            act = self.output_activation if i == last else self.hidden_activation
            delta = _times_derivative(act, delta, pre[i], post[i + 1])
            np.matmul(post[i].T, delta, out=grads_w[i])
            np.add.reduce(delta, axis=0, out=grads_b[i])
            if i:
                delta = delta @ self.weights[i].T
        return grads_w, grads_b

    def _views(self, flat: np.ndarray):
        """(weights, biases) lists viewing a flat buffer in the packed layout."""
        weights: list[np.ndarray] = []
        biases: list[np.ndarray] = []
        offset = 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            end = offset + n_in * n_out
            weights.append(flat[offset:end].reshape(n_in, n_out))
            biases.append(flat[end : end + n_out])
            offset = end + n_out
        return weights, biases

    def _flatten(self, weights, biases) -> np.ndarray:
        """A new flat buffer holding the given parameters in the packed layout."""
        params = [p for pair in zip(weights, biases) for p in pair]
        shapes = [
            shape
            for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
            for shape in ((n_in, n_out), (n_out,))
        ]
        if len(weights) != len(biases) or [np.shape(p) for p in params] != shapes:
            raise ValueError("network parameters do not match the layer sizes")
        return np.concatenate([np.ravel(p) for p in params], dtype=float)

    def snapshot(self):
        """Copy of the parameters as (weights, biases), views of one buffer."""
        return self._views(self._flatten(self.weights, self.biases))

    def restore(self, snapshot) -> None:
        self.weights, self.biases = self._views(self._flatten(*snapshot))


def _integer(value) -> int:
    """int(value), refusing a number with a fractional part rather than truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


# Field annotation (a string, as annotations are postponed) without " | None"
# -> the conversion coerce_value applies.
_FIELD_CASTS = {
    "int": _integer,
    "float": float,
    "str": str,
    "Sequence[int]": lambda values: [_integer(v) for v in values],
    "Sequence[str]": lambda values: [str(v) for v in values],
}


def coerce_value(name: str, value, annotation: str):
    """value converted to the type annotation names, so a config file may write
    3 as "3" or 3.0 (but not 3.5), and a list as a JSON list (not a string).
    None passes only an optional (" | None") annotation, and a failed
    conversion raises ValueError naming name."""
    kind = annotation.removesuffix(" | None")
    cast = _FIELD_CASTS.get(kind)
    if cast is None or (value is None and kind != annotation):
        return value
    try:
        if isinstance(value, str) and kind.startswith("Sequence"):
            raise TypeError  # it would read as a list of its characters
        return cast(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be {annotation}, got {value!r}") from None


def coerce_fields(config) -> None:
    """Apply coerce_value to each field of a config dataclass, frozen or not,
    in place."""
    for f in fields(config):
        object.__setattr__(config, f.name, coerce_value(f.name, getattr(config, f.name), f.type))


@dataclass
class TrainConfig:
    """Hyperparameters shared by every network training run."""

    batch_size: int = 64
    learning_rate: float = 0.01
    max_epochs: int = 1000
    validation_fraction: float = 0.2
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        coerce_fields(self)
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie strictly in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8


def _adam_step(params, grad, m, v, t: int, learning_rate: float, scratch) -> None:
    """Adam step t (from 1) over flat buffers, in place.

    Per element this is the textbook m = b1 m + (1 - b1) g, v = b2 v +
    (1 - b2) g g, p -= lr (m / c1) / (sqrt(v / c2) + eps), evaluated in that
    order; scratch is a (2, params.size) work buffer.
    """
    correction1 = 1.0 - _ADAM_BETA1**t
    correction2 = 1.0 - _ADAM_BETA2**t
    tmp, denom = scratch
    m *= _ADAM_BETA1
    np.multiply(1.0 - _ADAM_BETA1, grad, out=tmp)
    m += tmp
    v *= _ADAM_BETA2
    np.multiply(1.0 - _ADAM_BETA2, grad, out=tmp)
    tmp *= grad
    v += tmp
    np.divide(v, correction2, out=denom)
    np.sqrt(denom, out=denom)
    denom += _ADAM_EPSILON
    np.divide(m, correction1, out=tmp)
    tmp *= learning_rate
    tmp /= denom
    params -= tmp


@dataclass
class TrainLog:
    """Per-epoch loss curves plus where early stopping landed."""

    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int
    n_train: int
    n_val: int


def _mean(x: np.ndarray) -> float:
    """float(np.mean(x)) for a 1-d array, without np.mean's call overhead."""
    return float(np.add.reduce(x)) / x.size


class _Objective:
    """A batch loss: value_and_grad(outputs, idx) gives the mean loss over
    the rows idx and its gradient in the outputs, from one residual."""

    def value(self, outputs: np.ndarray, idx: np.ndarray) -> float:
        return self.value_and_grad(outputs, idx)[0]

    def grad(self, outputs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self.value_and_grad(outputs, idx)[1]


class _MseObjective(_Objective):
    def __init__(self, y: np.ndarray):
        self.y = y  # (n, out_dim)

    def value_and_grad(self, outputs: np.ndarray, idx: np.ndarray):
        diff = outputs - self.y[idx]
        loss = _mean(np.add.reduce(diff * diff, axis=1))
        return loss, 2.0 * diff / outputs.shape[0]


class _NllSigmaObjective(_Objective):
    """Gaussian NLL in the sigma network, residuals fixed."""

    def __init__(self, residuals: np.ndarray):
        self.squared = residuals * residuals  # (n,)

    def value_and_grad(self, outputs: np.ndarray, idx: np.ndarray):
        sigma = outputs[:, 0] + SIGMA_FLOOR
        rr = self.squared[idx]
        loss = _mean(np.log(sigma * sigma) / 2.0 + rr / (2.0 * sigma * sigma))
        g = (1.0 / sigma - rr / sigma**3) / outputs.shape[0]
        return loss, g[:, None]


class _NllMeanObjective(_Objective):
    """Gaussian NLL in the mean network, per-sample sigmas fixed."""

    def __init__(self, y: np.ndarray, sigma: np.ndarray):
        self.y = y  # (n,)
        # Per-row terms that depend only on the fixed sigmas.
        self.variance = sigma * sigma
        self.half_log_variance = np.log(self.variance) / 2.0
        self.twice_variance = 2.0 * sigma * sigma

    def value_and_grad(self, outputs: np.ndarray, idx: np.ndarray):
        diff = outputs[:, 0] - self.y[idx]
        loss = _mean(self.half_log_variance[idx] + diff * diff / self.twice_variance[idx])
        g = (diff / self.variance[idx]) / outputs.shape[0]
        return loss, g[:, None]


def check_rows(X, width: int | None = None, **vectors) -> tuple:
    """(X, *vectors) as float arrays, the vectors in keyword order. X must be
    a finite 2-d matrix, width columns wide when width is given, and each
    keyword vector finite with one entry per row of X; the ValueError names
    the argument that fails."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d sample matrix")
    if width is not None and X.shape[1] != width:
        raise ValueError(f"X has width {X.shape[1]}, model expects {width}")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    arrays = [X]
    for name, vector in vectors.items():
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (X.shape[0],):
            raise ValueError(f"{name} must be a vector matching the rows of X")
        if not np.all(np.isfinite(vector)):
            raise ValueError(f"{name} must be finite")
        arrays.append(vector)
    return tuple(arrays)


def derived_seed(*parts: int) -> int:
    """One uint64 seed hashed from the integers parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def _derived_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def validation_split(n: int, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """(validation rows, training rows) that a training run on n rows with
    this config uses; the split depends only on n and cfg."""
    if n < math.ceil(2.0 / cfg.validation_fraction):
        raise ValueError(
            f"need at least {math.ceil(2.0 / cfg.validation_fraction)} rows for a "
            f"{cfg.validation_fraction:.0%} validation split, got {n}"
        )
    order = _derived_rng(cfg.seed, 0).permutation(n)
    n_val = max(1, int(n * cfg.validation_fraction))
    return order[:n_val], order[n_val:]


def _run_training(net: Mlp, X: np.ndarray, objective, cfg: TrainConfig) -> TrainLog:
    val_idx, train_idx = validation_split(X.shape[0], cfg)
    X_val = X[val_idx]

    params = net._flatten(net.weights, net.biases)
    net.weights, net.biases = net._views(params)
    grad = np.empty_like(params)
    grad_views = net._views(grad)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    scratch = np.empty((2, params.size))
    step = 0
    best_val = math.inf
    best_params = params.copy()
    best_epoch = -1
    epochs_since_best = 0
    train_losses: list[float] = []
    val_losses: list[float] = []

    for epoch in range(cfg.max_epochs):
        perm = _derived_rng(cfg.seed, 1, epoch).permutation(train_idx.size)
        shuffled = train_idx[perm]
        X_shuffled = X[shuffled]
        epoch_loss = 0.0
        for start in range(0, shuffled.size, cfg.batch_size):
            batch = shuffled[start : start + cfg.batch_size]
            pre, post = net._forward_cached(X_shuffled[start : start + cfg.batch_size])
            loss, grad_output = objective.value_and_grad(post[-1], batch)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at epoch {epoch}")
            net._backward(pre, post, grad_output, out=grad_views)
            step += 1
            _adam_step(params, grad, m, v, step, cfg.learning_rate, scratch)
            epoch_loss += loss * batch.size
        train_losses.append(epoch_loss / shuffled.size)

        val_loss = objective.value(net.forward(X_val), val_idx)
        if not math.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        val_losses.append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                break

    net.weights, net.biases = net._views(best_params)
    return TrainLog(
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
        n_train=int(train_idx.size),
        n_val=int(val_idx.size),
    )


def train_mse(net: Mlp, X, y, cfg: TrainConfig):
    """Fit the network to y with mean-squared error.

    A validation subset (cfg.validation_fraction, seeded shuffle) is held out
    of the given rows; training runs mini-batch Adam and restores the weights
    with the best validation loss. The network is modified in place and also
    returned, together with the loss log.
    """
    X, y = check_rows(X, net.input_dim, y=y)
    log = _run_training(net, X, _MseObjective(y[:, None]), cfg)
    return net, log


def train_nll_fixed_mean(sigma_net: Mlp, mean_net: Mlp, X, y, cfg: TrainConfig):
    """Fit the sigma network by Gaussian NLL with the mean network frozen.

    The per-sample loss is log(sigma^2)/2 + (y - mu)^2 / (2 sigma^2) with
    sigma = softplus output + SIGMA_FLOOR. The mean network is only read,
    never written.
    """
    if sigma_net.output_activation is not Activation.SOFTPLUS:
        raise ValueError("sigma network must have a Softplus output activation")
    if sigma_net.output_dim != 1:
        raise ValueError("sigma network must have a single output")
    X, y = check_rows(X, sigma_net.input_dim, y=y)
    residuals = y - mean_net.forward(X)[:, 0]
    log = _run_training(sigma_net, X, _NllSigmaObjective(residuals), cfg)
    return sigma_net, log


def train_nll_fixed_sigma(mean_net: Mlp, sigma_values, X, y, cfg: TrainConfig):
    """Fit the mean network by Gaussian NLL with per-sample sigmas fixed.

    Equivalent to inverse-variance-weighted MSE up to a constant; used by the
    alternating heteroscedastic-network trainer.
    """
    if mean_net.output_dim != 1:
        raise ValueError("mean network must have a single output")
    X, y, sigma = check_rows(X, mean_net.input_dim, y=y, sigma_values=sigma_values)
    if np.any(sigma <= 0.0):
        raise ValueError("sigma_values must be positive")
    log = _run_training(mean_net, X, _NllMeanObjective(y, sigma), cfg)
    return mean_net, log


def default_hidden(hidden: Sequence[int] | None, d_raw: int, factor: int) -> list[int]:
    """Hidden layer sizes: hidden itself, or [factor * d, factor / 2 * d] when
    it is None, d being the pre-encoding feature count. Splitting and HNN
    networks use factor 8, tree leaf networks factor 4."""
    if hidden is not None:
        return list(hidden)
    return [factor * d_raw, factor // 2 * d_raw]


def predict_sigma(sigma_net: Mlp, X) -> np.ndarray:
    """Standard-deviation predictions with the positivity floor applied."""
    out = sigma_net.forward(X)  # as one expression, peak RSS rose 1.4 MiB predicting 50k rows (numpy 2.4)
    return out[:, 0] + SIGMA_FLOOR


def nll_loss(y: float, mu: float, sigma: float) -> float:
    """Per-sample Gaussian negative log-likelihood, constant term dropped."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    r = y - mu
    return math.log(sigma * sigma) / 2.0 + (r * r) / (2.0 * sigma * sigma)


def average_nll(y, mu, sigma) -> float:
    """Mean Gaussian NLL over a prediction set (vectorised nll_loss)."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive")
    r = y - mu
    return float(np.mean(np.log(sigma * sigma) / 2.0 + r * r / (2.0 * sigma * sigma)))
