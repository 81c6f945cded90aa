"""Minimal feed-forward network engine.

Forward/backward passes, mean-squared-error and Gaussian negative
log-likelihood objectives, Adam, mini-batching, and validation-based early
stopping. Everything runs in float64 and is deterministic given the seeds:
the validation split and the per-epoch batch shuffles are all derived from
the training seed, so identical (data, config, seed) reproduce identical
weights bit for bit.

A 2-d forward (prediction, validation) runs in blocks of BLOCK_ROWS rows,
each padded to a whole number of 4-row groups with copies of its last row,
so under one BLAS thread a row's output does not depend on the rows it is
passed with.

Parameter layout: a training run trains a stack of K networks of one shape
and one pair of activations in lockstep (K = 1 for a single network), under
one config and one seed per network. It packs their parameters into one
(K, P) float64 buffer, one row per network and each row layer by layer: W0
(row-major, fan_in x fan_out), b0, W1, b1, .... The training passes use
(K, fan_in, fan_out) weight views of it and batched matmul, so every numpy
call serves all K networks; per-slice 3-d matmul and reductions over the
batch axis give the same bits as the 2-d calls, so a network trained in a
stack ends with exactly the weights it gets alone. The gradient, the two
Adam moments and the best weights are (K, P) buffers of the same layout:
the backward pass writes each layer's gradient straight into its slot, and
one Adam step is a few whole-buffer operations with one shared step count.
Validation runs each network on its own rows with a 2-d forward, so a stack
holds one network's validation activations at a time. A network leaves the
stack only at the end of an epoch (its rows of every buffer are dropped),
and its `Mlp.weights` / `Mlp.biases` become views of its own copy of its
best row. Assigning fresh arrays to `weights` / `biases` stays allowed: the
next training run packs whatever they hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "BLOCK_ROWS",
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
    "row_blocks",
    "train_mse",
    "train_nll_fixed_mean",
    "train_nll_fixed_mean_lockstep",
    "train_nll_fixed_sigma",
    "train_nll_fixed_sigma_lockstep",
    "validation_split",
]

# Additive floor on predicted standard deviations. The NLL diverges as
# sigma -> 0, so every sigma-prediction path reports softplus(z) + SIGMA_FLOOR.
SIGMA_FLOOR = 1e-6

# Rows that a pass over an unbounded row count (a 2-d forward, ensemble
# moment matching, a CSV read or write) handles at a time, so its working set
# does not grow with the rows.
BLOCK_ROWS = 4096
# BLAS computes a product's rows in groups of this many, and the rows past a
# multiple of it by edge kernels that round differently, so _forward runs
# every block as whole groups.
_ROW_GROUP = 4


def row_blocks(n: int) -> list[slice]:
    """Slices covering rows 0..n in order, BLOCK_ROWS rows each but the last."""
    return [slice(start, min(start + BLOCK_ROWS, n)) for start in range(0, n, BLOCK_ROWS)]


class TrainingError(RuntimeError):
    """An optimisation run produced a non-finite loss."""


class Activation(Enum):
    TANH = "tanh"
    RELU = "relu"
    LINEAR = "linear"
    SOFTPLUS = "softplus"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows.
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


# Per activation: act(z, out), the activation of z written to out when out is
# given, and times_derivative(delta, z, a), delta * act'(z) taken from the
# activation a = act(z) where it can: tanh' = 1 - a^2, relu' = [a > 0].
_ACTIVATIONS = {
    Activation.TANH: (np.tanh, lambda delta, z, a: delta * (1.0 - a * a)),
    Activation.RELU: (
        lambda z, out=None: np.maximum(z, 0.0, out=out),
        lambda delta, z, a: delta * (a > 0.0),
    ),
    Activation.LINEAR: (lambda z, out=None: z, lambda delta, z, a: delta),
    Activation.SOFTPLUS: (
        lambda z, out=None: np.logaddexp(0.0, z, out=out),
        lambda delta, z, a: delta * _sigmoid(z),
    ),
}


def _forward(weights, biases, activations, X: np.ndarray) -> np.ndarray:
    """The network's output on the rows of a 2-d X, holding only the live
    layer of one of its row_blocks at a time: each activation overwrites its
    pre-activation, and each block's output is written into one array. A
    block whose rows are not whole _ROW_GROUPs runs padded with copies of its
    last row, so under one BLAS thread a row gets the same bits in any call."""
    out = np.empty((X.shape[0], weights[-1].shape[-1]))
    for rows in row_blocks(X.shape[0]):
        block = X[rows]
        n = block.shape[0]
        if n % _ROW_GROUP:
            block = np.concatenate([block, block[[-1] * (-n % _ROW_GROUP)]])
        out[rows] = _layers(weights, biases, activations, block)[:n]
    return out


def _layers(weights, biases, activations, a: np.ndarray) -> np.ndarray:
    for W, b, (act, _) in zip(weights, biases, activations):
        a = np.matmul(a, W)
        a += b
        a = act(a, a)
    return a


def _forward_cached(weights, biases, activations, X: np.ndarray):
    """_forward keeping pre-activations and activations per layer."""
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [X]
    for W, b, (act, _) in zip(weights, biases, activations):
        z = np.matmul(post[-1], W)
        z += b
        pre.append(z)
        post.append(act(z))
    return pre, post


def _backward(weights_t, activations, pre, post, delta, grads_w, grads_b) -> None:
    """Write the parameter gradients of a loss into grads_w and grads_b, given
    delta = d(loss)/d(outputs); weights_t holds each weight matrix transposed."""
    for i in range(len(weights_t) - 1, -1, -1):
        delta = activations[i][1](delta, pre[i], post[i + 1])
        np.matmul(post[i].swapaxes(-1, -2), delta, out=grads_w[i])
        np.add.reduce(delta, axis=-2, out=grads_b[i])
        if i:
            delta = np.matmul(delta, weights_t[i])


def _unpack(layer_sizes, flat: np.ndarray):
    """(weights, biases) lists viewing flat, (..., P), in the packed layout:
    weights (..., fan_in, fan_out) and biases (..., fan_out)."""
    lead = flat.shape[:-1]
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    offset = 0
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        end = offset + n_in * n_out
        weights.append(flat[..., offset:end].reshape(*lead, n_in, n_out))
        biases.append(flat[..., end : end + n_out])
        offset = end + n_out
    return weights, biases


class Mlp:
    """Fully connected network with one activation shared by all hidden
    layers and a separate output activation.

    Weights are Xavier-uniform at construction (limit sqrt(6 / (fan_in +
    fan_out)), suited to the Tanh hidden layers used throughout); biases
    start at zero. Weight matrices have shape (fan_in, fan_out). from_arrays
    builds a network around given parameters instead.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation: Activation = Activation.TANH,
        output_activation: Activation = Activation.LINEAR,
        seed: int = 0,
    ):
        self._set_layout(layer_sizes, hidden_activation, output_activation, seed)
        rng = np.random.default_rng(self.seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            limit = math.sqrt(6.0 / (n_in + n_out))
            self.weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
            self.biases.append(np.zeros(n_out))

    @classmethod
    def from_arrays(
        cls,
        layer_sizes: Sequence[int],
        hidden_activation: Activation,
        output_activation: Activation,
        seed: int,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
    ) -> Mlp:
        """A network holding the given weights and biases, which the caller
        has checked against layer_sizes. No initial weights are drawn."""
        net = cls.__new__(cls)
        net._set_layout(layer_sizes, hidden_activation, output_activation, seed)
        net.weights, net.biases = list(weights), list(biases)
        return net

    def _set_layout(self, layer_sizes, hidden_activation, output_activation, seed) -> None:
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("layer_sizes needs input and output dims, all positive")
        self.layer_sizes = sizes
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative")

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
        return _forward(self.weights, self.biases, self._activations(), X)

    def _activations(self) -> list[tuple]:
        """The (act, times_derivative) pair of each layer, looked up once."""
        hidden = _ACTIVATIONS[self.hidden_activation]
        return [hidden] * (len(self.layer_sizes) - 2) + [_ACTIVATIONS[self.output_activation]]

    def _flatten(self) -> np.ndarray:
        """A new flat buffer holding the parameters in the packed layout."""
        params = [p for pair in zip(self.weights, self.biases) for p in pair]
        shapes = [
            shape
            for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
            for shape in ((n_in, n_out), (n_out,))
        ]
        if len(self.weights) != len(self.biases) or [np.shape(p) for p in params] != shapes:
            raise ValueError("network parameters do not match the layer sizes")
        return np.concatenate([np.ravel(p) for p in params], dtype=float)


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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
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


# An objective holds per-row columns: (K, n, ...) arrays whose row k of axis
# 0 belongs to network k of a stack. Its sums_and_grad(outputs, *columns),
# given the outputs on some rows and the columns at those rows, with or
# without the stack axis, returns each network's loss summed over the rows
# and the gradient of its mean loss in the outputs, from one residual.


class _MseObjective:
    def __init__(self, y: np.ndarray):
        self.columns = (y,)  # (..., n, out_dim)

    @staticmethod
    def sums_and_grad(outputs: np.ndarray, y: np.ndarray):
        diff = outputs - y
        return np.add.reduce(np.add.reduce(diff * diff, axis=-1), axis=-1), 2.0 * diff / outputs.shape[-2]


class _NllSigmaObjective:
    """Gaussian NLL in the sigma network, residuals fixed."""

    def __init__(self, residuals: np.ndarray):
        self.columns = (residuals * residuals,)  # (..., n)

    @staticmethod
    def sums_and_grad(outputs: np.ndarray, squared: np.ndarray):
        sigma = outputs[..., 0] + SIGMA_FLOOR
        terms = np.log(sigma * sigma) / 2.0 + squared / (2.0 * sigma * sigma)
        g = (1.0 / sigma - squared / sigma**3) / outputs.shape[-2]
        return np.add.reduce(terms, axis=-1), g[..., None]


class _NllMeanObjective:
    """Gaussian NLL in the mean network, per-sample sigmas fixed."""

    def __init__(self, y: np.ndarray, sigma: np.ndarray):
        self.columns = (y, sigma)  # (..., n) each

    @staticmethod
    def sums_and_grad(outputs, y, sigma):
        variance = sigma * sigma
        diff = outputs[..., 0] - y
        terms = np.log(variance) / 2.0 + diff * diff / (2.0 * sigma * sigma)
        g = (diff / variance) / outputs.shape[-2]
        return np.add.reduce(terms, axis=-1), g[..., None]


def _vector(name: str, vector, n: int) -> np.ndarray:
    """vector as a finite float vector of length n; the ValueError names name."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (n,):
        raise ValueError(f"{name} must be a vector matching the rows of X")
    if not np.all(np.isfinite(vector)):
        raise ValueError(f"{name} must be finite")
    return vector


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
    return (X, *(_vector(name, vector, X.shape[0]) for name, vector in vectors.items()))


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


class _Stack:
    """The parameters of K same-shaped networks as the rows of one (K, P)
    buffer, their gradient, Adam moments and best weights in buffers of the
    same layout, and the per-layer views the passes use."""

    def __init__(self, layer_sizes, params: np.ndarray):
        self.layer_sizes = layer_sizes
        self._hold(params, np.zeros_like(params), np.zeros_like(params), params.copy())

    def keep(self, rows: list[int]) -> None:
        """Keep only the given rows of every buffer."""
        self._hold(self.params[rows], self.m[rows], self.v[rows], self.best[rows])

    def _hold(self, params, m, v, best) -> None:
        self.params, self.m, self.v, self.best = params, m, v, best
        self.grad = np.empty_like(params)
        self.scratch = np.empty((2, *params.shape))
        self.weights, biases = _unpack(self.layer_sizes, params)
        self.biases = [b[:, None] for b in biases]  # (K, 1, fan_out), added to each batch row
        self.weights_t = [W.swapaxes(-1, -2) for W in self.weights]
        self.grads = _unpack(self.layer_sizes, self.grad)


def _run_training(nets: list[Mlp], X: np.ndarray, objective, cfg: TrainConfig, seeds: Sequence[int]) -> list:
    """Train K networks of one shape and activations in lockstep on the rows
    of X under cfg: network k with seed seeds[k] in place of cfg.seed, and on
    row k of each of the objective's (K, n, ...) columns. Each network keeps
    its own validation split, shuffles, losses and early stopping, and ends
    with the weights and log it gets when trained alone, bit for bit.

    Networks leave the stack only at the end of an epoch: by patience, by a
    non-finite validation loss, or by a non-finite batch loss earlier in the
    epoch, whose batch then updates that network with a zero output gradient
    (its weights are discarded). Returns per network its TrainLog, or the
    TrainingError that stopped it while the others trained on."""
    shape = [(net.layer_sizes, net.hidden_activation, net.output_activation) for net in nets]
    if shape.count(shape[0]) != len(shape):
        raise ValueError("networks trained in lockstep need one shape and one pair of activations")
    activations = nets[0]._activations()
    splits = [validation_split(X.shape[0], replace(cfg, seed=seed)) for _, seed in zip(nets, seeds, strict=True)]
    n_val, n_train = splits[0][0].size, splits[0][1].size
    # Per network: its validation rows of X and of its columns, its log (or
    # error), its best validation loss and the epochs since then.
    val_data = [[X[val], *(c[k, val] for c in objective.columns)] for k, (val, _) in enumerate(splits)]
    outcomes: list = [TrainLog([], [], -1, n_train, n_val) for _ in nets]
    best_val = [math.inf] * len(nets)
    stale = [0] * len(nets)

    members = list(range(len(nets)))  # the network of each stack row
    stack = _Stack(nets[0].layer_sizes, np.stack([net._flatten() for net in nets]))
    step = 0

    def finish(row: int) -> None:
        net = nets[members[row]]
        net.weights, net.biases = _unpack(net.layer_sizes, stack.best[row].copy())

    batch_sizes = [min(cfg.batch_size, n_train - start) for start in range(0, n_train, cfg.batch_size)]
    for epoch in range(cfg.max_epochs):
        shuffled = np.stack([splits[k][1][_derived_rng(seeds[k], 1, epoch).permutation(n_train)] for k in members])
        stacked = np.array(members)[:, None]
        data = [X[shuffled], *(c[stacked, shuffled] for c in objective.columns)]
        batch_sums: list[list[float]] = []  # per batch, each stack row's loss sum
        for start in range(0, n_train, cfg.batch_size):
            X_batch, *columns = [a[:, start : start + cfg.batch_size] for a in data]
            pre, post = _forward_cached(stack.weights, stack.biases, activations, X_batch)
            loss_sums, grad_output = objective.sums_and_grad(post[-1], *columns)
            sums = loss_sums.tolist()
            if not all(map(math.isfinite, sums)):
                for row, total in enumerate(sums):
                    if not math.isfinite(total):
                        grad_output[row] = 0.0
                        if isinstance(outcomes[members[row]], TrainLog):
                            loss = total / X_batch.shape[1]
                            outcomes[members[row]] = TrainingError(f"non-finite loss {loss} at epoch {epoch}")
            _backward(stack.weights_t, activations, pre, post, grad_output, *stack.grads)
            step += 1
            _adam_step(stack.params, stack.grad, stack.m, stack.v, step, cfg.learning_rate, stack.scratch)
            batch_sums.append(sums)
        # The last batch's views hold the epoch's gather: drop it before the
        # validation pass and the next epoch's gather.
        del data, X_batch, columns, pre, post

        kept = []
        for row, k in enumerate(members):
            log = outcomes[k]
            if not isinstance(log, TrainLog):
                continue
            # The epoch's loss adds each batch's mean loss times its size in
            # batch order, as plain floats, so a stack sums as one network.
            epoch_loss = 0.0
            for sums, size in zip(batch_sums, batch_sizes):
                epoch_loss += sums[row] / size * size
            log.train_losses.append(epoch_loss / n_train)
            X_val, *val_columns = val_data[k]
            outputs = _forward([W[row] for W in stack.weights], [b[row] for b in stack.biases], activations, X_val)
            value = float(objective.sums_and_grad(outputs, *val_columns)[0]) / n_val
            if not math.isfinite(value):
                outcomes[k] = TrainingError(f"non-finite validation loss at epoch {epoch}")
                continue
            log.val_losses.append(value)
            if value < best_val[k]:
                best_val[k] = value
                stack.best[row] = stack.params[row]
                log.best_epoch = epoch
                stale[k] = 0
            else:
                stale[k] += 1
                if stale[k] >= cfg.patience:
                    finish(row)
                    continue
            kept.append(row)
        if len(kept) < len(members):
            if not kept:
                return outcomes
            members = [members[row] for row in kept]
            stack.keep(kept)

    for row in range(len(members)):
        finish(row)
    return outcomes


def _only(outcomes: list) -> TrainLog:
    """The TrainLog of a one-network run; its TrainingError is raised."""
    (outcome,) = outcomes
    if isinstance(outcome, TrainingError):
        raise outcome
    return outcome


def train_mse(net: Mlp, X, y, cfg: TrainConfig):
    """Fit the network to y with mean-squared error.

    A validation subset (cfg.validation_fraction, seeded shuffle) is held out
    of the given rows; training runs mini-batch Adam and restores the weights
    with the best validation loss. The network is modified in place and also
    returned, together with the loss log.
    """
    X, y = check_rows(X, net.input_dim, y=y)
    return net, _only(_run_training([net], X, _MseObjective(y[None, :, None]), cfg, [cfg.seed]))


def train_nll_fixed_mean(sigma_net: Mlp, mean_net: Mlp, X, y, cfg: TrainConfig, mu=None):
    """Fit the sigma network by Gaussian NLL with the mean network frozen.

    The per-sample loss is log(sigma^2)/2 + (y - mu)^2 / (2 sigma^2) with
    sigma = softplus output + SIGMA_FLOOR. The mean network is only read,
    never written; a caller that holds its output on X passes it as mu, and
    the network is not run again.
    """
    mus = None if mu is None else [mu]
    return sigma_net, _only(train_nll_fixed_mean_lockstep([sigma_net], [mean_net], X, y, cfg, [cfg.seed], mus))


def train_nll_fixed_mean_lockstep(
    sigma_nets: list[Mlp], mean_nets: list[Mlp], X, y, cfg: TrainConfig, seeds: Sequence[int], mus=None
) -> list:
    """train_nll_fixed_mean for same-shaped sigma networks, each with its own
    frozen mean network (or its output on X, in mus) and seed (read in place
    of cfg.seed), trained in lockstep. Returns per network its TrainLog, or
    the TrainingError that stopped it while the others trained on."""
    if sigma_nets[0].output_activation is not Activation.SOFTPLUS:
        raise ValueError("sigma network must have a Softplus output activation")
    if sigma_nets[0].output_dim != 1:
        raise ValueError("sigma network must have a single output")
    X, y = check_rows(X, sigma_nets[0].input_dim, y=y)
    if mus is None:
        mus = [mean_net.forward(X)[:, 0] for mean_net in mean_nets]
    residuals = np.stack([y - mu for mu in mus])
    return _run_training(sigma_nets, X, _NllSigmaObjective(residuals), cfg, seeds)


def train_nll_fixed_sigma(mean_net: Mlp, sigma_values, X, y, cfg: TrainConfig):
    """Fit the mean network by Gaussian NLL with per-sample sigmas fixed.

    Equivalent to inverse-variance-weighted MSE up to a constant; used by the
    alternating heteroscedastic-network trainer.
    """
    return mean_net, _only(train_nll_fixed_sigma_lockstep([mean_net], [sigma_values], X, y, cfg, [cfg.seed]))


def train_nll_fixed_sigma_lockstep(
    mean_nets: list[Mlp], sigma_values: list, X, y, cfg: TrainConfig, seeds: Sequence[int]
) -> list:
    """train_nll_fixed_sigma for same-shaped mean networks, each with its own
    sigma_values and seed (read in place of cfg.seed), trained in lockstep.
    Returns per network its TrainLog, or the TrainingError that stopped it
    while the others trained on."""
    if mean_nets[0].output_dim != 1:
        raise ValueError("mean network must have a single output")
    X, y = check_rows(X, mean_nets[0].input_dim, y=y)
    sigma = np.stack([_vector("sigma_values", values, X.shape[0]) for values in sigma_values])
    if np.any(sigma <= 0.0):
        raise ValueError("sigma_values must be positive")
    return _run_training(mean_nets, X, _NllMeanObjective(np.broadcast_to(y, sigma.shape), sigma), cfg, seeds)


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
