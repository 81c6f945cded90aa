import os

import numpy as np
import pytest

from usnrt import parallel
from usnrt.data import SynthSpec, generate_synthetic
from usnrt.model_io import encode_mlp
from usnrt.nn_core import Activation, Mlp, TrainConfig, _backward, _forward_cached, _Stack


def feature_matrix(dataset):
    """Stack a synthetic dataset's continuous columns into an (n, d) matrix."""
    names = [c.name for c in dataset.schema.feature_columns]
    return np.column_stack([dataset.columns[name] for name in names])


@pytest.fixture
def pools(monkeypatch):
    """Process counts, this process included, of the fork_map calls that fork."""
    started = []
    forked = parallel._forked

    def counting(task, n_tasks, processes):
        started.append(processes)
        return forked(task, n_tasks, processes)

    monkeypatch.setattr(parallel, "_forked", counting)
    return started


def assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def set_cpus(monkeypatch, count):
    """Make fork_map see count usable CPUs."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: count)


def fast_train_cfg(seed=0, max_epochs=80, patience=10):
    """Training config scaled down for unit-test speed."""
    return TrainConfig(max_epochs=max_epochs, patience=patience, seed=seed)


def finite_difference_worst(net, X, objective, h=1e-5):
    """Worst relative error of the training pass's gradient of the mean loss
    on X against central differences. net trains as a K = 1 stack, so the
    objective's columns carry a stack axis of length 1."""
    stack = _Stack(net.layer_sizes, net._flatten()[None])
    activations = net._activations()

    def mean_loss():
        pre, post = _forward_cached(stack.weights, stack.biases, activations, X[None])
        sums, grad_output = objective.sums_and_grad(post[-1], *objective.columns)
        return float(sums[0]) / X.shape[0], pre, post, grad_output

    _, *passes = mean_loss()
    _backward(stack.weights_t, activations, *passes, *stack.grads)
    params, grad = stack.params[0], stack.grad[0].copy()
    worst = 0.0
    for i, analytic in enumerate(grad):
        original = params[i]
        params[i] = original + h
        up = mean_loss()[0]
        params[i] = original - h
        down = mean_loss()[0]
        params[i] = original
        numeric = (up - down) / (2.0 * h)
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-5))
    return worst


def width3_member(member):
    """Give an hnn payload (an ensemble member) self-consistent networks of
    input width 3 and no preprocessing state of its own, so only a width
    check against another state can reject it."""
    member.update(
        preprocess=None,
        mean_net=encode_mlp(Mlp([3, 4, 1])),
        sigma_net=encode_mlp(Mlp([3, 4, 1], output_activation=Activation.SOFTPLUS)),
    )


def with_color(payload, slots):
    """Give an hnn payload whose features are x1 and x2 the features x1 and a
    categorical column color with the given encoding slots, and fresh
    networks as wide as that encoding."""
    state = payload["preprocess"]
    state.update(schema=[["x1", "continuous"], ["color", "categorical"], ["y", "label"]], encoding={"color": slots})
    del state["continuous_stats"]["x2"]
    width = 1 + len(slots)
    payload.update(
        mean_net=encode_mlp(Mlp([width, 4, 1])),
        sigma_net=encode_mlp(Mlp([width, 4, 1], output_activation=Activation.SOFTPLUS)),
    )
    return payload


@pytest.fixture
def piecewise_sigma_data():
    """Variance boundary at x1 = 0: sigma 0.1 on the left, 1.0 on the right."""
    synth = generate_synthetic(
        SynthSpec(n=3000, d=2, sigma_low=0.1, sigma_high=1.0, seed=11)
    )
    return feature_matrix(synth.dataset), synth.dataset.labels, synth
