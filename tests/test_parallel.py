"""fork_map: independent training tasks in forked worker processes. Models,
logs and errors must not depend on how many CPUs the pool may use, and no
worker may outlive the call."""

import multiprocessing
import os
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

from usnrt import baselines, parallel, tree
from usnrt.nn_core import TrainConfig, TrainingError, derived_seed

from conftest import fast_train_cfg


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the process pools fork_map starts."""
    started = []

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    return started


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: count)


def two_level_data(n=2400):
    """Noise 0.1 for x1 < 0; for x1 >= 0, noise 0.3 or 2.0 by the sign of x2."""
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (n, 2))
    sigma = np.where(X[:, 0] < 0, 0.1, np.where(X[:, 1] < 0, 0.3, 2.0))
    return X, X[:, 0] + X[:, 1] + sigma * rng.standard_normal(n)


def small_tree_cfg(n_min=300):
    train_cfg = TrainConfig(max_epochs=8, patience=8)
    return tree.UsnrtConfig(n_min=n_min, split_net_hidden=[8], leaf_net_hidden=[8], train_cfg=train_cfg)


def deep_tree():
    X, y = two_level_data()
    model = tree.build(X, y, small_tree_cfg())
    assert model.depth >= 2  # region renumbering and the preorder merge run
    return model


def ensemble():
    X, y = two_level_data(600)
    return baselines.train_ensemble(X, y, fast_train_cfg(seed=4, max_epochs=8, patience=8), hidden=[6])


def single_leaf_tree():
    X, y = two_level_data(500)
    model = tree.build(X, y, small_tree_cfg(n_min=300))
    assert model.leaf_count == 1
    return model


@pytest.mark.parametrize(
    "train, pools_at_2_cpus",
    [(deep_tree, [2]), (ensemble, [2]), (single_leaf_tree, [])],
    ids=["usnrt-depth-2", "ensemble", "single-leaf"],
)
def test_same_model_and_log_for_1_and_2_cpus(monkeypatch, pools, train, pools_at_2_cpus):
    """Only the 2-CPU build forks: one pool of 2 workers for the root's
    subtrees or for the members; workers grow deeper subtrees serially."""
    models = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        models.append(train())
        assert multiprocessing.active_children() == []
    serial, pooled = models
    assert serial.to_payload() == pooled.to_payload()
    assert serial.train_log == pooled.train_log
    X, _ = two_level_data(300)
    for got, want in zip(pooled.predict_arrays(X), serial.predict_arrays(X)):
        assert np.array_equal(got, want)
    assert pools == pools_at_2_cpus


def member_by_member(X, y, cfg, hidden, n_members=baselines.ENSEMBLE_MEMBERS):
    """The ensemble's members, each trained alone by train_hnn."""
    return [
        baselines.train_hnn(X, y, replace(cfg, seed=derived_seed(cfg.seed, 100 + j)), hidden=hidden)
        for j in range(n_members)
    ]


def test_lockstep_chunks_match_member_by_member_training(monkeypatch, pools):
    """Members train in contiguous lockstep stacks, one per worker: 1, 2, 3
    or 5 stacks give the same members as training each alone, and at these
    settings members stop by patience at different epochs."""
    X, y = two_level_data(600)
    cfg = fast_train_cfg(seed=4, max_epochs=40, patience=3)
    reference = baselines.EnsembleModel(members=member_by_member(X, y, cfg, [6]))
    epochs = {phase["mean_epochs"] for log in reference.train_log["members"] for phase in log["phases"]}
    assert len(epochs) > 1
    for cpus in (1, 2, 3, 5):
        set_cpus(monkeypatch, cpus)
        model = baselines.train_ensemble(X, y, cfg, hidden=[6])
        assert model.to_payload() == reference.to_payload()
        assert model.train_log == reference.train_log
        assert multiprocessing.active_children() == []
    assert pools == [2, 3, 5]


def fail_members(monkeypatch, cfg, failing):
    """Make member j's mean phase fail in round failing[j]."""
    seeds = {
        derived_seed(derived_seed(cfg.seed, 100 + j), 3, rnd): j for j, rnd in failing.items()
    }
    original = baselines.train_nll_fixed_sigma_lockstep

    def train(mean_nets, sigma_values, X, y, cfgs):
        outcomes = original(mean_nets, sigma_values, X, y, cfgs)
        return [
            TrainingError(f"injected into member {seeds[c.seed]}") if c.seed in seeds else outcome
            for c, outcome in zip(cfgs, outcomes)
        ]

    monkeypatch.setattr(baselines, "train_nll_fixed_sigma_lockstep", train)


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_lowest_failing_member_is_reported_for_any_chunking(monkeypatch, pools, cpus):
    """Member 3 fails in round 0 and member 1 in round 1. A member-by-member
    loop reaches member 1 first, so its error is the one raised, whichever
    stack each member trains in."""
    X, y = two_level_data(300)
    cfg = fast_train_cfg(seed=2, max_epochs=4, patience=4)
    fail_members(monkeypatch, cfg, {3: 0, 1: 1})
    set_cpus(monkeypatch, cpus)
    with pytest.raises(TrainingError, match=r"^hnn round 1, mean phase: injected into member 1$"):
        baselines.train_ensemble(X, y, cfg, hidden=[4])
    with pytest.raises(TrainingError, match=r"^hnn round 1, mean phase: injected into member 1$"):
        member_by_member(X, y, cfg, [4])
    assert multiprocessing.active_children() == []
    assert pools == ([] if cpus == 1 else [cpus])


def fail_right_subtree(monkeypatch):
    """Make every leaf sigma network right of the root split fail."""
    original = tree.train_nll_fixed_mean

    def train(sigma_net, mean_net, X, y, cfg):
        if X[:, 0].min() > 0.0:
            raise TrainingError("injected")
        return original(sigma_net, mean_net, X, y, cfg)

    monkeypatch.setattr(tree, "train_nll_fixed_mean", train)


def failing_tree():
    X, y = two_level_data()
    tree.build(X, y, small_tree_cfg())


def failing_ensemble():
    X, y = two_level_data(6)
    baselines.train_ensemble(X, y, fast_train_cfg())


@pytest.mark.parametrize(
    "train, expected",
    [
        (failing_tree, (tree.TreeBuildError, "leaf networks at root.R.L: injected")),
        (
            failing_ensemble,
            (TrainingError, "hnn round 0, mean phase: need at least 10 rows for a 20% validation split, got 6"),
        ),
    ],
    ids=["usnrt", "ensemble"],
)
def test_worker_error_matches_serial_error(monkeypatch, pools, train, expected):
    """A TrainingError raised in a worker reaches the caller with the type
    and the node path or phase message it has in a serial build."""
    fail_right_subtree(monkeypatch)
    errors = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        with pytest.raises(TrainingError) as caught:
            train()
        errors.append((type(caught.value), str(caught.value)))
        assert multiprocessing.active_children() == []
    assert pools
    assert errors[0] == errors[1]
    assert errors[0] == expected


def square_or_raise(i):
    if i >= 1:
        raise ValueError(f"task {i}")
    return i * i


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failing_task_in_index_order_raises(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="^task 1$"):
        parallel.fork_map(square_or_raise, 3)
    assert multiprocessing.active_children() == []


def kill_task_1(i):
    if i == 1 and multiprocessing.parent_process() is not None:  # never the test process itself
        os.kill(os.getpid(), signal.SIGKILL)
    return i


def test_dead_worker_is_a_training_error(monkeypatch, pools):
    """A worker killed by a signal, as the out-of-memory killer would kill
    it, is a TrainingError once every worker has exited."""
    set_cpus(monkeypatch, 2)
    with pytest.raises(TrainingError, match="worker process ended abruptly"):
        parallel.fork_map(kill_task_1, 3)
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_tasks_run_in_workers_that_do_not_nest_pools(monkeypatch, pools):
    set_cpus(monkeypatch, 2)
    pids = parallel.fork_map(lambda i: parallel.fork_map(lambda j: os.getpid(), 2), 2)
    assert pools == [2]
    assert all(len(set(inner)) == 1 for inner in pids)  # each worker ran its inner tasks itself
    assert os.getpid() not in {pid for inner in pids for pid in inner}


def test_serial_while_another_thread_runs(monkeypatch, pools):
    set_cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10.0,))
    thread.start()
    try:
        assert parallel.fork_map(lambda i: (i, os.getpid()), 3) == [(i, os.getpid()) for i in range(3)]
    finally:
        release.set()
        thread.join(10.0)
    assert not thread.is_alive()
    assert pools == []
