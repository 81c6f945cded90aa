"""fork_map: independent training tasks in forked worker processes. Models,
logs and errors must not depend on how many CPUs the pool may use, and no
worker may outlive the call."""

import os
import signal
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from usnrt import baselines, parallel, tree
from usnrt.nn_core import TrainConfig, TrainingError, derived_seed

from conftest import assert_no_child_left, fast_train_cfg, set_cpus

# The test process: a fork_map task that runs anywhere else runs in a child.
TEST_PID = os.getpid()


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
    [(deep_tree, [2, 2]), (ensemble, [2]), (single_leaf_tree, [])],
    ids=["usnrt-depth-2", "ensemble", "single-leaf"],
)
def test_same_model_and_log_for_1_and_2_cpus(monkeypatch, pools, train, pools_at_2_cpus):
    """Only the 2-CPU build forks: one pool of 2 workers for the root's
    feature screens (with the scan's size floor lifted), then one for the
    root's subtrees, or one for the members; workers scan and grow deeper
    subtrees serially."""
    monkeypatch.setattr(tree, "_FORK_SCAN_CELLS", 0)
    models = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        models.append(train())
        assert_no_child_left()
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
        assert_no_child_left()
    assert pools == [2, 3, 5]


def twenty_member_peak(monkeypatch) -> int:
    """Traced peak of training 20 members on 20,000 x 8 rows on one CPU, one
    epoch of one round."""
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, (20_000, 8))
    y = X[:, 0] + 0.1 * rng.standard_normal(20_000)
    set_cpus(monkeypatch, 1)
    tracemalloc.start()
    try:
        baselines.train_ensemble(X, y, TrainConfig(max_epochs=1, patience=1), n_members=20, rounds=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_stack_holds_one_networks_validation_activations(monkeypatch):
    """With the stack budget lifted, the 20 members train as one stack of
    K = 20. Each epoch gathers K x n_train rows (about 24 MiB here), but the
    validation pass runs one network at a time: validating all 20 at once
    would add K x n_val x (64 + 32) floats, a traced peak of about 125 MiB."""
    monkeypatch.setattr(baselines, "STACK_BUDGET_BYTES", 2**62)
    peak = twenty_member_peak(monkeypatch)
    assert peak < 100 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_stacks_stay_within_the_byte_budget(monkeypatch):
    """20 x 20,000 x 8 floats of X (24.4 MiB) pass the 16 MiB stack budget,
    so the members train as two stacks of 10 in turn: a traced peak of about
    27 MiB, against 53 MiB for one stack of 20. The mean phase's objective
    gathers two per-row columns with the rows, the labels and the sigmas."""
    assert 20 * 20_000 * 8 * 8 > baselines.STACK_BUDGET_BYTES
    peak = twenty_member_peak(monkeypatch)
    assert peak < 30 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_stack_budget_counts_the_objective_columns(monkeypatch, pools):
    """Each epoch gathers K x n x (d + 2) floats: the rows and the mean
    phase's two objective columns. Two members on 100 x 1 rows gather 4,800
    bytes, of which X is 1,600, so a 3,200-byte budget splits them into two
    stacks, though X alone would pass it."""
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (100, 1))
    y = X[:, 0] + 0.1 * rng.standard_normal(100)
    stacks = []
    train_hnns = baselines._train_hnns

    def counting(X, y, cfg, seeds, hidden, rounds):
        stacks.append(len(seeds))
        return train_hnns(X, y, cfg, seeds, hidden, rounds)

    monkeypatch.setattr(baselines, "_train_hnns", counting)
    monkeypatch.setattr(baselines, "STACK_BUDGET_BYTES", 3200)
    set_cpus(monkeypatch, 1)
    baselines.train_ensemble(X, y, fast_train_cfg(max_epochs=2, patience=2), n_members=2, hidden=[4], rounds=1)
    assert 2 * X.nbytes <= baselines.STACK_BUDGET_BYTES < 2 * 100 * (1 + 2) * 8
    assert stacks == [1, 1]
    assert pools == []


def fail_members(monkeypatch, cfg, failing):
    """Make member j's mean phase fail in round failing[j]."""
    seeds = {
        derived_seed(derived_seed(cfg.seed, 100 + j), 3, rnd): j for j, rnd in failing.items()
    }
    original = baselines.train_nll_fixed_sigma_lockstep

    def train(mean_nets, sigma_values, X, y, cfg, phase_seeds):
        outcomes = original(mean_nets, sigma_values, X, y, cfg, phase_seeds)
        return [
            TrainingError(f"injected into member {seeds[seed]}") if seed in seeds else outcome
            for seed, outcome in zip(phase_seeds, outcomes)
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
    assert_no_child_left()
    assert pools == ([] if cpus == 1 else [cpus])


def fail_right_subtree(monkeypatch):
    """Make every leaf sigma network right of the root split fail."""
    original = tree.train_nll_fixed_mean

    def train(sigma_net, mean_net, X, y, cfg, mu=None):
        if X[:, 0].min() > 0.0:
            raise TrainingError("injected")
        return original(sigma_net, mean_net, X, y, cfg, mu=mu)

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
        assert_no_child_left()
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
    assert_no_child_left()


def kill_task_1(i):
    if i == 1 and os.getpid() != TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return i


def test_dead_worker_is_a_training_error(monkeypatch, pools):
    """A worker killed by a signal, as the out-of-memory killer would kill
    it, is a WorkerLost, a TrainingError, once every worker has exited. Its
    message names no kind of task: prediction runs in workers too."""
    set_cpus(monkeypatch, 2)
    with pytest.raises(parallel.WorkerLost, match="^a worker process ended abruptly"):
        parallel.fork_map(kill_task_1, 3)
    assert issubclass(parallel.WorkerLost, TrainingError)
    assert pools == [2]
    assert_no_child_left()


def test_killed_screen_task_is_a_worker_lost(monkeypatch, pools):
    """A child killed while it screens a feature of the root's scan, as the
    out-of-memory killer would kill it, makes tree.build raise WorkerLost
    once every child has been reaped; no subtree has started."""
    screen, split_nets = tree.levene_statistics_at_cuts, []
    train_split_net = tree._train_split_net

    def killing_screen(ordered_residuals, sizes):
        if os.getpid() != TEST_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        return screen(ordered_residuals, sizes)

    def counting(X, y, cfg, hidden, path):
        split_nets.append(path)
        return train_split_net(X, y, cfg, hidden, path)

    monkeypatch.setattr(tree, "levene_statistics_at_cuts", killing_screen)
    monkeypatch.setattr(tree, "_train_split_net", counting)
    monkeypatch.setattr(tree, "_FORK_SCAN_CELLS", 0)
    set_cpus(monkeypatch, 2)
    X, y = two_level_data()
    with pytest.raises(parallel.WorkerLost, match="^a worker process ended abruptly"):
        tree.build(X, y, small_tree_cfg())
    assert pools == [2]
    assert split_nets == [()]
    assert_no_child_left()


def test_tasks_run_in_workers_that_do_not_nest_pools(monkeypatch, pools):
    """Of two outer tasks, the first runs in this process and the second in
    a child, and neither's inner fork_map forks again: this process runs
    its share with its pool flag set, so its subtree does not fork while its
    sibling runs in the child."""
    set_cpus(monkeypatch, 2)
    pids = parallel.fork_map(lambda i: parallel.fork_map(lambda j: os.getpid(), 2), 2)
    assert pools == [2]
    assert all(len(set(inner)) == 1 for inner in pids)  # each task ran its inner tasks in one process
    assert [inner[0] == TEST_PID for inner in pids] == [True, False]
    assert not parallel._in_pool
    assert_no_child_left()


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


@pytest.mark.parametrize("written", [3, 8, 40], ids=["part-of-the-length", "the-length", "part-of-the-results"])
def test_child_that_dies_mid_result_is_a_worker_lost(monkeypatch, pools, written):
    """A child killed after writing only part of its result is a WorkerLost,
    as one killed before writing any is."""

    def send_part(write, payload):
        os.write(write, (len(payload).to_bytes(8, "little") + payload)[:written])
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(parallel, "_send", send_part)
    set_cpus(monkeypatch, 2)
    with pytest.raises(parallel.WorkerLost, match="^a worker process ended abruptly"):
        parallel.fork_map(lambda i: "x" * 100, 2)
    assert pools == [2]
    assert_no_child_left()


def slow_in_child_or_raise(failing):
    def task(i):
        if os.getpid() != TEST_PID:
            time.sleep(0.2)  # the child still runs when this process's task raises
        if i in failing:
            raise ValueError(f"task {i}")
        return i

    return task


@pytest.mark.parametrize("failing, raised", [((0, 3), "task 0"), ((1, 2), "task 1")], ids=["own", "child's"])
def test_own_failing_task_still_reaps_every_child(monkeypatch, pools, failing, raised):
    """This process runs tasks 0 and 2 and its child 1 and 3. When one of
    this process's tasks raises, the child is still waited for, and the
    lowest failing index is raised, whichever process ran it."""
    set_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=f"^{raised}$"):
        parallel.fork_map(slow_in_child_or_raise(failing), 4)
    assert pools == [2]
    assert not parallel._in_pool
    assert_no_child_left()


@pytest.mark.parametrize("error", [SystemExit, KeyboardInterrupt])
def test_child_ends_by_os_exit_whatever_its_task_raises(monkeypatch, tmp_path, pools, error):
    """A child whose task raises SystemExit or KeyboardInterrupt sends it as
    that task's error and still ends by os._exit: it never returns through
    the caller's frames, so one_blas_thread sets the thread count back in
    this process only."""
    calls = tmp_path / "set_threads.txt"

    def set_threads(count):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {count}\n")

    def task(i):
        if i == 1:
            raise error(f"task {i}")
        return i

    monkeypatch.setattr(parallel, "_openblas", lambda: [(lambda: 4, set_threads)])
    set_cpus(monkeypatch, 2)
    with pytest.raises(error, match="^task 1$"):
        with parallel.one_blas_thread():
            parallel.fork_map(task, 2)
    assert calls.read_text(encoding="utf-8") == f"{TEST_PID} 1\n{TEST_PID} 4\n"
    assert pools == [2]
    assert_no_child_left()

