"""Independent tasks in forked worker processes, or in order in this process."""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .nn_core import TrainingError

__all__ = ["fork_map", "pool_size", "usable_cpus"]

# The task of a worker process; set only in workers, by _set_task.
_task = None


def usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the mask cannot be read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def pool_size(n_tasks: int) -> int:
    """Worker processes fork_map starts for n_tasks tasks: min(n_tasks,
    usable_cpus()), or 1 when it runs the tasks here instead.

    The pool runs only when the fork start method exists, there are at least
    2 CPUs and 2 tasks, this process is not itself a pool worker (pools never
    nest), and it runs no other Python thread (one holding a lock at the fork
    would leave that lock held in the worker)."""
    workers = min(n_tasks, usable_cpus())
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.parent_process() is not None
        or threading.active_count() != 1
    ):
        return 1
    return workers


def fork_map(task, n_tasks: int) -> list:
    """[task(i) for i in range(n_tasks)], with the tasks spread over
    pool_size(n_tasks) forked worker processes, or run here, in order, when
    that is 1.

    Workers inherit task by the fork, so it may be a closure; only indices
    and results cross between processes, so results must pickle. The first
    task in index order that raises has its exception raised here; a worker
    that dies without raising (killed by a signal) is a TrainingError. Every
    worker has exited before fork_map returns or raises.
    """
    workers = pool_size(n_tasks)
    if workers < 2:
        return [task(i) for i in range(n_tasks)]
    fork = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(workers, mp_context=fork, initializer=_set_task, initargs=(task,)) as pool:
            return list(pool.map(_run_task, range(n_tasks)))
    except BrokenProcessPool as exc:
        raise TrainingError("a training worker process ended abruptly, as when killed for lack of memory") from exc


def _set_task(task) -> None:
    global _task
    _task = task


def _run_task(index: int):
    return _task(index)
