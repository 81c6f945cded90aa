"""Independent tasks in forked worker processes, or in order in this
process, and the BLAS thread count of this process."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .nn_core import TrainingError

__all__ = ["WorkerLost", "fork_map", "one_blas_thread", "pool_size", "usable_cpus"]

# The task of a worker process; set only in workers, by _set_task.
_task = None


class WorkerLost(TrainingError):
    """A fork_map worker process that ended without a result, as one killed
    by a signal or by the out-of-memory killer does."""


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
    that dies without raising (killed by a signal) is a WorkerLost. Every
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
        raise WorkerLost("a worker process ended abruptly, as when killed for lack of memory") from exc


def _set_task(task) -> None:
    global _task
    _task = task


def _run_task(index: int):
    return _task(index)


# The (get, set) thread-count functions of an OpenBLAS build: numpy's wheels
# bundle scipy-openblas with 64-bit integers, other builds export the plain names.
_OPENBLAS_NAMES = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


@functools.cache
def _openblas() -> list[tuple]:
    """The (get, set) thread-count functions of each OpenBLAS library that
    this process has loaded, found once per process from /proc/self/maps;
    none where that cannot be read (macOS, Windows) or where the BLAS is
    another library (MKL, Accelerate)."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line.lower()})
    except (OSError, IndexError):
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_NAMES:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS at one thread, and give each
    its thread count back after. At one thread a row's bits do not depend
    on the CPU count, and fork_map's workers, which inherit the setting, do
    not oversubscribe the CPUs. Where no OpenBLAS is found this does
    nothing. Call it before forking, never in a worker: setting the count
    there starts OpenBLAS's thread pool again in that process."""
    libraries = _openblas()
    counts = [get() for get, _ in libraries]
    for _, set_ in libraries:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(libraries, counts):
            set_(count)
