"""Independent tasks in forked child processes and this one, or in order
in this process, and the BLAS thread count of this process."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import sys
import threading

from .nn_core import TrainingError

__all__ = ["WorkerLost", "fork_map", "one_blas_thread", "pool_size", "usable_cpus"]

# True in a fork_map child, and in the caller while it runs its own share of
# the tasks: a fork_map there runs its tasks in place, so pools never nest.
_in_pool = False


class WorkerLost(TrainingError):
    """A fork_map child process that ended without sending all of its
    results, as one killed by a signal or by the out-of-memory killer does."""


def usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the mask cannot be read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def pool_size(n_tasks: int) -> int:
    """Processes that run fork_map's n_tasks tasks, this one included:
    min(n_tasks, usable_cpus()), or 1 when it runs the tasks here alone.

    The pool runs only where os.fork exists, there are at least 2 CPUs and
    2 tasks, no pool is running in this process already (pools never nest),
    and it runs no other Python thread (one holding a lock at the fork would
    leave that lock held in the child)."""
    processes = min(n_tasks, usable_cpus())
    if processes < 2 or not hasattr(os, "fork") or _in_pool or threading.active_count() != 1:
        return 1
    return processes


def fork_map(task, n_tasks: int) -> list:
    """[task(i) for i in range(n_tasks)], with the tasks spread over
    pool_size(n_tasks) processes, or run here, in order, when that is 1.

    Of P processes, this one is process 0 and P - 1 are forked children;
    task i runs in process i mod P. Children inherit task by the fork, so it
    may be a closure; only their results cross back, pickled, so results
    must pickle. The first task in index order that raises has its
    exception raised here; a child that ends without sending all of its
    results (killed by a signal) is a WorkerLost. Every child has been
    reaped before fork_map returns or raises.
    """
    processes = pool_size(n_tasks)
    if processes < 2:
        return [task(i) for i in range(n_tasks)]
    return _forked(task, n_tasks, processes)


def _forked(task, n_tasks: int, processes: int) -> list:
    """fork_map's tasks over this process and processes - 1 children."""
    global _in_pool
    pipes = {}  # child pid: the read end of its result pipe, until it is read
    _flush_std_streams()  # so that no child writes this process's buffered text again
    try:
        for share in range(1, processes):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(task, n_tasks, processes, share, read, write)
            os.close(write)
            pipes[pid] = read
        _in_pool = True
        try:
            results = _share(task, n_tasks, processes, 0, Exception)
        finally:
            _in_pool = False
        for pid in pipes:
            read, pipes[pid] = pipes[pid], None
            received = _receive(read)
            if received is None:
                raise WorkerLost("a worker process ended abruptly, as when killed for lack of memory")
            results += received
    except BaseException:
        for pid in pipes:
            os.kill(pid, signal.SIGKILL)  # nothing is left to take their results
        raise
    finally:
        for pid, read in pipes.items():
            if read is not None:
                os.close(read)
            os.waitpid(pid, 0)
    results.sort(key=lambda result: result[0])
    for _, ok, value in results:
        if not ok:
            raise value
    return [value for _, _, value in results]


def _share(task, n_tasks: int, processes: int, first: int, catch) -> list:
    """[(i, True, task(i))] for tasks first, first + processes, ..., ending
    at the first that raises an exception of type catch, as (i, False, it):
    a later task of this share has a higher index."""
    results = []
    for index in range(first, n_tasks, processes):
        try:
            results.append((index, True, task(index)))
        except catch as exc:
            results.append((index, False, exc))
            break
    return results


def _child(task, n_tasks: int, processes: int, share: int, read: int, write: int):
    """Run one child's share and send its results through the pipe write,
    its length first; always end in os._exit, so that no frame of the
    caller's stack (a finally, a context manager's exit) runs here. Any
    exception of a task, SystemExit and KeyboardInterrupt too, is a result."""
    global _in_pool
    _in_pool = True
    code = 1
    try:
        os.close(read)
        payload = pickle.dumps(_share(task, n_tasks, processes, share, BaseException), pickle.HIGHEST_PROTOCOL)
        _flush_std_streams()
        _send(write, payload)
        code = 0
    finally:
        os._exit(code)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _send(write: int, payload: bytes) -> None:
    """Write payload, its length first, to the pipe write, and close it."""
    with open(write, "wb") as fh:
        fh.write(len(payload).to_bytes(8, "little"))
        fh.write(payload)


def _receive(read: int) -> list | None:
    """A child's results from the read end of its pipe, closed after; None
    when fewer bytes came than it announced."""
    with open(read, "rb") as fh:
        length = int.from_bytes(fh.read(8), "little")
        payload = fh.read()
    if length == 0 or len(payload) != length:
        return None
    return pickle.loads(payload)


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
