"""Forked workers for both Monte Carlo loops of the U(n) runners, the
matrix replicate chunks and the reflection walk's groups.  Each loop is a
list of items (ranges of replicates) that write their own rows or columns
of shared arrays, so the arrays depend neither on the worker count nor on
which worker runs an item.  plan picks the workers and the memory estimate
from the same numbers, and run starts the planned workers, each of which
claims the next unclaimed item until none is left.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import platform
from typing import NamedTuple

import numpy as np

try:
    import fcntl
except ImportError:  # Windows, where every run has one worker and takes no lock
    fcntl = None

# Memory budget of one run: the workers' items together, the shared arrays
# and what else the caller holds that grows with the run (plan).
BYTES_BUDGET = 1024**3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_build() -> str:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 cannot return the build facts
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def blas_threads() -> int:
    """Threads one BLAS call may use.  OpenBLAS reads OPENBLAS_NUM_THREADS,
    and MKL reads MKL_NUM_THREADS, before OMP_NUM_THREADS; for another BLAS
    the largest of the three counts.  A variable counts when set to a
    positive integer; with none that counts, every usable CPU (the OpenBLAS
    and MKL default)."""
    values = {}
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            values[var] = int(value)
    build = blas_build().lower()
    for family, var in (("openblas", "OPENBLAS_NUM_THREADS"), ("mkl", "MKL_NUM_THREADS")):
        if family in build:
            return values.get(var) or values.get("OMP_NUM_THREADS") or usable_cpus()
    return max(values.values(), default=usable_cpus())


def ranges(count: int, size: int) -> list[range]:
    """[0, count) in consecutive ranges of `size`, the last one possibly partial."""
    return [range(lo, min(lo + size, count)) for lo in range(0, count, size)]


def layout_bytes(layouts: list) -> int:
    """Bytes of the arrays of the given (shape, dtype) layouts."""
    return sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layouts)


class Plan(NamedTuple):
    """A run that fits BYTES_BUDGET: its items (consecutive ranges of
    replicates), the number of workers that claim them, the layouts of its
    shared arrays, and its estimated bytes."""

    items: list
    workers: int
    layouts: list
    estimate: int


class WorkerError(RuntimeError):
    """A forked worker died, or sent an error that could not be read."""


def require_budget(run: str, estimate: int) -> None:
    """Refuse, before any work, a run whose memory estimate exceeds
    BYTES_BUDGET; the message gives the estimate and the budget."""
    if estimate > BYTES_BUDGET:
        raise ValueError(
            f"{run} needs an estimated {estimate / 2**20:,.1f} MiB, above the "
            f"{BYTES_BUDGET / 2**20:,.0f} MiB memory budget")


def plan(count: int, size: int, layouts: list, item_bytes: int, run: str, extra: int = 0) -> Plan:
    """The workers of a run of `count` replicates in items of `size` (ranges),
    each holding `item_bytes`, beside arrays of the given (shape, dtype)
    layouts and `extra` bytes the caller holds: one per blas_threads() usable
    CPUs, at most one per item, and as many as fit BYTES_BUDGET; at least one.
    The estimate is workers * item_bytes + layout_bytes(layouts) + extra; a
    run above the budget is refused, as `run`, before any item is built.
    Idle OpenBLAS threads spin: two workers with unpinned BLAS threads on
    two CPUs ran the scaling benchmark config in 12.7 s, one worker in
    2.6 s.  One off Linux: there system libraries may start threads that a
    forked child cannot use (CPython's macOS default is spawn).
    """
    items, fixed = -(-count // size), layout_bytes(layouts) + extra
    workers = 1
    if platform.system() == "Linux" and hasattr(os, "fork"):
        workers = max(1, min(usable_cpus() // blas_threads(), items,
                             (BYTES_BUDGET - fixed) // item_bytes))
    estimate = workers * item_bytes + fixed
    require_budget(run, estimate)
    return Plan(ranges(count, size), workers, layouts, estimate)


def run(plan: Plan, work) -> list[np.ndarray]:
    """Run work([item], out) for every item of `plan` into fresh arrays of
    its layouts, and return the arrays.

    The calling process is one of the plan's workers, and each other one is
    a child made with os.fork, which leaves with os._exit; a worker that
    gets no child (os.fork or os.pipe failed) is not started, and the others
    run its share.  Each worker claims the next unclaimed item, in index
    order, until none is left, so a slow worker runs fewer items and the run
    waits for it at most one item.  The claims count in shared memory under
    an fcntl.lockf lock on a memfd, which the kernel drops if its holder
    dies.  All items write into one anonymous shared mmap; the returned
    arrays are views of it, which keep it mapped while they live, and every
    run maps its own.

    A worker whose item fails stops claiming, and the others stop after
    their current item.  Every item below the failing one was claimed
    before it and runs to its end, so the error of the lowest failing item
    is raised, and a violation names the first violating replicate.  A
    child sends its exception back pickled through a pipe; a child that
    dies without one (killed, out of memory) or whose error cannot be
    unpickled raises WorkerError naming the replicates of the item it held.
    """
    items, workers = plan.items, plan.workers
    shared = mmap.mmap(-1, 8 * (2 + workers) + layout_bytes(plan.layouts))
    # The next unclaimed item, the failure flag, and the item each worker holds.
    state = np.frombuffer(shared, np.int64, 2 + workers)
    state[2:] = -1
    out, offset = [], state.nbytes
    for shape, dtype in plan.layouts:
        out.append(np.frombuffer(shared, dtype, math.prod(shape), offset).reshape(shape))
        offset += out[-1].nbytes
    lock = os.memfd_create("haarconc-claims") if workers > 1 else None
    children, errors = [], []
    try:
        for w in range(1, workers):
            try:
                children.append((w, *_fork(w, items, work, out, state, lock)))
            except OSError:  # no process or pipe to spare: the others claim its share
                break
        try:
            _run_claims(0, items, work, out, state, lock)
        except Exception as exc:
            errors.append((_held(state, 0, items), exc))
    finally:
        reaped = []
        for w, pid, read_fd in children:
            with os.fdopen(read_fd, "rb") as pipe:
                sent = pipe.read()
            reaped.append((w, sent, os.waitpid(pid, 0)[1]))
        if lock is not None:
            os.close(lock)
    for w, sent, status in reaped:
        k = _held(state, w, items)
        worker = (f"the worker for replicates {items[k].start}..{items[k].stop - 1}"
                  if k < len(items) else "a worker that held no item")
        if sent:
            try:
                errors.append((k, pickle.loads(sent)))
            except Exception as exc:
                errors.append((k, WorkerError(
                    f"{worker} sent an error that could not be read "
                    f"({type(exc).__name__}: {exc})")))
        elif status:
            errors.append((k, WorkerError(
                f"{worker} exited with status {os.waitstatus_to_exitcode(status)}")))
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return out


def _held(state, w: int, items: list) -> int:
    """The item worker w held when it stopped, len(items) for none."""
    k = int(state[2 + w])
    return k if k >= 0 else len(items)


def _claim(w: int, count: int, state, lock) -> int:
    """Claim the next of `count` items for worker w, and record it as the
    item w holds; -1 when none is left or a worker failed."""
    if lock is not None:
        fcntl.lockf(lock, fcntl.LOCK_EX)
    try:
        k = int(state[0])
        if state[1] or k >= count:
            return -1
        state[2 + w], state[0] = k, k + 1
        return k
    finally:
        if lock is not None:
            fcntl.lockf(lock, fcntl.LOCK_UN)


def _run_claims(w: int, items: list, work, out, state, lock) -> None:
    """Run the items that worker w claims until none is left; an item that
    fails raises, with w still holding it, after it sets the failure flag."""
    while (k := _claim(w, len(items), state, lock)) >= 0:
        try:
            work(items[k:k + 1], out)
        except BaseException:
            state[1] = 1
            raise
        state[2 + w] = -1


def _fork(w: int, items: list, work, out, state, lock) -> tuple[int, int]:
    """Fork a child that runs the claims of worker w and writes its pickled
    exception, if any, to a pipe; returns the child's pid and the pipe's
    read end.  Raises OSError, leaving no child, if os.pipe or os.fork
    fails."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                _run_claims(w, items, work, out, state, lock)
                code = 0
            except BaseException as exc:  # sent to the parent, which raises it
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(pickle.dumps(exc))
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd
