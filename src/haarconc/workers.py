"""Forked workers for both Monte Carlo loops of the U(n) runners, the
matrix replicate chunks and the reflection walk's groups.  Each loop is a
list of items (ranges of replicates) that write their own rows or columns
of shared arrays, so the arrays depend neither on the worker count nor on
which worker runs an item.  plan picks the workers and the memory estimate
from the same numbers, and run forks exactly the planned slices.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import platform
from typing import NamedTuple

import numpy as np

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
    """A run that fits BYTES_BUDGET: its items in contiguous slices, one per
    worker, the layouts of its shared arrays, and its estimated bytes."""

    slices: list
    layouts: list
    estimate: int


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
    units, bounds = ranges(count, size), [items * i // workers for i in range(workers + 1)]
    return Plan([units[lo:hi] for lo, hi in zip(bounds, bounds[1:])], layouts, estimate)


def run(plan: Plan, work) -> list[np.ndarray]:
    """Run work(slice, out) over the slices of `plan` into fresh arrays of
    its layouts, and return the arrays.

    The calling process runs slices[0], and each other slice runs in a child
    made with os.fork, which leaves with os._exit; a slice that gets no
    child (os.fork or os.pipe failed) runs in the calling process after
    slices[0].  All of them write into one anonymous shared mmap; the
    returned arrays are views of it, which keep it mapped while they live,
    and every run maps its own.  A child sends its exception back pickled
    through a pipe.  The error of the earliest failing slice is raised, so
    a violation names the first violating replicate; a child that dies
    without one (killed, out of memory) or whose error cannot be unpickled
    raises RuntimeError naming its replicates.
    """
    slices = plan.slices
    shared = mmap.mmap(-1, max(1, layout_bytes(plan.layouts)))
    out, offset = [], 0
    for shape, dtype in plan.layouts:
        out.append(np.frombuffer(shared, dtype, math.prod(shape), offset).reshape(shape))
        offset += out[-1].nbytes
    own, children, errors = [0], [], []
    try:
        for k in range(1, len(slices)):
            try:
                children.append((k, *_fork(slices[k], out, work)))
            except OSError:  # no process or pipe to spare: run the rest here
                own += range(k, len(slices))
                break
        for k in own:
            try:
                work(slices[k], out)
            except Exception as exc:
                errors.append((k, exc))
                break
    finally:
        reaped = []
        for k, pid, read_fd in children:
            with os.fdopen(read_fd, "rb") as pipe:
                sent = pipe.read()
            reaped.append((k, sent, os.waitpid(pid, 0)[1]))
    for k, sent, status in reaped:
        replicates = f"replicates {slices[k][0].start}..{slices[k][-1].stop - 1}"
        if sent:
            try:
                errors.append((k, pickle.loads(sent)))
            except Exception as exc:
                errors.append((k, RuntimeError(
                    f"the worker for {replicates} sent an error that could not be "
                    f"read ({type(exc).__name__}: {exc})")))
        elif status:
            errors.append((k, RuntimeError(
                f"the worker for {replicates} exited with status "
                f"{os.waitstatus_to_exitcode(status)}")))
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return out


def _fork(part, out, work) -> tuple[int, int]:
    """Fork a child that runs work(part, out) and writes its pickled
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
                work(part, out)
                code = 0
            except BaseException as exc:  # sent to the parent, which raises it
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(pickle.dumps(exc))
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd
