"""Outside-in span tracer for the haarconc layers.

The tracer wraps public functions of the package from the benchmark's side,
so nothing under ``src/`` changes.  Each thread keeps its own span stack:
a span's self time is its duration minus the durations of the spans it
directly encloses on the same thread, so replicate workers on pool threads
are attributed to the thread that ran them.

A wrapped name is replaced in every ``haarconc`` module that binds the same
object, because ``experiments`` and ``cli`` import layer functions by name.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class SpanStats:
    """Per-thread totals for one span name."""

    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    bytes: int = 0


class Tracer:
    """Collects span statistics per thread; read them with :meth:`summary`."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[str, dict[str, SpanStats]] = {}

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            stats: dict[str, SpanStats] = {}
            with self._lock:
                key = f"{threading.current_thread().name}-{len(self._threads)}"
                self._threads[key] = stats
            state = self._local.state = ([], stats)
        return state

    def wrap(self, name: str, fn, count_bytes=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count_bytes(bound_arguments, result)`` optionally returns the
        computed bytes the call produced.
        """
        signature = inspect.signature(fn) if count_bytes is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, stats = self._thread_state()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = SpanStats()
                entry.calls += 1
                entry.self_s += duration - children[0]
                entry.durations.append(duration)
            if count_bytes is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                entry.bytes += int(count_bytes(bound.arguments, result))
            return result

        return traced

    def summary(self) -> dict:
        """Totals per span name plus the self time of every (thread, span)."""
        merged: dict[str, SpanStats] = {}
        per_thread = {}
        with self._lock:
            threads = {key: dict(stats) for key, stats in self._threads.items()}
        for key, stats in threads.items():
            per_thread[key] = {name: s.self_s for name, s in stats.items()}
            for name, s in stats.items():
                total = merged.setdefault(name, SpanStats())
                total.calls += s.calls
                total.self_s += s.self_s
                total.durations.extend(s.durations)
                total.bytes += s.bytes
        spans = {}
        for name, s in merged.items():
            us = np.asarray(s.durations) * 1e6
            spans[name] = {
                "calls": s.calls,
                "self_s": s.self_s,
                "p50_us": float(np.percentile(us, 50)),
                "p99_us": float(np.percentile(us, 99)),
                "bytes": s.bytes,
            }
        return {"spans": spans, "per_thread_self_s": per_thread}


def _kernel_bytes(arguments, kernel) -> int:
    return kernel.matrix.nbytes


def _walk_bytes(arguments, diagnostic) -> int:
    # One complex128 n x n walk matrix per replicate.
    return arguments["reps"] * arguments["n"] ** 2 * 16


def _report_bytes(arguments, result) -> int:
    return sum(p.stat().st_size for p in Path(arguments["out_dir"]).iterdir() if p.is_file())


# span name -> (defining module, attribute, modules to patch or None for all
# haarconc modules that bind the same object, bytes counter)
LAYER_FUNCTIONS = {
    "groups.sample_haar_unitary": ("groups", "sample_haar_unitary", None, None),
    "groups.sample_reflection_step": ("groups", "sample_reflection_step", None, None),
    # Only as the mixing layer calls it: the walk's batched reflection draw.
    "groups.reflection_batch": ("groups", "_sample_reflection_batch", ("mixing",), None),
    "hermitian.eigenvalues": ("hermitian", "eigenvalues", None, None),
    "hermitian.conjugate": ("hermitian", "conjugate", None, None),
    "hermitian.rank_distance": ("hermitian", "rank_distance", None, None),
    "hermitian.sup_cdf_distance": ("hermitian", "sup_cdf_distance", None, None),
    "kernel.build_exact_kernel": ("kernel", "build_exact_kernel", None, _kernel_bytes),
    "kernel.step_seminorm": ("kernel", "step_seminorm", None, None),
    "mixing.exact_tv_curve": ("mixing", "exact_tv_curve", None, None),
    "mixing.exact_walk_law": ("mixing", "exact_walk_law", None, None),
    "mixing.fit_decay": ("mixing", "fit_decay", None, None),
    "mixing.unitary_mixing_diagnostic": ("mixing", "unitary_mixing_diagnostic", None, _walk_bytes),
    "bounds.concentration_constant": ("bounds", "concentration_constant", None, None),
    "bounds.esd_bounds": ("bounds", "esd_bounds", None, None),
    "bounds.tail_bound": ("bounds", "tail_bound", None, None),
    "experiments.child_rng": ("experiments", "child_rng", None, None),
    "cli.write_report": ("cli", "write_report", None, _report_bytes),
}

# Runner functions share one span name; their self time is the statistics,
# verdict and scheduling work that no layer span covers.
RUNNER_SPAN = "experiments.runner"
RUNNER_FUNCTIONS = (
    "run_experiment",
    "run_matrix_experiment",
    "run_reflection_step_experiment",
    "run_scaling_study",
    "run_finite_group_experiment",
    "run_identity_suite",
)
CONSTRUCTOR_SPAN = "hermitian.HermitianMatrix"


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "haarconc" or name.startswith("haarconc."))]


def _rebind(original, replacement, modules) -> int:
    count = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function the loaded package has; return the span
    names whose target was not found, so a renamed function shows up as
    missing rather than as a silent zero."""
    import haarconc.cli  # noqa: F401  (loads every layer module)

    modules = _package_modules()
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    missing = []
    for span, (home, attr, only, count_bytes) in LAYER_FUNCTIONS.items():
        original = getattr(by_name.get(home), attr, None)
        if original is None:
            missing.append(span)
            continue
        targets = modules if only is None else [by_name[m] for m in only if m in by_name]
        if not _rebind(original, tracer.wrap(span, original, count_bytes), targets):
            missing.append(span)

    experiments = by_name["experiments"]
    for attr in RUNNER_FUNCTIONS:
        original = getattr(experiments, attr, None)
        if original is None:
            continue
        wrapped = tracer.wrap(RUNNER_SPAN, original)
        _rebind(original, wrapped, modules)
        runners = getattr(experiments, "_RUNNERS", {})
        for kind, fn in list(runners.items()):
            if fn is original:
                runners[kind] = wrapped
    collect = getattr(experiments, "_collect", None)
    if collect is not None:
        # Replicate workers may run on pool threads, outside the runner span
        # of the main thread; give each its own runner span there.
        def traced_collect(worker, count, threads):
            return collect(tracer.wrap(RUNNER_SPAN, worker), count, threads)

        experiments._collect = traced_collect
    else:
        missing.append(RUNNER_SPAN + " (replicate workers)")

    hermitian_matrix = getattr(by_name["hermitian"], "HermitianMatrix", None)
    if hermitian_matrix is None:
        missing.append(CONSTRUCTOR_SPAN)
    else:
        hermitian_matrix.__init__ = tracer.wrap(CONSTRUCTOR_SPAN, hermitian_matrix.__init__)
    return missing
