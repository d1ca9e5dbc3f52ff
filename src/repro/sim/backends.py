"""Pluggable execution backends for embarrassingly parallel work units.

One tiny abstraction serves every replication fan-out and parameter sweeps
(:mod:`repro.sweep`): a backend maps a function over an ordered list of work
items and returns the results in the same order (through :func:`fan_out`).

* ``serial`` — run in the calling thread; zero overhead, always available.
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; cheap to
  start but GIL-bound for the pure-Python round loop, so it mainly helps
  workloads that release the GIL.
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`; true
  multicore.  The function and every work item must be picklable, which the
  backend validates **eagerly** so a bad payload fails with an actionable
  error before any worker starts.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Sequence, Union

from repro.obs import current_observer

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ensure_picklable",
    "fan_out",
    "resolve_backend",
]

#: Names accepted by :func:`resolve_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES = ("serial", "thread", "process")


def ensure_picklable(obj, description: str) -> None:
    """Raise a :class:`ValueError` naming ``obj`` when it cannot be pickled.

    Process pools ship work to workers with :mod:`pickle`; a closure or
    lambda only fails once a worker tries to deserialize it, which surfaces
    as an opaque mid-run crash.  This check front-loads that failure.
    """
    try:
        pickle.dumps(obj)
    except Exception as err:
        raise ValueError(
            f"{description} cannot be sent to worker processes because it is "
            f"not picklable ({type(err).__name__}: {err}). Define it at module "
            "level (lambdas and closures cannot cross process boundaries), or "
            "drive the run through the spec layer (repro.sweep / ScenarioSpec), "
            "whose workers rebuild policies from declarative specs instead of "
            "pickling them."
        ) from err


class ExecutionBackend:
    """Maps a function over work items, preserving item order."""

    #: Registry name of the backend.
    name: str = "abstract"

    def map(self, fn: Callable, items: Sequence, jobs: int) -> List:
        """Apply ``fn`` to every item using up to ``jobs`` workers."""
        raise NotImplementedError

    def _check_jobs(self, jobs: int) -> None:
        if jobs <= 0:
            raise ValueError(f"jobs must be positive, got {jobs}")


class SerialBackend(ExecutionBackend):
    """Run every item in the calling thread, one after the other."""

    name = "serial"

    def map(self, fn: Callable, items: Sequence, jobs: int = 1) -> List:
        self._check_jobs(jobs)
        return [fn(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """Run items on a thread pool (GIL-bound for pure-Python work)."""

    name = "thread"

    def map(self, fn: Callable, items: Sequence, jobs: int) -> List:
        self._check_jobs(jobs)
        if jobs == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(pool.map(fn, items))


class ProcessBackend(ExecutionBackend):
    """Run items on a process pool (true multicore execution).

    ``fn`` must be a module-level callable and every item picklable; both
    are validated before the pool starts.
    """

    name = "process"

    def map(self, fn: Callable, items: Sequence, jobs: int) -> List:
        self._check_jobs(jobs)
        if not items:
            return []
        # Validate the function and one representative item up front (work
        # items of one map call are structurally homogeneous); the pool
        # pickles every item anyway on submit, so checking all of them here
        # would double the serialization cost for zero extra safety.
        ensure_picklable(fn, f"the work function {fn!r}")
        ensure_picklable(items[0], f"work item 0 ({type(items[0]).__name__})")
        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(pool.map(fn, items))


_BACKENDS = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def resolve_backend(
    backend: Union[str, ExecutionBackend, None], default: str = "serial"
) -> ExecutionBackend:
    """Resolve a backend name (or pass through an instance).

    ``None`` resolves to ``default``.  Unknown names raise a
    :class:`ValueError` listing the available backends.
    """
    if backend is None:
        backend = default
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        try:
            return _BACKENDS[backend]()
        except KeyError:
            raise ValueError(
                f"unknown execution backend {backend!r}; "
                f"choose one of {sorted(_BACKENDS)}"
            ) from None
    raise TypeError(
        f"backend must be a name or an ExecutionBackend, got {type(backend).__name__}"
    )


def fan_out(
    executor: ExecutionBackend, fn: Callable, items: Sequence, jobs: int
) -> List:
    """``executor.map(fn, items, jobs)`` with serial and thread workers traced.

    Those re-enter the caller's observer and innermost open span (observers
    are context-local); process workers run untraced, as observers do not
    cross pickling boundaries.
    """
    if isinstance(executor, ProcessBackend):
        return executor.map(fn, items, jobs)
    obs = current_observer()
    parent_span = obs.current_span_id()

    def traced(item):
        with obs.activate(parent_span):
            return fn(item)

    return executor.map(traced, items, jobs)
