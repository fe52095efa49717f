"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps the public entry points of each layer *from outside*:
:func:`install` replaces a function or method with a thin wrapper that
records one span per call (name, start, end, parent span, process, run id)
and :func:`restore` puts every original back.  Nothing under ``src/`` is
edited, and the wrappers never touch arguments or return values, so the
simulated trajectories (and hence every fingerprint) are unchanged.

Spans are kept in flat arrays while the benchmark runs and are written out
once at the end (:meth:`Tracer.write`).  A span's *self time* is its
duration minus the durations of its direct children in the same process;
children that ran in a pool worker overlap the parent in wall time and are
therefore not subtracted.

Pool workers are forked from the traced parent, so they inherit the
wrappers.  :class:`_WorkerTask` wraps the function handed to
``map_tasks``; inside a worker it opens a task span and, when the task
returns, appends that worker's spans to a spool file the parent merges
after the repetition (:meth:`Tracer.collect_workers`).  This relies on the
``fork`` start method, which is the Linux default for ``multiprocessing``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Name of the span :class:`_WorkerTask` opens around each dispatched task.
TASK_SPAN = "experiments.runner.task"

#: Package whose modules :func:`install` searches for bindings of a
#: wrapped module function.
PACKAGE = "repro"

#: The tracer whose wrappers are installed.  A forked pool worker reaches
#: the tracer it inherited through this reference, because the task
#: wrapper crosses the process boundary by pickling and cannot carry it.
_ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Flat, append-only span store for one process."""

    def __init__(self, spool: Optional[Path] = None) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.pid = array("i")
        self.run = array("i")
        self.stack: List[int] = []
        self.run_id = 0
        self.spool = spool
        #: The benchmark process; spans recorded elsewhere are worker spans.
        self.home = os.getpid()
        #: The process this store currently belongs to.
        self.owner = self.home
        #: Span of the parent process that was open when this (worker)
        #: process was forked; the worker's root spans hang off it.
        self.origin = -1
        #: Rows this (worker) process has already shipped; shipped parent
        #: ids are offset by it so they index rows of the whole spool file.
        self.shipped = 0
        #: ``(span, kind, object)`` triples sized after the run, so the
        #: pickling and JSON encoding stay out of the timed calls.
        self.deferred: List[Tuple[int, str, Any]] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.pid.append(self.owner)
        self.run.append(self.run_id)
        self.value.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    # -- pool workers ---------------------------------------------------------

    def adopt_fork(self) -> bool:
        """In a forked worker, drop the inherited parent spans on first use.

        Returns True when running in a worker process.
        """
        pid = os.getpid()
        if pid == self.home:
            return False
        if pid != self.owner:
            self.origin = self.stack[-1] if self.stack else -1
            self._reset()
            self.shipped = 0
            self.owner = pid
        return True

    def _reset(self) -> None:
        for column in (
            self.name, self.parent, self.start, self.end, self.value,
            self.pid, self.run,
        ):
            del column[:]
        self.stack.clear()
        self.deferred.clear()

    def ship(self) -> None:
        """Append this worker's finished spans to its spool file and clear.

        Parent ids are written as rows of the spool file, which holds every
        batch this process shipped, not just this one.
        """
        if self.spool is None:
            return
        rows = [
            f"{self.origin}\t{self.names[self.name[i]]}\t"
            f"{self.parent[i] + self.shipped if self.parent[i] >= 0 else -1}\t"
            f"{self.pid[i]}\t{self.run[i]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
            f"{self.value[i]!r}\n"
            for i in range(len(self.name))
        ]
        with open(self.spool / f"worker-{os.getpid()}.tsv", "a") as handle:
            handle.writelines(rows)
        self.shipped += len(rows)
        self._reset()

    def collect_workers(self) -> int:
        """Merge every spooled worker span into this (parent) tracer."""
        if self.spool is None:
            return 0
        merged = 0
        for path in sorted(self.spool.glob("worker-*.tsv")):
            base = len(self.name)
            with open(path) as handle:
                for line in handle:
                    origin, name, parent, pid, run, start, end, value = (
                        line.rstrip("\n").split("\t")
                    )
                    local_parent = int(parent)
                    self.name.append(self.name_id(name))
                    self.parent.append(
                        int(origin) if local_parent < 0 else base + local_parent
                    )
                    self.pid.append(int(pid))
                    self.run.append(int(run))
                    self.start.append(float(start))
                    self.end.append(float(end))
                    self.value.append(float(value))
                    merged += 1
            path.unlink()
        return merged

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span duration minus same-process direct children."""
        own = [end - start for start, end in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0 and self.pid[parent] == self.pid[index]:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def table(
        self, run_id: Optional[int] = None, workers: Optional[bool] = None
    ) -> Dict[str, "SpanStats"]:
        """Calls, inclusive time, self time and value sum per span name.

        ``workers`` keeps only pool-worker spans (True), only this
        process's spans (False) or both (None).
        """
        own = self.self_times()
        stats: Dict[str, SpanStats] = {}
        for index in range(len(self.name)):
            if run_id is not None and self.run[index] != run_id:
                continue
            if workers is not None and (self.pid[index] != self.home) != workers:
                continue
            entry = stats.setdefault(self.names[self.name[index]], SpanStats())
            entry.calls += 1
            entry.total_s += self.end[index] - self.start[index]
            entry.self_s += own[index]
            entry.value += self.value[index]
        return stats

    def write(self, path: Path) -> None:
        """Write every span as gzipped tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id\tparent\tpid\trun\tname\tstart\tend\tvalue\n")
            handle.writelines(
                f"{i}\t{self.parent[i]}\t{self.pid[i]}\t{self.run[i]}\t"
                f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                f"{self.end[i]:.9f}\t{self.value[i]:g}\n"
                for i in range(len(self.name))
            )


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    value: float = 0.0


# -- wrappers -------------------------------------------------------------------


def _call_wrapper(
    function: Callable, name_id: int, tracer: Tracer,
    value_of: Optional[Callable[[Any], float]],
    defer: Optional[Callable[[tuple, dict], Tuple[str, Any]]],
) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = tracer.open(name_id)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if value_of is not None:
            tracer.value[index] = value_of(result)
        if defer is not None:
            tracer.deferred.append((index, *defer(args, kwargs)))
        return result

    return traced


class _WorkerTask:
    """Picklable stand-in for the function given to ``map_tasks``.

    Opens one task span per call; in a forked worker it ships the worker's
    spans to the spool when the task returns, before the result is sent
    back, so nothing is lost when the pool terminates its workers.
    """

    def __init__(self, function: Callable) -> None:
        self.function = function

    def __call__(self, *args):
        tracer = _ACTIVE
        if tracer is None:
            return self.function(*args)
        in_worker = tracer.adopt_fork()
        index = tracer.open(tracer.name_id(TASK_SPAN))
        try:
            return self.function(*args)
        finally:
            tracer.close(index)
            if in_worker:
                tracer.ship()


def _map_wrapper(function: Callable, name_id: int, tracer: Tracer) -> Callable:
    """Wrap the ``map_tasks`` generator: one span per ``next()``.

    The span covers the time the caller is blocked waiting for the next
    result (in-process task spans nest inside it and are subtracted).
    """

    @functools.wraps(function)
    def traced(*args, **kwargs):
        args = list(args)
        if args:
            args[0] = _WorkerTask(args[0])
        else:
            kwargs["function"] = _WorkerTask(kwargs["function"])
        tasks = args[1] if len(args) > 1 else kwargs["tasks"]
        inner = function(*args, **kwargs)
        first = True
        try:
            while True:
                index = tracer.open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                tracer.value[index] = 1.0
                tracer.deferred.append((index, "result", item))
                if first:
                    tracer.deferred.append((index, "tasks", tasks))
                    first = False
                yield item
        finally:
            inner.close()

    return traced


# -- install / restore ----------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One traced entry point.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``;
    ``span`` is the span name (``<layer>.<call>``).  ``value_of`` turns the
    return value into the span's number (events, rounds); ``defer`` picks
    an argument to size after the run.
    """

    where: str
    span: str
    value_of: Optional[Callable[[Any], float]] = None
    defer: Optional[Callable[[tuple, dict], Tuple[str, Any]]] = None
    kind: str = "call"


@dataclass
class Installation:
    tracer: Tracer
    #: ``(owner, attribute, previous value)``; the previous value is
    #: ``_INHERITED`` when a class got the attribute from a base class.
    patched: List[Tuple[Any, str, Any]] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)


_INHERITED = object()


def _resolve(where: str):
    module_name, _, attribute = where.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        __import__(module_name)
        module = sys.modules[module_name]
    owner: Any = module
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _make_wrapper(target: Target, function: Callable, tracer: Tracer) -> Callable:
    name_id = tracer.name_id(target.span)
    if target.kind == "map":
        return _map_wrapper(function, name_id, tracer)
    return _call_wrapper(function, name_id, tracer, target.value_of, target.defer)


def install(tracer: Tracer, targets: Sequence[Target]) -> Installation:
    """Wrap every target; module functions are replaced in every module of
    :data:`PACKAGE` that bound them by name.  Unknown targets are skipped and
    listed in :attr:`Installation.missing`."""
    global _ACTIVE
    done = Installation(tracer)
    for target in targets:
        try:
            module, owner, attribute = _resolve(target.where)
            current = inspect.getattr_static(owner, attribute)
        except (AttributeError, ImportError):
            done.missing.append(target.where)
            continue
        if inspect.isclass(owner):
            previous = owner.__dict__.get(attribute, _INHERITED)
            if isinstance(current, classmethod):
                wrapped = classmethod(
                    _make_wrapper(target, current.__func__, tracer)
                )
            else:
                wrapped = _make_wrapper(target, current, tracer)
            setattr(owner, attribute, wrapped)
            done.patched.append((owner, attribute, previous))
            continue
        wrapped = _make_wrapper(target, current, tracer)
        holders = [module] + [
            candidate
            for name, candidate in list(sys.modules.items())
            if candidate is not None
            and candidate is not module
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for holder in holders:
            for name, bound in list(vars(holder).items()):
                if bound is current:
                    setattr(holder, name, wrapped)
                    done.patched.append((holder, name, current))
    _ACTIVE = tracer
    return done


def bindings(targets: Sequence[Target]) -> Dict[Tuple[str, str], int]:
    """Identity of every target attribute and of every module-level binding
    of :data:`PACKAGE`, to confirm that :func:`restore` left nothing behind."""
    seen: Dict[Tuple[str, str], int] = {}
    # Resolve first: it imports what :func:`install` would import.
    for target in targets:
        try:
            _module, owner, attribute = _resolve(target.where)
        except (AttributeError, ImportError):
            continue
        held = vars(owner).get(attribute)
        seen[(target.where, attribute)] = id(held) if held is not None else 0
    for name, module in list(sys.modules.items()):
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            for attribute, value in vars(module).items():
                seen[(name, attribute)] = id(value)
    return seen


def restore(done: Installation) -> None:
    """Put back every original patched by :func:`install`, newest first."""
    global _ACTIVE
    for owner, attribute, previous in reversed(done.patched):
        if previous is _INHERITED:
            delattr(owner, attribute)
        else:
            setattr(owner, attribute, previous)
    done.patched.clear()
    if _ACTIVE is done.tracer:
        _ACTIVE = None
