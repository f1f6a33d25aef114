"""In-memory span recorder, wrapper installer and runtime probes.

Spans follow the Dapper model (Sigelman et al., Google TR 2010-1): each
call into a traced function is a span with a start, an end and the span
that was open on the same thread when it began.  Nothing is written while
the program runs; every thread folds its finished spans into per-name
aggregates, and :meth:`Recorder.summary` merges them when the traced
process ends.

A span's *self time* is its duration minus the durations of its direct
children on the same thread.  Work another thread does meanwhile (a
repartition in an executor thread beside lookups on the event loop) is
never subtracted: it is not caused by the span.

:func:`install` wraps the configured functions from outside the program.
A module-level function is rebound in every module of the package that
holds the same function object, so ``from x import f`` call sites are
traced too; a method is wrapped on its class.  A target that no longer
exists raises, so a rename cannot silently drop a layer from the trace.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import importlib
import inspect
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One function or method to trace.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``durations`` keeps every span duration (for medians) instead of only
    the aggregates.  ``hook(counters, args, kwargs, result)`` may add
    counts measured at the same boundary.
    """

    module: str
    qualname: str
    durations: bool = False
    hook: Callable | None = None

    def span_name(self, package: str) -> str:
        """``module.qualname`` with the package prefix removed."""
        module = self.module
        if module.startswith(package + "."):
            module = module[len(package) + 1 :]
        return f"{module}.{self.qualname}"


class _Span:
    __slots__ = ("calls", "total", "self", "max", "top", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.max = 0.0
        self.top = 0.0
        self.durations: list[float] = []


class _ThreadState:
    __slots__ = ("stack", "spans", "counters")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.spans: dict[str, _Span] = {}
        self.counters: dict[str, float] = {}


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(
        self,
        name: str,
        fn: Callable,
        durations: bool = False,
        hook: Callable | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        if inspect.iscoroutinefunction(fn):
            raise TypeError(f"cannot trace coroutine function {name}: spans are synchronous")
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                span = state.spans.get(name)
                if span is None:
                    span = state.spans[name] = _Span()
                span.calls += 1
                span.total += duration
                span.self += duration - frame[0]
                if duration > span.max:
                    span.max = duration
                if not stack:
                    span.top += duration
                if durations:
                    span.durations.append(duration)
            if hook is not None:
                hook(state.counters, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Merge every thread's aggregates into one JSON-ready dictionary.

        ``spans`` maps a span name to ``calls``, ``total_s``, ``self_s``,
        ``max_s``, ``top_s`` (time spent as a root span of its thread) and,
        where kept, ``durations_s``; ``counters`` sums the hook counts.
        """
        with self._lock:
            threads = list(self._threads)
        spans: dict[str, dict] = {}
        counters: dict[str, float] = {}
        for state in threads:
            for name, span in state.spans.items():
                merged = spans.setdefault(
                    name,
                    {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0,
                     "top_s": 0.0, "durations_s": []},
                )
                merged["calls"] += span.calls
                merged["total_s"] += span.total
                merged["self_s"] += span.self
                merged["max_s"] = max(merged["max_s"], span.max)
                merged["top_s"] += span.top
                merged["durations_s"].extend(span.durations)
            for key, value in state.counters.items():
                counters[key] = counters.get(key, 0) + value
        return {"spans": spans, "counters": counters}


def _package_modules(package: str) -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def install(recorder: Recorder, targets: list[Target], package: str) -> Callable[[], None]:
    """Wrap every target; return a function that restores the originals.

    Raises :class:`LookupError` when a target module, class or function no
    longer exists.
    """
    undo: list[Callable[[], None]] = []

    def restore() -> None:
        for step in reversed(undo):
            step()
        undo.clear()

    try:
        for target in targets:
            name = target.span_name(package)
            try:
                module = importlib.import_module(target.module)
            except ImportError as exc:
                raise LookupError(f"trace target module {target.module!r} is gone") from exc
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if not inspect.isclass(owner):
                    raise LookupError(f"trace target class {target.module}.{owner_name} is gone")
                try:
                    raw = inspect.getattr_static(owner, attr)
                except AttributeError:
                    raise LookupError(f"trace target {name} is gone") from None
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(
                        recorder.wrap(name, raw.__func__, target.durations, target.hook)
                    )
                else:
                    wrapped = recorder.wrap(name, raw, target.durations, target.hook)
                previous = owner.__dict__.get(attr, _MISSING)
                setattr(owner, attr, wrapped)
                undo.append(functools.partial(_restore_attr, owner, attr, previous))
            else:
                original = getattr(module, attr, _MISSING)
                if original is _MISSING or not callable(original):
                    raise LookupError(f"trace target {name} is gone")
                wrapped = recorder.wrap(name, original, target.durations, target.hook)
                for holder in _package_modules(package):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            undo.append(functools.partial(setattr, holder, key, original))
    except BaseException:
        restore()
        raise
    return restore


def _restore_attr(owner, attr: str, previous) -> None:
    if previous is _MISSING:
        delattr(owner, attr)
    else:
        setattr(owner, attr, previous)


class RuntimeProbes:
    """Interpreter-level probes: garbage-collection pauses and event-loop lag.

    The loop-lag probe is a task that sleeps ``interval`` seconds at a time
    and records when each sleep began and how much later than asked it woke
    up; a stall of the loop (a long synchronous call in a coroutine) shows
    as one late wake-up.
    """

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = interval
        self.gc_seconds = 0.0
        self.gc_max = 0.0
        self.lags: list[tuple[float, float]] = []
        self._gc_start = 0.0
        self._tasks: list[asyncio.Task] = []

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        pause = now - self._gc_start
        self.gc_seconds += pause
        if pause > self.gc_max:
            self.gc_max = pause

    def wrap_loop_start(self, owner, attr: str) -> Callable[[], None]:
        """Start the lag probe on the loop that runs ``owner.attr`` (a coroutine).

        Returns a function restoring the original method; raises
        :class:`LookupError` when the method is gone.
        """
        original = owner.__dict__.get(attr, _MISSING)
        if original is _MISSING or not inspect.iscoroutinefunction(original):
            raise LookupError(f"loop probe target {owner.__name__}.{attr} is gone")
        probes = self

        @functools.wraps(original)
        async def started(*args, **kwargs):
            result = await original(*args, **kwargs)
            probes._tasks.append(asyncio.get_running_loop().create_task(probes._probe()))
            return result

        setattr(owner, attr, started)
        return functools.partial(setattr, owner, attr, original)

    async def _probe(self) -> None:
        interval = self.interval
        while True:
            start = time.perf_counter()
            await asyncio.sleep(interval)
            self.lags.append((start, time.perf_counter() - start - interval))

    def summary(self) -> dict:
        return {
            "gc_s": self.gc_seconds,
            "gc_max_s": self.gc_max,
            "loop_lags_s": list(self.lags),
        }
