"""Wall-clock span recorder and the patcher that installs it from outside.

Spans are recorded by the benchmark's own wrappers around calls into the
program's public functions; the program itself is not edited. A span's
*self time* is its duration minus the time its child spans on the same
thread cover, so the self times of one thread add up to the time its
top-level spans cover and nothing is counted twice. A top-level span
(the entry point a workload calls) is a catch-all: whatever no child
layer explains lands in its self time. So the main thread's *explained*
time counts only what child spans of top-level spans cover.

A wrapped generator function records one span per resume (``next``,
``send``, ``throw`` and ``close``), so a staged write that yields before
every PUT is charged only for the time its body actually runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterator


class SpanRecorder:
    """Per-thread nested spans, aggregated into self time per name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_ident = threading.main_thread().ident
        self.reset()

    def reset(self) -> None:
        """Forget every closed span and count (open spans are kept)."""
        with self._lock:
            #: (name, on_main_thread) -> seconds of self time.
            self.self_s: dict[tuple[str, bool], float] = defaultdict(float)
            #: name -> number of calls or events counted.
            self.counts: dict[str, int] = defaultdict(int)
            #: Main-thread seconds covered by top-level spans.
            self.main_covered_s = 0.0
            #: Main-thread seconds covered by the children of top-level
            #: spans: the part of the covered time a layer explains.
            self.main_explained_s = 0.0

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append([name, self._clock(), 0.0])

    def exit(self) -> None:
        stack = self._stack()
        name, start, children = stack.pop()
        duration = self._clock() - start
        on_main = threading.get_ident() == self._main_ident
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[(name, on_main)] += duration - children
            if on_main and not stack:
                self.main_covered_s += duration
                self.main_explained_s += children

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def self_time(self, name: str, thread: str = "all") -> float:
        """Self seconds of ``name`` on ``"main"``, ``"other"`` or
        ``"all"`` threads."""
        with self._lock:
            main = self.self_s.get((name, True), 0.0)
            other = self.self_s.get((name, False), 0.0)
        return {"main": main, "other": other, "all": main + other}[thread]


def traced_call(
    recorder: SpanRecorder, name: str, fn: Callable, counter: str | None
) -> Callable:
    """``fn`` wrapped in one span per call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            recorder.count(counter)
        recorder.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit()

    return wrapper


def _resumed(recorder: SpanRecorder, name: str, gen) -> Iterator:
    """Drive ``gen`` with one span around each resume.

    Values, sent values, thrown exceptions, ``close`` and the return
    value all pass through unchanged, so callers that drive the
    generator by hand see the same protocol as the unwrapped one.
    """
    to_send = None
    to_throw: BaseException | None = None
    while True:
        recorder.enter(name)
        try:
            if to_throw is not None:
                thrown, to_throw = to_throw, None
                value = gen.throw(thrown)
            else:
                value = gen.send(to_send)
        except StopIteration as stop:
            return stop.value
        finally:
            recorder.exit()
        try:
            to_send = yield value
        except GeneratorExit:
            recorder.enter(name)
            try:
                gen.close()
            finally:
                recorder.exit()
            raise
        except BaseException as exc:  # re-raised inside gen via throw()
            to_throw = exc
            to_send = None


def traced_generator(
    recorder: SpanRecorder, name: str, fn: Callable, counter: str | None
) -> Callable:
    """Generator function ``fn`` wrapped with one span per resume."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            recorder.count(counter)
        return _resumed(recorder, name, fn(*args, **kwargs))

    return wrapper


def traced(
    recorder: SpanRecorder, name: str, fn: Callable, counter: str | None = None
) -> Callable:
    """Span wrapper matching ``fn``'s kind (plain or generator)."""
    if inspect.isgeneratorfunction(fn):
        return traced_generator(recorder, name, fn, counter)
    return traced_call(recorder, name, fn, counter)


class Patcher:
    """Replaces functions in the program's modules and puts them back.

    A module-level function is replaced in every loaded module of the
    package that imported it by name, so ``from x import f`` call sites
    see the wrapper too. Use as a context manager; ``restore`` undoes
    every replacement in reverse order.
    """

    def __init__(self, package: str = "repro") -> None:
        self._package = package
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(
        self, cls: type, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace plain method ``cls.attr`` with ``make(original)``."""
        original = cls.__dict__[attr]
        if not inspect.isfunction(original):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain function")
        self._set(cls, attr, make(original))

    def function(
        self, module: object, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace module function ``attr`` everywhere it was imported."""
        original = getattr(module, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{attr} is not a plain function")
        replacement = make(original)
        prefix = self._package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (
                name == self._package or name.startswith(prefix)
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
