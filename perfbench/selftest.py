"""Self-test of the span recorder, run before every benchmark run.

Checks self-time arithmetic on nested spans (with a scripted clock, so
the expected values are exact), spans around generator resumes, the
generator protocol the wrapper must preserve, and per-thread stacks.
Raises ``AssertionError`` on the first mismatch.
"""

from __future__ import annotations

import threading

from spans import SpanRecorder, traced


class _ScriptedClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(f"span recorder self-test: {message}")


def _nested_self_time() -> None:
    clock = _ScriptedClock()
    rec = SpanRecorder(clock)
    rec.enter("outer")
    clock.tick(1.0)
    rec.enter("inner")
    clock.tick(2.0)
    rec.enter("inner")  # same name nested: no double counting
    clock.tick(0.5)
    rec.exit()
    rec.exit()
    clock.tick(0.25)
    rec.exit()
    _check(rec.self_time("outer") == 1.25, "outer self time")
    _check(rec.self_time("inner") == 2.5, "inner self time")
    _check(rec.main_covered_s == 3.75, "main-thread coverage")
    _check(rec.main_explained_s == 2.5, "top-level self time unexplained")


def _generator_resumes() -> None:
    clock = _ScriptedClock()
    rec = SpanRecorder(clock)
    received = []

    def staged(n):
        total = 0
        for i in range(n):
            clock.tick(1.0)  # work done while the generator runs
            sent = yield i
            received.append(sent)
            total += i
        clock.tick(1.0)
        return total

    gen = traced(rec, "gen", staged)(3)
    clock.tick(10.0)  # creating the generator runs none of its body
    _check(rec.self_time("gen") == 0.0, "creation is not a resume")
    rec.enter("caller")
    values = [next(gen)]
    clock.tick(5.0)  # work between resumes is the caller's
    values.append(gen.send("a"))
    values.append(gen.send("b"))
    try:
        gen.send("c")
    except StopIteration as stop:
        result = stop.value
    else:
        raise AssertionError("span recorder self-test: no StopIteration")
    rec.exit()
    _check(values == [0, 1, 2], "yielded values")
    _check(received == ["a", "b", "c"], "sent values")
    _check(result == 3, "return value")
    _check(rec.self_time("gen") == 4.0, "generator self time")
    _check(rec.self_time("caller") == 5.0, "caller self time")

    closed = []

    def closable():
        try:
            yield 1
            yield 2
        except GeneratorExit:
            clock.tick(0.5)
            closed.append(True)
            raise

    gen = traced(rec, "close", closable)()
    next(gen)
    gen.close()
    _check(closed == [True], "close reaches the wrapped generator")
    _check(rec.self_time("close") == 0.5, "close is a resume")

    def catcher():
        try:
            yield 1
        except ValueError:
            yield "caught"

    gen = traced(rec, "throw", catcher)()
    next(gen)
    _check(gen.throw(ValueError()) == "caught", "throw is forwarded")


def _second_thread() -> None:
    rec = SpanRecorder()
    done = threading.Event()

    def worker():
        rec.enter("worker")
        rec.exit()
        done.set()

    rec.enter("main")
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10.0)
    rec.exit()
    _check(not thread.is_alive() and done.is_set(), "worker thread ran")
    _check(rec.self_time("worker", "main") == 0.0, "worker not on main")
    _check(("worker", False) in rec.self_s, "worker span kept")
    # A span closed on another thread never becomes a child of the
    # main thread's open span: main's self time is its whole duration.
    _check(
        abs(rec.self_time("main", "main") - rec.main_covered_s) < 1e-12,
        "threads keep separate stacks",
    )


def run_selftest() -> None:
    _nested_self_time()
    _generator_resumes()
    _second_thread()
