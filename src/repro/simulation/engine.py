"""A small process-based discrete-event simulation kernel.

Three primitives are enough for the proxy experiments:

- :class:`Engine` -- the event heap and clock.  Processes are plain
  generators driven by the engine; a process may ``yield`` either a
  number (sleep that many simulated seconds; a ``bool`` is an error)
  or a :class:`Signal` (park until the signal fires; the fired value
  is returned by the ``yield``).
- :class:`Signal` -- a one-shot wakeup channel, the DES analogue of a
  future.
- :class:`Resource` -- a non-preemptive FIFO server (we use one per
  proxy CPU).  ``resource.serve(t)`` returns a signal that fires when
  the resource has dedicated *t* seconds to the job; total busy time is
  tracked for utilization/CPU accounting.

Every event is scheduled through :meth:`Engine.call_later`, and every
delay or service time must be finite and >= 0 (NaN would break the
heap order).  The kernel is deterministic: ties in time are broken by
scheduling order.
"""

from __future__ import annotations

import logging
from collections import deque
from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.registry import get_registry

logger = logging.getLogger(__name__)

Process = Generator[Any, Any, None]


class _EngineInstruments:
    """Registry handles bound by engines built while metrics are enabled."""

    __slots__ = ("events", "queue_depth", "run_seconds")

    def __init__(self, registry) -> None:
        self.events = registry.counter(
            "sim_events_total", "DES events dispatched"
        )
        self.queue_depth = registry.gauge(
            "sim_queue_depth", "pending events on the DES heap"
        )
        self.run_seconds = registry.histogram(
            "sim_run_seconds", "wall time of one Engine.run call"
        )


class Signal:
    """A one-shot wakeup channel.

    A process that ``yield``\\ s an unfired signal parks until
    :meth:`fire` is called; the value passed to ``fire`` becomes the
    result of the ``yield``.  Firing an already-fired signal raises
    :class:`~repro.errors.SimulationError`; yielding an already-fired
    signal resumes immediately with the stored value.
    """

    __slots__ = ("_engine", "_fired", "_value", "_waiters")

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        self._fired = False
        self._value: Any = None
        self._waiters: List[Process] = []

    @property
    def fired(self) -> bool:
        """Whether :meth:`fire` has been called."""
        return self._fired

    @property
    def value(self) -> Any:
        """The fired value (``None`` before firing)."""
        return self._value

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking every parked process at the current time."""
        if self._fired:
            raise SimulationError("signal fired twice")
        self._fired = True
        self._value = value
        waiters = self._waiters
        if waiters:
            # Nothing parks on a fired signal, so the list is final.
            self._waiters = []
            resume = self._engine._resume
            for process in waiters:
                resume(process, value)


class Resource:
    """A non-preemptive FIFO server with busy-time accounting."""

    __slots__ = ("_engine", "name", "_busy", "_queue", "busy_time", "jobs")

    def __init__(self, engine: "Engine", name: str = "resource") -> None:
        self._engine = engine
        self.name = name
        self._busy = False
        self._queue: Deque[Tuple[float, Signal]] = deque()
        #: Total seconds this resource has spent serving jobs.
        self.busy_time = 0.0
        #: Total jobs served (or started).
        self.jobs = 0

    def serve(self, service_time: float) -> Signal:
        """Enqueue a job needing *service_time* seconds; returns its
        completion signal."""
        if not 0.0 <= service_time < inf:
            raise SimulationError(
                f"service time {service_time} on {self.name} must be "
                "finite and >= 0"
            )
        done = Signal(self._engine)
        if self._busy:  # an idle resource has an empty queue
            self._queue.append((service_time, done))
        else:
            self._start(service_time, done)
        return done

    def _start(self, service_time: float, done: Signal) -> None:
        self._busy = True
        self.busy_time += service_time
        self.jobs += 1
        self._engine.call_later(service_time, self._finish, done)

    def _finish(self, done: Signal) -> None:
        done.fire()  # may queue more work here before the next job starts
        if self._queue:
            self._start(*self._queue.popleft())
        else:
            self._busy = False

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not including the one in service)."""
        return len(self._queue)


class Engine:
    """The event heap, clock, and process driver."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._now = 0.0
        self._seq = 0
        registry = get_registry()
        self._obs = (
            _EngineInstruments(registry) if registry.enabled else None
        )

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_later(self, delay: float, callback: Callable, *args) -> None:
        """Schedule *callback* to run after *delay* simulated seconds
        (the only way an event enters the heap)."""
        if not 0.0 <= delay < inf:
            raise SimulationError(f"delay {delay} must be finite and >= 0")
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, callback, args))

    def signal(self) -> Signal:
        """Create a fresh signal bound to this engine."""
        return Signal(self)

    def resource(self, name: str = "resource") -> Resource:
        """Create a FIFO resource bound to this engine."""
        return Resource(self, name)

    def spawn(self, process: Process) -> None:
        """Start driving a generator process at the current time."""
        self.call_later(0.0, self._resume, process, None)

    def _resume(self, process: Process, value: Any) -> None:
        try:
            yielded = process.send(value)
        except StopIteration:
            return
        kind = type(yielded)
        if kind is float:  # the common yields first
            self.call_later(yielded, self._resume, process, None)
        elif kind is Signal or isinstance(yielded, Signal):
            if yielded._fired:
                # Already fired: resume immediately with its value.
                self.call_later(0.0, self._resume, process, yielded._value)
            else:
                yielded._waiters.append(process)
        elif kind is not bool and isinstance(yielded, (int, float)):
            self.call_later(float(yielded), self._resume, process, None)
        else:
            raise SimulationError(
                f"process yielded {kind.__name__}; expected a "
                "Signal or a number of seconds"
            )

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the heap drains or the clock passes *until*
        (which may not lie in the past).

        Returns the final simulated time.
        """
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"run(until={until}) is before the current time {self._now}"
            )
        heap, obs = self._heap, self._obs
        start, seq_before, depth_before = perf_counter(), self._seq, len(heap)
        try:
            if until is None:
                while heap:
                    self._now, _seq, callback, args = heappop(heap)
                    callback(*args)
            else:
                while heap:
                    if heap[0][0] > until:
                        self._now = until
                        break
                    self._now, _seq, callback, args = heappop(heap)
                    callback(*args)
            return self._now
        finally:
            if obs is not None:
                # Every event entered the heap through call_later, so
                # dispatched = pending before + scheduled - pending after.
                events = self._seq - seq_before + depth_before - len(heap)
                obs.events.inc(events)
                obs.queue_depth.set(len(heap))
                obs.run_seconds.observe(perf_counter() - start)
                logger.debug(
                    "engine.run finished events=%d sim_time=%.6f", events, self._now
                )
