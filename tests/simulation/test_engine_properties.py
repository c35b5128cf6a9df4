"""Property-based tests of the DES kernel."""

from __future__ import annotations

import heapq
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import Engine


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=80, deadline=None)
def test_callbacks_fire_in_nondecreasing_time_order(delays):
    engine = Engine()
    fire_times = []
    for delay in delays:
        engine.call_later(delay, lambda: fire_times.append(engine.now))
    engine.run()
    assert len(fire_times) == len(delays)
    assert fire_times == sorted(fire_times)
    assert fire_times == sorted(delays)


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_resource_serializes_work_exactly(service_times):
    """A FIFO resource's total busy time equals the sum of service
    times, and the last job finishes exactly at that sum when all jobs
    arrive at time zero."""
    engine = Engine()
    cpu = engine.resource()
    completions = []

    def job(service):
        def process():
            yield cpu.serve(service)
            completions.append(engine.now)

        return process()

    for service in service_times:
        engine.spawn(job(service))
    end = engine.run()
    total = sum(service_times)
    assert cpu.busy_time == abs(cpu.busy_time)  # sanity
    assert abs(cpu.busy_time - total) < 1e-9 * max(1, len(service_times))
    assert abs(end - total) < 1e-6
    # Completion times are the prefix sums of the (FIFO) service order.
    prefix = 0.0
    for service, completed in zip(service_times, completions):
        prefix += service
        assert abs(completed - prefix) < 1e-6


@given(st.integers(1, 30), st.integers(0, 29))
@settings(max_examples=60, deadline=None)
def test_signal_wakes_every_waiter_once(num_waiters, fire_after):
    engine = Engine()
    signal = engine.signal()
    woken = []

    def waiter(i):
        def process():
            value = yield signal
            woken.append((i, value, engine.now))

        return process()

    for i in range(num_waiters):
        engine.spawn(waiter(i))
    engine.call_later(float(fire_after), signal.fire, "v")
    engine.run()
    assert len(woken) == num_waiters
    assert {i for i, _v, _t in woken} == set(range(num_waiters))
    assert all(v == "v" for _i, v, _t in woken)
    assert all(t == float(fire_after) for _i, _v, t in woken)


# -- the kernel's event order against a reference kernel ----------------


class _RefSignal:
    """Reference one-shot signal (the kernel's semantics, plainly)."""

    def __init__(self, engine):
        self.engine = engine
        self.fired = False
        self.value = None
        self.waiters = []

    def fire(self, value=None):
        assert not self.fired
        self.fired = True
        self.value = value
        waiters, self.waiters = self.waiters, []
        for process in waiters:
            self.engine.resume(process, value)


class _RefResource:
    """Reference FIFO server: every job goes through the queue."""

    def __init__(self, engine, name="resource"):
        self.engine = engine
        self.busy = False
        self.queue = deque()
        self.busy_time = 0.0
        self.jobs = 0

    def serve(self, service_time):
        done = _RefSignal(self.engine)
        self.queue.append((service_time, done))
        if not self.busy:
            self.start_next()
        return done

    def start_next(self):
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        service_time, done = self.queue.popleft()
        self.busy_time += service_time
        self.jobs += 1
        self.engine.call_later(service_time, self.finish, done)

    def finish(self, done):
        done.fire()
        self.start_next()


class _RefEngine:
    """Reference event heap: peek, compare, pop, one event at a time."""

    def __init__(self):
        self.heap = []
        self._now = 0.0
        self.seq = 0

    @property
    def now(self):
        return self._now

    def call_later(self, delay, callback, *args):
        self.seq += 1
        heapq.heappush(self.heap, (self._now + delay, self.seq, callback, args))

    def signal(self):
        return _RefSignal(self)

    def resource(self, name="resource"):
        return _RefResource(self, name)

    def spawn(self, process):
        self.call_later(0.0, self.resume, process, None)

    def resume(self, process, value):
        try:
            yielded = process.send(value)
        except StopIteration:
            return
        if isinstance(yielded, _RefSignal):
            if yielded.fired:
                self.call_later(0.0, self.resume, process, yielded.value)
            else:
                yielded.waiters.append(process)
        else:
            self.call_later(float(yielded), self.resume, process, None)

    def run(self, until=None):
        while self.heap:
            time, _seq, callback, args = self.heap[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(self.heap)
            self._now = time
            callback(*args)
        return self._now


NUM_SIGNALS = 3
NUM_RESOURCES = 2
#: Quarter-second steps add up exactly, so equal times really tie.
TIMES = st.sampled_from([0, 0.0, 0.25, 0.5, 1, 1.0])

_op = st.one_of(
    st.tuples(st.just("sleep"), st.just(0), TIMES),
    st.tuples(st.just("wait"), st.integers(0, NUM_SIGNALS - 1), st.just(0)),
    st.tuples(st.just("fire"), st.integers(0, NUM_SIGNALS - 1), st.just(0)),
    st.tuples(
        st.just("serve"), st.integers(0, NUM_RESOURCES - 1),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    ),
)
_program = st.lists(
    st.tuples(TIMES, st.lists(_op, max_size=8)), min_size=1, max_size=6
)
#: Timed external fires: ``(delay, signal)``.
_external = st.lists(
    st.tuples(TIMES, st.integers(0, NUM_SIGNALS - 1)), max_size=3
)


def _run_program(engine, program, external, until):
    """Drive *program* on *engine*; returns its ``(now, label)`` log
    and the resources' accounting."""
    signals = [engine.signal() for _ in range(NUM_SIGNALS)]
    resources = [
        engine.resource(f"r{i}") for i in range(NUM_RESOURCES)
    ]
    log = []

    def fire(index, label):
        if not signals[index].fired:
            signals[index].fire(label)
            log.append((engine.now, ("fired", index, label)))

    def process(pid, ops):
        for step, (op, arg, seconds) in enumerate(ops):
            label = (pid, step, op)
            if op == "sleep":
                yield seconds
            elif op == "wait":
                label += ((yield signals[arg]),)
            elif op == "fire":
                fire(arg, label)
            else:
                yield resources[arg].serve(seconds)
            log.append((engine.now, label))

    for pid, (start, ops) in enumerate(program):
        engine.call_later(start, engine.spawn, process(pid, ops))
    for delay, index in external:
        engine.call_later(delay, fire, index, ("external", delay))
    if until is not None:
        # Marks which events ran before the clock stopped.
        log.append((engine.run(until=until), "until"))
    log.append((engine.run(), "end"))
    return log, [(r.busy_time, r.jobs) for r in resources]


@given(_program, _external, st.one_of(st.none(), TIMES))
@settings(max_examples=200, deadline=None)
def test_event_order_matches_reference_kernel(program, external, until):
    assert _run_program(Engine(), program, external, until) == _run_program(
        _RefEngine(), program, external, until
    )
