"""Per-layer tracing by wrapping the program's functions from outside.

No span lives inside ``src/``: :class:`Tracer` replaces public functions
and methods of the ``repro`` modules with wrappers for the duration of
a traced run and restores the originals afterwards.  Three wrapper
kinds:

- **timed** (synchronous calls): calls and *self* time -- the call's
  elapsed time minus the time its wrapped callees cover, so per-layer
  busy times add up without double counting;
- **waited** (coroutines): calls and elapsed time, recorded as wait,
  because other tasks run while a coroutine is suspended;
- **counted** (hot primitives such as single bit reads): a count only,
  no clock, to keep the tracing cost bounded.

The engine's own span API is deliberately not used: this module must
work unchanged on any revision of the program that keeps these names.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Timed layers and where they live: ``(layer, owner spec, attributes)``.
#: Owners are resolved lazily (see :func:`_resolve`) so this module
#: imports nothing from ``repro`` itself.
TIMED = [
    ("cache", "repro.cache.webcache:WebCache", ("get", "put", "probe", "touch")),
    ("summaries.key_of", "@summary_classes", ("key_of",)),
    # The live proxy probes with ``may_contain`` (key derivation included).
    ("summaries.contains", "@summary_classes", ("contains_key", "may_contain")),
    ("summaries.write", "repro.core.counting_bloom:CountingBloomFilter",
     ("add", "add_at", "add_many", "remove")),
    ("summaries.write", "repro.summaries.exact:ExactDirectorySummary", ("add", "remove")),
    ("summaries.write", "repro.summaries.servername:ServerNameSummary", ("add", "remove")),
    ("summaries.publish", "repro.core.counting_bloom:CountingBloomFilter", ("drain_flips",)),
    ("summaries.publish", "repro.summaries.exact:ExactDirectorySummary", ("drain_delta",)),
    ("summaries.publish", "repro.summaries.servername:ServerNameSummary", ("drain_delta",)),
    ("summaries.apply", "repro.core.bloom:BloomFilter", ("apply_flips",)),
    ("summaries.apply", "repro.summaries.backend:DigestSetRemote", ("apply_delta",)),
    ("protocol.encode", "@message_classes", ("encode",)),
    ("protocol.decode", "repro.protocol.wire", ("decode_message",)),
    # Header parsing is the synchronous part of reading a request;
    # ``_parse_headers`` is the one private hook, because the public
    # readers are coroutines whose elapsed time is mostly socket wait.
    ("proxy.http.parse", "repro.proxy.http", ("_parse_headers", "parse_content_length")),
    ("proxy.http.write", "repro.proxy.http", ("write_response", "response_head", "write_request")),
    ("sharing", "repro.sharing.summary_sharing", ("simulate_summary_sharing",)),
    ("simulation.engine.dispatch", "repro.simulation.engine:Engine", ("run",)),
]
WAITED = [
    ("proxy.http.read", "repro.proxy.http", ("read_request", "read_response")),
    ("proxy.http.stream", "repro.proxy.http", ("stream_body",)),
]
COUNTED = [
    ("core.bit_reads", "repro.core.bitarray:BitArray", ("get",)),
    ("core.bit_writes", "repro.core.bitarray:BitArray", ("set",)),
    ("core.counter_updates", "repro.core.bitarray:CounterArray", ("increment", "decrement")),
    ("simulation.engine.events", "repro.simulation.engine:Engine", ("call_later",)),
]
#: Counted per element of the method's first argument (an index batch).
COUNTED_BATCH = [
    ("core.bit_writes", "repro.core.bitarray:BitArray", ("set_many",)),
]
#: Generators whose every ``next()`` is one decoded trace record.
#: (``__iter__`` of readers and windows delegates to ``iter_range``.)
ITERATED = [
    ("traces.decode", "repro.traces.binary:BinaryTraceReader", ("iter_range",)),
]


def _resolve(spec: str) -> List[Any]:
    """Owners named by *spec*: ``module``, ``module:Class`` or a group."""
    import importlib

    if spec == "@summary_classes":
        from repro.summaries.bloom import BloomRemote, BloomSummary
        from repro.summaries.backend import DigestSetRemote
        from repro.summaries.exact import ExactDirectorySummary
        from repro.summaries.servername import ServerNameSummary

        return [BloomSummary, BloomRemote, DigestSetRemote,
                ExactDirectorySummary, ServerNameSummary]
    if spec == "@message_classes":
        from repro.protocol import wire

        return [
            obj for obj in vars(wire).values()
            if isinstance(obj, type) and "encode" in vars(obj)
        ]
    module_name, _, class_name = spec.partition(":")
    module = importlib.import_module(module_name)
    return [getattr(module, class_name) if class_name else module]


class Tracer:
    """Counters and self-time accounting for one traced window."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.wait: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        # One child-time accumulator per active timed call.
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapper factories -------------------------------------------

    def _timed(self, layer: str, func: Callable) -> Callable:
        calls, busy, stack = self.calls, self.busy, self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                busy[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return timed

    def _waited(self, layer: str, func: Callable) -> Callable:
        calls, wait = self.calls, self.wait

        async def waited(*args, **kwargs):
            start = perf_counter()
            try:
                return await func(*args, **kwargs)
            finally:
                wait[layer] += perf_counter() - start
                calls[layer] += 1

        return waited

    def _counted(self, name: str, func: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return counted

    def _counted_batch(self, name: str, func: Callable) -> Callable:
        counts = self.counts

        def counted_batch(self_, indices, *args, **kwargs):
            indices = list(indices)
            counts[name] += len(indices)
            return func(self_, indices, *args, **kwargs)

        return counted_batch

    def _iterated(self, layer: str, func: Callable) -> Callable:
        calls, busy, stack = self.calls, self.busy, self._stack

        def iterated(*args, **kwargs):
            source = iter(func(*args, **kwargs))
            while True:
                stack.append(0.0)
                start = perf_counter()
                try:
                    item = next(source)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    busy[layer] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                calls[layer] += 1
                yield item

        return iterated

    # -- installation ------------------------------------------------

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        original = vars(owner)[name]
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))
        if isinstance(owner, type):
            return
        # A module-level function may also be bound by name in the
        # modules that imported it: rebind those references too.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if (
                module is not owner
                and namespace is not None
                and getattr(module, "__name__", "").startswith("repro")
                and namespace.get(name) is original
            ):
                setattr(module, name, wrapper)
                self._patches.append((module, name, original))

    def install(self) -> "Tracer":
        """Wrap every target; idempotent per tracer.

        Every owner is resolved (imported) before the first patch, so no
        module can bind a wrapper by name while the install is under way
        and keep it after :meth:`uninstall`.
        """
        if self._patches:
            return self
        plan = [
            (factory, layer, owner, name)
            for factory, table in ((self._timed, TIMED), (self._waited, WAITED),
                                   (self._counted, COUNTED),
                                   (self._counted_batch, COUNTED_BATCH),
                                   (self._iterated, ITERATED))
            for layer, spec, names in table
            for owner in _resolve(spec)
            for name in names
            if name in vars(owner)
        ]
        for factory, layer, owner, name in plan:
            self._patch(owner, name, factory(layer, vars(owner)[name]))
        return self

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        """Zero the counters (the start of a measurement window)."""
        self.calls.clear()
        self.busy.clear()
        self.wait.clear()
        self.counts.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready copy of every counter."""
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "wait": dict(self.wait),
            "counts": dict(self.counts),
        }


def position_cache_stats() -> Optional[Dict[str, int]]:
    """Hit/miss counts of the process-wide hash-position cache, if any."""
    from repro.core.position_cache import get_position_cache

    cache = get_position_cache()
    return None if cache is None else cache.stats()


def position_hit_ratio(before: Optional[Dict[str, int]], after: Optional[Dict[str, int]]) -> float:
    """Share of position lookups served from the cache between two stats."""
    if before is None or after is None:
        return 0.0
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


#: Per-layer metrics common to every engine, filled from a snapshot.
LAYER_METRICS = [
    ("traces.records", "count"), ("traces.decode.busy_s", "s"),
    ("cache.calls", "count"), ("cache.busy_s", "s"),
    ("core.bit_reads", "count"), ("core.bit_writes", "count"),
    ("core.counter_updates", "count"),
    ("summaries.key_of.calls", "count"), ("summaries.key_of.busy_s", "s"),
    ("summaries.contains.calls", "count"), ("summaries.contains.busy_s", "s"),
    ("summaries.write.calls", "count"), ("summaries.write.busy_s", "s"),
    ("summaries.publish.calls", "count"), ("summaries.publish.busy_s", "s"),
    ("summaries.apply.calls", "count"), ("summaries.apply.busy_s", "s"),
    ("protocol.encode.calls", "count"), ("protocol.encode.busy_s", "s"),
    ("protocol.decode.calls", "count"), ("protocol.decode.busy_s", "s"),
    ("proxy.http.parse.busy_s", "s"), ("proxy.http.write.busy_s", "s"),
    ("proxy.http.read.wait_s", "s"), ("proxy.http.stream.wait_s", "s"),
    ("simulation.engine.events", "count"),
    ("simulation.engine.dispatch_s", "s"),
]


def layer_values(snap: Dict[str, Any]) -> Dict[str, float]:
    """Map a :meth:`Tracer.snapshot` onto the :data:`LAYER_METRICS` names."""
    calls, busy = snap["calls"], snap["busy"]
    wait, counts = snap["wait"], snap["counts"]
    values: Dict[str, float] = {}
    for name, _unit in LAYER_METRICS:
        if name == "traces.records":
            values[name] = calls.get("traces.decode", 0)
        elif name == "simulation.engine.dispatch_s":
            values[name] = busy.get("simulation.engine.dispatch", 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".busy_s"):
            values[name] = busy.get(name[: -len(".busy_s")], 0.0)
        elif name.endswith(".wait_s"):
            values[name] = wait.get(name[: -len(".wait_s")], 0.0)
        else:
            values[name] = counts.get(name, 0)
    return values
