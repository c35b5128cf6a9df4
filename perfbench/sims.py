"""The simulator workloads: ``sim-replay`` and ``des-cluster``.

Both replay the ``dec`` preset (60,000 requests) generated from the
benchmark seed.  Their end-to-end metrics are **host** costs -- wall
time, CPU and memory of this process -- while the simulated statistics
are correctness outputs: they are digested, must repeat exactly across
replays, and must not change under tracing.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Tuple

from perfbench import harness
from perfbench.harness import BenchError, Record
from perfbench.layers import Tracer, layer_values, position_cache_stats, position_hit_ratio

#: Simulator "latency" is host time per request, measured over
#: consecutive windows of requests.  The sharing simulator pulls its
#: input in chunks of 2048 requests, so its windows must be that long
#: to time processing rather than pulling; the DES pulls one request
#: at a time per simulated client, and 1000-request windows keep a
#: single garbage-collection pause from setting its p99.
SIM_WINDOW = 2048
DES_WINDOW = 1000
#: Windows per slice: each slice (~0.4 s of sim-replay, ~0.9 s of
#: des-cluster on the reference host) yields one value of every timing
#: metric, scaled to the nominal host by the probes taken at its window
#: boundaries; the run reports the median across its slices.
SLICE_WINDOWS = 5

SIM_REPLAY = {
    "engine": "repro.sharing.simulate_summary_sharing",
    "preset": "dec",
    "requests": 60_000,
    "proxies": 16,
    "trace_format": "packed .sctr via BinaryTraceReader",
    "summary": "bloom, load factor 8",
    "update_threshold": 0.01,
    "cache_fraction_of_infinite": 0.10,
}
DES_CLUSTER = {
    "engine": "repro.simulation.run_scale_experiment",
    "preset": "dec",
    "requests": 60_000,
    "trace_format": "in-memory Trace",
    "proxies": 32,
    "dissemination": "unicast",
    "update_threshold": 0.01,
    "cache_bytes": 2 * 1024 * 1024,
}


class WindowClock:
    """Re-iterable view of a request source that marks the host wall
    and CPU clocks, and runs the reference probe, every
    ``window * scans`` records handed out across *all* its iterators.

    The DES opens one scan of the whole trace per simulated client
    (*scans* of them), so the shared count is what tracks the run's
    overall progress: ``scans`` records handed out ~ one request served.
    A mark is taken as the first record of a window is handed out: a
    consumer that pulls a window's records in one chunk has then
    finished with the previous chunk.  Probe time is left out of every
    interval.
    """

    def __init__(self, source: Any, window: int, scans: int = 1) -> None:
        self.name = getattr(source, "name", "stream")
        self._source = source
        self._scans = scans
        self._per = window * scans
        self._count = [0]
        #: ``(requests so far, wall and cpu before the probe, wall and
        #: cpu after it, probe seconds)`` at every window boundary.
        self.marks: List[Tuple[float, float, float, float, float, float]] = []

    def mark(self) -> None:
        """Mark now; called at the start and at the end of a replay."""
        self._mark(self._count[0] / self._scans)

    def _mark(self, requests: float) -> None:
        wall, cpu = perf_counter(), process_time()
        probe = harness.probe()
        self.marks.append((requests, wall, cpu, perf_counter(), process_time(), probe))

    def __iter__(self):
        count, per, scans = self._count, self._per, self._scans
        for request in self._source:
            n = count[0] + 1
            count[0] = n
            if n % per == 1:
                self._mark(n / scans)
            yield request

    @property
    def wall(self) -> float:
        """Replay wall time, probes left out."""
        probing = sum(after - before for _n, before, _c, after, _c2, _p in self.marks[1:-1])
        return self.marks[-1][1] - self.marks[0][3] - probing

    @property
    def scale(self) -> float:
        return harness.speed_scale([mark[5] for mark in self.marks])

    def slices(self) -> List[Tuple[float, float, List[Tuple[float, float, float]]]]:
        """``(requests, speed scale, [(requests, wall, cpu) per window])``
        for every run of :data:`SLICE_WINDOWS` consecutive windows (the
        last slice of a replay takes the remainder; a replay shorter
        than one slice is one slice).  The time before the first record
        is pulled (the engine's own set-up) counts in :attr:`wall` only."""
        windows = [
            ((n1 - n0, w1 - w0, c1 - c0), (p0, p1))
            for (n0, _w, _c, w0, c0, p0), (n1, w1, c1, _w1, _c1, p1)
            in zip(self.marks[1:], self.marks[2:])
            if n1 > n0
        ]
        groups = [windows[i:i + SLICE_WINDOWS] for i in range(0, len(windows), SLICE_WINDOWS)]
        if len(groups) > 1 and len(groups[-1]) < SLICE_WINDOWS:
            groups[-2].extend(groups.pop())
        return [
            (sum(window[0] for window, _p in group),
             harness.speed_scale([probe for _w, pair in group for probe in pair]),
             [window for window, _p in group])
            for group in groups
        ]


def _clear_position_cache() -> None:
    """Start every replay from a cold hash-position cache, as one
    user-level simulation run would."""
    from repro.core.position_cache import get_position_cache

    cache = get_position_cache()
    if cache is not None:
        cache.clear()


Replay = Callable[[], Tuple[Dict[str, Any], WindowClock]]


def _measure(record: Record, replay: Replay, seconds: float, trace: bool,
             check: Callable[[Dict[str, Any]], bool]) -> Dict[str, Any]:
    """Run *replay* for *seconds* (at least once) and fill *record*.

    In a traced run the untraced replays get half the time and one more
    replay runs under the tracer; its statistics must equal the
    untraced ones.  Returns the per-layer inputs of the traced replay.
    """
    budget = seconds / 2 if trace else seconds
    walls, raw_walls, slices, digests = [], [], [], []
    stats: Dict[str, Any] = {}
    start = perf_counter()
    while not walls or perf_counter() - start < budget:
        stats, clock = replay()
        requests = stats["requests"]
        record.attempted += requests
        if not check(stats):
            record.failed += requests
        walls.append(clock.wall * clock.scale)
        raw_walls.append(clock.wall)
        slices += clock.slices()
        digests.append(harness.digest(stats))
    record.check("simulated statistics identical across replays", len(set(digests)) == 1)
    record.notes["stats_digest"] = digests[0]
    record.notes["replays"] = len(walls)
    record.notes["replay_wall_s (raw)"] = [round(wall, 3) for wall in raw_walls]
    record.notes["replay_wall_s (nominal host)"] = [round(wall, 3) for wall in walls]
    record.notes["slices"] = len(slices)
    record.notes["simulated"] = stats
    # One value per slice, scaled to the nominal host; the median across slices.
    record.metric("req_per_s", statistics.median(
        n / (sum(w for _n, w, _c in group) * scale) for n, scale, group in slices), "req/s")
    for name, q in (("latency_p50_ms", 0.50), ("latency_p99_ms", 0.99)):
        record.metric(name, statistics.median(
            harness.percentile([w * scale * 1000.0 / n for n, w, _c in group], q)
            for _n, scale, group in slices), "ms")
    record.metric("server_cpu_us_per_req", statistics.median(
        sum(c for _n, _w, c in group) * scale / n * 1e6 for n, scale, group in slices),
        "us/req")
    record.notes["req_per_s (raw, median over slices)"] = round(statistics.median(
        n / sum(w for _n, w, _c in group) for n, _scale, group in slices), 1)
    traced: Dict[str, Any] = {}
    if trace:
        tracer = Tracer()
        before = position_cache_stats()
        with tracer:
            traced_stats, clock = replay()
        after = position_cache_stats()
        record.attempted += traced_stats["requests"]
        if not check(traced_stats):
            record.failed += traced_stats["requests"]
        same = harness.digest(traced_stats) == digests[0]
        record.check("traced replay statistics identical to untraced", same)
        if not same:
            raise BenchError("tracing changed the simulated statistics")
        traced = {
            "snapshot": tracer.snapshot(),
            "stats": traced_stats,
            "position_hit_ratio": position_hit_ratio(before, after),
            "overhead_ratio": clock.wall * clock.scale / statistics.median(walls) - 1.0,
        }
    return traced


def run_sim_replay(seed: int, seconds: float, trace: bool,
                   scale: float = 1.0) -> Tuple[Record, Dict[str, Any]]:
    """The ``sim-replay`` workload (*scale* < 1 shrinks the preset, for tests)."""
    from repro.sharing import summary_sharing
    from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
    from repro.traces import BinaryTraceReader, pack_workload
    from repro.traces.stats import compute_stats, mean_cacheable_size

    record = Record("sim-replay", dict(SIM_REPLAY, seed=seed, scale=scale))
    path = harness.ensure_work_dir() / f"sim-replay-{os.getpid()}.sctr"
    setups = []
    reader = None

    def set_up():
        records, groups = pack_workload(SIM_REPLAY["preset"], path, scale=scale, seed=seed)
        reader = BinaryTraceReader(path)
        trace_stats = compute_stats(reader)
        capacity = max(1, int(
            trace_stats.infinite_cache_bytes * SIM_REPLAY["cache_fraction_of_infinite"] / groups
        ))
        return records, groups, reader, capacity, mean_cacheable_size(reader)

    try:
        for _ in range(harness.SETUP_REPEATS):
            if reader is not None:
                reader.close()
            (records, groups, reader, capacity, doc_size), seconds_taken = \
                harness.timed_setup(set_up)
            setups.append(seconds_taken)
        record.metric("setup_s", statistics.median(setups), "s")
        record.check("packed trace holds every generated request", records == len(reader))
        record.config.update(per_proxy_cache_bytes=capacity, expected_doc_size=doc_size)
        config = summary_sharing.SummarySharingConfig(
            summary=SummaryConfig(kind="bloom", load_factor=8),
            update_policy=ThresholdUpdatePolicy(SIM_REPLAY["update_threshold"]),
            expected_doc_size=doc_size,
        )

        def replay():
            _clear_position_cache()
            clock = WindowClock(reader, SIM_WINDOW)
            clock.mark()
            # Called through the module so a traced replay hits the wrapper.
            result = summary_sharing.simulate_summary_sharing(clock, groups, capacity, config)
            clock.mark()
            return dataclasses.asdict(result), clock

        def check(stats: Dict[str, Any]) -> bool:
            n = stats["requests"]
            # Every request ends in exactly one of: local hit, or a
            # local miss whose query round (if any) resolved as a remote
            # hit, remote stale hit or false hit; the rest went to the
            # origin without a query.
            queried = stats["remote_hits"] + stats["remote_stale_hits"] + stats["false_hits"]
            unqueried = n - stats["local_hits"] - queried
            ok = record.check("requests equal the trace length", n == len(reader))
            ok &= record.check(
                "hit taxonomy partitions the requests",
                min(stats["local_hits"], queried, unqueried) >= 0
                and stats["false_misses"] <= n - stats["local_hits"] - stats["remote_hits"]
                and stats["local_stale_hits"] <= n - stats["local_hits"]
                and stats["bytes_hit"] <= stats["bytes_requested"],
            )
            record.notes["partition"] = (
                f"local {stats['local_hits']} + queried {queried} "
                f"+ unqueried {unqueried} = {n}"
            )
            return ok

        traced = _measure(record, replay, seconds, trace, check)
        stats = record.notes["simulated"]
        requests = stats["requests"]
        hits = stats["local_hits"] + stats["remote_hits"]
        messages = stats["messages"]
        record.metric("hit_ratio", hits / requests, "ratio")
        record.metric(
            "udp_per_req",
            (messages["query_messages"] + messages["reply_messages"]
             + messages["update_messages"]) / requests,
            "msgs/req",
        )
        record.metric("peak_rss_mib", harness.self_peak_rss_mib(), "MiB")
    finally:
        if reader is not None:
            reader.close()
        path.unlink(missing_ok=True)
    if traced:
        stats = traced["stats"]
        messages = stats["messages"]
        traced["extra"] = {
            "sharing.self_s": traced["snapshot"]["busy"].get("sharing", 0.0),
            "sharing.query_precision": (
                stats["remote_hits"] / messages["query_messages"]
                if messages["query_messages"] else 0.0
            ),
        }
    return record, traced


def run_des_cluster(seed: int, seconds: float, trace: bool,
                    scale: float = 1.0) -> Tuple[Record, Dict[str, Any]]:
    """The ``des-cluster`` workload (*scale* < 1 shrinks the preset, for tests)."""
    from repro.simulation.scale import run_scale_experiment
    from repro.traces import make_workload

    record = Record("des-cluster", dict(DES_CLUSTER, seed=seed, scale=scale))
    setups = []
    for _ in range(harness.SETUP_REPEATS):
        (requests_trace, _groups), seconds_taken = harness.timed_setup(
            lambda: make_workload(DES_CLUSTER["preset"], scale=scale, seed=seed))
        setups.append(seconds_taken)
    record.metric("setup_s", statistics.median(setups), "s")
    proxies = DES_CLUSTER["proxies"]

    def replay():
        _clear_position_cache()
        clock = WindowClock(requests_trace, DES_WINDOW, scans=proxies)
        clock.mark()
        result = run_scale_experiment(
            clock,
            num_proxies=proxies,
            dissemination=DES_CLUSTER["dissemination"],
            update_threshold=DES_CLUSTER["update_threshold"],
            cache_capacity=DES_CLUSTER["cache_bytes"],
        )
        clock.mark()
        stats = result.to_dict()
        for host_only in ("wall_seconds", "peak_rss_bytes"):
            stats.pop(host_only)
        return stats, clock

    def check(stats: Dict[str, Any]) -> bool:
        ok = record.check("requests equal the trace length",
                          stats["requests"] == len(requests_trace))
        ok &= record.check("udp_sent == udp_received",
                           stats["udp_sent"] == stats["udp_received"])
        return ok

    traced = _measure(record, replay, seconds, trace, check)
    stats = record.notes["simulated"]
    record.metric("hit_ratio", stats["hit_ratio"], "ratio")
    record.metric("udp_per_req", stats["udp_sent"] / stats["requests"], "msgs/req")
    record.metric("peak_rss_mib", harness.self_peak_rss_mib(), "MiB")
    if traced:
        traced["extra"] = {
            "simulation.msgs_per_req": traced["stats"]["protocol_messages_per_request"],
        }
    return record, traced


def per_layer(traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer values of a traced simulator replay."""
    values = layer_values(traced["snapshot"])
    values["core.position_cache.hit_ratio"] = traced["position_hit_ratio"]
    values["trace.overhead_ratio"] = traced["overhead_ratio"]
    values.update(traced.get("extra", {}))
    return values
