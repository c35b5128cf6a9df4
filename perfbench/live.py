"""The live-proxy workload ``live-mixed``: a closed loop against a
2-proxy SC-ICP cluster.

The cluster -- 2 SC-ICP proxies plus the origin, as ``summary-cache
serve`` starts it -- runs in a separate process; traffic crosses the
loopback interface.  The load comes from this process alone, over one
keep-alive connection per proxy, using a minimal HTTP/1.1 client of the
benchmark's own (so a change to the program's HTTP code cannot change
the client's cost).  Client and server are pinned to one CPU, so the
reference probe the client runs measures the speed of the CPU the
server runs on too.  A traced run starts the server through
:mod:`perfbench.launcher` instead, which wraps the program's functions
inside the server process.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import selectors
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time, sleep
from typing import Any, Dict, List, Optional, Tuple

from perfbench import harness
from perfbench.harness import BenchError, Record
from perfbench.layers import layer_values

#: Cluster and client set-up.  Bodies are capped at 64 KiB: with
#: Pareto(1.1) sizes a higher cap lets a handful of huge documents,
#: different for every seed, set the p99 latency.
CLUSTER = {
    "proxies": 2,
    "mode": "sc-icp",
    "cache_mb": 16,
    "summary": "bloom, load factor 8 (serve default)",
    "origin_delay_s": 0.0,
    "transport": "loopback",
    "cpus": "client and server pinned to one CPU",
}
LIVE_MIXED = {
    **CLUSTER,
    "loop": "closed",
    "connections": 2,
    "target_hit_ratio": 0.25,
    "shared_fraction": 0.5,
    "shared_docs": 512,
    "mean_size": 8 * 1024,
    "max_size": 64 * 1024,
}
#: Upper bound on closed-loop throughput used to size the request
#: streams, so a run never exhausts its inputs before the deadline.
MAX_CLOSED_RATE = 8000
#: Seconds allowed for responses to drain after the load window.
DRAIN_TIMEOUT = 30.0
#: The load window is cut into slices this long; every timing metric
#: is computed per slice, its median across slices is taken and scaled
#: to the nominal host by the median of the reference probes the client
#: ran through the window.  (Unlike the simulators', these probes share
#: the CPU with a busy server and read too noisily to scale each slice
#: on its own: over five seeds that widened the spread of the results
#: by about 1.4x.)
SLICE_S = 1.0
#: Probes per slice, evenly spaced; each stalls the client for ~0.3 ms.
PROBES_PER_SLICE = 4
#: Leading slices left out of the timing metrics while the caches fill
#: (throughput climbs for the first ~4 s of a run); their requests are
#: still checked and counted.
WARMUP_SLICES = 4
SOURCES = ("HIT", "REMOTE-HIT", "MISS")
_ENDPOINT = re.compile(r"^(proxy\d+) .* http=http://([\d.]+):(\d+) ")


class ServerProcess:
    """The cluster in its own process: ``repro.cli serve`` or, traced,
    the benchmark's launcher running the same command under wrappers."""

    def __init__(self, traced: bool, dump_path: Optional[Path] = None) -> None:
        args = [
            "serve", "--proxies", str(CLUSTER["proxies"]),
            "--mode", CLUSTER["mode"], "--cache-mb", str(CLUSTER["cache_mb"]),
        ]
        if traced:
            command = [sys.executable, "-u", str(harness.ROOT / "perfbench" / "launcher.py"),
                       "--dump", str(dump_path), *args]
        else:
            command = [sys.executable, "-u", "-m", "repro.cli", *args]
        env = dict(os.environ, PYTHONPATH=str(harness.ROOT / "src"))
        self.dump_path = dump_path
        # The server's log goes to a file: a pipe nobody drains would
        # stall a chatty server once its buffer filled.
        self.log_path = harness.ensure_work_dir() / f"server-{os.getpid()}-{id(self)}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            command, cwd=harness.ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        self.targets: List[Tuple[str, int]] = []

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Read the endpoint lines ``serve`` prints until it is serving."""
        deadline = perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        pending = b""
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                remaining = deadline - perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise BenchError("server did not become ready in time")
                chunk = os.read(fd, 65536)
                if not chunk:
                    self.proc.wait()
                    log = self.log_path.read_text(errors="replace")[-2000:]
                    raise BenchError(f"server exited early: {log}")
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    text = line.decode("utf-8", "replace")
                    match = _ENDPOINT.match(text)
                    if match:
                        self.targets.append((match.group(2), int(match.group(3))))
                    if text.startswith("serving until"):
                        if len(self.targets) != CLUSTER["proxies"]:
                            raise BenchError(f"expected {CLUSTER['proxies']} proxies, "
                                             f"saw {self.targets}")
                        return

    def signal_dump(self, action: int, timeout: float = 30.0) -> Dict[str, Any]:
        """Ask the traced server to reset (SIGUSR1) or dump (SIGUSR2)."""
        assert self.dump_path is not None
        self.dump_path.unlink(missing_ok=True)
        self.proc.send_signal(action)
        deadline = perf_counter() + timeout
        while not self.dump_path.exists():
            if perf_counter() > deadline or self.proc.poll() is not None:
                raise BenchError("traced server did not answer the dump signal")
            sleep(0.01)
        return json.loads(self.dump_path.read_text())

    def stop(self) -> None:
        """Interrupt the server and wait for it to exit (kill on timeout)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        self.log_path.unlink(missing_ok=True)


# -- the benchmark's HTTP client ---------------------------------------


def _request_bytes(url: str, size: int) -> bytes:
    return (
        f"GET {url} HTTP/1.1\r\nConnection: keep-alive\r\n"
        f"X-Size: {size}\r\n\r\n"
    ).encode("latin-1")


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str], bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


class Tally:
    """Client-side outcome of one load window."""

    def __init__(self) -> None:
        #: ``(completion time, latency)`` of every successful request.
        self.latencies: List[Tuple[float, float]] = []
        self.sources: Counter = Counter()
        self.attempted = 0
        self.failed = 0

    def response(self, url: str, size: int, status: int, headers: Dict[str, str],
                 body: bytes, latency: float) -> None:
        """Check one response (200, body length == X-Size, synthetic
        content, known cache source) and record it."""
        self.attempted += 1
        source = headers.get("x-cache", "")
        expected_prefix = f"{url}|".encode("utf-8")[: min(64, size)]
        if (status != 200 or len(body) != size or not body.startswith(expected_prefix)
                or source not in SOURCES):
            self.failed += 1
            return
        self.sources[source] += 1
        self.latencies.append((perf_counter(), latency))

    def lost(self, count: int) -> None:
        """*count* requests that got no response (broken connection)."""
        self.attempted += count
        self.failed += count


_BROKEN = (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ConnectionError, ValueError)


class Gate:
    """Lets the sampler stop the closed loop for a reference probe: it
    closes the gate, waits until no request is in flight, runs the
    probe on the then idle CPU and reopens.  So the probe neither
    shares the CPU with the server nor delays a request."""

    def __init__(self) -> None:
        self.open = asyncio.Event()
        self.open.set()
        self.idle = asyncio.Event()
        self.idle.set()
        self.in_flight = 0
        #: Seconds the load was stopped for probes, in total.
        self.stopped = 0.0

    def enter(self) -> None:
        self.in_flight += 1
        self.idle.clear()

    def leave(self) -> None:
        self.in_flight -= 1
        if not self.in_flight:
            self.idle.set()

    async def probe(self) -> float:
        self.open.clear()
        try:
            # A connection that stalls must not stall the sampler too.
            await asyncio.wait_for(self.idle.wait(), 1.0)
        except asyncio.TimeoutError:
            pass
        stopped = perf_counter()
        probe = harness.probe()
        self.open.set()
        self.stopped += perf_counter() - stopped
        return probe


async def _closed_client(target, stream, deadline: float, tally: Tally, gate: Gate) -> None:
    reader, writer = await asyncio.open_connection(*target)
    try:
        for request in stream:
            await gate.open.wait()
            if perf_counter() >= deadline:
                break
            gate.enter()
            try:
                begin = perf_counter()
                writer.write(_request_bytes(request.url, request.size))
                try:
                    status, headers, body = await _read_response(reader)
                except _BROKEN:
                    tally.lost(1)
                    return
                tally.response(request.url, request.size, status, headers, body,
                               perf_counter() - begin)
            finally:
                gate.leave()
    finally:
        writer.close()


async def _fetch(target, path: str) -> bytes:
    reader, writer = await asyncio.open_connection(*target)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
        status, _headers, body = await _read_response(reader)
    finally:
        writer.close()
    if status != 200:
        raise BenchError(f"GET {path} answered {status}")
    return body


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` from the text exposition format."""
    series = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            series[key] = float(value)
    return series


def metric_sum(series: Dict[str, float], name: str, label: str = "") -> float:
    """Sum of every series of metric *name* (optionally containing *label*)."""
    return sum(
        value for key, value in series.items()
        if (key == name or key.startswith(name + "{")) and label in key
    )


#: ``/__stats__`` field -> ``/metrics`` series, compared per proxy.
STATS_VS_METRICS = {
    "http_requests": "proxy_http_requests_total",
    "local_hits": "proxy_local_hits_total",
    "remote_hits": "proxy_remote_hits_total",
    "remote_fetch_failures": "proxy_remote_fetch_failures_total",
    "false_query_rounds": "proxy_icp_false_hits_total",
    "origin_fetches": "proxy_origin_fetches_total",
    "bytes_served": "proxy_bytes_served_total",
    "icp_queries_sent": "proxy_icp_queries_sent_total",
    "icp_replies_received": "proxy_icp_replies_received_total",
    "dirupdates_sent": "proxy_dirupdates_sent_total",
    "dirupdates_received": "proxy_dirupdates_received_total",
    "udp_sent": "proxy_udp_sent_total",
    "udp_received": "proxy_udp_received_total",
}


async def _scrape(targets) -> List[Tuple[Dict[str, Any], Dict[str, float]]]:
    out = []
    for target in targets:
        stats = json.loads(await _fetch(target, "/__stats__"))
        series = parse_prometheus((await _fetch(target, "/metrics")).decode("utf-8"))
        out.append((stats, series))
    return out


def _delta(before, after, name: str, label: str = "") -> float:
    return sum(
        metric_sum(a[1], name, label) - metric_sum(b[1], name, label)
        for b, a in zip(before, after)
    )


def make_streams(config: Dict[str, Any], seed: int, per_client: int):
    from repro.benchmarkkit.wisconsin import WisconsinConfig, generate_client_streams

    return generate_client_streams(WisconsinConfig(
        num_clients=config["connections"],
        requests_per_client=per_client,
        target_hit_ratio=config["target_hit_ratio"],
        mean_size=config["mean_size"],
        max_size=config["max_size"],
        seed=seed,
        shared_fraction=config["shared_fraction"],
        shared_docs=config["shared_docs"],
    ))


def _load_window(config: Dict[str, Any], streams, server: ServerProcess, seconds: float,
                 at_start=None, at_end=None) -> Dict[str, Any]:
    """Drive one load window against *server*; scrape before and after.

    *at_start*/*at_end* run right before the first and after the last
    request (the traced server's counter reset and dump).
    """
    tally = Tally()

    async def drive() -> Dict[str, Any]:
        before = await _scrape(server.targets)
        if at_start is not None:
            at_start()
        cpu0, server_cpu0 = process_time(), harness.proc_cpu_seconds(server.pid)
        start = perf_counter()
        gate = Gate()
        # ``(wall, server CPU ns, seconds stopped for probes)`` at every
        # slice boundary, and the reference-probe times of every slice.
        marks = [(start, harness.proc_cpu_ns(server.pid), 0.0)]
        probes: List[List[float]] = []
        ticks = max(1, round(seconds / SLICE_S)) * PROBES_PER_SLICE

        async def sample() -> None:
            for k in range(1, ticks + 1):
                await asyncio.sleep(max(0.0, start + k * seconds / ticks - perf_counter()))
                if (k - 1) % PROBES_PER_SLICE == 0:
                    probes.append([])
                if k % PROBES_PER_SLICE == 0:
                    marks.append((perf_counter(), harness.proc_cpu_ns(server.pid), gate.stopped))
                probes[-1].append(await gate.probe())

        sampler = asyncio.ensure_future(sample())
        clients = [
            _closed_client(target, stream, start + seconds, tally, gate)
            for target, stream in zip(server.targets, streams)
        ]
        try:
            await asyncio.wait_for(asyncio.gather(*clients), seconds + DRAIN_TIMEOUT)
            timed_out = False
        except asyncio.TimeoutError:
            timed_out = True
        await sampler
        window = {
            "timed_out": timed_out,
            "marks": marks,
            "probes": probes,
            "elapsed": perf_counter() - start,
            "client_cpu": process_time() - cpu0,
            "server_cpu": harness.proc_cpu_seconds(server.pid) - server_cpu0,
        }
        if at_end is not None:
            window["dump"] = at_end()
        await asyncio.sleep(0.2)  # let in-flight DIRUPDATE datagrams land
        window["before"], window["after"] = before, await _scrape(server.targets)
        window["peak_rss_mib"] = harness.proc_peak_rss_mib(server.pid)
        return window

    window = asyncio.run(drive())
    window["tally"] = tally
    return window


def _check_window(record: Record, window: Dict[str, Any]) -> None:
    tally: Tally = window["tally"]
    before, after = window["before"], window["after"]
    record.attempted += tally.attempted
    record.failed += tally.failed
    record.check("every response is a 200 whose body length equals X-Size",
                 tally.failed == 0)
    record.check("every response arrived within the drain timeout", not window["timed_out"])
    served = _delta(before, after, "proxy_http_requests_total")
    record.check("cache sources sum to the request count",
                 sum(tally.sources.values()) == tally.attempted == served)
    record.check(
        "client-side sources match the proxies' hit counters",
        tally.sources["HIT"] == _delta(before, after, "proxy_local_hits_total")
        and tally.sources["REMOTE-HIT"] == _delta(before, after, "proxy_remote_hits_total"),
    )
    agree = all(
        stats[field] == metric_sum(series, name)
        for stats, series in after for field, name in STATS_VS_METRICS.items()
    )
    record.check("/__stats__ agrees with /metrics", agree)


def _per_request(window: Dict[str, Any]) -> Tuple[int, float]:
    completed = sum(window["tally"].sources.values())
    if not completed:
        raise BenchError("no request completed")
    return completed, window["server_cpu"] / completed


def _slices(window: Dict[str, Any]) -> List[Tuple[float, float, List[float]]]:
    """``(seconds under load, server CPU seconds, latencies in ms)`` of
    every load slice after the warm-up (at least one slice), a request
    counting in the slice it completed in."""
    marks, latencies = window["marks"], window["tally"].latencies
    out = []
    for (begin, cpu0, stop0), (end, cpu1, stop1) in zip(marks, marks[1:]):
        sample = [lat * 1000.0 for done, lat in latencies if begin <= done < end]
        if not sample:
            raise BenchError("a load slice completed no request")
        out.append((end - begin - (stop1 - stop0), (cpu1 - cpu0) / 1e9, sample))
    return out[min(WARMUP_SLICES, len(out) - 1):]


def _scale(window: Dict[str, Any]) -> float:
    """Nominal-host scale of the whole window, from all its probes."""
    return harness.speed_scale([probe for per_slice in window["probes"] for probe in per_slice])


def _report(record: Record, window: Dict[str, Any]) -> None:
    tally: Tally = window["tally"]
    completed = _per_request(window)[0]
    slices = _slices(window)
    scale = _scale(window)
    # One value per slice; the median across slices, scaled to the nominal host.
    record.metric("req_per_s", statistics.median(
        len(lat) / seconds for seconds, _cpu, lat in slices) / scale, "req/s")
    for name, q in (("latency_p50_ms", 0.50), ("latency_p99_ms", 0.99)):
        record.metric(name, statistics.median(
            harness.percentile(lat, q) for _s, _cpu, lat in slices) * scale, "ms")
    record.metric("hit_ratio", (tally.sources["HIT"] + tally.sources["REMOTE-HIT"]) / completed,
                  "ratio")
    record.metric(
        "udp_per_req",
        _delta(window["before"], window["after"], "proxy_udp_sent_total") / completed,
        "msgs/req",
    )
    record.metric("server_cpu_us_per_req", statistics.median(
        cpu / len(lat) * 1e6 for _s, cpu, lat in slices) * scale, "us/req")
    record.metric("peak_rss_mib", window["peak_rss_mib"], "MiB")
    record.notes["slices"] = len(slices)
    record.notes["latency_samples_per_slice"] = (
        f"min {min(len(lat) for *_rest, lat in slices)}, "
        f"max {max(len(lat) for *_rest, lat in slices)}")
    record.notes["req_per_s (raw, whole window)"] = round(completed / window["elapsed"], 1)
    record.notes["speed_scale"] = round(scale, 4)
    record.notes["cache_sources"] = dict(tally.sources)
    record.notes["loadgen.cpu_busy_ratio"] = loadgen_busy(window)


def loadgen_busy(window: Dict[str, Any]) -> float:
    """Load-generator CPU over the window's wall time (near 1 = saturated)."""
    return window["client_cpu"] / window["elapsed"]


def _rate(window: Dict[str, Any]) -> float:
    """Requests per nominal-host second over the whole window."""
    return _per_request(window)[0] / (window["elapsed"] * _scale(window))


def run_live(seed: int, seconds: float, trace: bool) -> Tuple[Record, Dict[str, Any]]:
    """The ``live-mixed`` workload."""
    config = LIVE_MIXED
    record = Record("live-mixed", dict(config, seed=seed))
    budget = seconds / 2 if trace else seconds
    per_connection = math.ceil(MAX_CLOSED_RATE * budget / config["connections"])
    record.config["requests_per_connection"] = per_connection
    setups = []
    server = None
    cpus = os.sched_getaffinity(0)
    # The server processes inherit this affinity when they start.
    os.sched_setaffinity(0, {min(cpus)})

    def set_up():
        streams = make_streams(config, seed, per_connection)
        started = ServerProcess(traced=False)
        try:
            started.wait_ready()
        except BaseException:
            started.stop()
            raise
        return streams, started

    try:
        for _ in range(1 if trace else harness.SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            (streams, server), seconds_taken = harness.timed_setup(set_up)
            setups.append(seconds_taken)
        window = _load_window(config, streams, server, budget)
        server.stop()
        server = None
        record.metric("setup_s", statistics.median(setups), "s")
        _check_window(record, window)
        _report(record, window)
        traced: Dict[str, Any] = {}
        if trace:
            traced = _traced_window(record, config, streams, budget, window)
    finally:
        if server is not None:
            server.stop()
        os.sched_setaffinity(0, cpus)
    return record, traced


def _traced_window(record: Record, config: Dict[str, Any], streams, seconds: float,
                   untraced: Dict[str, Any]) -> Dict[str, Any]:
    """Replay the same load against a traced server; per-layer inputs."""
    dump_path = harness.ensure_work_dir() / f"layers-{os.getpid()}.json"
    server = ServerProcess(traced=True, dump_path=dump_path)
    try:
        server.wait_ready()
        window = _load_window(
            config, streams, server, seconds,
            at_start=lambda: server.signal_dump(signal.SIGUSR1),
            at_end=lambda: server.signal_dump(signal.SIGUSR2),
        )
    finally:
        server.stop()
        dump_path.unlink(missing_ok=True)
    _check_window(record, window)
    before, after = window["before"], window["after"]
    overhead = _rate(untraced) / _rate(window) - 1.0
    rounds = _delta(before, after, "proxy_request_phase_seconds_count", 'phase="icp_round"')
    fetches = sum(_delta(before, after, name) for name in (
        "proxy_origin_fetches_total", "proxy_remote_hits_total",
        "proxy_remote_fetch_failures_total"))
    snapshot = window["dump"]["tracer"]
    values = layer_values(snapshot)
    values.update({
        "core.position_cache.hit_ratio": window["dump"]["position_hit_ratio"],
        "proxy.loop_other_s": window["server_cpu"] - sum(snapshot["busy"].values()),
        "proxy.icp.false_round_ratio": (
            _delta(before, after, "proxy_icp_false_hits_total") / rounds if rounds else 0.0),
        "proxy.pool.reuse_ratio": (
            _delta(before, after, "proxy_connections_reused_total") / fetches
            if fetches else 0.0),
        "loadgen.cpu_busy_ratio": loadgen_busy(untraced),
        "trace.overhead_ratio": overhead,
    })
    for phase in ("icp_round", "peer_fetch", "origin_fetch"):
        values[f"proxy.phase.{phase}_s"] = _delta(
            before, after, "proxy_request_phase_seconds_sum", f'phase="{phase}"')
    return values
