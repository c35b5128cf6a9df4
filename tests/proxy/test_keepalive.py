"""Keep-alive semantics of the proxy data plane.

Covers the request loop in ``SummaryCacheProxy._handle_http``: multiple
requests on one connection, pipelining order, ``Connection: close``
fallback, idle-timeout reaping, mid-stream client disconnects,
per-connection request caps, upstream connection pooling, and --
the acceptance bar for the keep-alive rework -- bit-identical cache
behaviour versus the one-connection-per-GET discipline.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import replace

from repro.core.summary import SummaryConfig
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.client import ClientDriver
from repro.proxy.http import (
    IdleDeadline,
    read_request,
    read_response,
    synth_body,
    write_request,
)


def run(coro):
    return asyncio.run(coro)


BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
    update_threshold=0.01,
)


async def _connect(cluster, proxy_index=0):
    proxy = cluster.proxies[proxy_index]
    return await asyncio.open_connection(proxy.config.host, proxy.http_port)


class TestKeepAliveLoop:
    def test_multiple_requests_one_connection(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                reader, writer = await _connect(cluster)
                responses = []
                for i in range(3):
                    write_request(
                        writer,
                        f"http://ka.com/d{i}",
                        {"X-Size": "128"},
                        keep_alive=True,
                    )
                    await writer.drain()
                    responses.append(await read_response(reader))
                writer.close()
                return responses, cluster.proxies[0].stats

        responses, stats = run(scenario())
        assert [r.status for r in responses] == [200, 200, 200]
        assert all(r.keep_alive for r in responses)
        assert stats.http_requests == 3

    def test_pipelined_requests_answered_in_order(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                reader, writer = await _connect(cluster)
                urls = [f"http://pipe.com/d{i}" for i in range(5)]
                # Write every request before reading any response.
                for i, url in enumerate(urls):
                    write_request(
                        writer,
                        url,
                        {"X-Size": str(200 + i)},
                        keep_alive=True,
                    )
                await writer.drain()
                bodies = [
                    (await read_response(reader)).body for _ in urls
                ]
                writer.close()
                return urls, bodies

        urls, bodies = run(scenario())
        # Responses must arrive in request order, each with the right
        # (size-distinguishable, URL-deterministic) body.
        assert bodies == [
            synth_body(url, 200 + i) for i, url in enumerate(urls)
        ]

    def test_connection_close_fallback(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                reader, writer = await _connect(cluster)
                write_request(
                    writer, "http://cl.com/x", {"X-Size": "64"},
                    keep_alive=False,
                )
                await writer.drain()
                response = await read_response(reader)
                # The proxy must close its side after a close response.
                trailing = await reader.read(1)
                writer.close()
                return response, trailing

        response, trailing = run(scenario())
        assert response.status == 200
        assert not response.keep_alive
        assert trailing == b""

    def test_http10_defaults_to_close(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                reader, writer = await _connect(cluster)
                writer.write(
                    b"GET http://old.com/x HTTP/1.0\r\nX-Size: 64\r\n\r\n"
                )
                await writer.drain()
                response = await read_response(reader)
                trailing = await reader.read(1)
                writer.close()
                return response, trailing

        response, trailing = run(scenario())
        assert response.status == 200
        assert not response.keep_alive
        assert trailing == b""

    def test_idle_timeout_closes_connection(self):
        async def scenario():
            config = replace(BASE_CONFIG, idle_timeout=0.1)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                reader, writer = await _connect(cluster)
                write_request(
                    writer, "http://idle.com/x", {"X-Size": "64"},
                    keep_alive=True,
                )
                await writer.drain()
                response = await read_response(reader)
                # Sit idle past the timeout; the proxy reaps us.
                trailing = await asyncio.wait_for(reader.read(1), timeout=2.0)
                writer.close()
                return response, trailing

        response, trailing = run(scenario())
        assert response.keep_alive
        assert trailing == b""

    def test_max_requests_per_connection_forces_close(self):
        async def scenario():
            config = replace(BASE_CONFIG, max_requests_per_connection=2)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                reader, writer = await _connect(cluster)
                responses = []
                for i in range(2):
                    write_request(
                        writer,
                        f"http://cap.com/d{i}",
                        {"X-Size": "64"},
                        keep_alive=True,
                    )
                    await writer.drain()
                    responses.append(await read_response(reader))
                writer.close()
                return responses

        responses = run(scenario())
        assert responses[0].keep_alive
        assert not responses[1].keep_alive

    def test_mid_stream_client_disconnect_is_survived(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                # Ask for a large body, then vanish without reading it.
                reader, writer = await _connect(cluster)
                write_request(
                    writer,
                    "http://gone.com/big",
                    {"X-Size": str(4 * 1024 * 1024)},
                    keep_alive=True,
                )
                await writer.drain()
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                # The proxy must still serve subsequent clients.
                driver = cluster.driver_for(0)
                body = await driver.fetch("http://gone.com/after", size=256)
                await driver.close()
                # Handler teardown is asynchronous; wait for the gauge
                # to confirm both connections were reaped.
                registry = cluster.proxies[0].registry
                open_conns = registry.value("proxy_connections_open")
                for _ in range(100):
                    if open_conns == 0:
                        break
                    await asyncio.sleep(0.02)
                    open_conns = registry.value("proxy_connections_open")
                return body, open_conns

        body, open_conns = run(scenario())
        assert body == synth_body("http://gone.com/after", 256)
        assert open_conns == 0

    def test_malformed_request_gets_400_and_close(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                reader, writer = await _connect(cluster)
                writer.write(b"BLARGH\r\n\r\n")
                await writer.drain()
                response = await read_response(reader)
                trailing = await reader.read(1)
                writer.close()
                return response, trailing

        response, trailing = run(scenario())
        assert response.status == 400
        assert not response.keep_alive
        assert trailing == b""

    def test_oversized_head_gets_400_not_traceback(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                reader, writer = await _connect(cluster)
                # 20 KiB of padding blows the 16 KiB head cap but stays
                # under the 64 KiB stream limit.
                writer.write(
                    b"GET http://big.com/x HTTP/1.1\r\n"
                    + b"X-Padding: " + b"a" * (20 * 1024) + b"\r\n\r\n"
                )
                await writer.drain()
                response = await read_response(reader)
                writer.close()
                return response

        assert run(scenario()).status == 400


class TestIdleDeadline:
    """The per-connection idle deadline that replaced ``wait_for``."""

    def test_half_sent_head_is_reaped_without_response(self):
        timeout = 0.2

        async def scenario():
            config = replace(BASE_CONFIG, idle_timeout=timeout)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                loop = asyncio.get_running_loop()
                # Start the clock before connecting: the proxy's read
                # (and so its deadline) cannot begin any earlier.
                start = loop.time()
                reader, writer = await _connect(cluster)
                writer.write(b"GET http://stall.com/x HTTP/1.1\r\nX-Si")
                await writer.drain()
                data = await asyncio.wait_for(reader.read(1024), timeout=5.0)
                elapsed = loop.time() - start
                writer.close()
                return data, elapsed, cluster.proxies[0].stats

        data, elapsed, stats = run(scenario())
        assert data == b""  # closed, and no 400 or other response bytes
        assert timeout <= elapsed < timeout + 2.0
        assert stats.http_requests == 0

    def test_steady_client_is_never_reaped(self):
        # One request every timeout/3 for 4 * timeout: a deadline
        # measured from connection start (or from the first arming)
        # instead of from each read would reap this client.
        timeout = 0.3

        async def scenario():
            config = replace(BASE_CONFIG, idle_timeout=timeout)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                reader, writer = await _connect(cluster)
                responses = []
                for i in range(12):
                    write_request(
                        writer,
                        f"http://steady.com/d{i % 3}",
                        {"X-Size": "64"},
                        keep_alive=True,
                    )
                    await writer.drain()
                    responses.append(await read_response(reader))
                    await asyncio.sleep(timeout / 3)
                writer.close()
                return responses, cluster.proxies[0].stats

        responses, stats = run(scenario())
        assert [r.status for r in responses] == [200] * 12
        assert all(r.keep_alive for r in responses)
        assert stats.http_requests == 12

    def test_keepalive_hits_create_no_task_or_timer_per_request(self):
        hits = 50

        async def scenario():
            config = replace(BASE_CONFIG, idle_timeout=30.0)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                reader, writer = await _connect(cluster)

                async def get():
                    write_request(
                        writer, "http://hot.com/x", {"X-Size": "256"},
                        keep_alive=True,
                    )
                    await writer.drain()
                    return await read_response(reader)

                await get()  # the miss that caches the document
                loop = asyncio.get_running_loop()
                counts = Counter()
                create_task, call_at = loop.create_task, loop.call_at

                def counted_create_task(*args, **kwargs):
                    counts["tasks"] += 1
                    return create_task(*args, **kwargs)

                def counted_call_at(*args, **kwargs):
                    counts["timers"] += 1
                    return call_at(*args, **kwargs)

                loop.create_task = counted_create_task
                loop.call_at = counted_call_at
                try:
                    responses = [await get() for _ in range(hits)]
                finally:
                    del loop.create_task, loop.call_at
                writer.close()
                return responses, counts

        responses, counts = run(scenario())
        assert [r.header("x-cache") for r in responses] == ["HIT"] * hits
        # O(1), not O(hits): a ``wait_for`` per read made a timer (and,
        # before Python 3.12, a Task) per hit.
        assert counts["tasks"] <= 2
        assert counts["timers"] <= 2

    def test_zero_timeout_arms_no_timer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            armed = []
            call_at = loop.call_at

            def counted_call_at(*args, **kwargs):
                armed.append(args[0])
                return call_at(*args, **kwargs)

            loop.call_at = counted_call_at
            try:
                deadline = IdleDeadline(0.0)
                deadline.begin()
                deadline.end()
                deadline.cancel()
            finally:
                del loop.call_at
            return armed

        assert run(scenario()) == []

    def test_pending_read_is_reaped(self):
        timeout = 0.05

        async def scenario():
            loop = asyncio.get_running_loop()
            reader = asyncio.StreamReader()

            async def serve():
                deadline = IdleDeadline(timeout)
                await asyncio.sleep(0.08)  # busy, not reading: re-armed
                start = loop.time()
                outcome = await _guarded_read(reader, deadline)
                deadline.cancel()
                return outcome, loop.time() - start

            return await asyncio.wait_for(loop.create_task(serve()), 5.0)

        outcome, elapsed = run(scenario())
        # Reaped by the deadline, not by the 5 s safety net.
        assert outcome == "reaped"
        assert timeout <= elapsed < 2.0

    def test_outside_cancellation_is_not_reaped(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            reader = asyncio.StreamReader()

            async def serve():
                deadline = IdleDeadline(30.0)
                try:
                    return await _guarded_read(reader, deadline)
                finally:
                    deadline.cancel()

            task = loop.create_task(serve())
            await asyncio.sleep(0)  # the read is now pending
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                return "cancelled"
            return "returned"

        assert run(scenario()) == "cancelled"

    def test_expiry_sticks_when_bytes_arrive_in_the_same_iteration(self):
        # One loop iteration runs I/O callbacks before expired timers,
        # so bytes can wake the pending read just before the deadline
        # fires.  The read must still end: a half head must not wait on
        # with no timer armed, and a whole head must not be served on a
        # connection whose deadline has passed.
        timeout = 30.0

        async def scenario(data):
            loop = asyncio.get_running_loop()
            reader = asyncio.StreamReader()
            made = loop.create_future()

            async def serve():
                deadline = IdleDeadline(timeout)
                made.set_result(deadline)
                try:
                    return await _guarded_read(reader, deadline)
                finally:
                    deadline.cancel()

            task = loop.create_task(serve())
            deadline = await made
            await asyncio.sleep(0)  # the read is now pending
            deadline.cancel()  # fire by hand, not from the real handle
            # The pending read has waited the whole timeout as of the
            # moment the handle fires.
            deadline._since = deadline._when - timeout

            def bytes_then_timer():
                reader.feed_data(data)
                deadline._fire()

            loop.call_soon(bytes_then_timer)
            return await asyncio.wait_for(task, 5.0)

        for data in (b"GET ", b"GET http://x.com/ HTTP/1.1\r\n\r\n"):
            assert run(scenario(data)) == "reaped"


async def _guarded_read(reader, deadline):
    """The proxy loop's guarded read: ``"reaped"`` on expiry, else the
    request."""
    deadline.begin()
    try:
        return await read_request(reader)
    except asyncio.CancelledError:
        if not deadline.reaped():
            raise
        return "reaped"
    finally:
        deadline.end()


class TestClientDriverKeepAlive:
    def test_driver_reuses_one_connection(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                driver = cluster.driver_for(0)
                for i in range(5):
                    await driver.fetch(f"http://dr.com/d{i}", size=128)
                await driver.close()
                return driver

        driver = run(scenario())
        assert driver.report.requests == 5
        assert driver.connections_opened == 1

    def test_non_keepalive_driver_opens_one_per_request(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                proxy = cluster.proxies[0]
                driver = ClientDriver(
                    proxy.config.host, proxy.http_port, keep_alive=False
                )
                for i in range(4):
                    await driver.fetch(f"http://nk.com/d{i}", size=128)
                return driver

        driver = run(scenario())
        assert driver.connections_opened == 4

    def test_driver_reconnects_after_server_cap(self):
        async def scenario():
            config = replace(BASE_CONFIG, max_requests_per_connection=2)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                driver = cluster.driver_for(0)
                for i in range(6):
                    await driver.fetch(f"http://rc.com/d{i}", size=128)
                await driver.close()
                return driver

        driver = run(scenario())
        assert driver.report.errors == 0
        # 6 requests at 2 per connection = 3 connections.
        assert driver.connections_opened == 3


class TestUpstreamPooling:
    def test_pool_reuse_across_sequential_misses(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                driver = cluster.driver_for(0)
                for i in range(6):  # distinct URLs: all origin fetches
                    await driver.fetch(f"http://pool.com/d{i}", size=128)
                await driver.close()
                return cluster.proxies[0]._pool.stats

        stats = run(scenario())
        # First miss opens the origin connection; the rest ride it.
        assert stats.created == 1
        assert stats.reused == 5

    def test_pool_disabled_opens_per_fetch(self):
        async def scenario():
            config = replace(BASE_CONFIG, pool_size=0)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                driver = cluster.driver_for(0)
                for i in range(4):
                    await driver.fetch(f"http://np.com/d{i}", size=128)
                await driver.close()
                proxy = cluster.proxies[0]
                return proxy._pool.stats, proxy.stats

        pool_stats, stats = run(scenario())
        assert pool_stats.created == 0  # pool bypassed entirely
        assert stats.origin_fetches == 4

    def test_stale_pooled_connection_is_retried(self):
        async def scenario():
            config = replace(BASE_CONFIG, pool_idle_timeout=30.0)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                driver = cluster.driver_for(0)
                await driver.fetch("http://st.com/d0", size=128)
                # Kill the pooled origin connection behind the pool's
                # back: the next fetch must fall back to a fresh socket.
                proxy = cluster.proxies[0]
                for conns in proxy._pool._idle.values():
                    for conn in conns:
                        conn.writer.transport.abort()
                await asyncio.sleep(0.05)
                body = await driver.fetch("http://st.com/d1", size=128)
                await driver.close()
                return body

        body = run(scenario())
        assert body == synth_body("http://st.com/d1", 128)


class TestCacheBehaviourEquivalence:
    def test_keepalive_matches_per_connection_cache_behaviour(self):
        """The keep-alive data plane must be bit-identical in cache
        terms: same hits, same remote hits, same ICP message counts as
        the one-connection-per-GET discipline (the acceptance bar for
        the rework)."""

        urls = [f"http://eq.com/d{i}" for i in range(30)]

        async def scenario(keep_alive: bool):
            base = BASE_CONFIG if keep_alive else replace(
                BASE_CONFIG, pool_size=0
            )
            async with ProxyCluster(
                num_proxies=3,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=base,
            ) as cluster:
                p0 = cluster.proxies[0]
                d0 = ClientDriver(
                    p0.config.host, p0.http_port, keep_alive=keep_alive
                )
                # Phase 1: populate proxy 0.
                for url in urls:
                    await d0.fetch(url, size=512)
                await d0.close()
                await asyncio.sleep(0.2)  # let DIRUPDATEs land
                # Phase 2: the same URLs via proxy 1 -> remote hits.
                p1 = cluster.proxies[1]
                d1 = ClientDriver(
                    p1.config.host, p1.http_port, keep_alive=keep_alive
                )
                sources = []
                for url in urls:
                    await d1.fetch(url, size=512)
                await d1.close()
                sources.append(dict(d1.report.cache_sources))
                return (
                    [
                        (
                            s.http_requests,
                            s.local_hits,
                            s.remote_hits,
                            s.icp_queries_sent,
                            s.icp_replies_sent,
                        )
                        for s in (p.stats for p in cluster.proxies)
                    ],
                    sources,
                )

        per_request = run(scenario(keep_alive=False))
        keepalive = run(scenario(keep_alive=True))
        assert keepalive == per_request
