"""Tests for the prototype's HTTP subset."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ProtocolError
from repro.proxy.http import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    parse_content_length,
    read_body,
    read_request,
    read_response,
    response_head,
    stream_body,
    synth_body,
    write_request,
    write_response,
)


class _Writer:
    """A StreamWriter stand-in that accumulates bytes."""

    def __init__(self) -> None:
        self.data = b""

    def write(self, data) -> None:
        self.data += bytes(data)  # accepts bytes and memoryview slices


async def _parse(parser, data: bytes):
    # The StreamReader must be created inside the running loop.
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return await parser(reader)


def parse_request(data: bytes):
    return asyncio.run(_parse(read_request, data))


def parse_response(data: bytes):
    return asyncio.run(_parse(read_response, data))


class TestRequests:
    def test_write_read_roundtrip(self):
        writer = _Writer()
        write_request(
            writer,
            "http://a.com/x",
            headers={"X-Size": "123", "X-Only-If-Cached": "1"},
        )
        request = parse_request(writer.data)
        assert request.url == "http://a.com/x"
        assert request.header("x-size") == "123"
        assert request.header("X-ONLY-IF-CACHED") == "1"
        assert request.header("missing", "dflt") == "dflt"

    def test_rejects_post(self):
        data = b"POST /x HTTP/1.0\r\n\r\n"
        with pytest.raises(ProtocolError, match="request line"):
            parse_request(data)

    def test_rejects_truncated(self):
        with pytest.raises(ProtocolError):
            parse_request(b"GET /x HTTP/1.0\r\n")

    def test_rejects_malformed_header(self):
        data = b"GET /x HTTP/1.0\r\nbadheader\r\n\r\n"
        with pytest.raises(ProtocolError, match="header"):
            parse_request(data)


class TestResponses:
    def test_write_read_roundtrip(self):
        writer = _Writer()
        write_response(
            writer, 200, b"hello", headers={"X-Cache": "HIT"}
        )
        response = parse_response(writer.data)
        assert response.status == 200
        assert response.body == b"hello"
        assert response.header("x-cache") == "HIT"
        assert response.header("content-length") == "5"

    def test_empty_body(self):
        writer = _Writer()
        write_response(writer, 504)
        response = parse_response(writer.data)
        assert response.status == 504
        assert response.body == b""

    def test_unknown_status_gets_reason(self):
        writer = _Writer()
        write_response(writer, 418)
        assert b"418 Unknown" in writer.data

    def test_rejects_bad_status_line(self):
        with pytest.raises(ProtocolError, match="status"):
            parse_response(b"NOPE\r\n\r\n")

    def test_rejects_bad_content_length(self):
        data = b"HTTP/1.0 200 OK\r\nContent-Length: x\r\n\r\n"
        with pytest.raises(ProtocolError, match="Content-Length"):
            parse_response(data)

    def test_rejects_non_numeric_status(self):
        with pytest.raises(ProtocolError):
            parse_response(b"HTTP/1.0 abc OK\r\n\r\n")


class TestFramingValidation:
    """Satellite of the keep-alive rework: strict body framing."""

    def test_negative_content_length_rejected(self):
        with pytest.raises(ProtocolError, match="negative"):
            parse_content_length({"content-length": "-5"})

    def test_non_numeric_content_length_rejected(self):
        for bad in ("x", "1e3", "0x10", " ", "+-1"):
            with pytest.raises(ProtocolError, match="Content-Length"):
                parse_content_length({"content-length": bad})

    def test_oversized_content_length_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds limit"):
            parse_content_length(
                {"content-length": str(MAX_BODY_BYTES + 1)}
            )

    def test_absent_content_length_is_zero(self):
        assert parse_content_length({}) == 0

    def test_response_with_negative_length_rejected(self):
        data = b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"
        with pytest.raises(ProtocolError, match="negative"):
            parse_response(data)

    def test_oversized_head_rejected(self):
        # Above MAX_HEAD_BYTES but below the 64 KiB stream limit, so
        # the explicit head cap (not the stream limit) fires.
        padding = b"a" * (MAX_HEAD_BYTES + 1024)
        data = b"GET /x HTTP/1.1\r\nX-Pad: " + padding + b"\r\n\r\n"
        with pytest.raises(ProtocolError, match="size limit"):
            parse_request(data)

    def test_body_truncation_rejected(self):
        data = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"
        with pytest.raises(ProtocolError, match="mid-body"):
            parse_response(data)

    def test_read_body_chunked_reassembly(self):
        async def scenario():
            reader = asyncio.StreamReader()
            payload = synth_body("u", 10_000)
            reader.feed_data(payload)
            reader.feed_eof()
            body = await read_body(reader, len(payload), chunk_size=512)
            return payload, body

        payload, body = asyncio.run(scenario())
        assert body == payload


class TestKeepAliveSemantics:
    def test_http11_defaults_to_keep_alive(self):
        request = parse_request(b"GET /x HTTP/1.1\r\n\r\n")
        assert request.keep_alive

    def test_http11_close_honoured(self):
        request = parse_request(
            b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive

    def test_http10_defaults_to_close(self):
        request = parse_request(b"GET /x HTTP/1.0\r\n\r\n")
        assert not request.keep_alive

    def test_http10_explicit_keep_alive(self):
        request = parse_request(
            b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        )
        assert request.keep_alive

    def test_clean_eof_returns_none(self):
        # An empty stream is a finished keep-alive conversation, not an
        # error.
        assert parse_request(b"") is None

    def test_write_request_emits_connection_header(self):
        writer = _Writer()
        write_request(writer, "/x", keep_alive=True)
        assert b"Connection: keep-alive\r\n" in writer.data
        writer = _Writer()
        write_request(writer, "/x", keep_alive=False)
        assert b"Connection: close\r\n" in writer.data


class _FakeTransport:
    """Reports a configurable write-buffer size."""

    def __init__(self, sizes):
        self._sizes = list(sizes)

    def get_write_buffer_size(self):
        return self._sizes.pop(0) if self._sizes else 0


class _StreamWriterStub(_Writer):
    def __init__(self, buffer_sizes=()):
        super().__init__()
        self.transport = _FakeTransport(buffer_sizes)
        self.drains = 0

    async def drain(self):
        self.drains += 1


class TestStreamBody:
    def test_streams_all_bytes_without_backpressure(self):
        writer = _StreamWriterStub()
        body = synth_body("s", 200_000)
        waits = asyncio.run(stream_body(writer, body, chunk_size=4096))
        assert writer.data == body
        assert waits == 0
        assert writer.drains == 0

    def test_drains_when_buffer_exceeds_ceiling(self):
        # Buffer reports over-ceiling on the first two chunks.
        writer = _StreamWriterStub(buffer_sizes=[300_000, 300_000, 0])
        body = synth_body("s", 3 * 4096)
        waits = asyncio.run(
            stream_body(
                writer, body, chunk_size=4096, max_inflight=256 * 1024
            )
        )
        assert writer.data == body
        assert waits == 2
        assert writer.drains == 2


class _RecordingWriter(_StreamWriterStub):
    """Logs every write (its bytes) and every drain, in order."""

    def __init__(self, buffer_sizes=()):
        super().__init__(buffer_sizes)
        self.log = []

    def write(self, data) -> None:
        super().write(data)
        self.log.append(bytes(data))

    async def drain(self):
        await super().drain()
        self.log.append("drain")


def _stream(body, head, chunk_size=4096, buffer_sizes=()):
    writer = _RecordingWriter(buffer_sizes)
    waits = asyncio.run(
        stream_body(
            writer,
            body,
            chunk_size=chunk_size,
            max_inflight=256 * 1024,
            head=head,
        )
    )
    return writer, waits


def _head(size):
    return response_head(200, size, {"X-Cache": "HIT"}, keep_alive=True)


class TestStreamBodyWrites:
    """The head rides with the first chunk: one send per short response."""

    @pytest.mark.parametrize("size", [0, 1, 1000, 4096])
    def test_head_and_body_within_a_chunk_is_one_write(self, size):
        body = synth_body("w", size)
        writer, waits = _stream(body, _head(size))
        assert writer.log == [_head(size) + body]
        assert waits == 0

    def test_longer_body_writes_head_with_first_chunk_then_slices(self):
        body = synth_body("w", 3 * 4096 + 100)
        writer, _ = _stream(body, _head(len(body)))
        assert writer.log == [
            _head(len(body)) + body[:4096],
            body[4096:8192],
            body[8192:12288],
            body[12288:],
        ]

    @pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 8192, 50_000])
    @pytest.mark.parametrize("chunk_size", [1, 1000, 4096])
    def test_bytes_reassemble_into_the_response(self, size, chunk_size):
        body = synth_body("r", size)
        writer, _ = _stream(body, _head(size), chunk_size=chunk_size)
        assert writer.data == _head(size) + body
        assert len(writer.log) == max(1, -(-size // chunk_size))
        assert parse_response(writer.data).body == body

    def test_no_head_and_empty_body_writes_nothing(self):
        writer, waits = _stream(b"", b"")
        assert writer.log == []
        assert waits == 0

    def test_drains_after_each_write_above_max_inflight(self):
        # Over the ceiling after the first (head) write and the third.
        body = synth_body("s", 3 * 4096)
        head = _head(len(body))
        writer, waits = _stream(
            body, head, buffer_sizes=[300_000, 0, 300_000]
        )
        assert writer.log == [
            head + body[:4096],
            "drain",
            body[4096:8192],
            body[8192:],
            "drain",
        ]
        assert waits == 2
        assert writer.drains == 2


class TestSynthBody:
    def test_exact_size(self):
        assert len(synth_body("http://a.com/x", 1000)) == 1000

    def test_deterministic_per_url(self):
        assert synth_body("u", 64) == synth_body("u", 64)
        assert synth_body("u", 64) != synth_body("v", 64)

    def test_zero_and_negative(self):
        assert synth_body("u", 0) == b""
        assert synth_body("u", -5) == b""
