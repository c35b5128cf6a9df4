"""The HTTP/1.1-subset data plane the prototype speaks.

The proxies, the origin server, and the client drivers share this
module.  It implements the keep-alive streaming subset the benchmark
data plane needs (GETs only, ``Content-Length``-framed bodies):

- **Persistent connections.**  Requests and responses carry explicit
  ``Connection`` headers; a connection serves a request loop until one
  side sends ``Connection: close``, the idle timeout fires, or the
  stream ends.  Pipelined requests are answered strictly in order --
  the reader consumes one head at a time, so a client may write several
  requests back to back and the kernel/stream buffers bound the
  read-ahead.  The idle timeout reaps a read that has waited that long
  for a whole request head; :class:`IdleDeadline` enforces it with one
  timer per connection, not a ``wait_for`` per request, by cancelling
  the connection's task.
- **One write per response, streamed and bounded body I/O.**
  :func:`stream_body` sends the response head together with the first
  body chunk, so a body of at most one chunk costs one send; longer
  bodies continue as :class:`memoryview` slices over the cached
  ``bytes`` object, draining only when the transport's write buffer
  exceeds the caller's in-flight ceiling.  Bodies are read in
  bounded chunks into a preallocated buffer (:func:`read_body`), never
  through an unbounded ``reader.read()``/``readexactly()`` (lint rule
  SC001 enforces this for the whole proxy package).
- **Strict framing validation.**  Negative, non-numeric, or oversized
  ``Content-Length`` values and oversized heads raise
  :class:`~repro.errors.ProtocolError`, which the servers answer with
  a clean ``400`` -- never a traceback.

Extension headers (unchanged from the HTTP/1.0 prototype):

- ``X-Size`` on requests -- the trace-replay drivers carry the desired
  body size in the request (the paper's replay experiments do exactly
  this: "each request's URL carries the size of the request in the
  trace file, and the server replies with the specified number of
  bytes");
- ``X-Only-If-Cached`` on proxy-to-proxy fetches -- the serving peer
  must answer from cache or return 504, never recurse into its own
  cooperation logic;
- ``X-Cache`` on responses -- ``HIT``, ``REMOTE-HIT`` or ``MISS``, for
  the drivers' accounting;
- ``X-SC-Trace`` on requests and responses -- the distributed-tracing
  context (``<trace:08x>-<span:08x>``, see :mod:`repro.obs.spans`)
  propagated client -> proxy -> peer/origin; proxies echo it on
  responses so callers learn the trace their request joined.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Union

from repro.errors import ProtocolError

#: Upper bound on a request/response head, to bound memory per connection.
MAX_HEAD_BYTES = 16 * 1024

#: Upper bound on a ``Content-Length`` a proxy will accept from a peer
#: or origin (well above ``max_object_size``; a hard sanity ceiling so a
#: corrupt header cannot make ``read_body`` allocate gigabytes).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default chunk for streamed body reads and writes.
DEFAULT_CHUNK_BYTES = 64 * 1024

#: Default in-flight write ceiling before ``stream_body`` awaits
#: ``drain()`` (mirrors ``ProxyConfig.max_inflight_bytes``).
DEFAULT_MAX_INFLIGHT = 256 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    502: "Bad Gateway",
    504: "Gateway Timeout",
}


def _wants_keep_alive(version: str, headers: Dict[str, str]) -> bool:
    """HTTP/1.1 keep-alive semantics: persistent unless ``close``;
    HTTP/1.0 only with an explicit ``Connection: keep-alive``."""
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        return connection != "close"
    return connection == "keep-alive"


@dataclass
class HttpRequest:
    """A parsed GET request."""

    url: str
    headers: Dict[str, str] = field(default_factory=dict)
    version: str = "HTTP/1.1"

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked for a persistent connection."""
        return _wants_keep_alive(self.version, self.headers)


@dataclass
class HttpResponse:
    """A parsed response."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Whether the server will keep the connection open."""
        return _wants_keep_alive(self.version, self.headers)


async def _read_head(reader: asyncio.StreamReader) -> bytes:
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("HTTP head exceeds stream limit") from exc
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError("HTTP head exceeds size limit")
    return head


def _parse_headers(lines: Iterable[str]) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


def parse_content_length(
    headers: Dict[str, str], limit: int = MAX_BODY_BYTES
) -> int:
    """Validated body length from *headers* (0 when absent).

    Rejects non-numeric, negative, and absurdly large values with a
    :class:`ProtocolError` so servers answer ``400`` instead of letting
    ``int()``/``readexactly`` raise through the connection handler.
    """
    text = headers.get("content-length", "0")
    try:
        length = int(text)
    except ValueError as exc:
        raise ProtocolError(f"malformed Content-Length {text!r}") from exc
    if length < 0:
        raise ProtocolError(f"negative Content-Length {text!r}")
    if length > limit:
        raise ProtocolError(
            f"Content-Length {length} exceeds limit {limit}"
        )
    return length


async def read_body(
    reader: asyncio.StreamReader,
    length: int,
    chunk_size: int = DEFAULT_CHUNK_BYTES,
) -> bytes:
    """Read exactly *length* body bytes in bounded chunks.

    Fills a preallocated buffer through a memoryview so no chunk is
    copied twice, and never asks the reader for more than *chunk_size*
    bytes at a time.
    """
    if length <= 0:
        return b""
    buf = bytearray(length)
    view = memoryview(buf)
    offset = 0
    while offset < length:
        chunk = await reader.read(min(chunk_size, length - offset))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-body ({offset}/{length} bytes)"
            )
        view[offset : offset + len(chunk)] = chunk
        offset += len(chunk)
    return bytes(buf)


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Read and parse one GET request.

    Returns ``None`` on a clean end of stream before any request bytes
    (the peer finished its keep-alive conversation); raises
    :class:`ProtocolError` on truncation mid-request or malformed data.
    """
    try:
        head = await _read_head(reader)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request") from exc
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or parts[0] != "GET":
        raise ProtocolError(f"unsupported request line {lines[0]!r}")
    return HttpRequest(
        url=parts[1], headers=_parse_headers(lines[1:]), version=parts[2]
    )


async def read_response(reader: asyncio.StreamReader) -> HttpResponse:
    """Read and parse one Content-Length-framed response."""
    try:
        head = await _read_head(reader)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-response") from exc
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError(f"malformed status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise ProtocolError(f"malformed status code {parts[1]!r}") from exc
    headers = _parse_headers(lines[1:])
    length = parse_content_length(headers)
    body = await read_body(reader, length)
    return HttpResponse(
        status=status, headers=headers, body=body, version=parts[0]
    )


def write_request(
    writer: asyncio.StreamWriter,
    url: str,
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = False,
) -> None:
    """Serialize one GET request onto *writer* (caller drains).

    Always emits an explicit ``Connection`` header so HTTP/1.0-era
    readers and the connection pool agree on the connection's fate.
    """
    head = [
        f"GET {url} HTTP/1.1",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    head.append("\r\n")
    writer.write("\r\n".join(head).encode("latin-1"))


def response_head(
    status: int,
    body_length: int,
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = False,
) -> bytes:
    """Serialized head for a *status* response framing *body_length*."""
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Length: {body_length}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    head.append("\r\n")
    return "\r\n".join(head).encode("latin-1")


def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = False,
) -> None:
    """Serialize one whole response onto *writer* in one write (caller
    drains).

    For bodies that may exceed a chunk, prefer :func:`stream_body` with
    ``head=response_head(...)``: it also makes one write for a body of
    at most one chunk, and bounds the write buffer for longer ones.
    """
    writer.write(response_head(status, len(body), headers, keep_alive) + body)


async def stream_body(
    writer: asyncio.StreamWriter,
    body: bytes,
    chunk_size: int = DEFAULT_CHUNK_BYTES,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    head: bytes = b"",
) -> int:
    """Write *head*, then stream *body* in slices with backpressure.

    A non-empty head travels in one write with (a copy of) the first
    *chunk_size* slice, so a response whose body fits one chunk costs
    one send.  Every other slice is a memoryview over the cached
    ``bytes`` object (no copies on the Python side).  After each
    write, ``drain()`` is awaited whenever the transport reports more
    than *max_inflight* unsent bytes, so one slow client cannot balloon
    the proxy's write buffers.  Returns the number of backpressure
    waits taken (the ``proxy_backpressure_waits_total`` increment).
    """
    waits = 0
    view = memoryview(body)
    transport = writer.transport
    offset = 0
    chunk: Union[bytes, memoryview] = view[:chunk_size]
    if head:
        chunk = head + chunk
    while chunk:
        writer.write(chunk)
        if transport.get_write_buffer_size() > max_inflight:
            waits += 1
            await writer.drain()
        offset += chunk_size
        chunk = view[offset : offset + chunk_size]
    return waits


class IdleDeadline:
    """A connection's idle timeout as one lazily re-armed timer.

    Wrapping every read in ``asyncio.wait_for`` costs a timer (and, on
    Python 3.11, a Task) per request.  Instead the task that serves the
    connection creates one deadline, which keeps one ``loop.call_at``
    handle, and brackets each read with :meth:`begin` and :meth:`end`.
    When the handle fires and the pending read has waited *timeout*
    seconds, the deadline cancels that task: the read ends with
    ``asyncio.CancelledError`` and :meth:`reaped` tells this from any
    other cancellation.  Otherwise the handle is re-armed for the
    earliest moment the pending (or next) read could expire, so a
    connection that keeps reading requests faster than *timeout* sees
    at most one timer callback per *timeout*.  A *timeout* of 0
    disables the deadline.

    Cancelling the task, not failing the reader, is what makes expiry
    stick: bytes that reach the reader in the same loop iteration as
    the timer wake the read first, and a reader exception set after
    that is seen by no read still waiting.
    """

    def __init__(self, timeout: float) -> None:
        self._timeout = timeout
        self._loop = asyncio.get_running_loop()
        self._task = asyncio.current_task()
        self._expired = False
        self._since: Optional[float] = None  # when the pending read began
        self._when = 0.0  # when the armed handle fires
        self._handle: Optional[asyncio.TimerHandle] = None
        if timeout > 0:
            self._arm(self._loop.time() + timeout)

    def begin(self) -> None:
        """Mark the start of a read that the deadline guards."""
        self._since = self._loop.time()

    def end(self) -> None:
        """Mark the read finished; the connection is busy, not idle."""
        self._since = None

    def cancel(self) -> None:
        """Drop the timer (the connection is closing)."""
        if self._handle is not None:
            self._handle.cancel()

    def reaped(self) -> bool:
        """Whether the deadline cancelled the task (the read timed out).

        Call it on ``asyncio.CancelledError``: when true, the deadline's
        cancellation is withdrawn (Python 3.11+ counts them) and the
        caller ends the connection; when false, re-raise.
        """
        if self._expired and self._task is not None:
            uncancel = getattr(self._task, "uncancel", None)
            if uncancel is not None:
                uncancel()
        return self._expired

    def _arm(self, when: float) -> None:
        self._when = when
        self._handle = self._loop.call_at(when, self._fire)

    def _fire(self) -> None:
        since = self._since
        if since is not None and since + self._timeout <= self._when:
            self._expired = True
            if self._task is not None:
                self._task.cancel()
            return
        start = self._loop.time() if since is None else since
        self._arm(start + self._timeout)


def synth_body(url: str, size: int) -> bytes:
    """Deterministic body bytes for *url* of exactly *size* bytes.

    Origin servers in the experiments serve synthetic content; making it
    a pure function of the URL lets tests verify end-to-end integrity of
    proxy-cached copies.
    """
    if size <= 0:
        return b""
    seed = (url.encode("utf-8") + b"|") * (size // (len(url) + 1) + 1)
    return seed[:size]
