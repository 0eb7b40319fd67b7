"""Shared HTTP plumbing for the serving and metrics frontends.

The ``repro metrics --serve`` endpoint and the ``repro serve`` API both
need the same small server: route a handful of paths to handlers, speak
JSON (or Prometheus text), refuse oversized bodies, and shut down
cleanly on SIGINT/SIGTERM.  :class:`JsonHttpServer` packages that once,
on nothing but sockets and threads — no web stack, not even
``http.server``.

A route is ``(method, compiled path regex, handler)``.  Handlers receive
the regex match and the decoded JSON body (``None`` for GET) and return
``(status, payload)`` or ``(status, payload, extra_headers)``; dict/list
payloads are JSON-encoded, strings pass through (used for the Prometheus
exposition).  A handler that declares a third parameter additionally
receives the parsed query string as ``{name: last value}`` (the telemetry
``/query`` endpoint reads ``?series=…&window=…`` this way; two-parameter
handlers never see query strings, so existing routes are untouched).
Handler exceptions become a 500 JSON error instead of a stack trace over
the socket.  The route list is read on every request, so a caller may
swap a route in place while serving.

Each connection is read by a minimal HTTP/1.1 reader.  It accepts:

- a request line ``METHOD target HTTP/x.y`` (blank lines before it are
  skipped), header lines ``Name: value`` ending in CRLF or a bare LF,
  gathered into a dict with lower-case names (repeats joined by ``, ``);
- a body framed by ``Content-Length`` (repeated identical values count
  as one), read in full before the handler runs;
- keep-alive (the HTTP/1.1 default; HTTP/1.0 with
  ``Connection: keep-alive``), ``Connection: close``, pipelined requests
  (answered in order) and ``Expect: 100-continue`` (the interim 100 is
  sent only when a body will be read and has not arrived yet).

It refuses, each with a JSON ``{"error"}`` body:

- a request line that is not three words, or a version that is not
  ``HTTP/<digits>.<digits>``: 400, then close;
- a request line over :data:`MAX_LINE_BYTES`: 414, then close;
- a header block over :data:`MAX_HEADER_BYTES` or with more than
  :data:`MAX_HEADERS` lines: 431, then close;
- a header line without a name and colon, or with whitespace around
  the name (folded lines included): 400, then close;
- HTTP/2.0 or later: 505, then close; a method other than GET and POST:
  501, then close;
- a stream that ends inside a head or a body: 400, then close;
- no route for the method and path: 404;
- on a POST route: ``Transfer-Encoding`` (chunked bodies are not read)
  or no ``Content-Length``: 411; a ``Content-Length`` that is not
  digits, or repeated with different values: 400; one above
  ``max_body_bytes``: 413; a body that is not strict JSON (``NaN`` and
  ``Infinity`` included): 400.

A request whose declared body is left unread (every refusal above that
happens before the body is read, and a GET that carries one) is
answered with ``Connection: close`` and ends the connection, so its
bytes are never read as a next request.

The server binds ``port=0`` for an ephemeral port (tests, the crash-test
bench), runs in the background via :meth:`start` or in the foreground
via :meth:`serve_forever`, which installs graceful signal handlers —
in-flight requests finish, the listener closes, handlers are restored.

Connections are served by a leader/followers pool of persistent acceptor
threads: each blocks in ``accept()`` on the shared listener and serves
the connection it gets itself, so the steady-state request path starts
no thread and hands nothing between threads.  The last idle acceptor to
take a connection starts one more; an acceptor whose connection closes
while more than :data:`SPARE_ACCEPTORS` others are idle exits, so two
clients whose connections overlap settle on a fixed set of threads.  A
held keep-alive connection ties up one thread, and the pool tracks the
concurrency it is offered.  Each reply leaves in one write.
"""

from __future__ import annotations

import inspect
import json
import re
import signal
import socket
import threading
import time
from http import HTTPStatus
from typing import Callable
from urllib.parse import parse_qs

from repro.errors import ServingError

__all__ = [
    "JSON_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "JsonHttpServer",
    "Route",
]

JSON_CONTENT_TYPE = "application/json; charset=utf-8"
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``(method, path pattern, handler(match, body) -> (status, payload[, headers]))``
Route = tuple[str, re.Pattern, Callable]

#: Default ceiling on request bodies: far above any sane submit payload,
#: far below anything that could exhaust memory.
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Longest request line (414 beyond), longest header block after it and
#: most header lines (431 beyond either).
MAX_LINE_BYTES = 1 << 16
MAX_HEADER_BYTES = 1 << 16
MAX_HEADERS = 100

#: Idle acceptors the pool keeps parked in ``accept()``: with more than
#: this idle, a finishing acceptor exits instead of rejoining.
SPARE_ACCEPTORS = 2

#: How long :meth:`JsonHttpServer.close` waits for acceptors to finish.
_CLOSE_JOIN_S = 2.0

_METHODS = frozenset({"GET", "POST"})
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_RECV_BYTES = 1 << 16
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _Refusal(Exception):
    """A request the reader answers with ``status`` and then closes on."""

    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status = status
        self.error = error


def _send(connection: socket.socket, data: bytes) -> None:
    """Every byte the server writes goes through here, one call per reply."""
    connection.sendall(data)


def _encode_json(payload) -> bytes:
    """Sorted-key JSON; non-finite floats become ``null`` via :func:`_sanitize`,
    which only runs when the strict encoder refuses one."""
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_sanitize(payload), sort_keys=True)
    return text.encode("utf-8")


def _refuse_constant(name: str):
    """``json.loads`` hook: strict JSON, as the replies, has no NaN/Infinity."""
    raise ValueError(f"{name} is not JSON")


def _sanitize(obj):
    """JSON-safe copy: non-finite floats become ``None`` (strict JSON has
    no NaN/Infinity, and clients should not have to parse them)."""
    if isinstance(obj, float):
        return obj if obj == obj and abs(obj) != float("inf") else None
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    return obj


def _render(status, payload, headers=None, *, close=False) -> bytes:
    """One whole reply: status line, headers and body."""
    if isinstance(payload, (dict, list)):
        body = _encode_json(payload)
        content_type = JSON_CONTENT_TYPE
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = PROMETHEUS_CONTENT_TYPE
    else:
        body = bytes(payload)
        content_type = "application/octet-stream"
    extra = ""
    for name, value in (headers or {}).items():
        if name.lower() == "content-type":
            content_type = value
        else:
            extra += f"{name}: {value}\r\n"
    if close:
        extra += "Connection: close\r\n"
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n{extra}\r\n"
    ).encode("latin-1") + body


def _head_end(buffer: bytes, start: int) -> int:
    """Index just past the blank line ending the head, or -1."""
    crlf = buffer.find(b"\n\r\n", start)
    lf = buffer.find(b"\n\n", start)
    if lf < 0:
        return crlf + 3 if crlf >= 0 else -1
    if 0 <= crlf < lf:
        return crlf + 3
    return lf + 2


def _read_head(connection: socket.socket, buffer: bytes):
    """Read through the blank line that ends a request head.

    Returns ``(head, rest)``; ``head`` is empty when the peer ends the
    stream between requests.  Blank lines before a request line are
    skipped.
    """
    scanned = 0
    while True:
        if buffer[:1] in (b"\r", b"\n"):
            buffer = buffer.lstrip(b"\r\n")
            scanned = 0
        end = _head_end(buffer, scanned)
        head = buffer if end < 0 else buffer[:end]
        if len(head) > MAX_LINE_BYTES:
            line_end = head.find(b"\n", 0, MAX_LINE_BYTES + 1)
            if line_end < 0:
                raise _Refusal(414, "request line too long")
            if len(head) - line_end > MAX_HEADER_BYTES:
                raise _Refusal(431, "request header block too large")
        if end >= 0:
            return head, buffer[end:]
        scanned = max(0, len(buffer) - 2)
        chunk = connection.recv(_RECV_BYTES)
        if not chunk:
            if buffer:
                raise _Refusal(400, "request head cut short")
            return b"", b""
        buffer += chunk


def _version_part(text: str) -> bool:
    return text.isascii() and text.isdigit() and len(text) <= 10


def _parse_head(head: bytes):
    """``(method, target, headers, keep_alive, expect_continue)``."""
    lines = head.decode("latin-1").split("\n")
    request_line = lines[0].rstrip("\r")
    words = request_line.split()
    if len(words) != 3:
        raise _Refusal(400, f"bad request line {request_line[:80]!r}")
    method, target, version = words
    major, dot, minor = version[5:].partition(".")
    if not (
        version.startswith("HTTP/")
        and dot
        and _version_part(major)
        and _version_part(minor)
    ):
        raise _Refusal(400, f"bad HTTP version {version[:80]!r}")
    http11 = (int(major), int(minor)) >= (1, 1)
    if int(major) >= 2:
        raise _Refusal(505, f"HTTP version {version!r} is not supported")
    if method not in _METHODS:
        raise _Refusal(501, f"unsupported method {method[:80]!r}")
    headers: dict[str, str] = {}
    count = 0
    for line in lines[1:]:
        line = line.rstrip("\r")
        if not line:
            continue  # the blank line that ends the head
        count += 1
        if count > MAX_HEADERS:
            raise _Refusal(431, f"more than {MAX_HEADERS} headers")
        name, colon, value = line.partition(":")
        if not colon or not name or name[0] in " \t" or name[-1] in " \t":
            raise _Refusal(400, f"bad header line {line[:80]!r}")
        name = name.lower()
        value = value.strip()
        known = headers.get(name)
        headers[name] = value if known is None else f"{known}, {value}"
    connection = headers.get("connection")
    tokens = (
        ()
        if connection is None
        else {token.strip() for token in connection.lower().split(",")}
    )
    keep_alive = "close" not in tokens if http11 else "keep-alive" in tokens
    expect_continue = (
        http11 and headers.get("expect", "").lower() == "100-continue"
    )
    return method, target, headers, keep_alive, expect_continue


def _body_length(headers: dict):
    """``(declared body length or None, (status, error) or None)``."""
    if "transfer-encoding" in headers:
        return None, (411, "Content-Length required")
    declared = headers.get("content-length")
    if declared is None:
        return None, None
    values = {value.strip() for value in declared.split(",")}
    if len(values) > 1:
        return None, (400, "conflicting Content-Length")
    (value,) = values
    if not (value.isascii() and value.isdigit()):
        return None, (400, "bad Content-Length")
    return int(value), None


def _read_body(
    connection: socket.socket, buffer: bytes, length: int, expect_continue
):
    """``(body, rest)``, or ``(None, b"")`` when the stream ends first."""
    if len(buffer) < length:
        if expect_continue:
            _send(connection, _CONTINUE)
        chunks, have = [buffer], len(buffer)
        while have < length:
            chunk = connection.recv(max(_RECV_BYTES, length - have))
            if not chunk:
                return None, b""
            chunks.append(chunk)
            have += len(chunk)
        buffer = b"".join(chunks)
    return buffer[:length], buffer[length:]


def _wants_query(handler: Callable) -> bool:
    """Whether a route handler declares the third (query dict) parameter.

    Resolved once at server construction, so dispatch stays a plain
    positional call either way.  Unintrospectable callables (C-level,
    exotic partials) default to the classic two-parameter contract.
    """
    try:
        parameters = inspect.signature(handler).parameters.values()
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return False
    positional = [
        p
        for p in parameters
        if p.kind
        in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
    ]
    if any(
        p.kind == inspect.Parameter.VAR_POSITIONAL for p in parameters
    ):
        return True
    return len(positional) >= 3


class JsonHttpServer:
    """A small routed JSON/text HTTP server on the stdlib only."""

    def __init__(
        self,
        routes: list[Route],
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        if max_body_bytes <= 0:
            raise ServingError("max_body_bytes must be positive")
        self.routes = list(routes)
        self.max_body_bytes = max_body_bytes
        self._route_wants_query = [
            _wants_query(handler) for _method, _pattern, handler in self.routes
        ]
        self._listener = socket.create_server((host, port))
        self._address = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        #: Acceptors parked in ``accept()`` or on their way back to it.
        self._idle = 0
        self._acceptors: set[threading.Thread] = set()
        self._connections: set[socket.socket] = set()
        self._started = False
        self._closing = False
        self._closed = threading.Event()

    def _serve_connection(self, connection: socket.socket) -> None:
        """Answer requests on one connection until either side ends it."""
        # Replies are one write each, but a pipelined reply or one after
        # a 100 Continue would otherwise wait out Nagle plus delayed ACK.
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffer = b""
        keep_alive = True
        while keep_alive:
            try:
                head, buffer = _read_head(connection, buffer)
                if not head:
                    return
                request = _parse_head(head)
            except _Refusal as refusal:
                error = {"error": refusal.error}
                _send(connection, _render(refusal.status, error, close=True))
                return
            reply, keep_alive, buffer = self._answer(
                connection, buffer, *request
            )
            _send(connection, reply)

    def _answer(
        self, connection, buffer, method, target, headers, keep_alive,
        expect_continue,
    ):
        """``(reply, keep_alive, unread bytes)`` for one parsed head."""
        length, refusal = _body_length(headers)
        # A declared body left unread ends the connection: its bytes are
        # not the next request.
        unread = refusal is not None or bool(length)
        path, _, query_string = target.partition("?")
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        route = self._route(method, path)
        body = result = None
        if route is None:
            result = 404, {"error": f"no route for {method} {path}"}
        elif method == "POST":
            if refusal is None and length is None:
                refusal = 411, "Content-Length required"
            if refusal is not None:
                result = refusal[0], {"error": refusal[1]}
            elif length > self.max_body_bytes:
                result = 413, {
                    "error": "request body too large",
                    "max_body_bytes": self.max_body_bytes,
                }
            else:
                raw, buffer = _read_body(
                    connection, buffer, length, expect_continue
                )
                if raw is None:
                    result = 400, {"error": "request body cut short"}
                else:
                    unread = False
                    try:
                        text = raw.decode("utf-8") if raw else "{}"
                        body = json.loads(text, parse_constant=_refuse_constant)
                    except ValueError:
                        result = 400, {"error": "body is not valid JSON"}
        keep_alive = keep_alive and not unread
        if result is not None:
            return _render(*result, close=not keep_alive), keep_alive, buffer
        return (
            self._dispatch(route, body, query_string, not keep_alive),
            keep_alive,
            buffer,
        )

    def _route(self, method: str, path: str):
        """``(index, match, handler)`` of the first matching route, or None."""
        for index, (route_method, pattern, handler) in enumerate(self.routes):
            if route_method == method:
                match = pattern.match(path)
                if match is not None:
                    return index, match, handler
        return None

    def _dispatch(self, route, body, query_string: str, close: bool) -> bytes:
        """Call the route's handler positionally as ``(match, body[,
        query])`` and render its reply; an exception becomes a 500."""
        index, match, handler = route
        args = [match, body]
        if self._route_wants_query[index]:
            args.append(
                {
                    name: values[-1]
                    for name, values in parse_qs(
                        query_string, keep_blank_values=True
                    ).items()
                }
            )
        try:
            return _render(*handler(*args), close=close)
        except Exception as exc:  # never leak a traceback
            return _render(
                500, {"error": f"{type(exc).__name__}: {exc}"}, close=close
            )

    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        """The bound port (the real one, when constructed with 0)."""
        return self._address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "JsonHttpServer":
        """Serve from background acceptor threads (tests, embedders)."""
        with self._lock:
            if self._started:
                raise ServingError("server already started")
            self._started = True
            for _ in range(SPARE_ACCEPTORS):
                self._spawn_locked()
        return self

    def _spawn_locked(self) -> None:
        thread = threading.Thread(
            target=self._accept_loop, name="http-acceptor", daemon=True
        )
        self._acceptors.add(thread)
        self._idle += 1
        thread.start()

    def _accept_loop(self) -> None:
        try:
            while self._serve_next():
                pass
        finally:
            with self._lock:
                self._acceptors.discard(threading.current_thread())

    def _serve_next(self) -> bool:
        """Accept one connection and serve it to the end.

        Returns whether this acceptor rejoins the idle set.  An exception
        other than the peer's ``OSError`` propagates and ends the thread
        (the pool has already started a successor if it needed one).
        """
        try:
            connection, _address = self._listener.accept()
        except OSError:
            if not self._closing:  # transient (ECONNABORTED, EMFILE)
                time.sleep(0.01)
                return True
            with self._lock:
                self._idle -= 1
            return False
        with self._lock:
            self._idle -= 1
            if self._closing:  # answer what was sent, then end
                _shutdown(connection, socket.SHUT_RD)
            elif not self._idle:
                self._spawn_locked()
            self._connections.add(connection)
        try:
            self._serve_connection(connection)
        except OSError:
            pass  # the peer went away mid-exchange
        except BaseException:
            self._release(connection, rejoin=False)
            raise
        return self._release(connection, rejoin=True)

    def _release(self, connection: socket.socket, rejoin: bool) -> bool:
        """Leave or rejoin the idle set, then close the connection.

        Rejoining first means a client that saw this connection close
        and reconnects finds the acceptor already counted idle, so a
        sequential client never makes the pool start a thread.
        """
        with self._lock:
            self._connections.discard(connection)
            rejoin = (
                rejoin
                and not self._closing
                and self._idle <= SPARE_ACCEPTORS
            )
            if rejoin:
                self._idle += 1
        _shutdown(connection, socket.SHUT_WR)
        connection.close()
        return rejoin

    def serve_forever(
        self,
        install_signal_handlers: bool = True,
        on_signal: Callable[[], None] | None = None,
    ) -> None:
        """Serve in the foreground until SIGINT/SIGTERM or Ctrl-C.

        ``on_signal`` — when given — runs *before* the listener shuts
        down: the graceful-drain hook (``repro serve`` stops admission
        and flushes in-flight batches there).  The signal handler hands
        both to a helper thread; previous handlers are restored on exit.
        The acceptors are the ones :meth:`start` runs; this thread only
        waits for :meth:`close`.

        Refuses to run after :meth:`start`: the server is already
        serving in the background.
        """
        if self._started:
            raise ServingError(
                "serve_forever() after start(): already serving in the "
                "background"
            )
        previous = {}

        def drain_then_close():  # pragma: no cover - signal path
            if on_signal is not None:
                try:
                    on_signal()
                except Exception:
                    pass  # drain best-effort; the listener must still close
            self.close()

        def request_shutdown(_signum, _frame):  # pragma: no cover - signals
            threading.Thread(target=drain_then_close).start()

        if install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous[signum] = signal.signal(
                        signum, request_shutdown
                    )
                except ValueError:  # pragma: no cover - non-main thread
                    pass
        try:
            self.start()
            self._closed.wait()
        except KeyboardInterrupt:  # pragma: no cover - manual
            pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.close()

    def close(self) -> None:
        """Stop serving and release the listener (idempotent).

        Shutting the listener down wakes every acceptor parked in
        ``accept()``.  Shutting the read side of each open connection
        lets its in-flight request finish and ends a kept-alive
        connection at its next read.  Acceptors get
        :data:`_CLOSE_JOIN_S` in total to exit.
        """
        with self._lock:
            self._closing = True
            _shutdown(self._listener, socket.SHUT_RDWR)
            for connection in self._connections:
                _shutdown(connection, socket.SHUT_RD)
            acceptors = list(self._acceptors)
        deadline = time.monotonic() + _CLOSE_JOIN_S
        for thread in acceptors:
            if thread is not threading.current_thread():
                thread.join(max(0.0, deadline - time.monotonic()))
        self._listener.close()
        self._closed.set()

    def __enter__(self) -> "JsonHttpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def _shutdown(sock: socket.socket, how: int) -> None:
    try:
        sock.shutdown(how)
    except OSError:  # already closed, or the peer reset it
        pass
