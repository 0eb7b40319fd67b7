"""Shared stdlib HTTP plumbing for the serving and metrics frontends.

The ``repro metrics --serve`` endpoint and the ``repro serve`` API both
need the same small server: route a handful of paths to handlers, speak
JSON (or Prometheus text), refuse oversized bodies, and shut down
cleanly on SIGINT/SIGTERM.  :class:`JsonHttpServer` packages that once,
on nothing but ``http.server`` — no third-party web stack.

A route is ``(method, compiled path regex, handler)``.  Handlers receive
the regex match and the decoded JSON body (``None`` for GET) and return
``(status, payload)`` or ``(status, payload, extra_headers)``; dict/list
payloads are JSON-encoded, strings pass through (used for the Prometheus
exposition).  A handler that declares a third parameter additionally
receives the parsed query string as ``{name: last value}`` (the telemetry
``/query`` endpoint reads ``?series=…&window=…`` this way; two-parameter
handlers never see query strings, so existing routes are untouched).
Handler exceptions become a 500 JSON error instead of a stack trace over
the socket.

The server binds ``port=0`` for an ephemeral port (tests, the crash-test
bench), runs in the background via :meth:`start` or in the foreground
via :meth:`serve_forever`, which installs graceful signal handlers —
in-flight requests finish, the listener closes, handlers are restored.

Connections are served by a leader/followers pool of persistent acceptor
threads: each blocks in ``accept()`` on the shared listener and serves
the connection it gets itself, so the steady-state request path starts
no thread and hands nothing between threads.  The last idle acceptor to
take a connection starts one more; an acceptor whose connection closes
while :data:`SPARE_ACCEPTORS` others are idle exits.  A held keep-alive
connection therefore ties up one thread, and the pool tracks the
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
from http.server import BaseHTTPRequestHandler
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

#: Idle acceptors the pool keeps parked in ``accept()``: one more than
#: this and a finishing acceptor exits instead of rejoining.
SPARE_ACCEPTORS = 2

#: How long :meth:`JsonHttpServer.close` waits for acceptors to finish.
_CLOSE_JOIN_S = 2.0


def _encode_json(payload) -> bytes:
    """Sorted-key JSON; non-finite floats become ``null`` via :func:`_sanitize`,
    which only runs when the strict encoder refuses one."""
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_sanitize(payload), sort_keys=True)
    return text.encode("utf-8")


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
        quiet: bool = True,
    ) -> None:
        if max_body_bytes <= 0:
            raise ServingError("max_body_bytes must be positive")
        self.routes = list(routes)
        self.max_body_bytes = max_body_bytes
        self._route_wants_query = [
            _wants_query(handler) for _method, _pattern, handler in self.routes
        ]
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Replies are one write, but the stdlib's own error replies
            # (bad request line, unsupported method) still send headers
            # and body separately; without TCP_NODELAY a kept-alive client
            # would wait out Nagle plus delayed ACK on those.
            disable_nagle_algorithm = True

            def log_message(self, *args):  # noqa: D102 - stdlib hook
                if not quiet:  # pragma: no cover - manual debugging aid
                    BaseHTTPRequestHandler.log_message(self, *args)

            def _reply(self, status, payload, headers=None):
                if isinstance(payload, (dict, list)):
                    body = _encode_json(payload)
                    content_type = JSON_CONTENT_TYPE
                elif isinstance(payload, str):
                    body = payload.encode("utf-8")
                    content_type = (headers or {}).pop(
                        "Content-Type", PROMETHEUS_CONTENT_TYPE
                    )
                else:
                    body = bytes(payload)
                    content_type = (headers or {}).pop(
                        "Content-Type", "application/octet-stream"
                    )
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, str(value))
                if self.request_version == "HTTP/0.9":  # no status/headers
                    self.wfile.write(body)
                    return
                # ``end_headers`` plus the body in the stdlib's header
                # buffer: the whole reply leaves in one write.
                self._headers_buffer.extend((b"\r\n", body))
                self.flush_headers()

            def _read_body(self):
                length = self.headers.get("Content-Length")
                if length is None:
                    return None, (411, {"error": "Content-Length required"})
                try:
                    length = int(length)
                except ValueError:
                    length = -1
                if length < 0:  # rfile.read(-1) would block until EOF
                    return None, (400, {"error": "bad Content-Length"})
                if length > outer.max_body_bytes:
                    return None, (
                        413,
                        {
                            "error": "request body too large",
                            "max_body_bytes": outer.max_body_bytes,
                        },
                    )
                raw = self.rfile.read(length)
                if not raw:
                    return {}, None
                try:
                    return json.loads(raw.decode("utf-8")), None
                except (ValueError, UnicodeDecodeError):
                    return None, (400, {"error": "body is not valid JSON"})

            def _dispatch(self, method):
                path, _, query_string = self.path.partition("?")
                for index, (route_method, pattern, handler) in enumerate(
                    outer.routes
                ):
                    if route_method != method:
                        continue
                    match = pattern.match(path)
                    if match is None:
                        continue
                    body = None
                    if method == "POST":
                        body, error = self._read_body()
                        if error is not None:
                            self._reply(*error)
                            return
                    args = [match, body]
                    if outer._route_wants_query[index]:
                        args.append(
                            {
                                name: values[-1]
                                for name, values in parse_qs(
                                    query_string, keep_blank_values=True
                                ).items()
                            }
                        )
                    try:
                        result = handler(*args)
                    except Exception as exc:  # never leak a traceback
                        self._reply(
                            500,
                            {"error": f"{type(exc).__name__}: {exc}"},
                        )
                        return
                    self._reply(*result)
                    return
                self._reply(404, {"error": f"no route for {method} {path}"})

            def do_GET(self):
                self._dispatch("GET")

            def do_POST(self):
                self._dispatch("POST")

        self._handler = Handler
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
            connection, address = self._listener.accept()
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
            self._handler(connection, address, self)
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
                and self._idle < SPARE_ACCEPTORS
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
