"""The server's HTTP/1.1 reader under raw byte streams.

A hypothesis fuzz writes streams of requests to a real socket — well
formed, truncated, pipelined, with broken request lines, odd methods and
versions, ``Transfer-Encoding``, ``Expect: 100-continue`` and every shape
of ``Content-Length`` (missing, negative, non-integer, oversized,
repeated, conflicting, disagreeing with the body) — and then half-closes
it.  Whatever it sent, the server must end the exchange within a timeout,
every reply must be a well-formed response with a JSON body, and it may
never send more replies than there were requests: a body read as the
next request would be one more.  Streams of clean requests must be
answered exactly, in order.  Fixed cases pin the status of each refusal.
"""

from __future__ import annotations

import json
import re
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import JsonHttpServer
from repro.serving.http import MAX_HEADERS, MAX_LINE_BYTES

MAX_BODY = 256
TIMEOUT_S = 5.0


def _echo(_match, body):
    return 200, {"echo": body}


def _greet(match, _body):
    return 200, {"hello": match.group("name")}


ROUTES = [
    ("POST", re.compile(r"/echo/?$"), _echo),
    ("GET", re.compile(r"/greet/(?P<name>\w+)/?$"), _greet),
]


@pytest.fixture(scope="module")
def server():
    with JsonHttpServer(ROUTES, max_body_bytes=MAX_BODY) as running:
        yield running


def exchange(server, data: bytes, half_close: bool = True) -> bytes:
    """Write ``data``, optionally half-close, and read until the server
    closes; a server that neither replies nor closes fails the test with
    ``TimeoutError``."""
    with socket.create_connection(
        (server.host, server.port), timeout=TIMEOUT_S
    ) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server refused early and closed: read its reply
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def parse_replies(stream: bytes) -> list[tuple[int, dict, object]]:
    """Split a reply stream into ``(status, headers, body)``; interim 100
    replies are dropped.  Fails on anything that is not a whole reply."""
    replies = []
    while stream:
        head, blank, stream = stream.partition(b"\r\n\r\n")
        assert blank, f"unterminated reply head {head[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers = {}
        for line in lines:
            name, _, value = line.partition(": ")
            headers[name.lower()] = value
        if status == "100":
            continue
        length = int(headers["content-length"])
        assert len(stream) >= length, "reply body cut short"
        body, stream = stream[:length], stream[length:]
        assert headers["content-type"].startswith("application/json")
        replies.append((int(status), headers, json.loads(body)))
    return replies


# -- the fuzz -----------------------------------------------------------------

_json_bodies = st.dictionaries(
    st.sampled_from(["a", "b", "workload"]),
    st.integers(-5, 5) | st.text(max_size=6),
    max_size=3,
).map(lambda value: json.dumps(value).encode())


@st.composite
def clean_requests(draw):
    """``(bytes, expected status, expected body, closes)``: a request
    whose reply the server must get exactly right."""
    connection = draw(st.sampled_from(["", "Connection: close\r\n"]))
    closes = bool(connection)
    if draw(st.booleans()):
        name = draw(st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True))
        data = f"GET /greet/{name} HTTP/1.1\r\nHost: x\r\n{connection}\r\n"
        return data.encode(), 200, {"hello": name}, closes
    body = draw(_json_bodies)
    data = (
        f"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}"
        f"\r\n{connection}\r\n"
    ).encode() + body
    return data, 200, {"echo": json.loads(body)}, closes


_request_lines = st.sampled_from([
    "GET /greet/x HTTP/1.1", "POST /echo HTTP/1.1", "GET /nope HTTP/1.1",
    "POST /nope HTTP/1.1", "GET //greet/y HTTP/1.1", "GET /greet/z HTTP/1.0",
    "PUT /echo HTTP/1.1", "get /greet/x HTTP/1.1", "GET /greet/x HTTP/2.0",
    "GET /greet/x HTTP/1", "GET /greet/x HTTX/1.1", "GET /greet/x",
    "GET", "", "GET  /greet/x  HTTP/1.1  extra", "\x00\xff garbage",
])
_length_headers = st.sampled_from([
    [], ["{n}"], ["{n}", "{n}"], ["{n}, {n}"], ["{n}", "{m}"], ["-1"],
    ["abc"], ["+{n}"], [""], ["{big}"], ["{short}"], ["{long}"],
])
_extra_headers = st.lists(st.sampled_from([
    "Host: x", "Connection: close", "Connection: keep-alive",
    "Expect: 100-continue", "Transfer-Encoding: chunked", "X-Empty:",
    " folded continuation", "no colon here", "Bad Name : 1",
]), max_size=3)


@st.composite
def any_request(draw):
    """Raw bytes of one request that may be malformed in any part."""
    line = draw(_request_lines)
    body = draw(_json_bodies | st.binary(max_size=12))
    n = len(body)
    values = {"n": n, "m": n + 3, "big": MAX_BODY + 1,
              "short": max(0, n - 1), "long": n + 4}
    headers = draw(_extra_headers) + [
        "Content-Length: " + value.format(**values)
        for value in draw(_length_headers)
    ]
    if not any(header.startswith(("Content-Length", "Transfer-Encoding"))
               for header in headers):
        body = b""  # undeclared bytes would be the next request
    headers = draw(st.permutations(headers))
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    head = newline.join([line, *headers, "", ""])
    return head.encode("latin-1") + body


@given(requests=st.lists(any_request(), min_size=1, max_size=4),
       cut=st.integers(0, 400))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_stream_ends_in_replies_or_a_close(server, requests, cut):
    stream = b"".join(requests)
    if cut and cut < len(stream):
        stream = stream[:cut]
    replies = parse_replies(exchange(server, stream))
    assert len(replies) <= len(requests)
    for status, _headers, body in replies:
        assert status in {200, 400, 404, 411, 413, 414, 431, 501, 505}
        if status != 200:
            assert set(body) >= {"error"}


@given(requests=st.lists(clean_requests(), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pipelined_clean_requests_are_answered_in_order(server, requests):
    """Up to the first ``Connection: close``, every request is answered,
    in order, and nothing after it is."""
    expected = []
    for _data, status, body, closes in requests:
        expected.append((status, body))
        if closes:
            break
    stream = b"".join(data for data, *_ in requests)
    replies = parse_replies(exchange(server, stream))
    assert [(status, body) for status, _, body in replies] == expected


# -- pinned cases --------------------------------------------------------------


def only_reply(server, data: bytes, half_close: bool = False):
    """The single reply to ``data``; the server must close after it."""
    replies = parse_replies(exchange(server, data, half_close))
    assert len(replies) == 1, replies
    return replies[0]


@pytest.mark.parametrize(
    ("request_bytes", "status"),
    [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /greet/x\r\n\r\n", 400),  # HTTP/0.9 is not served
        (b"GET /greet/x HTTP/1.1 extra\r\n\r\n", 400),
        (b"GET /greet/x HTTX/1.1\r\n\r\n", 400),
        (b"GET /greet/x HTTP/1.x\r\n\r\n", 400),
        (b"GET /greet/x HTTP/2.0\r\n\r\n", 505),
        (b"PUT /echo HTTP/1.1\r\n\r\n", 501),
        (b"get /greet/x HTTP/1.1\r\n\r\n", 501),
        (b"GET /greet/x HTTP/1.1\r\nno colon\r\n\r\n", 400),
        (b"GET /greet/x HTTP/1.1\r\nBad Name : 1\r\n\r\n", 400),
        (b"GET /greet/x HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n", 400),
        (b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /greet/x HTTP/1.1\r\nX: " + b"a" * MAX_LINE_BYTES
         + b"\r\n\r\n", 431),
        (b"GET /greet/x HTTP/1.1\r\n"
         + b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS + 1))
         + b"\r\n", 431),
    ],
)
def test_refusals_are_json_and_close(server, request_bytes, status):
    got, headers, body = only_reply(server, request_bytes)
    assert got == status
    assert headers["connection"] == "close"
    assert isinstance(body["error"], str) and body["error"]


def test_exactly_max_headers_are_accepted(server):
    request = (
        b"GET /greet/many HTTP/1.1\r\n"
        + b"".join(b"X-%d: 1\r\n" % i for i in range(MAX_HEADERS - 1))
        + b"Connection: close\r\n\r\n"
    )
    assert only_reply(server, request)[::2] == (200, {"hello": "many"})


def test_conflicting_content_length_is_400_and_closes(server):
    # The first value used to win: 2 bytes were read as the body and the
    # rest of it was parsed as the next request on the kept-alive
    # connection.
    body = b'{"a":1}'
    request = (
        b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
        b"Content-Length: 7\r\n\r\n" + body
    )
    status, headers, reply = only_reply(server, request)
    assert status == 400
    assert reply == {"error": "conflicting Content-Length"}
    assert headers["connection"] == "close"


def test_repeated_equal_content_length_is_one(server):
    body = b'{"a":1}'
    request = (
        b"POST /echo HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7\r\n"
        b"Connection: close\r\n\r\n" + body
    )
    assert only_reply(server, request)[::2] == (200, {"echo": {"a": 1}})


def test_transfer_encoding_is_not_read_as_a_length_body(server):
    request = (
        b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
        b"Content-Length: 7\r\n\r\n7\r\n{\"a\":1}\r\n0\r\n\r\n"
    )
    status, headers, reply = only_reply(server, request)
    assert status == 411
    assert reply == {"error": "Content-Length required"}
    assert headers["connection"] == "close"


@pytest.mark.parametrize(
    ("length", "status"), [("-1", 400), ("abc", 400), ("+7", 400),
                           (str(MAX_BODY + 1), 413)],
)
def test_unreadable_length_refuses_and_closes(server, length, status):
    request = (
        f"POST /echo HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
    ).encode() + b'{"a":1}'
    got, headers, _ = only_reply(server, request)
    assert got == status
    assert headers["connection"] == "close"


def test_get_with_a_body_is_answered_then_closed(server):
    # The body is not read, so it must not become the next request.
    request = (
        b"GET /greet/body HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
        b"GET /greet/next HTTP/1.1\r\n\r\n"
    )
    status, headers, body = only_reply(server, request)
    assert (status, body) == (200, {"hello": "body"})
    assert headers["connection"] == "close"


def test_unrouted_post_with_a_body_is_404_then_closed(server):
    request = b"POST /nope HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}"
    status, headers, _ = only_reply(server, request)
    assert status == 404
    assert headers["connection"] == "close"


def test_keep_alive_outlives_route_errors_without_a_body(server):
    request = (
        b"GET /nope HTTP/1.1\r\n\r\n"
        b"POST /echo HTTP/1.1\r\n\r\n"  # 411: nothing declared, nothing left
        b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\n{bad}"
        b"GET /greet/last HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    replies = parse_replies(exchange(server, request, half_close=False))
    assert [status for status, _, _ in replies] == [404, 411, 400, 200]


def test_expect_continue_gets_an_interim_100(server):
    with socket.create_connection(
        (server.host, server.port), timeout=TIMEOUT_S
    ) as sock:
        sock.sendall(
            b"POST /echo HTTP/1.1\r\nContent-Length: 7\r\n"
            b"Expect: 100-continue\r\nConnection: close\r\n\r\n"
        )
        assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(b'{"a":1}')
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    assert parse_replies(b"".join(chunks))[0][::2] == (200, {"echo": {"a": 1}})


def test_http_1_0_closes_unless_kept_alive(server):
    reply = only_reply(server, b"GET /greet/old HTTP/1.0\r\n\r\n")
    assert reply[::2] == (200, {"hello": "old"})
    replies = parse_replies(exchange(
        server,
        b"GET /greet/a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        b"GET /greet/b HTTP/1.0\r\n\r\n",
        half_close=False,
    ))
    assert [body for _, _, body in replies] == [{"hello": "a"}, {"hello": "b"}]


def test_blank_lines_and_bare_newlines_are_tolerated(server):
    request = b"\r\n\r\nGET /greet/lf HTTP/1.1\nConnection: close\n\n"
    assert only_reply(server, request)[::2] == (200, {"hello": "lf"})


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"GET /greet/x HTTP/1.1\r\nHost: x",  # head cut short
        b"POST /echo HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\"",  # body
    ],
)
def test_half_closed_truncated_request_is_400(server, request_bytes):
    status, headers, _ = only_reply(server, request_bytes, half_close=True)
    assert status == 400
    assert headers["connection"] == "close"


def test_half_closed_complete_request_is_answered(server):
    reply = only_reply(
        server, b"GET /greet/half HTTP/1.1\r\n\r\n", half_close=True
    )
    assert reply[::2] == (200, {"hello": "half"})


def test_server_still_serves_after_the_fuzz(server):
    reply = only_reply(
        server, b"GET /greet/alive HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    assert reply[::2] == (200, {"hello": "alive"})
