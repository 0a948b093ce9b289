"""Forged-client tests: building, cookie injection, wire execution."""

import socket
import threading
import time

import pytest

from conftest import seed_users, wire_login
from csrflab import client
from csrflab.forum import DefenseMode
from csrflab.httpcore import (
    BadUrl,
    HttpMethod,
    IllegalHeader,
    get_header,
    serialize,
    with_header,
)
from csrflab import transport as transport_module
from csrflab.transport import (
    MAX_MESSAGE_PART,
    ConnectionFailed,
    TcpTransport,
    read_http_message,
    recv_until,
)

PM_PAIRS = [
    ("recip", "user1"),
    ("title", "WebViewAttackTitle"),
    ("message", "HttpAttackMessage"),
]


def test_build_post_encodes_pairs():
    forged = client.build(
        HttpMethod.POST, "http://127.0.0.1:8080/cgi-bin/Forum/new_pm.php", PM_PAIRS
    )
    assert forged.body == b"recip=user1&title=WebViewAttackTitle&message=HttpAttackMessage"
    assert get_header(forged, "Content-Type") == "application/x-www-form-urlencoded"
    assert get_header(forged, "Content-Length") == "62"


def test_build_get_without_body():
    forged = client.build(HttpMethod.GET, "http://127.0.0.1:8080/cgi-bin/Forum/index.php")
    assert forged.body == b""
    assert get_header(forged, "Content-Length") is None


def test_build_rejects_non_http():
    with pytest.raises(BadUrl):
        client.build(HttpMethod.POST, "ftp://x/", PM_PAIRS)


def test_set_cookie_header_overwrites():
    forged = client.build(HttpMethod.GET, "http://a/")
    forged = with_header(forged, "Cookie", "session_id=first")
    forged = with_header(forged, "Cookie", "session_id=second")
    cookies = [h for h in forged.headers if h.name.lower() == "cookie"]
    assert [(h.name, h.value) for h in cookies] == [("Cookie", "session_id=second")]


def test_set_cookie_header_rejects_injection():
    forged = client.build(HttpMethod.GET, "http://a/")
    with pytest.raises(IllegalHeader):
        with_header(forged, "Cookie", "session_id=x\r\nX-Smuggled: 1")


def test_forged_pm_with_stolen_cookie(lab_server):
    server = lab_server()
    seed_users(server)
    cookie = wire_login(TcpTransport(), server.base_url())
    forged = client.build(
        HttpMethod.POST, f"{server.base_url()}/cgi-bin/Forum/new_pm.php", PM_PAIRS
    )
    forged = with_header(forged, "Cookie", cookie)
    response = client.execute(forged, TcpTransport())
    assert response.status == 302
    post = server.app.posts[0]
    assert (post.sender, post.recipient, post.title) == ("sohini", "user1", "WebViewAttackTitle")


def test_forged_pm_bypasses_samesite(lab_server):
    # SameSite lives in the browser's attachment logic; a manually set
    # header never goes through it.
    server = lab_server(policy=DefenseMode.SAMESITE_STRICT)
    seed_users(server)
    cookie = wire_login(TcpTransport(), server.base_url())
    forged = client.build(
        HttpMethod.POST, f"{server.base_url()}/cgi-bin/Forum/new_pm.php", PM_PAIRS
    )
    forged = with_header(forged, "Cookie", cookie)
    assert client.execute(forged, TcpTransport()).status == 302
    assert len(server.app.posts) == 1


def test_forged_pm_without_cookie_is_401(lab_server):
    server = lab_server()
    seed_users(server)
    forged = client.build(
        HttpMethod.POST, f"{server.base_url()}/cgi-bin/Forum/new_pm.php", PM_PAIRS
    )
    assert client.execute(forged, TcpTransport()).status == 401
    assert server.app.posts == []


def test_execute_sends_exactly_the_built_headers():
    # Recording stub: capture the raw request bytes, answer minimally.
    captured = {}
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def serve_once():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            captured["raw"] = read_http_message(conn.recv)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")

    thread = threading.Thread(target=serve_once)
    thread.start()
    try:
        forged = client.build(HttpMethod.POST, f"http://127.0.0.1:{port}/x", [("a", "1")])
        forged = with_header(forged, "Cookie", "session_id=stolen")
        client.execute(forged, TcpTransport())
    finally:
        thread.join(timeout=5)
        listener.close()
    assert captured["raw"] == serialize(forged)
    header_block = captured["raw"].split(b"\r\n\r\n")[0].split(b"\r\n")[1:]
    assert header_block == [
        f"Host: 127.0.0.1:{port}".encode(),
        b"Content-Type: application/x-www-form-urlencoded",
        b"Connection: close",
        b"Content-Length: 3",
        b"Cookie: session_id=stolen",
    ]


def test_trickling_peer_is_cut_off_at_the_exchange_deadline(monkeypatch):
    # One byte every 100 ms never lets a single recv time out, so only a
    # deadline across the whole exchange ends it.
    monkeypatch.setattr(transport_module, "EXCHANGE_TIMEOUT", 0.3)
    response = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def trickle():
        conn, _ = listener.accept()
        with conn:
            try:
                for octet in response:
                    conn.sendall(bytes([octet]))
                    time.sleep(0.1)
            except OSError:
                pass  # the client hung up

    thread = threading.Thread(target=trickle)
    thread.start()
    started = time.monotonic()
    try:
        with pytest.raises(ConnectionFailed):
            TcpTransport().exchange("127.0.0.1", port, b"GET / HTTP/1.1\r\nHost: a\r\n\r\n")
        elapsed = time.monotonic() - started
    finally:
        listener.close()
        thread.join(timeout=10)
    assert elapsed < 1.0
    assert not thread.is_alive()


def test_a_recv_after_the_deadline_raises_at_once():
    # Whether the trickling peer above is cut off here or by a recv
    # timeout depends on the clock; this pins the check itself.
    left, right = socket.socketpair()
    with left, right:
        recv = recv_until(left, time.monotonic())
        with pytest.raises(TimeoutError, match="deadline passed"):
            recv(1)


@pytest.mark.parametrize(
    "response, error",
    [
        (b"x" * MAX_MESSAGE_PART, None),
        (b"x" * (MAX_MESSAGE_PART + 1), "head over the cap"),
        (b"x" * (MAX_MESSAGE_PART - 3) + b"\r\n\r\n", "head over the cap"),
        (b"x" * (MAX_MESSAGE_PART - 4) + b"\r\n\r\ny", None),
        # The body has no cap: the forum's /admin/state lists every post.
        (b"HTTP/1.1 200 OK\r\n\r\n" + b"x" * (2 * MAX_MESSAGE_PART + 1), None),
        (b"", "closed without a response"),
    ],
    ids=["cap-without-head-end", "past-cap-without-head-end", "head-ends-past-cap",
         "head-ends-at-cap", "long-body", "no-response"],
)
def test_a_response_head_is_read_up_to_the_cap(response, error):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def stream():
        conn, _ = listener.accept()
        with conn:
            try:
                while conn.recv(65536):
                    pass  # the request, to the client's half-close
                conn.sendall(response)
            except OSError:
                pass  # the client hung up

    request = b"GET / HTTP/1.1\r\nHost: a\r\n\r\n"
    thread = threading.Thread(target=stream)
    thread.start()
    try:
        if error is None:
            received = TcpTransport().exchange("127.0.0.1", port, request)
            assert received == response, f"{len(received)} of {len(response)} bytes"
        else:
            with pytest.raises(ConnectionFailed, match=error):
                TcpTransport().exchange("127.0.0.1", port, request)
    finally:
        listener.close()
        thread.join(timeout=10)
    assert not thread.is_alive()
