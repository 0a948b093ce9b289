"""Forged-client tests: building, cookie injection, wire execution."""

import socket
import threading

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
    set_header,
)
from csrflab.transport import TcpTransport, read_http_message

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
    set_header(forged, "Cookie", "session_id=first")
    set_header(forged, "Cookie", "session_id=second")
    cookies = [h for h in forged.headers if h.name.lower() == "cookie"]
    assert [(h.name, h.value) for h in cookies] == [("Cookie", "session_id=second")]


def test_set_cookie_header_rejects_injection():
    forged = client.build(HttpMethod.GET, "http://a/")
    with pytest.raises(IllegalHeader):
        set_header(forged, "Cookie", "session_id=x\r\nX-Smuggled: 1")


def test_forged_pm_with_stolen_cookie(lab_server):
    server = lab_server()
    seed_users(server)
    cookie = wire_login(TcpTransport(), server.base_url())
    forged = client.build(
        HttpMethod.POST, f"{server.base_url()}/cgi-bin/Forum/new_pm.php", PM_PAIRS
    )
    set_header(forged, "Cookie", cookie)
    response = client.execute(forged)
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
    set_header(forged, "Cookie", cookie)
    assert client.execute(forged).status == 302
    assert len(server.app.posts) == 1


def test_forged_pm_without_cookie_is_401(lab_server):
    server = lab_server()
    seed_users(server)
    forged = client.build(
        HttpMethod.POST, f"{server.base_url()}/cgi-bin/Forum/new_pm.php", PM_PAIRS
    )
    assert client.execute(forged).status == 401
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
        set_header(forged, "Cookie", "session_id=stolen")
        client.execute(forged)
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
