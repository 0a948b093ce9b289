"""Wire-level server behavior: framing, concurrency, transports."""

import json
import socket
import threading

import pytest

from conftest import seed_users, wire_get, wire_login, wire_post
from csrflab.forum import DefenseMode, ForumApp
from csrflab.httpcore import HttpMethod, get_header, make_request, serialize
from csrflab.transport import ConnectionFailed, InProcessTransport, TcpTransport


def test_register_login_post_over_tcp(lab_server, transport):
    server = lab_server()
    base = server.base_url()
    assert (
        wire_post(
            transport,
            base,
            "/cgi-bin/Forum/register.php",
            [("username", "sohini"), ("password", "pw")],
        ).status
        == 302
    )
    wire_post(
        transport,
        base,
        "/cgi-bin/Forum/register.php",
        [("username", "user1"), ("password", "pw1")],
    )
    cookie = wire_login(transport, base)
    response = wire_post(
        transport,
        base,
        "/cgi-bin/Forum/new_pm.php",
        [("title", "t"), ("recip", "user1"), ("message", "m")],
        cookie=cookie,
    )
    assert response.status == 302
    assert len(server.app.posts) == 1


def test_index_served_concurrently(lab_server, transport):
    server = lab_server()
    seed_users(server)
    errors = []

    def fetch():
        try:
            response = wire_get(transport, server.base_url(), "/cgi-bin/Forum/index.php")
            assert response.status == 200
            assert b"<h1>Forum</h1>" in response.body
        except Exception as exc:  # noqa: BLE001 - collected for the main thread
            errors.append(exc)

    threads = [threading.Thread(target=fetch) for _ in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def test_garbage_bytes_get_400(lab_server):
    server = lab_server()
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(b"GET not-http\r\n\r\n")
        sock.shutdown(socket.SHUT_WR)
        data = sock.recv(65536)
    assert data.startswith(b"HTTP/1.1 400 ")


def test_server_reads_body_without_half_close(lab_server):
    # A client that keeps its write side open must still get an answer:
    # the server frames by Content-Length, not EOF.
    server = lab_server()
    seed_users(server)
    raw = serialize(
        make_request(
            HttpMethod.POST,
            f"{server.base_url()}/cgi-bin/Forum/login.php",
            body=b"username=sohini&password=pw",
            content_type="application/x-www-form-urlencoded",
        )
    )
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(raw)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    assert data.startswith(b"HTTP/1.1 302 ")


def test_in_process_transport_matches_tcp(lab_server):
    tcp_server = lab_server(seed=99)
    seed_users(tcp_server)
    app = ForumApp(seed=99)
    app.register("sohini", "pw")
    app.register("user1", "pw1")
    inproc = InProcessTransport(app)
    tcp = TcpTransport()

    script = [
        ("/cgi-bin/Forum/login.php", [("username", "sohini"), ("password", "pw")]),
        ("/cgi-bin/Forum/new_topic.php", [("title", "a"), ("message", "b")]),
    ]
    cookie_tcp = cookie_inproc = None
    for path, pairs in script:
        via_tcp = wire_post(tcp, tcp_server.base_url(), path, pairs, cookie=cookie_tcp)
        via_inproc = wire_post(
            inproc, f"http://127.0.0.1:{tcp_server.port}", path, pairs, cookie=cookie_inproc
        )
        assert (via_tcp.status, via_tcp.body) == (via_inproc.status, via_inproc.body)
        if get_header(via_tcp, "Set-Cookie"):
            cookie_tcp = get_header(via_tcp, "Set-Cookie").split(";")[0]
            cookie_inproc = get_header(via_inproc, "Set-Cookie").split(";")[0]
            assert cookie_tcp == cookie_inproc
    assert tcp_server.app.admin_state() == app.admin_state()


def test_assigned_app_serves_the_next_exchange(lab_server, transport):
    server = lab_server()
    seed_users(server)
    first = server.app
    fresh = ForumApp(policy=DefenseMode.CSRF_TOKEN, seed=5)
    server.app = fresh
    assert server.app is fresh
    response = wire_post(
        transport,
        server.base_url(),
        "/cgi-bin/Forum/register.php",
        [("username", "mallory"), ("password", "pw")],
    )
    assert response.status == 302
    assert list(fresh.users) == ["mallory"]
    assert list(first.users) == ["sohini", "user1"]


def test_host_alias_resolution(lab_server):
    server = lab_server()
    seed_users(server)
    aliased = TcpTransport(host_aliases={"forum.local": "127.0.0.1"})
    response = wire_get(
        aliased, f"http://forum.local:{server.port}", "/cgi-bin/Forum/index.php"
    )
    assert response.status == 200


def test_connection_failed_on_dead_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    with pytest.raises(ConnectionFailed):
        TcpTransport(timeout=0.5).exchange("127.0.0.1", dead_port, b"x")


def test_snapshot_written_on_stop(lab_server, tmp_path, transport):
    path = tmp_path / "state.json"
    server = lab_server(snapshot=str(path))
    seed_users(server)
    wire_login(transport, server.base_url())
    server.stop()
    doc = json.loads(path.read_text())
    assert [u["username"] for u in doc["users"]] == ["sohini", "user1"]
    assert len(doc["sessions"]) == 1


def test_snapshot_resumes_at_startup(lab_server, tmp_path, transport):
    path = tmp_path / "state.json"
    first = lab_server(seed=7, snapshot=str(path))
    seed_users(first)
    cookie_before = wire_login(transport, first.base_url())
    first.stop()

    # Same snapshot path: users and the token stream carry over, so the
    # next session id continues where the old server left off.
    resumed = lab_server(seed=7, snapshot=str(path))
    assert [u.username for u in resumed.app.users.values()] == ["sohini", "user1"]
    cookie_after = wire_login(transport, resumed.base_url())
    assert cookie_after != cookie_before

    # A fresh seed-7 server would have minted cookie_before's id first;
    # the resumed one must not reuse it.
    fresh = lab_server(seed=7)
    seed_users(fresh)
    assert wire_login(transport, fresh.base_url()) == cookie_before
