"""Wire-level server behavior: framing, concurrency, transports."""

import json
import select
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import seed_users, wire_get, wire_login, wire_post
from csrflab.config import LabConfig
from csrflab.forum import DefenseMode, ForumApp
from csrflab.httpcore import HttpMethod, get_header, make_request, parse_response, serialize
from csrflab import server as server_module
from csrflab import transport as transport_module
from csrflab.server import WORKERS, ForumServer
from csrflab.transport import (
    MAX_MESSAGE_PART,
    ConnectionFailed,
    InProcessTransport,
    TcpTransport,
    read_http_message,
    recv_until,
)
from test_forum import _MUTATION, _app, _login, _mutate, _request, _valid_raw_requests


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


def test_connection_failed_on_dead_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    with pytest.raises(ConnectionFailed):
        TcpTransport().exchange("127.0.0.1", dead_port, b"x")


def test_connect_is_under_the_exchange_deadline(monkeypatch):
    monkeypatch.setattr(transport_module, "EXCHANGE_TIMEOUT", 0.3)
    outcome = []

    def exchange(port):
        started = time.monotonic()
        try:
            TcpTransport().exchange("127.0.0.1", port, b"GET / HTTP/1.1\r\nHost: a\r\n\r\n")
        except ConnectionFailed:
            outcome.append(time.monotonic() - started)

    # A listener that never accepts, its one-connection backlog taken:
    # the kernel leaves the next handshake unanswered.
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        port = listener.getsockname()[1]
        with socket.create_connection(("127.0.0.1", port), timeout=5):
            # A connect with no deadline would block for minutes; the
            # join bounds the test instead.
            thread = threading.Thread(target=exchange, args=(port,), daemon=True)
            thread.start()
            thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(outcome) == 1 and outcome[0] < 1.0


def test_a_host_name_reaches_a_lab_server(lab_server):
    server = lab_server()
    request = make_request(HttpMethod.GET, f"{server.base_url()}/cgi-bin/Forum/index.php")
    response = TcpTransport().exchange("localhost", server.port, serialize(request))
    assert parse_response(response).status == 200


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


def test_stop_answers_no_change_the_snapshot_lacks(tmp_path):
    path = tmp_path / "state.json"
    server = ForumServer(LabConfig(port=0, snapshot=str(path))).start()
    body = b"username=late&password=pw"
    head = (
        f"POST /cgi-bin/Forum/register.php HTTP/1.1\r\nHost: 127.0.0.1:{server.port}\r\n"
        f"Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(head)
        time.sleep(0.05)  # a worker holds the head and waits for the body
        server.stop()
        try:
            sock.sendall(body)
            data = sock.recv(65536)
        except (BrokenPipeError, ConnectionResetError):
            data = b""  # no worker had taken the connection yet
    # The register came after the snapshot was written: unanswered, and
    # not applied, so a restart loses nothing a client saw succeed.
    assert data == b""
    assert "late" not in server.app.users
    assert json.loads(path.read_text())["users"] == []


def _held_by_a_worker(server, sock, data):
    """Send data on sock, and return once a worker has taken sock."""
    sock.sendall(data)
    deadline = time.monotonic() + 5
    while len(server._idle) == WORKERS and time.monotonic() < deadline:
        time.sleep(0.001)
    assert len(server._idle) == WORKERS - 1


def test_a_request_completed_after_stop_is_closed_unanswered(tmp_path):
    # As above, but the worker surely holds the connection when stop()
    # runs: the request is read in full, then closed unanswered.
    path = tmp_path / "state.json"
    server = ForumServer(LabConfig(port=0, snapshot=str(path))).start()
    body = b"username=late&password=pw"
    head = (
        f"POST /cgi-bin/Forum/register.php HTTP/1.1\r\nHost: 127.0.0.1:{server.port}\r\n"
        f"Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        _held_by_a_worker(server, sock, head)
        server.stop()
        sock.sendall(body)
        assert sock.recv(65536) == b""
    assert "late" not in server.app.users
    assert json.loads(path.read_text())["users"] == []


def test_a_peer_that_sends_nothing_gets_nothing(lab_server, transport):
    server = lab_server()
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        _held_by_a_worker(server, sock, b"")
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(65536) == b""
    assert wire_get(transport, server.base_url(), "/cgi-bin/Forum/index.php").status == 200


# ------------------------------------------------------------ worker pool


def _pool_threads():
    return {t for t in threading.enumerate() if t.name == "csrf-lab-server"}


def test_pool_serves_more_connections_than_workers_on_a_fixed_set_of_threads(
    lab_server, transport
):
    before = set(threading.enumerate())
    server = lab_server()
    seed_users(server)
    for _ in range(50):
        assert wire_get(transport, server.base_url(), "/cgi-bin/Forum/index.php").status == 200

    cookie = wire_login(transport, server.base_url())
    statuses, seen = [], []
    gate = threading.Barrier(12)

    def post(n):
        gate.wait(timeout=5)
        response = wire_post(
            transport,
            server.base_url(),
            "/cgi-bin/Forum/new_topic.php",
            [("title", f"t{n}"), ("message", "m")],
            cookie=cookie,
        )
        statuses.append(response.status)
        seen.append(set(threading.enumerate()))

    clients = [threading.Thread(target=post, args=(n,)) for n in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=10)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert statuses == [302] * 12
    assert sorted(post.title for post in server.app.posts) == sorted(f"t{n}" for n in range(12))
    assert len({post.seq for post in server.app.posts}) == 12
    # Every thread the server ran while serving is one of its workers.
    server_threads = set().union(*seen) - before - set(clients)
    assert {t.name for t in server_threads} == {"csrf-lab-server"}
    assert len(server_threads) <= WORKERS
    assert len(_pool_threads() - before) <= WORKERS


def test_stop_right_after_start_and_twice():
    before = _pool_threads()
    server = ForumServer(LabConfig(port=0)).start()
    server.stop()
    server.stop()
    assert _pool_threads() - before == set()


def test_serve_blocking_returns_once_stopped(transport):
    before = _pool_threads()
    server = ForumServer(LabConfig(port=0))
    foreground = threading.Thread(target=server.serve_blocking, daemon=True)
    foreground.start()
    # stop() from another thread comes after start() has returned.
    deadline = time.monotonic() + 5
    while len(server._idle) < WORKERS and time.monotonic() < deadline:
        time.sleep(0.001)
    assert wire_get(transport, server.base_url(), "/cgi-bin/Forum/index.php").status == 200
    server.stop()
    foreground.join(timeout=5)
    assert not foreground.is_alive()
    assert _pool_threads() - before == set()


class _SlowListener:
    """The server's listening socket, with a pause after accept() returns
    a connection, or after it fails once the socket is shut down."""

    def __init__(self, sock, after_accept=0.0, after_failure=0.0):
        self.sock, self.after_accept, self.after_failure = sock, after_accept, after_failure

    def accept(self):
        try:
            accepted = self.sock.accept()
        except OSError:
            time.sleep(self.after_failure)
            raise
        time.sleep(self.after_accept)
        return accepted

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_stop_returns_once_every_idle_worker_has_exited():
    before = _pool_threads()
    server = ForumServer(LabConfig(port=0))
    server._listener = _SlowListener(server._listener, after_failure=0.05)
    server.start()
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started >= 0.05
    assert _pool_threads() - before == set()


def test_stop_does_not_wait_for_a_worker_that_accepted_just_before_it(monkeypatch):
    # The worker is still idle when stop() looks, and turns busy with a
    # silent peer a moment later; that change must wake stop().
    monkeypatch.setattr(server_module, "IO_TIMEOUT", 3.0)
    server = ForumServer(LabConfig(port=0))
    server._listener = _SlowListener(server._listener, after_accept=0.1)
    server.start()
    with socket.create_connection(("127.0.0.1", server.port), timeout=5):
        time.sleep(0.05)
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1.0


def test_stop_before_start():
    ForumServer(LabConfig(port=0)).stop()


def test_stop_ends_idle_workers_and_frees_the_port(transport):
    before = _pool_threads()
    server = ForumServer(LabConfig(port=0)).start()
    assert len(_pool_threads() - before) == WORKERS
    assert wire_get(transport, server.base_url(), "/cgi-bin/Forum/index.php").status == 200
    server.stop()
    assert _pool_threads() - before == set()
    again = ForumServer(LabConfig(port=server.port)).start()
    try:
        assert wire_get(transport, again.base_url(), "/cgi-bin/Forum/index.php").status == 200
    finally:
        again.stop()


def test_stop_does_not_wait_for_a_silent_peer(transport):
    before = _pool_threads()
    server = ForumServer(LabConfig(port=0)).start()
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as silent:
        silent.sendall(b"GET /cgi-bin/Forum/index.php HTTP/1.1\r\n")
        # Another worker still answers while one waits on the silent peer.
        assert wire_get(transport, server.base_url(), "/cgi-bin/Forum/index.php").status == 200
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 1.0
    # The peer is gone, so the worker it held exits too.
    deadline = time.monotonic() + 5
    while _pool_threads() - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _pool_threads() - before == set()


def test_trickling_peer_is_cut_off_at_the_connection_deadline(lab_server, monkeypatch):
    # One byte every 50 ms never lets a single recv time out, so only a
    # deadline across all of the connection's reads ends it.
    monkeypatch.setattr(server_module, "IO_TIMEOUT", 0.3)
    server = lab_server()
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as peer:
        peer.sendall(b"GET /cgi-bin/Forum/index.php HTTP/1.1\r\nX-Slow: ")
        started = time.monotonic()
        closed = False
        while not closed and time.monotonic() - started < 3.0:
            try:
                peer.sendall(b"a")
                if select.select([peer], [], [], 0.05)[0]:
                    closed = peer.recv(1024) == b""
            except OSError:
                closed = True
        assert closed
        assert time.monotonic() - started < 2.0


def test_handler_error_answers_500_and_keeps_every_worker(lab_server, transport, monkeypatch):
    server = lab_server()

    def broken():
        raise RuntimeError("injected")

    monkeypatch.setattr(server.app, "index_page", broken)
    for _ in range(WORKERS + 1):
        assert wire_get(transport, server.base_url(), "/cgi-bin/Forum/index.php").status == 500
    for _ in range(WORKERS + 1):
        assert wire_get(transport, server.base_url(), "/cgi-bin/Forum/login.php").status == 200


# ---------------------------------------------------------- message bounds


def _feeder(data: bytes, step: int):
    """A recv(n) over data, at most step bytes per call; counts what it
    hands out."""
    state = {"given": 0}

    def recv(n):
        chunk = data[state["given"] : state["given"] + min(n, step)]
        state["given"] += len(chunk)
        return chunk

    return recv, state


def test_read_http_message_finds_a_head_split_anywhere():
    raw = serialize(
        make_request(
            HttpMethod.POST,
            "http://127.0.0.1:8080/cgi-bin/Forum/login.php",
            body=b"username=sohini&password=pw",
            content_type="application/x-www-form-urlencoded",
        )
    )
    for step in (1, 2, 3, 5, 64):
        recv, _ = _feeder(raw, step)
        assert read_http_message(recv) == raw
    # Once the head is in, no byte past Content-Length is read.
    recv, state = _feeder(raw + b"next message", 1)
    assert read_http_message(recv) == raw
    assert state["given"] == len(raw)


def test_read_http_message_returns_what_came_before_an_early_eof():
    raw = serialize(
        make_request(HttpMethod.POST, "http://127.0.0.1/x", body=b"abcdef", content_type="t/p")
    )
    for cut in (0, 5, len(raw) - 6, len(raw) - 1):
        recv, state = _feeder(raw[:cut], 2)
        assert read_http_message(recv) == raw[:cut]
        assert state["given"] == cut
    # One segment carries the whole message and what follows it: a recv
    # for a negative count would raise.
    left, right = socket.socketpair()
    with left, right:
        left.sendall(raw + b"next message")
        assert read_http_message(recv_until(right, time.monotonic() + 5)) == raw


_LOGIN_BODY = b"username=sohini&password=pw"


def _login_head(port: int, content_length_line: bytes) -> bytes:
    # Content-Length comes before Content-Type, where make_request
    # never puts it.
    return (
        b"POST /cgi-bin/Forum/login.php HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n" % port
        + content_length_line
        + b"\r\nContent-Type: application/x-www-form-urlencoded\r\n\r\n"
    )


@pytest.mark.parametrize(
    "line", [b"Content-Length: 27", b"content-length:\t27 "], ids=["plain", "tab-and-space"]
)
def test_read_http_message_finds_content_length_on_any_line(line):
    head = _login_head(8080, line)
    chunks = [head, _LOGIN_BODY]

    def recv(n):
        return chunks.pop(0) if chunks else b""

    assert read_http_message(recv) == head + _LOGIN_BODY


def test_body_sent_after_a_pause_is_read_over_tcp(lab_server):
    server = lab_server()
    seed_users(server)
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(_login_head(server.port, b"Content-Length: 27"))
        time.sleep(0.05)
        sock.sendall(_LOGIN_BODY)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    assert data.startswith(b"HTTP/1.1 302 ")


@pytest.mark.parametrize("declared", [b"1000000000000", b"9" * 5000], ids=["13-digits", "5000-digits"])
def test_read_http_message_stops_at_the_body_cap(declared):
    # int() refuses more than 4,300 digits, so the second one must not
    # reach it.
    head = b"POST /cgi-bin/Forum/login.php HTTP/1.1\r\nHost: h\r\nContent-Length: " + declared + b"\r\n\r\n"
    recv, state = _feeder(head + b"a" * (3 * MAX_MESSAGE_PART), 65536)
    raw = read_http_message(recv)
    assert state["given"] <= len(head) + MAX_MESSAGE_PART
    assert len(raw) == len(head) + MAX_MESSAGE_PART
    assert ForumApp().handle_raw(raw).startswith(b"HTTP/1.1 400 ")


def test_bytes_after_a_get_are_dropped_by_both_transports(lab_server):
    # RFC 9112 6.3: without Content-Length the request has no body, so
    # what follows it is not part of it, however the bytes arrive.
    server = lab_server()
    raw = (
        b"GET /cgi-bin/Forum/index.php HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n\r\n" % server.port
        + b"GET /cgi-bin/Forum/login.php HTTP/1.1\r\n"
    )
    over_tcp = TcpTransport().exchange("127.0.0.1", server.port, raw)  # one sendall
    in_process = InProcessTransport(ForumApp()).exchange("127.0.0.1", server.port, raw)
    assert parse_response(over_tcp).status == 200
    assert parse_response(in_process).status == 200


def _raw_requests(policy):
    """A fresh seed-7 app and the requests to mutate: one per route, and
    a post whose body is most of its bytes."""
    app = _app(policy)
    raws = _valid_raw_requests(app)
    pairs = [("title", "t"), ("message", "x" * 600)]
    long_post = _request("/cgi-bin/Forum/new_topic.php", HttpMethod.POST, pairs, _login(app))
    return app, raws + [serialize(long_post)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(list(DefenseMode)),
    st.one_of(st.just(-1), st.integers(min_value=0)),  # -1: the long post
    st.one_of(st.just([]), st.lists(_MUTATION, min_size=1, max_size=3)),
    st.one_of(
        st.just(b""),
        st.binary(max_size=32),
        st.sampled_from([b"\r\n", b"\r\n\r\n", b"GET / HTTP/1.1\r\nHost: a\r\n\r\n"]),
    ),
    st.one_of(st.integers(1, 64), st.just(65536)),
    st.sampled_from([None, 10, 30, 50, 70, 80, 90, 95, 99, 110]),
)
def test_both_transports_frame_alike(policy, which, mutations, stray, step, cap_percent):
    # The in-process transport and the server's reader, whatever the
    # segment size, hand handle_raw the same bytes.  A cap drawn as a share
    # of the request's size cuts heads and bodies.
    app, raws = _raw_requests(policy)
    raw = _mutate(raws[which % len(raws)], mutations) + stray
    cap = MAX_MESSAGE_PART if cap_percent is None else max(len(raw) * cap_percent // 100, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport_module, "MAX_MESSAGE_PART", cap)
        in_process = InProcessTransport(app).exchange("127.0.0.1", 8080, raw)
        app, _ = _raw_requests(policy)
        served = app.handle_raw(read_http_message(_feeder(raw, step)[0]))
    assert in_process == served


def test_oversized_body_gets_400_over_tcp(lab_server):
    server = lab_server()
    head = (
        f"POST /cgi-bin/Forum/login.php HTTP/1.1\r\nHost: 127.0.0.1:{server.port}\r\n"
        f"Content-Length: {50 * MAX_MESSAGE_PART}\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        # Exactly the cap, write side left open: the server must answer
        # without waiting for the declared rest.
        sock.sendall(head + b"a" * MAX_MESSAGE_PART)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    response = parse_response(data)
    assert response.status == 400
    assert b"Content-Length" in response.body


def test_48k_form_body_round_trips(lab_server, transport):
    server = lab_server()
    seed_users(server)
    cookie = wire_login(transport, server.base_url())
    message = "x" * (48 * 1024)
    response = wire_post(
        transport,
        server.base_url(),
        "/cgi-bin/Forum/new_topic.php",
        [("title", "big"), ("message", message)],
        cookie=cookie,
    )
    assert response.status == 302
    assert server.app.posts[-1].message == message
