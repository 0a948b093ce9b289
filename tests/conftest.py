"""Shared fixtures: ephemeral-port lab servers and wire helpers."""

import pytest

from csrflab import client
from csrflab.config import LabConfig
from csrflab.forum import DefenseMode
from csrflab.httpcore import HttpMethod, set_header
from csrflab.server import ForumServer
from csrflab.transport import TcpTransport


@pytest.fixture
def lab_server():
    """Factory fixture: start ForumServers on ephemeral ports, stop all
    of them at teardown."""
    started = []

    def _start(policy=DefenseMode.NONE, seed=1337, **kwargs):
        config = LabConfig(port=0, policy=policy, seed=seed, **kwargs)
        server = ForumServer(config).start()
        started.append(server)
        return server

    yield _start
    for server in started:
        server.stop()


def wire_post(transport, base_url, path, pairs, cookie=None, headers=None):
    request = client.build(HttpMethod.POST, f"{base_url}{path}", pairs, headers)
    return _send(transport, request, cookie)


def wire_get(transport, base_url, path, cookie=None, headers=None):
    request = client.build(HttpMethod.GET, f"{base_url}{path}", headers=headers)
    return _send(transport, request, cookie)


def _send(transport, request, cookie):
    if cookie:
        set_header(request, "Cookie", cookie)
    return client.execute(request, transport)


def wire_login(transport, base_url, username="sohini", password="pw"):
    response = wire_post(
        transport,
        base_url,
        "/cgi-bin/Forum/login.php",
        [("username", username), ("password", password)],
    )
    assert response.status == 302
    from csrflab.httpcore import get_header

    return get_header(response, "Set-Cookie").split(";")[0]


def seed_users(server):
    server.app.register("sohini", "pw")
    server.app.register("user1", "pw1")


@pytest.fixture
def transport():
    return TcpTransport()
