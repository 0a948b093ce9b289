"""Threaded loopback TCP server hosting a ForumApp."""

from __future__ import annotations

import socketserver
import threading
from pathlib import Path

from .config import LabConfig
from .forum import ForumApp
from .transport import read_http_message


class _ConnectionHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        self.request.settimeout(self.server.io_timeout)
        try:
            raw = read_http_message(self.request.recv)
            if not raw:
                return
            self.request.sendall(self.server.app.handle_raw(raw))
        except OSError:
            # A peer that vanished mid-exchange is its own problem.
            pass


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ForumServer:
    """Owns a ForumApp and serves it on (config.bind, config.port).

    Port 0 binds an ephemeral port; read the resolved one from .port.
    Usable as a context manager; stop() writes the snapshot when the
    config names one.  When the named snapshot file already exists the
    app resumes from it (state, policy, seed, and token stream all come
    from the file; config.policy/seed apply to fresh starts only).

    Assigning .app mounts another ForumApp on the same listening socket.
    Do it only between exchanges: a connection still in progress may be
    answered by either app.
    """

    def __init__(self, config: LabConfig | None = None, app: ForumApp | None = None) -> None:
        self.config = config or LabConfig()
        app = app or self._initial_app()
        self._tcp = _TcpServer((self.config.bind, self.config.port), _ConnectionHandler)
        self._tcp.io_timeout = 10.0
        self.app = app
        self._thread: threading.Thread | None = None
        self._finished = False

    def _initial_app(self) -> ForumApp:
        if self.config.snapshot and Path(self.config.snapshot).is_file():
            return ForumApp.load_snapshot(
                self.config.snapshot, admin_token=self.config.admin_token
            )
        return ForumApp(
            policy=self.config.policy,
            seed=self.config.seed,
            admin_token=self.config.admin_token,
        )

    @property
    def app(self) -> ForumApp:
        return self._tcp.app

    @app.setter
    def app(self, app: ForumApp) -> None:
        self._tcp.app = app

    @property
    def port(self) -> int:
        return self._tcp.server_address[1]

    @property
    def host(self) -> str:
        return self.config.bind

    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ForumServer":
        self._thread = threading.Thread(
            # Tight poll: stop() waits up to one interval for the serving
            # loop to notice shutdown, and the harness stops one server
            # per TCP matrix, so the default 0.5 s would add up to 0.5 s
            # to every matrix.
            target=lambda: self._tcp.serve_forever(poll_interval=0.02),
            name="csrf-lab-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_blocking(self) -> None:
        """Foreground mode for the CLI; returns after shutdown()."""
        try:
            self._tcp.serve_forever()
        finally:
            self._finish()

    def stop(self) -> None:
        if self._thread is not None:
            self._tcp.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._finish()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self._tcp.server_close()
        if self.config.snapshot:
            self.app.save_snapshot(self.config.snapshot)

    def __enter__(self) -> "ForumServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
