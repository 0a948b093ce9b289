"""Loopback TCP server hosting a ForumApp on a fixed pool of workers.

WORKERS daemon threads block in accept() on one listening socket, and
each serves the connection it accepts itself: one request read, one
response written, then close (Connection: close).  No thread is started
per connection, so at most WORKERS connections are served at once; the
rest wait in the kernel's listen backlog (BACKLOG).  Each connection
gets one IO_TIMEOUT deadline across all of its reads, so a peer that
sends nothing, or trickles a byte at a time, holds its worker for at
most IO_TIMEOUT.  stop() shuts the listening socket down, which wakes
every blocked accept() at once and fails every later one: that failure
is what ends each worker loop.  stop() then writes the snapshot under
the lock each worker holds from its "stopped?" check through
handle_raw, so a change answered before stop() is in the snapshot, and
a request that is complete only after it is closed unanswered.

The workers run on the CPUs of the thread that calls start(): csrf-lab
serve leaves them every CPU of the process, while harness.open_lab
starts its server on one CPU, so that the lab's closed loop hands the
interpreter lock over without waking another CPU.
"""

from __future__ import annotations

import socket
import threading
import time
from pathlib import Path

from .config import LabConfig
from .forum import ForumApp
from .transport import read_http_message, recv_until

WORKERS = 8
BACKLOG = 64
IO_TIMEOUT = 10.0


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

    stop() returns once the idle workers have exited; a worker still in
    the middle of a connection reads it to its end (or times out), closes
    it unanswered and then exits on its own.
    """

    def __init__(self, config: LabConfig) -> None:
        self.config = config
        self.app = self._initial_app()
        self._listener = socket.create_server(
            (self.config.bind, self.config.port), backlog=BACKLOG
        )
        self.port = self._listener.getsockname()[1]
        # Workers not serving a connection, and workers whose loop has
        # ended; _state is notified when a worker leaves the first set or
        # joins the second, which is what stop() waits for.
        self._idle: set[threading.Thread] = set()
        self._exited: list[threading.Thread] = []
        self._state = threading.Condition()
        # Held across "stopped? -> handle_raw" and "stop -> snapshot", so
        # every answered change is in the snapshot.
        self._lock = threading.Lock()
        self._finished = False
        self._stopped = threading.Event()

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

    def base_url(self) -> str:
        return f"http://{self.config.bind}:{self.port}"

    def start(self) -> "ForumServer":
        for _ in range(WORKERS):
            worker = threading.Thread(target=self._serve, name="csrf-lab-server", daemon=True)
            worker.start()
            with self._state:
                self._idle.add(worker)
        return self

    def _serve(self) -> None:
        """One worker: accept a connection, answer it, repeat until the
        listening socket is shut down."""
        me = threading.current_thread()
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                with self._state:
                    self._exited.append(me)
                    self._state.notify_all()
                return
            with self._state:
                self._idle.discard(me)
                self._state.notify_all()
            try:
                raw = read_http_message(recv_until(conn, time.monotonic() + IO_TIMEOUT))
                with self._lock:
                    response = self.app.handle_raw(raw) if raw and not self._finished else b""
                if response:
                    conn.sendall(response)
                # Idle before the peer can see EOF: what is left cannot
                # block, so a stop() that follows the exchange joins it.
                self._idle.add(me)
                conn.shutdown(socket.SHUT_WR)
            except OSError:
                # A peer that vanished or went silent mid-exchange is its
                # own problem.
                pass
            finally:
                conn.close()
                self._idle.add(me)

    def serve_blocking(self) -> None:
        """Foreground mode for the CLI: the pool serves while the calling
        thread waits for stop() or an interrupt.  The caller stops the
        server, as the CLI does on its way out."""
        self.start()
        # Only stop() wakes this wait, so an interrupt lands in it.
        self._stopped.wait()

    def stop(self) -> None:
        """Safe to call twice, before start(), and on a pool whose start()
        was interrupted part-way; from another thread, only once start()
        has returned."""
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never listened, or already shut down and closed
        # Idle workers exit at once; a busy one is left to finish its
        # connection.  A worker whose accept() returned just before the
        # shutdown leaves _idle a moment later, and wakes this wait.
        with self._state:
            self._state.wait_for(lambda: self._idle.issubset(self._exited))
        for worker in self._exited:
            worker.join()
        self._finish()
        self._stopped.set()

    def _finish(self) -> None:
        with self._lock:
            if self._finished:
                return
            self._finished = True
            self._listener.close()
            if self.config.snapshot:
                self.app.save_snapshot(self.config.snapshot)

    def __enter__(self) -> "ForumServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

