"""Request/response transports: loopback TCP and in-process dispatch.

Both transports have one method and no base class: exchange(host, port,
raw) takes complete request bytes and returns complete response bytes,
one exchange per call (Connection: close).  TCP is the default and the
acceptance mode; the in-process transport wires callers straight into a
ForumApp's byte-level handler for the in-process matrix and for tests
that want no sockets involved.

Both frame a request by one rule before ForumApp.handle_raw sees it:
the head, then as many body bytes as httpcore.framed_body_size reads
from the head's Content-Length (RFC 9112 §6.3), each capped at
MAX_MESSAGE_PART.  The server's reader applies the rule as segments
arrive, the in-process transport to the whole request; either way the
bytes after the message are dropped, so a request gets the same answer
over both.

TcpTransport connects an AF_INET socket straight to (host, port).
CPython reads a dotted quad such as the lab's 127.0.0.1 itself and
calls the resolver only for a name such as localhost (IPv4 only;
parse_url rejects IPv6 hosts).  socket.create_connection would call
getaddrinfo every time, which releases the interpreter lock while the
server's worker waits for it: one more handoff between the two threads
of an exchange.  A response is read to EOF, and its head must end
within MAX_MESSAGE_PART bytes, as a request head must.  Its body has
no cap: the forum's own /admin/state lists every post.
"""

from __future__ import annotations

import socket
import time

from .httpcore import framed_body_size


class ConnectionFailed(Exception):
    """The peer could not be reached or the exchange did not complete."""


EXCHANGE_TIMEOUT = 5.0
# Bounds the head and, separately, the body of one message.
MAX_MESSAGE_PART = 1 << 20


class TcpTransport:
    """One TCP connection per exchange, connected to the IPv4 address
    with no resolver call for a dotted quad (see the module docstring).
    The connect, the send and every recv share one EXCHANGE_TIMEOUT
    deadline, so a peer that trickles its response holds the client for
    at most EXCHANGE_TIMEOUT.  The write side is half-closed after
    sending so the server sees a complete request, and the response is
    read to EOF; a peer whose response head runs past MAX_MESSAGE_PART
    bytes is cut off there with ConnectionFailed.
    """

    def exchange(self, host: str, port: int, raw: bytes) -> bytes:
        deadline = time.monotonic() + EXCHANGE_TIMEOUT
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                sock.settimeout(EXCHANGE_TIMEOUT)
                sock.connect((host, port))
                sock.settimeout(_time_left(deadline))
                sock.sendall(raw)
                sock.shutdown(socket.SHUT_WR)
                recv = recv_until(sock, deadline)
                chunks, size, head_checked = [], 0, False
                while chunk := recv(65536):
                    chunks.append(chunk)
                    size += len(chunk)
                    if size > MAX_MESSAGE_PART and not head_checked:
                        head_checked = True
                        if b"".join(chunks).find(b"\r\n\r\n", 0, MAX_MESSAGE_PART) < 0:
                            raise ConnectionFailed(f"{host}:{port}: response head over the cap")
        except OSError as exc:
            raise ConnectionFailed(f"{host}:{port}: {exc}") from exc
        response = b"".join(chunks)
        if not response:
            raise ConnectionFailed(f"{host}:{port}: connection closed without a response")
        return response


def _time_left(deadline: float) -> float:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("connection deadline passed")
    return remaining


def recv_until(conn: socket.socket, deadline: float):
    """conn.recv under one monotonic deadline shared by every call, not a
    fresh timeout per call; a sendall that follows inherits what is
    left of it."""

    def recv(size: int) -> bytes:
        conn.settimeout(_time_left(deadline))
        return conn.recv(size)

    return recv


def read_http_message(recv) -> bytes:
    """Assemble one HTTP message from a recv(n) callable: everything up
    to the blank line, then the framed_body_size bytes its head frames.
    Used by the server side, where the client may keep its socket open.
    Bytes after the message are dropped, however the segments arrive.

    Neither the head nor the body is read past MAX_MESSAGE_PART bytes:
    a head that does not end within them is cut there, and parse_request
    rejects it, as it rejects a body cut short."""
    buf = bytearray()
    head_end, wanted = -1, MAX_MESSAGE_PART
    while chunk := recv(min(65536, wanted - len(buf))):
        buf += chunk
        if head_end < 0:
            head_end = buf.find(b"\r\n\r\n", max(len(buf) - len(chunk) - 3, 0), MAX_MESSAGE_PART)
            wanted = _message_size(buf, head_end)
        if len(buf) >= wanted:
            break
    return bytes(buf[:wanted])


def _message_size(data, head_end: int) -> int:
    """The one framing rule of both transports: where the message at the
    start of data ends, given its head's CRLFCRLF offset (-1: none yet)."""
    if head_end < 0:
        return MAX_MESSAGE_PART
    return head_end + 4 + min(framed_body_size(data[: head_end + 4]), MAX_MESSAGE_PART)


class InProcessTransport:
    """Direct dispatch into a ForumApp, same bytes-in/bytes-out contract."""

    def __init__(self, app) -> None:
        self.app = app

    def exchange(self, host: str, port: int, raw: bytes) -> bytes:
        head_end = raw.find(b"\r\n\r\n", 0, MAX_MESSAGE_PART)
        return self.app.handle_raw(raw[: _message_size(raw, head_end)])
