"""Request/response transports: loopback TCP and in-process dispatch.

Both transports implement the same contract: complete request bytes in,
complete response bytes out, one exchange per call (Connection: close).
TCP is the default and the acceptance mode; the in-process transport
wires callers straight into a ForumApp's byte-level handler for the
in-process matrix and for tests that want no sockets involved.
"""

from __future__ import annotations

import re
import socket
import time


class ConnectionFailed(Exception):
    """The peer could not be reached or the exchange did not complete."""


class Transport:
    def exchange(self, host: str, port: int, raw: bytes) -> bytes:
        raise NotImplementedError


EXCHANGE_TIMEOUT = 5.0


class TcpTransport(Transport):
    """One TCP connection per exchange; the connect, the send and every
    recv share one EXCHANGE_TIMEOUT deadline, so a peer that trickles
    its response holds the client for at most EXCHANGE_TIMEOUT.  The
    write side is half-closed after sending so the server sees a
    complete request, and the response is read to EOF.
    """

    def exchange(self, host: str, port: int, raw: bytes) -> bytes:
        timeout = EXCHANGE_TIMEOUT
        deadline = time.monotonic() + timeout
        try:
            with socket.create_connection((host, port), timeout=timeout) as sock:
                sock.settimeout(_time_left(deadline))
                sock.sendall(raw)
                sock.shutdown(socket.SHUT_WR)
                recv = recv_until(sock, deadline)
                chunks = []
                while chunk := recv(65536):
                    chunks.append(chunk)
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


# Every header line but the last ends in "\r" before the "\n" that $ sees.
_CONTENT_LENGTH = re.compile(rb"^content-length:[ \t]*(\d+)[ \t]*\r?$", re.I | re.M)

# Bounds the head and, separately, the body of one message.
MAX_MESSAGE_PART = 1 << 20


def read_http_message(recv) -> bytes:
    """Assemble one HTTP message from a recv(n) callable: everything up
    to the blank line, then exactly Content-Length more bytes.  Used by
    the server side, where the client may keep its socket open.

    Neither the head nor the body is read past MAX_MESSAGE_PART bytes:
    what comes back then is short or unterminated, and parse_request
    rejects it."""
    buf = bytearray()
    head_end = -1
    while head_end < 0:
        if len(buf) > MAX_MESSAGE_PART:
            return bytes(buf)
        chunk = recv(65536)
        if not chunk:
            return bytes(buf)
        searched = max(len(buf) - 3, 0)
        buf += chunk
        head_end = buf.find(b"\r\n\r\n", searched)
    match = _CONTENT_LENGTH.search(buf, 0, head_end)
    declared = match.group(1) if match else b"0"
    # Compare lengths before int(): a 5,000-digit value would raise.
    body_size = int(declared) if len(declared) <= 7 else MAX_MESSAGE_PART
    wanted = head_end + 4 + min(body_size, MAX_MESSAGE_PART)
    while len(buf) < wanted:
        chunk = recv(min(65536, wanted - len(buf)))
        if not chunk:
            break
        buf += chunk
    return bytes(buf)


class InProcessTransport(Transport):
    """Direct dispatch into a ForumApp, same bytes-in/bytes-out contract."""

    def __init__(self, app) -> None:
        self.app = app

    def exchange(self, host: str, port: int, raw: bytes) -> bytes:
        return self.app.handle_raw(raw)
