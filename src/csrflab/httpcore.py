r"""HTTP/1.1 subset: message model, wire codec, and header semantics.

The lab speaks a deliberately small slice of HTTP/1.1 over loopback TCP::

    METHOD /path?query HTTP/1.1\r\n        HTTP/1.1 302 Found\r\n
    Host: 127.0.0.1:8080\r\n               Location: /index\r\n
    ...headers...\r\n                      ...headers...\r\n
    \r\n                                   \r\n
    [exactly Content-Length body bytes]    [exactly Content-Length body bytes]

Every exchange is single-shot (``Connection: close``); there is no
keep-alive, chunked encoding, or content negotiation.  A message is
immutable, and its headers are an ordered tuple, matched
case-insensitively but emitted with the stored spelling.  ``with_header``
returns a copy whose first header with a matching name has the new
value, or with the header appended when none matches; later duplicates
are left alone.
Every Header checks itself when built, by one precompiled regex for the
name and one for the value: built and parsed headers meet one rule
(IllegalHeader, or MalformedMessage out of parse_request/parse_response).
A head is decoded once as Latin-1 and split into text lines, and
serialize encodes the start line and header lines in one piece; Latin-1
is one byte per character, so both match a per-line codec exactly, and
each Header still checks itself.

A lab replays the same traffic in every cell, so both directions of the
codec are memoized per distinct input with functools.lru_cache:

- a request head (start line and header lines), 32 entries, each the
  method, the RequestUri, a tuple of frozen Headers and the declared
  Content-Length; framed_body_size reads its length from the same memo;
- a response head, 32 entries: the status, the reason, the Headers and
  the declared Content-Length;
- parse_url, 16 entries, each a frozen RequestUri;
- _header, 64 entries: each Header that make_request, make_response and
  with_header build, one per (name, value); a Header is frozen, so every
  message can share it;
- _request_headers and _response_headers, 64 entries each: the Headers
  make_request and make_response build, keyed on every input but the
  method and the body bytes (the body's length stands for them);
- _head_bytes, 64 entries: the head serialize writes, keyed on the start
  line and the tuple of Headers; the body is appended on every call.

The memos are exact: each reads nothing but its arguments and returns
immutable values, and an input that raises is not cached, so it raises
on every call, with the same error.  A hit still checks the body
against the declared length.  Messages hold a memo's tuple of Headers as
it is: nothing can change a message.  The form codec has two exact
fast paths instead of a memo: a component of letters, digits and
``*-._`` encodes to itself, and an ASCII one without ``%`` or ``+``
decodes to itself.

What each memo pins at worst, its entries times its longest entry:

- request heads: an entry pins its text and the strings parsed from it,
  about twice the text (MAX_HEADER_LINES keeps a head's Headers near
  that size).  The server reads a request head of at most about
  MAX_MESSAGE_PART (1 MiB, transport): 32 x 2 MiB = 64 MiB (tracemalloc
  read 64.0 MiB for 32 heads of 1 MiB);
- response heads: the client reads a head of at most MAX_MESSAGE_PART,
  so also 64 MiB; the forum's own heads are under 1 KiB;
- parse_url: the server parses a Referer, part of a request head, so
  16 x 2 MiB = 32 MiB; the client parses the URLs it is given and the
  form actions of the pages it loads, and a page body has no cap;
- _header: a value the client builds is an authority or an origin (at
  most a 1 MiB Location's), or a Cookie value, which joins every cookie
  the store holds for the URL, and the store has no cap; at 1 MiB values
  64 x 1 MiB = 64 MiB.  The longest in a matrix is 78 bytes;
- _request_headers and _response_headers: an entry pins its inputs and
  the Headers built from them, about twice the inputs.  A request's URL
  and header values are as long as the callers make them: a Location's
  URL is at most 1 MiB, so 64 x 2 MiB = 128 MiB at 1 MiB inputs.  The
  forum's responses carry only their own short values.  The longest
  entries in a matrix are 175 and 250 characters;
- _head_bytes: an entry pins the start line and the bytes, about twice
  the head (its Headers are shared with the messages and _header).  A
  request head the client builds carries its URL's target and its Cookie
  value, so at 1 MiB heads 64 x 2 MiB = 128 MiB.  The longest in a
  matrix is 237 bytes.

Bodies are raw bytes end to end.  The form codec uses the
x-www-form-urlencoded convention: letters, digits and ``*-._`` pass
through, space becomes ``+``, every other octet becomes ``%XX`` with
uppercase hex.  The stdlib's quote_plus and unquote_to_bytes do the
work; the codec adds ``*`` to the safe set, escapes ``~`` (which
quote_plus leaves bare), and rejects a ``%`` not followed by two hex
digits, where unquote would pass it through.
"""

from __future__ import annotations

import enum
import functools
import re
from typing import NamedTuple
from urllib.parse import quote_plus, unquote_to_bytes, urlsplit


class MalformedMessage(Exception):
    """Raw bytes do not form a complete, well-formed lab HTTP message."""


class IllegalHeader(Exception):
    """Header name or value contains forbidden octets."""


class MalformedEncoding(Exception):
    """Form-urlencoded text that cannot be decoded."""


class BadUrl(Exception):
    """URL text that does not parse to a supported request URI."""


class HttpMethod(str, enum.Enum):
    GET = "GET"
    HEAD = "HEAD"
    POST = "POST"
    PUT = "PUT"
    DELETE = "DELETE"
    TRACE = "TRACE"
    OPTIONS = "OPTIONS"


HTTP_VERSION = "HTTP/1.1"

REASON_PHRASES = {
    200: "OK",
    302: "Found",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    500: "Internal Server Error",
}

_HEAD_END = b"\r\n\r\n"


def authority(host: str, port: int) -> str:
    """host[:port], omitting the default port 80: the Host header value
    and, after "scheme://", every serialized origin."""
    return host if port == 80 else f"{host}:{port}"


class RequestUri(NamedTuple):
    """Parsed request target: scheme, host, optional port, path, query.

    Network URIs (http) carry a non-empty host; file/asset URIs have an
    empty host and are resolved locally by the browser emulator.
    """

    scheme: str
    host: str
    port: int = 80
    path: str = "/"
    query: str | None = None

    def origin_text(self) -> str:
        """scheme://host[:port], omitting the default port 80."""
        return f"{self.scheme}://{authority(self.host, self.port)}"

    def target(self) -> str:
        """Origin-form request target as written on the request line."""
        suffix = "" if self.query is None else f"?{self.query}"
        return f"{self.path}{suffix}"


_BEYOND_LATIN_1 = re.compile(r"[^\x00-\xff]")


@functools.lru_cache(maxsize=16)
def parse_url(text: str) -> RequestUri:
    """Parse an absolute URL of scheme http, file, or asset.

    Raises BadUrl for anything else, including http URLs without a host,
    with an IPv6 literal one (the lab is IPv4-only), with port 0, or
    with a host, path or query beyond Latin-1.  Memoized per text (see
    the module docstring); a bad URL raises on every call.
    """
    try:
        parts = urlsplit(text)
    except ValueError as exc:  # an unbalanced "[" around the host
        raise BadUrl(f"bad host in {text!r}") from exc
    scheme = parts.scheme.lower()
    if scheme == "http":
        # Each read of .hostname or .port splits the netloc again.
        host = parts.hostname
        if not host:
            raise BadUrl(f"http URL without host: {text!r}")
        if ":" in host:
            # An IPv6 literal: the lab is IPv4-only, and a bare "::1"
            # in the Host header would not parse back.
            raise BadUrl(f"IPv6 hosts are not supported: {text!r}")
        try:
            port = parts.port
        except ValueError as exc:
            raise BadUrl(f"bad port in {text!r}") from exc
        if port == 0:
            # No server listens on port 0; "port or 80" would send the
            # request to port 80 instead.
            raise BadUrl(f"port 0 in {text!r}")
        if (
            _BEYOND_LATIN_1.search(host)
            or _BEYOND_LATIN_1.search(parts.path)
            or _BEYOND_LATIN_1.search(parts.query)
        ):
            # The request line and the Host header are Latin-1 on the wire.
            raise BadUrl(f"host, path or query beyond Latin-1 in {text!r}")
        return RequestUri(
            scheme="http",
            host=host,
            port=port or 80,
            path=parts.path or "/",
            query=parts.query or None,
        )
    if scheme in ("file", "asset"):
        if parts.netloc:
            raise BadUrl(f"{scheme} URL must not carry a host: {text!r}")
        return RequestUri(
            scheme=scheme,
            host="",
            port=80,
            path=parts.path,
            query=parts.query or None,
        )
    raise BadUrl(f"unsupported scheme in {text!r}")


# A name is visible ASCII but ":"; a value is Latin-1 but CR and LF (a
# negated class: the range up to U+10FFFF takes ~8 ms to compile).
_HEADER_NAME = re.compile(r"[!-9;-~]+")
_ILLEGAL_IN_VALUE = re.compile(r"[^\x00-\x09\x0b\x0c\x0e-\xff]")


class _HeaderFields(NamedTuple):
    name: str
    value: str


class Header(_HeaderFields):
    """One header line.  Names match case-insensitively, print as stored."""

    __slots__ = ()

    def __new__(cls, name: str, value: str) -> Header:
        if not _HEADER_NAME.fullmatch(name):
            raise IllegalHeader(f"illegal header name {name!r}")
        if _ILLEGAL_IN_VALUE.search(value):
            raise IllegalHeader(f"illegal octet in header value {value!r}")
        return super().__new__(cls, name, value)


class _Message:
    """Equal to a message of its own class with equal fields, and to no
    other tuple.  A message is a NamedTuple, so no field can be set, and
    each class's __new__ stores its headers as a tuple, so a list it was
    built from can be changed without changing it.  _replace builds
    without __new__: a headers value passed to it must be a tuple."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        if isinstance(other, tuple) and not isinstance(other, _Message):
            return False  # past NotImplemented, the tuple's __eq__ would compare the fields
        return NotImplemented

    # tuple.__ne__ would compare the fields; this one negates __eq__.
    __ne__ = object.__ne__


class _RequestFields(NamedTuple):
    method: HttpMethod
    uri: RequestUri
    headers: tuple[Header, ...] = ()
    body: bytes = b""


class HttpRequest(_Message, _RequestFields):
    __slots__ = ()

    def __new__(cls, method, uri, headers=(), body=b"") -> HttpRequest:
        return tuple.__new__(cls, (method, uri, tuple(headers), body))


class _ResponseFields(NamedTuple):
    status: int = 200
    reason: str = "OK"
    headers: tuple[Header, ...] = ()
    body: bytes = b""


class HttpResponse(_Message, _ResponseFields):
    __slots__ = ()

    def __new__(cls, status=200, reason="OK", headers=(), body=b"") -> HttpResponse:
        return tuple.__new__(cls, (status, reason, tuple(headers), body))


Message = HttpRequest | HttpResponse


def get_header(message: Message, name: str) -> str | None:
    """Value of the first header whose name matches case-insensitively."""
    lname = name.lower()
    for header in message.headers:
        if header.name.lower() == lname:
            return header.value
    return None


def get_header_values(message: Message, name: str) -> list[str]:
    """All values for a name, in stored order (Set-Cookie may repeat)."""
    return _header_values(message.headers, name)


def _header_values(headers: tuple[Header, ...], name: str) -> list[str]:
    lname = name.lower()
    return [h.value for h in headers if h.name.lower() == lname]


def with_header(message: Message, name: str, value: str) -> Message:
    """A copy of message with the first matching header's value
    overwritten, else with the header appended; message is unchanged.

    The stored name keeps its original spelling on overwrite; later
    duplicates are untouched.  Appends use the caller's spelling.
    """
    return message._replace(headers=_with_header(message.headers, name, value))


def _with_header(headers: tuple[Header, ...], name: str, value: str) -> tuple[Header, ...]:
    # A non-ASCII name ("\u212a" lowers to "k") matches none; Header rejects it.
    lname = name.lower() if name.isascii() else None
    for i, header in enumerate(headers):
        if header.name.lower() == lname:
            return (*headers[:i], _header(header.name, value), *headers[i + 1 :])
    return (*headers, _header(name, value))


@functools.lru_cache(maxsize=64)
def _header(name: str, value: str) -> Header:
    """The checked Header for name and value, one per distinct pair: a
    Header is frozen, so every message can share it."""
    return Header(name, value)


def make_request(
    method: HttpMethod,
    url: str,
    headers: list[tuple[str, str]] | None = None,
    body: bytes = b"",
    content_type: str | None = None,
) -> HttpRequest:
    """Build a request satisfying the message invariants.

    Adds Host, Connection: close, optional Content-Type, and a
    Content-Length matching the body; headers name neither of the last
    two.  Raises BadUrl for non-http URLs.
    """
    uri, built = _request_headers(url, tuple(headers or ()), content_type, len(body))
    return HttpRequest(method, uri, built, body)


@functools.lru_cache(maxsize=64)
def _request_headers(
    url: str, headers: tuple[tuple[str, str], ...], content_type: str | None, size: int
) -> tuple[RequestUri, tuple[Header, ...]]:
    """The URI and the Headers make_request builds for a body of size bytes."""
    uri = parse_url(url)
    if uri.scheme != "http":
        raise BadUrl(f"requests need an http URL, got {url!r}")
    built = (_header("Host", authority(uri.host, uri.port)),)
    for name, value in headers:
        built = _with_header(built, name, value)
    if content_type is not None:
        built += (_header("Content-Type", content_type),)
    if not _header_values(built, "Connection"):
        built += (_header("Connection", "close"),)
    if size:
        built += (_header("Content-Length", str(size)),)
    return uri, built


def make_response(
    status: int,
    headers: list[tuple[str, str]] | None = None,
    body: bytes = b"",
    content_type: str | None = None,
) -> HttpResponse:
    """Build a response with the fixed reason phrase for its status."""
    built = _response_headers(status, tuple(headers or ()), content_type, len(body))
    return HttpResponse(status, REASON_PHRASES[status], built, body)


@functools.lru_cache(maxsize=64)
def _response_headers(
    status: int, headers: tuple[tuple[str, str], ...], content_type: str | None, size: int
) -> tuple[Header, ...]:
    """The Headers make_response builds for a body of size bytes."""
    if status not in REASON_PHRASES:
        raise ValueError(f"status {status} outside the lab subset")
    built = tuple(_header(name, value) for name, value in headers)
    if content_type is not None:
        built += (_header("Content-Type", content_type),)
    return (*built, _header("Connection", "close"), _header("Content-Length", str(size)))


def _split_head(raw: bytes) -> tuple[str, bytes]:
    """The head (start line and header lines) as Latin-1 text, one decode
    for the whole head, and the body bytes after the blank line."""
    end = raw.find(_HEAD_END)
    if end < 0:
        raise MalformedMessage("missing CRLFCRLF header terminator")
    return raw[:end].decode("latin-1"), raw[end + 4 :]


# Bounds what one head holds and costs: 1 MiB of "a:" lines would make
# 262,144 Headers (24 MiB, 0.7 s).  http.client caps a head at 100 too.
MAX_HEADER_LINES = 100


def _parse_header_block(block: str) -> tuple[Header, ...]:
    if not block:
        return ()
    if block.count("\r\n") >= MAX_HEADER_LINES:
        raise MalformedMessage(f"more than {MAX_HEADER_LINES} header lines")
    headers = []
    for line in block.split("\r\n"):
        name, sep, value = line.partition(":")
        if not sep:
            # Latin-1 round-trips, so the message shows the wire bytes.
            raise MalformedMessage(f"header line without colon: {line.encode('latin-1')!r}")
        try:
            headers.append(Header(name, value.strip(" \t")))
        except IllegalHeader as exc:
            raise MalformedMessage(str(exc)) from exc
    return tuple(headers)


def _is_digits(text: str) -> bool:
    """RFC 9112 DIGIT+, ASCII only: str.isdigit() alone also accepts the
    Latin-1 superscripts, which int() then rejects.  At most 18 digits:
    int() refuses more than 4,300, and no length, port or status code
    comes near 18."""
    return len(text) <= 18 and text.isascii() and text.isdigit()


def _declared_length(headers: tuple[Header, ...]) -> int | None:
    """The one Content-Length of a head, None without one."""
    declared = _header_values(headers, "Content-Length")
    if len(declared) > 1:
        raise MalformedMessage("multiple Content-Length headers")
    if not declared:
        return None
    if not _is_digits(declared[0]):
        raise MalformedMessage(f"bad Content-Length {declared[0]!r}")
    return int(declared[0])


def _check_body(declared: int | None, body: bytes) -> None:
    if declared is None:
        if body:
            raise MalformedMessage(f"{len(body)} body bytes without Content-Length")
    elif len(body) != declared:
        raise MalformedMessage(f"Content-Length {declared} but {len(body)} body bytes present")


def framed_body_size(head: bytes) -> int:
    """The body size a head ending in its CRLFCRLF frames (RFC 9112 §6.3): its one
    Content-Length as parse_request reads it, 10**18 past _is_digits' 18 digits, else 0
    (no body, or a head that parse_request rejects whatever follows it).  A head
    parse_request takes is read through its memo, so the parse that follows hits."""
    text = _split_head(head)[0]
    try:
        return _request_head(text)[3] or 0
    except MalformedMessage:
        pass
    # A head parse_request rejects: its header lines alone decide, uncached.
    try:
        headers = _parse_header_block(text.partition("\r\n")[2])
    except MalformedMessage:
        return 0
    declared = _header_values(headers, "Content-Length")
    if len(declared) != 1 or not (declared[0].isascii() and declared[0].isdigit()):
        return 0
    return int(declared[0]) if _is_digits(declared[0]) else 10**18


_METHODS = {method.value: method for method in HttpMethod}


@functools.lru_cache(maxsize=32)
def _request_head(
    head: str,
) -> tuple[HttpMethod, RequestUri, tuple[Header, ...], int | None]:
    """Every check parse_request makes of a head, in its order: the method,
    the URI, the headers and the declared Content-Length."""
    request_line, _, block = head.partition("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise MalformedMessage(f"bad request line: {request_line!r}")
    method_text, target, version = parts
    method = _METHODS.get(method_text)
    if method is None:
        raise MalformedMessage(f"unknown method {method_text!r}")
    if version != HTTP_VERSION:
        raise MalformedMessage(f"unsupported version {version!r}")
    if not target.startswith("/"):
        raise MalformedMessage(f"request target must be origin-form: {target!r}")
    path, sep, query_text = target.partition("?")
    query = query_text if sep else None

    headers = _parse_header_block(block)
    hosts = _header_values(headers, "Host")
    if not hosts:
        raise MalformedMessage("missing Host header")
    if len(hosts) > 1:
        raise MalformedMessage("multiple Host headers")
    host, _, port_text = hosts[0].partition(":")
    if port_text:
        # Port 0 and ports past 65535 are ones parse_url refuses too.
        if not _is_digits(port_text) or not 0 < int(port_text) <= 65535:
            raise MalformedMessage(f"bad Host port {hosts[0]!r}")
        port = int(port_text)
    else:
        port = 80
    if not host:
        raise MalformedMessage("empty Host header")

    uri = RequestUri(scheme="http", host=host, port=port, path=path, query=query)
    return method, uri, headers, _declared_length(headers)


@functools.lru_cache(maxsize=32)
def _response_head(head: str) -> tuple[int, str, tuple[Header, ...], int | None]:
    """Every check parse_response makes of a head, in its order: the
    status, the reason, the headers and the declared Content-Length."""
    status_line, _, block = head.partition("\r\n")
    parts = status_line.split(" ", 2)
    if len(parts) != 3:
        raise MalformedMessage(f"bad status line: {status_line!r}")
    version, code_text, reason = parts
    if version != HTTP_VERSION:
        raise MalformedMessage(f"unsupported version {version!r}")
    if not _is_digits(code_text):
        raise MalformedMessage(f"bad status code {code_text!r}")
    status = int(code_text)
    if status not in REASON_PHRASES:
        raise MalformedMessage(f"status {status} outside the lab subset")

    headers = _parse_header_block(block)
    if status == 302:
        if len(_header_values(headers, "Location")) != 1:
            raise MalformedMessage("302 must carry exactly one Location header")
    return status, reason, headers, _declared_length(headers)


def parse_request(raw: bytes) -> HttpRequest:
    """Parse a complete request; raises MalformedMessage otherwise.

    The request must carry exactly one Host header (used to reconstruct
    the URI) and exactly Content-Length body bytes.
    """
    head, body = _split_head(raw)
    method, uri, headers, declared = _request_head(head)
    _check_body(declared, body)
    return HttpRequest(method, uri, headers, body)


def parse_response(raw: bytes) -> HttpResponse:
    """Parse a complete response; raises MalformedMessage otherwise.

    Only HTTP/1.1 and the lab's status subset are accepted; a 302 must
    carry exactly one Location header.
    """
    head, body = _split_head(raw)
    status, reason, headers, declared = _response_head(head)
    _check_body(declared, body)
    return HttpResponse(status, reason, headers, body)


def serialize(message: Message) -> bytes:
    """Message to wire bytes: CRLF line endings, stored header order."""
    if isinstance(message, HttpRequest):
        start = f"{message.method.value} {message.uri.target()} {HTTP_VERSION}"
    else:
        start = f"{HTTP_VERSION} {message.status} {message.reason}"
    return _head_bytes(start, message.headers) + message.body


@functools.lru_cache(maxsize=64)
def _head_bytes(start: str, headers: tuple[Header, ...]) -> bytes:
    """The start line and header lines, through the blank line, as Latin-1."""
    lines = [start]
    lines += [f"{header.name}: {header.value}" for header in headers]
    lines += ["", ""]
    return "\r\n".join(lines).encode("latin-1")


_BAD_ESCAPE = re.compile(r"%(?![0-9A-Fa-f]{2})")
_NEEDS_NO_ESCAPE = re.compile(r"[A-Za-z0-9*\-._]*")


def _encode_component(text: str) -> str:
    if _NEEDS_NO_ESCAPE.fullmatch(text):
        return text
    return quote_plus(text, safe="*").replace("~", "%7E")


def _decode_component(text: str) -> str:
    # Only ASCII passes through: a lone surrogate must reach unquote_to_bytes and raise.
    if "%" not in text and "+" not in text and text.isascii():
        return text
    bad = _BAD_ESCAPE.search(text)
    if bad is not None:
        raise MalformedEncoding(f"bad percent escape at offset {bad.start()} in {text!r}")
    try:
        return unquote_to_bytes(text.replace("+", " ")).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedEncoding(f"decoded octets are not UTF-8 in {text!r}") from exc


def form_urlencode(pairs: list[tuple[str, str]]) -> str:
    """Encode ordered pairs as key=value joined by '&' (order preserved)."""
    return "&".join(
        f"{_encode_component(name)}={_encode_component(value)}" for name, value in pairs
    )


def form_urldecode(encoded: str) -> list[tuple[str, str]]:
    """Inverse of form_urlencode; lenient about missing '=' in a pair."""
    if encoded == "":
        return []
    pairs = []
    for part in encoded.split("&"):
        name, _, value = part.partition("=")
        pairs.append((_decode_component(name), _decode_component(value)))
    return pairs
