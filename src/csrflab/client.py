"""Forged HTTP client, and the lab's one request path.

build() never consults a cookie store or sends an Origin header unless
told to: the only headers are the ones set explicitly plus the
Host/Connection/Content-Length bookkeeping added at build time.
execute() is the only code that puts a request on a transport; the
harness and the WebView emulator send through it too.
"""

from __future__ import annotations

from .httpcore import (
    HttpMethod,
    HttpRequest,
    HttpResponse,
    form_urlencode,
    make_request,
    parse_response,
    serialize,
)
from .transport import InProcessTransport, TcpTransport


def build(
    method: HttpMethod,
    url: str,
    body_pairs: list[tuple[str, str]] | None = None,
    headers: list[tuple[str, str]] | None = None,
) -> HttpRequest:
    """Request to an http URL; pairs, when given, become an urlencoded
    body with the matching Content-Type.  Raises BadUrl otherwise."""
    if body_pairs is None:
        return make_request(method, url, headers=headers)
    return make_request(
        method,
        url,
        headers=headers,
        body=form_urlencode(body_pairs).encode(),
        content_type="application/x-www-form-urlencoded",
    )


def execute(
    request: HttpRequest, transport: TcpTransport | InProcessTransport | None = None
) -> HttpResponse:
    """One exchange, response parsed, no redirect following."""
    transport = transport or TcpTransport()
    uri = request.uri
    return parse_response(transport.exchange(uri.host, uri.port, serialize(request)))
