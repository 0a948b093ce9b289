"""Cookie manager: storage, getCookie queries, and request attachment.

Cookies here are host-only (the domain is exactly the response host; no
suffix matching) and live for the duration of a run.  A store is a plain
list of Cookies in storage order, which store_from_response fills in
place.  The accepted Set-Cookie grammar is ``name=value`` followed by
any mix of ``; Path=<p>`` and ``; SameSite=Strict`` (attribute names
matched case-insensitively); anything else in a header makes that one
header malformed, and it is skipped and logged while the rest of the
response is honored.

One scoping rule serves two lookups.  A cookie is in scope for a URL
when its domain is the URL's host and its path path-matches the URL's
path (RFC 6265 §5.1.4: the paths are equal, or the cookie path is a
prefix that ends in "/" or is followed by "/" in the URL path, so
``/cgi-bin`` covers ``/cgi-bin/x`` but not ``/cgi-binary``).  In-scope
cookies join as ``name=value; name2=value2`` in storage
order.  ``get_cookie`` answers the hosting application's direct query
and ignores SameSite entirely: the application owns the store, so
browser-side policy cannot protect the cookie from it.
``cookies_for_request(store, uri, initiator)`` is the browser-side
attachment decision and is where SameSite=Strict bites: a Strict cookie
is withheld whenever the initiating document's origin is not same-site
with the target's.  Requests without an initiator (API-initiated loads)
attach Strict cookies, the way a typed address-bar navigation would.

Same-site follows RFC 6265bis §5.2: the same scheme and the same site,
whatever the ports, as cookie scope ignores ports too.  A site there is
a registrable domain, which needs the public suffix list; none is
available offline, so here the site is the exact host.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .httpcore import BadUrl, HttpResponse, RequestUri, authority, get_header_values, parse_url


class MalformedSetCookie(Exception):
    """Set-Cookie header text outside the accepted grammar."""


class SameSite(str, enum.Enum):
    NONE = "None"
    STRICT = "Strict"


class Origin(NamedTuple):
    """A document origin: either web (scheme, host, port) or opaque.

    Local files, packaged assets, and raw-data documents all get opaque
    origins.  An opaque origin is never same-site with anything, itself
    included, and serializes as "null" in Origin headers.
    """

    scheme: str = ""
    host: str = ""
    port: int = 0
    opaque: bool = False

    @classmethod
    def web(cls, scheme: str, host: str, port: int) -> "Origin":
        return cls(scheme=scheme, host=host.lower(), port=port)

    @classmethod
    def opaque_origin(cls) -> "Origin":
        return cls(opaque=True)

    @classmethod
    def from_uri(cls, uri: RequestUri) -> "Origin":
        if uri.scheme == "http":
            return cls.web("http", uri.host, uri.port)
        return cls.opaque_origin()

    def serialize(self) -> str:
        if self.opaque:
            return "null"
        return f"{self.scheme}://{authority(self.host, self.port)}"

    def same_site_with(self, other: "Origin") -> bool:
        """Same scheme and host; ports do not split a site."""
        if self.opaque or other.opaque:
            return False
        return (self.scheme, self.host) == (other.scheme, other.host)


class _CookieFields(NamedTuple):
    name: str
    value: str
    domain: str
    path: str = "/"
    same_site: SameSite = SameSite.NONE


class Cookie(_CookieFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Cookie:
        self = super().__new__(cls, *args, **kwargs)
        if not self.name:
            raise ValueError("empty cookie name")
        if any(ch in "=;" or ch.isspace() for ch in self.name):
            raise ValueError(f"illegal character in cookie name {self.name!r}")
        if any(ch in ";\r\n" for ch in self.value):
            raise ValueError(f"illegal character in cookie value {self.value!r}")
        if not self.path.startswith("/"):
            raise ValueError(f"cookie path must begin with '/': {self.path!r}")
        return self


def parse_set_cookie(header_value: str, host: str) -> Cookie:
    """One Set-Cookie header to a Cookie; raises MalformedSetCookie."""
    parts = header_value.split(";")
    name, sep, value = parts[0].partition("=")
    if not sep:
        raise MalformedSetCookie(f"missing '=' in {header_value!r}")
    name = name.strip()
    value = value.strip()
    path = "/"
    same_site = SameSite.NONE
    for attr in parts[1:]:
        attr_name, _, attr_value = attr.strip().partition("=")
        key = attr_name.lower()
        if key == "path":
            path = attr_value  # Cookie rejects one that does not begin with "/"
        elif key == "samesite" and attr_value.lower() == "strict":
            same_site = SameSite.STRICT
        else:
            raise MalformedSetCookie(f"unsupported attribute {attr.strip()!r}")
    try:
        return Cookie(
            name=name, value=value, domain=host.lower(), path=path, same_site=same_site
        )
    except ValueError as exc:
        raise MalformedSetCookie(str(exc)) from exc


def store_from_response(
    store: list[Cookie], url: RequestUri, response: HttpResponse
) -> list[Cookie]:
    """Store every well-formed Set-Cookie header under the url's host.

    A later cookie with the same (name, domain, path) replaces the earlier
    one in place, keeping its storage position.  Malformed headers are
    skipped and logged; the rest still land.
    """
    if url.scheme != "http":
        raise BadUrl(f"cookies only stored for http URLs, got {url.scheme!r}")
    for header_value in get_header_values(response, "Set-Cookie"):
        try:
            cookie = parse_set_cookie(header_value, url.host)
        except MalformedSetCookie as exc:
            import logging
            logging.getLogger(__name__).warning(
                "skipping malformed Set-Cookie %r: %s", header_value, exc
            )
            continue
        for i, existing in enumerate(store):
            if (existing.name, existing.domain, existing.path) == (
                cookie.name,
                cookie.domain,
                cookie.path,
            ):
                store[i] = cookie
                break
        else:
            store.append(cookie)
    return store


def _scoped(store: list[Cookie], uri: RequestUri, withhold_strict: bool) -> str | None:
    """The cookies scoped to uri's host and path, joined in storage
    order; None when there are none."""
    host = uri.host.lower()
    pairs = [
        f"{c.name}={c.value}"
        for c in store
        if c.domain == host
        and _path_matches(uri.path, c.path)
        and not (withhold_strict and c.same_site is SameSite.STRICT)
    ]
    return "; ".join(pairs) or None


def _path_matches(request_path: str, cookie_path: str) -> bool:
    """RFC 6265 §5.1.4 path-match."""
    directory = cookie_path if cookie_path.endswith("/") else f"{cookie_path}/"
    return request_path == cookie_path or request_path.startswith(directory)


def get_cookie(store: list[Cookie], url: str) -> str | None:
    """The hosting application's raw query: every cookie scoped to the
    url.  SameSite is deliberately not consulted."""
    uri = parse_url(url)
    if uri.scheme != "http":
        raise BadUrl(f"cookies are scoped to http URLs, got {url!r}")
    return _scoped(store, uri, withhold_strict=False)


def cookies_for_request(
    store: list[Cookie], uri: RequestUri, initiator: Origin | None
) -> str | None:
    """Browser-side attachment: like get_cookie, but Strict cookies are
    withheld when the initiating document's origin (None for an
    API-initiated load) is present and not same-site with uri's."""
    cross_site = initiator is not None and not initiator.same_site_with(
        Origin.from_uri(uri)
    )
    return _scoped(store, uri, withhold_strict=cross_site)
