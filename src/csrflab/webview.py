"""Embedded-browser emulator: loadUrl / loadData / postUrl, a navigation
hook, and a restricted HTML parser with auto-submit detection.

There is no script engine.  The parser recognizes forms, a small set of
input types (hidden, text, submit; a type-less input counts as text),
and script bodies matched against exactly two auto-submit shapes::

    document.getElementById("<id>").submit()
    document.forms[<digits>].submit()

whitespace-tolerant, double quotes only.  Anything else in a script is
inert.  That is all auto-submitting attack pages need, and it keeps the
attack surface of the lab itself at zero.

A lab loads the same few pages over and over (the login page, the
attack page), so two pure functions are memoized with functools.lru_cache:

- _scan, 16 entries: the html.parser pass over a distinct page text, its
  HtmlForms with their actions as written, and its auto-submit
  selectors.  An entry pins the text and about as much again in parsed
  strings.  A response body has no cap, so neither has this memo; the
  longest page in a matrix is 574 characters;
- _resolve, 16 entries: urljoin of a (base, reference) pair, a form
  action or a Location against the URL it came with.  An entry pins the
  two texts and the result, about twice their length: a Location is at
  most one 1 MiB response head (16 x 4 MiB = 64 MiB with a 1 MiB base),
  and a form action is as long as the page allows.  The longest entry in
  a matrix is 135 bytes.

Both are exact, being pure functions that return immutable data, and an
input that raises is not cached.  Resolving actions against the page
URL, the origin, the auto-submit choice and its warning run on every
parse.  A DocumentContext and a LoadResult are NamedTuples, each built
once with every field: a document's forms and auto-submit, and a load's
nested submission, are known before the record is made.

Navigation model.  Every network navigation follows up to five 302
hops.  The navigation hook (the shouldOverrideUrlLoading analog) is
consulted before document-initiated navigations (form submissions and
redirect hops) and never for the initial request of an API call
(load_url, load_data, post_url); returning true suppresses exactly that
navigation.  Form submissions carry an Origin header (the initiating
document's origin, "null" when opaque) and attach cookies per that
initiator, so SameSite=Strict withholds the session cookie cross-site.
API-initiated requests carry no Origin header and attach cookies as if
typed into an address bar, Strict ones included; redirect hops reuse
the initiator of the navigation that produced them.

Landing.  A network response, an asset:/// lookup, a file:/// read, and
load_data's raw text all land the same way: the parsed document becomes
the current page and, when it declares an auto-submit, submits at once.
Documents landed from local assets, from raw data, and from file paths
all get opaque origins.  The assets are the app's packaged pages, held
in memory by name (WebViewInstance(assets=)); only file:/// reads the
disk.  LoadResult.deepest() is the last navigation of an auto-submit
chain.
"""

from __future__ import annotations

import functools
import re
from html.parser import HTMLParser
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urljoin

from . import client
from . import cookies as cookiemod
from .cookies import Cookie, Origin
from .httpcore import (
    BadUrl,
    HttpMethod,
    HttpResponse,
    RequestUri,
    form_urlencode,
    get_header,
    make_request,
    parse_url,
    with_header,
)
# Sent through client.execute; still imported because the benchmark's
# tracer (perfbench/tracing.py) wraps them by this module's name.
from .httpcore import parse_response, serialize  # noqa: F401
from .transport import InProcessTransport, TcpTransport

MAX_REDIRECTS = 5
_MAX_AUTO_SUBMITS = 5


class PermissionDenied(Exception):
    """Network load attempted without the internet permission."""


class AssetNotFound(Exception):
    pass


class TooManyRedirects(Exception):
    pass


class BadEncoding(Exception):
    pass


class UnsupportedMime(Exception):
    pass


class NoSuchForm(Exception):
    pass


class NoSuchField(Exception):
    pass


class ReentrantLoad(Exception):
    """Load operation attempted from inside the navigation hook."""


class HtmlForm(NamedTuple):
    action: str
    method: HttpMethod = HttpMethod.GET
    id: str | None = None
    fields: tuple[tuple[str, str], ...] = ()


class DocumentContext(NamedTuple):
    """A parsed page: its origin, its forms, and its auto-submit, if any."""

    origin: Origin
    forms: tuple[HtmlForm, ...] = ()
    # Form selector: a str is an element id, an int indexes document.forms.
    # parse_html sets it only to a selector that resolves to a form.
    auto_submit: int | str | None = None


class LoadResult(NamedTuple):
    """What one emulator operation did.

    status and response describe the primary network exchange (None for
    purely local loads); document is the finally landed page after any
    redirects; submission carries the nested result when the landed
    document auto-submitted a form; overridden means the hook suppressed
    the navigation before any bytes hit the wire.
    """

    status: int | None = None
    response: HttpResponse | None = None
    document: DocumentContext | None = None
    overridden: bool = False
    submission: LoadResult | None = None

    def deepest(self) -> "LoadResult":
        """The last load of the auto-submit chain this one started."""
        result = self
        while result.submission is not None:
            result = result.submission
        return result


_GETELEM_SUBMIT = re.compile(
    r'document\s*\.\s*getElementById\s*\(\s*"([^"]*)"\s*\)\s*\.\s*submit\s*\(\s*\)'
)
_FORMS_SUBMIT = re.compile(r"document\s*\.\s*forms\s*\[\s*(\d+)\s*\]\s*\.\s*submit\s*\(\s*\)")


class _FormScanner(HTMLParser):
    """Lenient single-pass scan for forms, inputs, and script bodies."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.raw_forms: list[dict] = []
        self.scripts: list[str] = []
        self._form: dict | None = None
        self._script_chunks: list[str] | None = None

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        if tag == "form":
            self._form = {
                "id": attrs.get("id"),
                "action": attrs.get("action"),
                "method": (attrs.get("method") or "get").lower(),
                "fields": [],
            }
            self.raw_forms.append(self._form)
        elif tag == "input" and self._form is not None:
            input_type = (attrs.get("type") or "text").lower()
            name = attrs.get("name")
            if input_type in ("hidden", "text", "submit") and name:
                self._form["fields"].append((name, attrs.get("value") or ""))
        elif tag == "script":
            self._script_chunks = []

    def handle_endtag(self, tag):
        if tag == "form":
            self._form = None
        elif tag == "script" and self._script_chunks is not None:
            self.scripts.append("".join(self._script_chunks))
            self._script_chunks = None

    def handle_data(self, data):
        if self._script_chunks is not None:
            self._script_chunks.append(data)


@functools.lru_cache(maxsize=16)
def _resolve(base: str, reference: str) -> str:
    """urljoin, with its ValueError (an unbalanced "[") raised as BadUrl.
    Memoized per (base, reference), as parse_url is per text."""
    try:
        return urljoin(base, reference)
    except ValueError as exc:
        raise BadUrl(f"cannot resolve {reference!r} against {base}") from exc


@functools.lru_cache(maxsize=16)
def _scan(text: str) -> tuple[tuple[HtmlForm, ...], tuple[int | str, ...]]:
    """The tokenizer pass over text: its forms, their actions as written
    (None when the tag has none), and the auto-submit selectors of its
    scripts in order.  A pure function of text, returning immutable data
    only, so every caller of one text shares one result."""
    scanner = _FormScanner()
    scanner.feed(text)
    scanner.close()
    forms = tuple(
        HtmlForm(
            raw["action"],
            HttpMethod.POST if raw["method"] == "post" else HttpMethod.GET,
            raw["id"],
            tuple(raw["fields"]),
        )
        for raw in scanner.raw_forms
    )
    selectors: list[int | str] = []
    for script in scanner.scripts:
        for match in _GETELEM_SUBMIT.finditer(script):
            selectors.append(match.group(1))
        for match in _FORMS_SUBMIT.finditer(script):
            selectors.append(int(match.group(1)))
    return forms, tuple(selectors)


def parse_html(text: str, origin: Origin, url: str | None = None) -> DocumentContext:
    """Total parse: any input yields a DocumentContext.

    Relative form actions resolve against url; forms whose action does
    not come out as an absolute http URL are dropped.  The first script
    auto-submit pattern that names an existing form wins; selectors that
    resolve to nothing are dropped with a warning.

    The text is tokenized once per distinct text: _scan memoizes the
    html.parser pass for the 16 most recently parsed texts, which it
    keeps referenced.  This is exact: the scan reads nothing but the
    text and returns immutable data.  Everything that depends on
    url or origin, and the warning, runs on every call, and each call
    builds its own DocumentContext.
    """
    scanned, selectors = _scan(text)

    kept: list[HtmlForm] = []
    for action, method, form_id, fields in scanned:
        if action is None:
            continue
        try:
            if url:
                action = _resolve(url, action)
            if parse_url(action).scheme != "http":
                continue
        except BadUrl:
            continue
        kept.append(HtmlForm(action, method, form_id, fields))
    forms = tuple(kept)

    auto_submit = None
    for selector in selectors:
        if resolve_form(forms, selector) is not None:
            auto_submit = selector
            break
        import logging
        logging.getLogger(__name__).warning(
            "auto-submit selector %r matches no form; dropped", selector
        )
    return DocumentContext(origin, forms, auto_submit)


def resolve_form(forms: tuple[HtmlForm, ...], selector: int | str) -> HtmlForm | None:
    if isinstance(selector, int):
        if 0 <= selector < len(forms):
            return forms[selector]
        return None
    for form in forms:
        if form.id == selector:
            return form
    return None


class WebViewInstance:
    """One emulated WebView: cookie store, optional navigation hook,
    the current document, and an internet-permission gate.  assets is
    the app's packaged bundle: asset:///NAME reads assets[NAME]."""

    def __init__(
        self,
        transport: TcpTransport | InProcessTransport,
        assets: dict[str, str] | None = None,
        internet_permitted: bool = True,
    ) -> None:
        self.transport = transport
        self.assets = assets or {}
        self.internet_permitted = internet_permitted
        self.cookie_store: list[Cookie] = []
        self.navigation_hook = None
        self.current_document: DocumentContext | None = None
        self._in_hook = False
        self._auto_depth = 0

    # --------------------------------------------------------- plumbing

    def set_navigation_hook(self, hook) -> "WebViewInstance":
        self.navigation_hook = hook
        return self

    def get_cookie(self, url: str) -> str | None:
        """The CookieManager.getCookie analog: raw store access, no
        SameSite filtering."""
        return cookiemod.get_cookie(self.cookie_store, url)

    def _consult_hook(self, url: str) -> bool:
        if self.navigation_hook is None:
            return False
        self._in_hook = True
        try:
            return bool(self.navigation_hook(url))
        finally:
            self._in_hook = False

    def _guard_entry(self) -> None:
        if self._in_hook:
            raise ReentrantLoad("load operations are forbidden inside the navigation hook")

    # ------------------------------------------------------- navigation

    def _network_exchange(self, method, url, body, content_type, initiator, origin_header):
        request = make_request(method, url, body=body, content_type=content_type)
        if not self.internet_permitted:
            raise PermissionDenied(f"internet permission not granted; cannot load {url}")
        cookie = cookiemod.cookies_for_request(self.cookie_store, request.uri, initiator)
        if cookie is not None:
            request = with_header(request, "Cookie", cookie)
        if origin_header is not None:
            request = with_header(request, "Origin", origin_header)
        return request, client.execute(request, self.transport)

    def _navigate(
        self,
        method: HttpMethod,
        url: str,
        body: bytes,
        content_type: str | None,
        initiator: Origin | None,
    ) -> LoadResult:
        """initiator is the origin of the document that started the
        navigation, None for an API call.  Only a document-initiated
        request consults the hook first and carries an Origin header."""
        if initiator is not None and self._consult_hook(url):
            return LoadResult(overridden=True)

        origin_header = None if initiator is None else initiator.serialize()
        target, hop = url, 0
        while True:
            request, response = self._network_exchange(
                method, target, body, content_type, initiator, origin_header
            )
            cookiemod.store_from_response(self.cookie_store, request.uri, response)
            if hop == 0:
                primary = response
            if response.status != 302:
                break
            if hop == MAX_REDIRECTS:
                raise TooManyRedirects(f"gave up after {MAX_REDIRECTS} hops from {url}")
            hop += 1
            target = _resolve(target, get_header(response, "Location"))
            if self._consult_hook(target):
                return LoadResult(status=primary.status, response=primary, overridden=True)
            # A redirect hop is a plain GET, with no Origin header.
            method, body, content_type, origin_header = HttpMethod.GET, b"", None, None

        document = parse_html(
            response.body.decode("utf-8", errors="replace"),
            origin=Origin.from_uri(request.uri),
            url=target,
        )
        return self._land(document, primary.status, primary)

    def _land(
        self, document: DocumentContext, status: int | None = None,
        response: HttpResponse | None = None,
    ) -> LoadResult:
        """Make document the current page, then let it auto-submit."""
        self.current_document = document
        return LoadResult(status, response, document, submission=self._maybe_auto_submit(document))

    def _maybe_auto_submit(self, document: DocumentContext) -> LoadResult | None:
        if document.auto_submit is None:
            return None
        form = resolve_form(document.forms, document.auto_submit)
        if self._auto_depth >= _MAX_AUTO_SUBMITS:
            import logging
            logging.getLogger(__name__).warning(
                "auto-submit depth limit reached; not submitting %s", form.action
            )
            return None
        self._auto_depth += 1
        try:
            return self.submit_form(form, initiator=document.origin)
        finally:
            self._auto_depth -= 1

    # ------------------------------------------------------- operations

    def load_url(self, url: str) -> LoadResult:
        """GET an http URL, or read a file:/// or asset:/// document.
        Local documents get opaque origins; a document that declares an
        auto-submit submits immediately."""
        self._guard_entry()
        uri = parse_url(url)
        if uri.scheme == "http":
            return self._navigate(HttpMethod.GET, url, b"", None, initiator=None)
        document = parse_html(self._read_local(uri), origin=Origin.opaque_origin(), url=url)
        return self._land(document)

    def _read_local(self, uri: RequestUri) -> str:
        """The text of an asset:/// name in the bundle, or of a file:///
        path."""
        if uri.scheme == "asset":
            name = uri.path.removeprefix("/")
            if name not in self.assets:
                raise AssetNotFound(f"no asset named {name!r} in the bundle")
            return self.assets[name]
        target = Path(uri.path)
        if not target.is_file():
            raise AssetNotFound(str(target))
        return target.read_text(encoding="utf-8", errors="replace")

    def load_data(self, data: str, mime: str, encoding: str) -> LoadResult:
        """Load raw HTML text (or its base64 form) as a document with an
        opaque origin; auto-submit fires as in load_url."""
        self._guard_entry()
        if not mime.lower().startswith("text/html"):
            raise UnsupportedMime(f"load_data handles text/html only, got {mime!r}")
        kind = encoding.lower()
        if kind == "utf-8":
            text = data
        elif kind == "base64":
            import base64
            import binascii
            try:
                text = base64.b64decode(data, validate=True).decode("utf-8")
            except (binascii.Error, UnicodeDecodeError) as exc:
                raise BadEncoding(f"undecodable base64 document: {exc}") from exc
        else:
            raise BadEncoding(f"encoding must be UTF-8 or base64, got {encoding!r}")
        document = parse_html(text, origin=Origin.opaque_origin(), url=None)
        return self._land(document)

    def post_url(self, url: str, body: bytes) -> LoadResult:
        """POST raw body bytes to an http URL.  API-initiated: no Origin
        header, cookies attached as if there were no initiating document."""
        self._guard_entry()
        return self._navigate(
            HttpMethod.POST,
            url,
            bytes(body),
            "application/x-www-form-urlencoded",
            initiator=None,
        )

    def submit_form(self, form: HtmlForm, initiator: Origin) -> LoadResult:
        """Submit a form as a document with the given origin would: the
        hook is consulted first, the request carries an Origin header,
        and cookie attachment respects the initiator."""
        self._guard_entry()
        if parse_url(form.action).scheme != "http":
            raise BadUrl(f"form action must be an absolute http URL: {form.action!r}")
        encoded = form_urlencode(list(form.fields))
        if form.method is HttpMethod.POST:
            return self._navigate(
                HttpMethod.POST,
                form.action,
                encoded.encode(),
                "application/x-www-form-urlencoded",
                initiator=initiator,
            )
        # A GET submission replaces the action's query; its fragment goes
        # too, or the new query would land inside it.
        base = form.action.split("#")[0].split("?")[0]
        target = f"{base}?{encoded}" if encoded else base
        return self._navigate(HttpMethod.GET, target, b"", None, initiator=initiator)

    def user_submit_form(
        self, form_selector: int | str, field_values: list[tuple[str, str]]
    ) -> LoadResult:
        """The victim filling in a form on the current page: override
        the named fields, then submit with the page's own origin."""
        self._guard_entry()
        if self.current_document is None:
            raise NoSuchForm("no document loaded")
        form = resolve_form(self.current_document.forms, form_selector)
        if form is None:
            raise NoSuchForm(f"no form matches selector {form_selector!r}")
        fields = list(form.fields)
        names = [name for name, _ in fields]
        for name, value in field_values:
            if name not in names:
                raise NoSuchField(f"form has no field named {name!r}")
            fields[names.index(name)] = (name, value)
        filled = form._replace(fields=tuple(fields))
        return self.submit_form(filled, initiator=self.current_document.origin)
