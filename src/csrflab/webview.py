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
the initiator of the navigation that produced them.  Documents landed
from local assets, from raw data, and from file paths all get opaque
origins.
"""

from __future__ import annotations

import base64
import binascii
import enum
import logging
import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from urllib.parse import urljoin

from . import client
from . import cookies as cookiemod
from .cookies import CookieStore, Origin, RequestContext
from .httpcore import (
    BadUrl,
    HttpMethod,
    HttpResponse,
    form_urlencode,
    get_header,
    make_request,
    parse_url,
    set_header,
)
# Sent through client.execute; still imported because the benchmark's
# tracer (perfbench/tracing.py) wraps them by this module's name.
from .httpcore import parse_response, serialize  # noqa: F401
from .transport import TcpTransport, Transport

logger = logging.getLogger(__name__)

MAX_REDIRECTS = 5
_MAX_AUTO_SUBMITS = 5


class PermissionDenied(Exception):
    """Network load attempted without the internet permission."""


class AssetNotFound(Exception):
    pass


class AssetEscape(Exception):
    """Asset path tried to climb out of the asset root."""


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


class FormMethod(str, enum.Enum):
    GET = "get"
    POST = "post"


@dataclass(frozen=True)
class HtmlForm:
    action: str
    method: FormMethod = FormMethod.GET
    id: str | None = None
    fields: tuple[tuple[str, str], ...] = ()


@dataclass
class DocumentContext:
    origin: Origin
    url: str | None = None
    forms: list[HtmlForm] = field(default_factory=list)
    # Form selector: a str is an element id, an int indexes document.forms.
    auto_submit: int | str | None = None


@dataclass
class LoadResult:
    """What one emulator operation did.

    status and response describe the primary network exchange (None for
    purely local loads); document is the finally landed page after any
    redirects; submission carries the nested result when the landed
    document auto-submitted a form; overridden means the hook suppressed
    the navigation before any bytes hit the wire.
    """

    url: str | None
    status: int | None = None
    response: HttpResponse | None = None
    document: DocumentContext | None = None
    overridden: bool = False
    submission: "LoadResult | None" = None

    def final_status(self) -> int | None:
        """Primary status of the deepest navigation this load caused."""
        if self.submission is not None:
            return self.submission.final_status()
        return self.status


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


def parse_html(text: str, origin: Origin, url: str | None = None) -> DocumentContext:
    """Total parse: any input yields a DocumentContext.

    Relative form actions resolve against url; forms whose action does
    not come out as an absolute http URL are dropped.  The first script
    auto-submit pattern that names an existing form wins; selectors that
    resolve to nothing are dropped with a warning.
    """
    scanner = _FormScanner()
    scanner.feed(text)
    scanner.close()

    forms: list[HtmlForm] = []
    for raw in scanner.raw_forms:
        action = raw["action"]
        if action is None:
            continue
        if url:
            action = urljoin(url, action)
        try:
            if parse_url(action).scheme != "http":
                continue
        except BadUrl:
            continue
        method = FormMethod.POST if raw["method"] == "post" else FormMethod.GET
        forms.append(
            HtmlForm(action=action, method=method, id=raw["id"], fields=tuple(raw["fields"]))
        )
    document = DocumentContext(origin=origin, url=url, forms=forms)

    selectors: list[int | str] = []
    for script in scanner.scripts:
        for match in _GETELEM_SUBMIT.finditer(script):
            selectors.append(match.group(1))
        for match in _FORMS_SUBMIT.finditer(script):
            selectors.append(int(match.group(1)))
    for selector in selectors:
        if resolve_form(document, selector) is not None:
            document.auto_submit = selector
            break
        logger.warning("auto-submit selector %r matches no form; dropped", selector)
    return document


def resolve_form(document: DocumentContext, selector: int | str) -> HtmlForm | None:
    if isinstance(selector, int):
        if 0 <= selector < len(document.forms):
            return document.forms[selector]
        return None
    for form in document.forms:
        if form.id == selector:
            return form
    return None


class WebViewInstance:
    """One emulated WebView: cookie store, optional navigation hook,
    the current document, and an internet-permission gate."""

    def __init__(
        self,
        transport: Transport | None = None,
        asset_root: str | None = None,
        internet_permitted: bool = True,
        cookie_store: CookieStore | None = None,
    ) -> None:
        self.transport = transport or TcpTransport()
        self.asset_root = asset_root
        self.internet_permitted = internet_permitted
        self.cookie_store = cookie_store or CookieStore()
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

    def _network_exchange(self, method, url, body, content_type, initiator, origin_header=None):
        if not self.internet_permitted:
            raise PermissionDenied(f"internet permission not granted; cannot load {url}")
        request = make_request(method, url, body=body, content_type=content_type)
        ctx = RequestContext(
            target_origin=Origin.from_uri(request.uri), initiator_origin=initiator
        )
        cookie = cookiemod.cookies_for_request(self.cookie_store, ctx, request.uri.path)
        if cookie is not None:
            set_header(request, "Cookie", cookie)
        if origin_header is not None:
            set_header(request, "Origin", origin_header)
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
            return LoadResult(url=url, overridden=True)

        origin_header = None if initiator is None else initiator.serialize()
        request, response = self._network_exchange(
            method, url, body, content_type, initiator, origin_header
        )
        cookiemod.store_from_response(self.cookie_store, request.uri, response)
        primary = response
        current_url = url

        hops = 0
        while response.status == 302:
            hops += 1
            if hops > MAX_REDIRECTS:
                raise TooManyRedirects(f"gave up after {MAX_REDIRECTS} hops from {url}")
            next_url = urljoin(current_url, get_header(response, "Location"))
            if self._consult_hook(next_url):
                return LoadResult(
                    url=url, status=primary.status, response=primary, overridden=True
                )
            request, response = self._network_exchange(
                HttpMethod.GET, next_url, b"", None, initiator
            )
            cookiemod.store_from_response(self.cookie_store, request.uri, response)
            current_url = next_url

        document = parse_html(
            response.body.decode("utf-8", errors="replace"),
            origin=Origin.from_uri(parse_url(current_url)),
            url=current_url,
        )
        self.current_document = document
        result = LoadResult(
            url=url, status=primary.status, response=primary, document=document
        )
        result.submission = self._maybe_auto_submit(document)
        return result

    def _maybe_auto_submit(self, document: DocumentContext) -> LoadResult | None:
        if document.auto_submit is None:
            return None
        form = resolve_form(document, document.auto_submit)
        if form is None:  # pragma: no cover - parse_html only keeps resolvable ones
            return None
        if self._auto_depth >= _MAX_AUTO_SUBMITS:
            logger.warning("auto-submit depth limit reached; not submitting %s", form.action)
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
            return self._navigate(
                HttpMethod.GET,
                url,
                b"",
                None,
                initiator=None,
            )
        if uri.scheme == "asset":
            text = self._read_asset(uri.path)
        elif uri.scheme == "file":
            text = self._read_file(uri.path)
        else:
            raise BadUrl(f"load_url supports http, file, and asset URLs, got {url!r}")
        document = parse_html(text, origin=Origin.opaque_origin(), url=url)
        self.current_document = document
        result = LoadResult(url=url, document=document)
        result.submission = self._maybe_auto_submit(document)
        return result

    def _read_asset(self, path: str) -> str:
        if self.asset_root is None:
            raise AssetNotFound("no asset root configured")
        relative = path.lstrip("/")
        if not relative:
            raise AssetNotFound("empty asset path")
        if any(part in ("..", "") for part in relative.split("/")):
            raise AssetEscape(f"asset path {path!r} leaves the asset root")
        target = Path(self.asset_root) / relative
        if not target.is_file():
            raise AssetNotFound(str(target))
        return target.read_text(encoding="utf-8", errors="replace")

    @staticmethod
    def _read_file(path: str) -> str:
        target = Path(path)
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
            try:
                text = base64.b64decode(data, validate=True).decode("utf-8")
            except (binascii.Error, UnicodeDecodeError) as exc:
                raise BadEncoding(f"undecodable base64 document: {exc}") from exc
        else:
            raise BadEncoding(f"encoding must be UTF-8 or base64, got {encoding!r}")
        document = parse_html(text, origin=Origin.opaque_origin(), url=None)
        self.current_document = document
        result = LoadResult(url=None, document=document)
        result.submission = self._maybe_auto_submit(document)
        return result

    def post_url(self, url: str, body: bytes) -> LoadResult:
        """POST raw body bytes to an http URL.  API-initiated: no Origin
        header, cookies attached as if there were no initiating document."""
        self._guard_entry()
        if parse_url(url).scheme != "http":
            raise BadUrl(f"post_url needs an http URL, got {url!r}")
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
        fields = list(form.fields)
        if form.method is FormMethod.POST:
            return self._navigate(
                HttpMethod.POST,
                form.action,
                form_urlencode(fields).encode(),
                "application/x-www-form-urlencoded",
                initiator=initiator,
            )
        base = form.action.split("?")[0]
        target = f"{base}?{form_urlencode(fields)}" if fields else base
        return self._navigate(
            HttpMethod.GET,
            target,
            b"",
            None,
            initiator=initiator,
        )

    def user_submit_form(
        self, form_selector: int | str, field_values: list[tuple[str, str]]
    ) -> LoadResult:
        """The victim filling in a form on the current page: override
        the named fields, then submit with the page's own origin."""
        self._guard_entry()
        if self.current_document is None:
            raise NoSuchForm("no document loaded")
        form = resolve_form(self.current_document, form_selector)
        if form is None:
            raise NoSuchForm(f"no form matches selector {form_selector!r}")
        fields = list(form.fields)
        names = [name for name, _ in fields]
        for name, value in field_values:
            if name not in names:
                raise NoSuchField(f"form has no field named {name!r}")
            fields[names.index(name)] = (name, value)
        filled = HtmlForm(
            action=form.action, method=form.method, id=form.id, fields=tuple(fields)
        )
        return self.submit_form(filled, initiator=self.current_document.origin)
