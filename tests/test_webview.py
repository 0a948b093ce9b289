"""Emulator tests: parsing, loads, hooks, origins, cookie discipline."""

import base64
import logging
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import seed_users
from csrflab.cookies import Origin, SameSite
from csrflab.fixtures import (
    ATTACK_PAGE_HTML,
    ATTACK_TITLE,
    CANONICAL_ACTION,
    attack_form_html,
)
from csrflab.forum import DefenseMode, ForumApp, PostKind
from csrflab.httpcore import BadUrl, HttpMethod, get_header, make_response, serialize
from csrflab import webview
from csrflab.transport import InProcessTransport, TcpTransport
from csrflab.webview import (
    AssetNotFound,
    MAX_REDIRECTS,
    BadEncoding,
    DocumentContext,
    HtmlForm,
    NoSuchField,
    NoSuchForm,
    PermissionDenied,
    ReentrantLoad,
    TooManyRedirects,
    UnsupportedMime,
    WebViewInstance,
    parse_html,
    resolve_form,
)

OPAQUE = Origin.opaque_origin()


class RecordingTransport:
    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def exchange(self, host, port, raw):
        self.requests.append(raw)
        return self.inner.exchange(host, port, raw)


def make_view(server, attack_page=False, recording=False, **kwargs):
    """A view over TCP; with attack_page, its bundle holds the attack page
    aimed at server."""
    transport = TcpTransport()
    if recording:
        transport = RecordingTransport(transport)
    bundle = {"attack_form.html": attack_form_html(server.base_url())} if attack_page else None
    return WebViewInstance(transport, bundle, **kwargs)


def login_through_view(view, base_url, username="sohini", password="pw"):
    view.load_url(f"{base_url}/cgi-bin/Forum/login.php")
    result = view.user_submit_form(
        "login-form", [("username", username), ("password", password)]
    )
    assert result.status == 302
    return result


# -------------------------------------------------------------- parsing


def test_parse_attack_page_conformance():
    doc = parse_html(ATTACK_PAGE_HTML, origin=OPAQUE)
    assert len(doc.forms) == 1
    form = doc.forms[0]
    assert form.id == "post-form"
    assert form.action == CANONICAL_ACTION
    assert form.method is HttpMethod.POST
    assert form.fields == (
        ("title", "WebView Attack from android"),
        ("recip", "sohini"),
        ("message", "WebView attack message from Android"),
    )
    assert doc.auto_submit == "post-form"


def test_parse_forms_index_pattern():
    doc = parse_html(
        '<form action="http://a/x"><input name="q"/></form>'
        "<script>document.forms[0].submit()</script>",
        origin=OPAQUE,
    )
    assert doc.auto_submit == 0


def test_parse_whitespace_tolerant_patterns():
    doc = parse_html(
        '<form id="f" action="http://a/x"></form>'
        '<script>\n  document . getElementById ( "f" ) . submit (  ) ;\n</script>',
        origin=OPAQUE,
    )
    assert doc.auto_submit == "f"


def test_parse_other_script_code_is_inert():
    doc = parse_html(
        '<form id="f" action="http://a/x"></form>'
        "<script>window.location = 'http://evil'; fetch('/x');</script>",
        origin=OPAQUE,
    )
    assert doc.auto_submit is None


def test_parse_unresolvable_selector_dropped(caplog):
    with caplog.at_level(logging.WARNING, logger="csrflab.webview"):
        doc = parse_html(
            '<script>document.getElementById("ghost").submit()</script>',
            origin=OPAQUE,
        )
    assert doc.auto_submit is None
    assert "matches no form" in caplog.text
    caplog.clear()
    # An index past the last form resolves to nothing either.
    with caplog.at_level(logging.WARNING, logger="csrflab.webview"):
        doc = parse_html(
            '<form action="http://a/x"></form><script>document.forms[1].submit()</script>',
            origin=OPAQUE,
        )
    assert doc.auto_submit is None
    assert "selector 1 matches no form" in caplog.text


def test_parse_input_type_rules():
    doc = parse_html(
        '<form action="http://a/x">'
        '<input type="hidden" name="h" value="1"/>'
        '<input name="typeless" value="2"/>'
        '<input type="password" name="secret" value="3"/>'
        '<input type="checkbox" name="box" value="4"/>'
        '<input type="text" value="unnamed"/>'
        '<input type="submit" name="go" value="Send"/>'
        "</form>",
        origin=OPAQUE,
    )
    assert doc.forms[0].fields == (("h", "1"), ("typeless", "2"), ("go", "Send"))


def test_parse_resolves_relative_actions():
    doc = parse_html(
        '<form action="/cgi-bin/Forum/login.php"></form>',
        origin=Origin.web("http", "forum.local", 8080),
        url="http://forum.local:8080/cgi-bin/Forum/login.php",
    )
    assert doc.forms[0].action == "http://forum.local:8080/cgi-bin/Forum/login.php"


def test_parse_drops_unusable_forms():
    doc = parse_html(
        '<form id="a"></form>'
        '<form id="b" action="ftp://x/y"></form>'
        '<form id="c" action="/relative-without-base"></form>'
        '<form id="d" action="http://ok/x"></form>'
        '<form id="e" action="asset:///page.html"></form>',
        origin=OPAQUE,
    )
    assert [f.id for f in doc.forms] == ["d"]


def test_a_document_is_never_equal_to_another_type():
    doc = DocumentContext(origin=OPAQUE)
    assert doc == DocumentContext(origin=OPAQUE)
    assert doc.__eq__(OPAQUE) is NotImplemented
    assert doc != OPAQUE


def test_parse_drops_forms_whose_action_has_a_bad_host():
    # Resolved against the page URL, as on every page landed from the network.
    doc = parse_html(
        '<form id="a" action="http://[::1/x"></form>'
        '<form id="b" action="http://[::1]:8080/x"></form>'
        '<form id="c" action="/ok"></form>',
        origin=Origin.web("http", "forum.local", 8080),
        url="http://forum.local:8080/page",
    )
    assert [f.id for f in doc.forms] == ["c"]


# Pieces that open, nearly open, or only look like form and script tags.
_markup_piece = st.one_of(
    st.sampled_from(["<form>", '<FORM id="f" action="http://a/x">', "<form/>", "</form>"]),
    st.sampled_from(["<script>", "<SCRIPT>", "<sCrIpT>", "</script>", "</SCRIPT>"]),
    st.sampled_from(["<form", "<script", "<formx>", "<scripts>", "<\u017fcript>"]),
    st.sampled_from(["<scr\u0130pt>", "< form>", "<!--<form-->", "&lt;script>", "<"]),
    st.sampled_from(['<input name="n" value="v">', ' method="post"', ">", "<p>"]),
    st.sampled_from(["document.forms[0].submit()", 'document.getElementById("f").submit()']),
    st.text(max_size=4),
)
_markup = st.lists(_markup_piece, max_size=12).map("".join)


def _parse_and_log(text, url):
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    webview_logger = logging.getLogger("csrflab.webview")
    webview_logger.addHandler(handler)
    try:
        document = parse_html(text, origin=OPAQUE, url=url)
    finally:
        webview_logger.removeHandler(handler)
    return document, [record.getMessage() for record in records]


@settings(max_examples=200)
@given(_markup, st.sampled_from([None, "http://a/page"]))
def test_parse_memo_agrees_with_an_uncached_scan(text, url):
    # The first parse of text misses the memo and the second hits it;
    # both must give the document and the warnings of a scan that runs
    # the tokenizer afresh.
    webview._scan.cache_clear()
    miss = _parse_and_log(text, url)
    hit = _parse_and_log(text, url)
    with mock.patch.object(webview, "_scan", webview._scan.__wrapped__):
        uncached = _parse_and_log(text, url)
    assert miss == uncached
    assert hit == uncached
    assert webview._scan.cache_info()[:2] == (1, 1)  # hits, misses


def test_parse_memo_is_not_shared_between_documents():
    doc = parse_html(ATTACK_PAGE_HTML, origin=OPAQUE)
    expected = parse_html(ATTACK_PAGE_HTML, origin=OPAQUE)
    doc.forms.clear()
    doc.auto_submit = None
    assert parse_html(ATTACK_PAGE_HTML, origin=OPAQUE) == expected
    assert expected.forms and expected.auto_submit == "post-form"


def test_parse_memo_still_warns_on_a_hit():
    text = '<script>document.getElementById("ghost").submit()</script>'
    webview._scan.cache_clear()
    warning = ["auto-submit selector 'ghost' matches no form; dropped"]
    assert _parse_and_log(text, None)[1] == warning  # a miss
    assert _parse_and_log(text, None)[1] == warning  # a hit
    assert webview._scan.cache_info()[:2] == (1, 1)


def test_parse_memo_keeps_at_most_maxsize_pages():
    maxsize = webview._scan.cache_info().maxsize
    for n in range(maxsize * 2):
        parse_html(f'<form id="f{n}" action="http://a/{n}"></form>', origin=OPAQUE)
        assert webview._scan.cache_info().currsize <= maxsize
    assert webview._scan.cache_info().currsize == maxsize


@given(st.text(max_size=300))
def test_parser_totality(text):
    doc = parse_html(text, origin=OPAQUE)
    for form in doc.forms:
        assert form.action.startswith("http://")
    if doc.auto_submit is not None:
        assert resolve_form(doc, doc.auto_submit) is not None


# ------------------------------------------------------------- load_url


def test_load_url_asset_attack_form_end_to_end(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server, attack_page=True)
    login_through_view(view, server.base_url())

    result = view.load_url("asset:///attack_form.html")
    assert result.status is None  # local read, no network for the page itself
    assert result.document.origin.opaque
    assert result.submission is not None
    assert result.submission.status == 302
    assert result.deepest().status == 302
    post = server.app.posts[0]
    assert post.kind is PostKind.PRIVATE_MESSAGE
    assert (post.sender, post.recipient, post.title) == ("sohini", "sohini", ATTACK_TITLE)


def test_load_url_formless_page_no_navigation(lab_server):
    server = lab_server()
    seed_users(server)
    fired = []
    view = make_view(server)
    view.set_navigation_hook(lambda url: fired.append(url) and False)
    result = view.load_url(f"{server.base_url()}/cgi-bin/Forum/index.php")
    assert result.status == 200
    assert result.document.forms == []
    assert result.submission is None
    assert fired == []


def test_load_url_requires_internet_permission(lab_server):
    server = lab_server()
    view = make_view(server, internet_permitted=False)
    with pytest.raises(PermissionDenied):
        view.load_url(f"{server.base_url()}/cgi-bin/Forum/index.php")


def test_asset_auto_submit_blocked_without_internet(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server, attack_page=True, internet_permitted=False)
    with pytest.raises(PermissionDenied):
        view.load_url("asset:///attack_form.html")
    assert server.app.posts == []


def test_asset_path_traversal_rejected(tmp_path, monkeypatch):
    # An asset name is a key in the bundle, never a path: the file that
    # the name reaches from the working directory is not read.
    (tmp_path / "outside.html").write_text(ATTACK_PAGE_HTML)
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    view = WebViewInstance(TcpTransport(), {"attack_form.html": ATTACK_PAGE_HTML})
    with pytest.raises(AssetNotFound, match="'../outside.html'"):
        view.load_url("asset:///../outside.html")


def test_asset_missing_and_unconfigured(tmp_path, monkeypatch):
    # Also with a file of each name in the working directory.
    (tmp_path / "nope.html").write_text(ATTACK_PAGE_HTML)
    monkeypatch.chdir(tmp_path)
    for assets in (None, {}, {"attack_form.html": ATTACK_PAGE_HTML}):
        view = WebViewInstance(TcpTransport(), assets)
        for url in ("asset:///", "asset:///nope.html", "asset:////attack_form.html"):
            with pytest.raises(AssetNotFound, match="no asset named"):
                view.load_url(url)


def test_asset_is_read_from_the_bundle_by_exact_name():
    bundle = {"attack_form.html": ATTACK_PAGE_HTML, "a/b.html": "<p>"}
    view = WebViewInstance(TcpTransport(), bundle)
    view.set_navigation_hook(lambda url: True)  # parse only, no submission
    url = "asset:///attack_form.html"
    assert view.load_url(url).document == parse_html(ATTACK_PAGE_HTML, origin=OPAQUE, url=url)
    assert view.load_url("asset:///a/b.html").document == DocumentContext(OPAQUE)


def test_load_url_file_scheme(tmp_path):
    page = tmp_path / "page.html"
    page.write_text('<form id="f" action="http://a/x"></form>')
    view = WebViewInstance(TcpTransport())
    result = view.load_url(f"file://{page}")
    assert result.document.origin.opaque
    assert result.document.forms[0].id == "f"
    with pytest.raises(AssetNotFound):
        view.load_url(f"file://{tmp_path}/missing.html")


def test_load_url_rejects_unknown_scheme():
    with pytest.raises(BadUrl):
        WebViewInstance(TcpTransport()).load_url("gopher://x/y")


def test_post_url_and_submit_form_check_the_url_first():
    # Before the permission gate, and before the hook sees the URL.
    hooked = []
    view = WebViewInstance(TcpTransport(), internet_permitted=False)
    view.set_navigation_hook(lambda url: hooked.append(url) and False)
    with pytest.raises(BadUrl, match="post_url needs an http URL"):
        view.post_url("file:///tmp/x", b"a=1")
    form = HtmlForm(action="asset:///page.html", method=HttpMethod.POST)
    with pytest.raises(BadUrl, match="form action must be an absolute http URL"):
        view.submit_form(form, initiator=OPAQUE)
    assert hooked == []


class _AutoSubmitApp:
    """Answers every request with a page whose form submits itself."""

    def __init__(self):
        self.requests = []

    def handle_raw(self, raw):
        self.requests.append(raw)
        page = '<form id="f" action="/next"></form><script>document.forms[0].submit()</script>'
        return serialize(make_response(200, body=page.encode(), content_type="text/html"))


def test_a_chain_of_auto_submitting_pages_stops_at_the_depth_limit(caplog):
    app = _AutoSubmitApp()
    view = WebViewInstance(transport=InProcessTransport(app))
    with caplog.at_level(logging.WARNING, logger="csrflab.webview"):
        result = view.load_url("http://127.0.0.1:8080/start")
    # The first page, then one request per auto-submit up to the limit.
    assert len(app.requests) == 1 + webview._MAX_AUTO_SUBMITS
    assert result.deepest().status == 200
    assert "auto-submit depth limit reached; not submitting http://127.0.0.1:8080/next" in caplog.text


class _RedirectLoopApp:
    def __init__(self):
        self.requests = []

    def handle_raw(self, raw):
        self.requests.append(raw)
        # The sixth Location would not even resolve.
        n = len(self.requests)
        location = f"/loop{n}" if n <= MAX_REDIRECTS else "http://[::1/x"
        return serialize(make_response(302, headers=[("Location", location)]))


def test_too_many_redirects():
    # Six exchanges, five hooked hops; the sixth 302 gives up before its
    # Location is resolved or shown to the hook.
    app = _RedirectLoopApp()
    hooked = []
    view = WebViewInstance(transport=InProcessTransport(app))
    view.set_navigation_hook(lambda url: hooked.append(url) and False)
    with pytest.raises(TooManyRedirects):
        view.load_url("http://127.0.0.1:8080/loop")
    assert len(app.requests) == MAX_REDIRECTS + 1
    assert hooked == [f"http://127.0.0.1:8080/loop{n}" for n in range(1, MAX_REDIRECTS + 1)]


class _BracketRedirectApp:
    def handle_raw(self, raw):
        return serialize(make_response(302, headers=[("Location", "http://[::1/x")]))


@pytest.mark.parametrize(
    "load",
    [
        lambda view: view.load_url("http://127.0.0.1:8080/"),
        lambda view: view.post_url("http://127.0.0.1:8080/", b""),
    ],
    ids=["load_url", "post_url"],
)
def test_redirect_to_an_unbalanced_bracket_is_a_bad_url(load):
    # urljoin raises ValueError on the unbalanced "["; the emulator
    # reports it as the BadUrl every other bad URL gives.
    view = WebViewInstance(transport=InProcessTransport(_BracketRedirectApp()))
    with pytest.raises(BadUrl):
        load(view)


# ------------------------------------------------------------ load_data


def test_load_data_raw_markup_attacks(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server)
    login_through_view(view, server.base_url())
    result = view.load_data(
        attack_form_html(server.base_url()), "text/html; charset=utf-8", "UTF-8"
    )
    assert result.document.origin.opaque
    assert result.deepest().status == 302
    assert server.app.posts[0].title == ATTACK_TITLE


def test_load_data_null_origin_rejected_by_origin_check(lab_server):
    server = lab_server(policy=DefenseMode.ORIGIN_CHECK)
    seed_users(server)
    view = make_view(server)
    login_through_view(view, server.base_url())
    result = view.load_data(
        attack_form_html(server.base_url()), "text/html; charset=utf-8", "UTF-8"
    )
    assert result.deepest().status == 403
    assert server.app.posts == []


def test_load_data_drops_a_form_whose_action_is_beyond_latin_1(caplog):
    # The request line could not be put on the wire, so the form goes
    # the way of every other bad action, and its auto-submit with it.
    view = WebViewInstance(transport=InProcessTransport(None))
    with caplog.at_level(logging.WARNING, logger="csrflab.webview"):
        result = view.load_data(
            '<form id="f" method="post" action="http://127.0.0.1:8080/\u20ac"></form>'
            '<script>document.getElementById("f").submit()</script>',
            "text/html",
            "UTF-8",
        )
    assert result.document.forms == []
    assert result.submission is None
    assert "matches no form" in caplog.text


def test_load_data_drops_a_form_whose_host_is_beyond_latin_1(caplog):
    # The Host header could not be put on the wire: the form is dropped,
    # and the loads that take such a URL raise BadUrl.
    url = "http://\u20ac/x"
    view = WebViewInstance(transport=InProcessTransport(None))
    with caplog.at_level(logging.WARNING, logger="csrflab.webview"):
        result = view.load_data(
            f'<form id="f" method="post" action="{url}"></form>'
            '<script>document.getElementById("f").submit()</script>',
            "text/html",
            "UTF-8",
        )
    assert result.document.forms == []
    assert result.submission is None
    assert "matches no form" in caplog.text
    with pytest.raises(BadUrl):
        view.load_url(url)
    with pytest.raises(BadUrl):
        view.post_url(url, b"")


def test_load_data_empty_document():
    view = WebViewInstance(TcpTransport())
    result = view.load_data("", "text/html", "UTF-8")
    assert result.document.forms == []
    assert result.submission is None


def test_load_data_base64_equivalence_golden():
    payload = base64.b64encode(ATTACK_PAGE_HTML.encode()).decode()
    view = WebViewInstance(TcpTransport())
    view.set_navigation_hook(lambda url: True)  # parse only, no submission
    plain = view.load_data(ATTACK_PAGE_HTML, "text/html", "UTF-8")
    encoded = view.load_data(payload, "text/html", "base64")
    assert encoded.document == plain.document
    assert plain.document.auto_submit == "post-form"
    assert plain.submission.overridden


@given(st.text(max_size=200))
def test_load_data_base64_equivalence_property(text):
    view = WebViewInstance(TcpTransport())
    view.set_navigation_hook(lambda url: True)
    plain = view.load_data(text, "text/html", "UTF-8")
    encoded = view.load_data(
        base64.b64encode(text.encode()).decode(), "text/html", "base64"
    )
    assert encoded.document == plain.document


def test_load_data_error_cases():
    view = WebViewInstance(TcpTransport())
    with pytest.raises(UnsupportedMime):
        view.load_data("<html/>", "image/png", "UTF-8")
    with pytest.raises(BadEncoding):
        view.load_data("!!!not base64!!!", "text/html", "base64")
    with pytest.raises(BadEncoding):
        view.load_data(base64.b64encode(b"\xff\xfe").decode(), "text/html", "base64")
    with pytest.raises(BadEncoding):
        view.load_data("<html/>", "text/html", "rot13")


# ------------------------------------------------------------- post_url


def test_post_url_api_body(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server)
    login_through_view(view, server.base_url())
    body = b"recip=user1&title=WebViewAttackTitle&message=HttpAttackMessage"
    result = view.post_url(f"{server.base_url()}/cgi-bin/Forum/new_pm.php", body)
    assert result.status == 302
    post = server.app.posts[0]
    assert (post.sender, post.recipient, post.title) == (
        "sohini",
        "user1",
        "WebViewAttackTitle",
    )


def test_post_url_denied_by_csrf_policy(lab_server):
    server = lab_server(policy=DefenseMode.CSRF_TOKEN)
    seed_users(server)
    view = make_view(server)
    login_through_view(view, server.base_url())
    result = view.post_url(
        f"{server.base_url()}/cgi-bin/Forum/new_pm.php",
        b"recip=user1&title=t&message=m",
    )
    assert result.status == 403
    assert server.app.posts == []


def test_post_url_empty_body_is_400(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server)
    login_through_view(view, server.base_url())
    result = view.post_url(f"{server.base_url()}/cgi-bin/Forum/new_pm.php", b"")
    assert result.status == 400


def test_post_url_attaches_strict_cookie(lab_server):
    # API-initiated: no initiating document, so Strict rides along.
    server = lab_server(policy=DefenseMode.SAMESITE_STRICT)
    seed_users(server)
    view = make_view(server)
    login_through_view(view, server.base_url())
    assert view.cookie_store.entries[0].same_site is SameSite.STRICT
    result = view.post_url(
        f"{server.base_url()}/cgi-bin/Forum/new_pm.php",
        b"recip=user1&title=t&message=m",
    )
    assert result.status == 302


# ---------------------------------------------------------- submit_form


def test_submit_opaque_initiator_sends_null_origin(lab_server):
    server = lab_server(policy=DefenseMode.ORIGIN_CHECK)
    seed_users(server)
    view = make_view(server, attack_page=True, recording=True)
    login_through_view(view, server.base_url())
    result = view.load_url("asset:///attack_form.html")
    assert result.submission.status == 403
    last = view.transport.requests[-1]
    assert b"\r\nOrigin: null\r\n" in last
    assert server.app.posts == []


def test_submit_strict_cookie_withheld_cross_site(lab_server):
    server = lab_server(policy=DefenseMode.SAMESITE_STRICT)
    seed_users(server)
    view = make_view(server, attack_page=True, recording=True)
    login_through_view(view, server.base_url())
    result = view.load_url("asset:///attack_form.html")
    assert result.submission.status == 401
    last = view.transport.requests[-1]
    assert b"\r\nCookie:" not in last
    assert server.app.posts == []


def test_hook_override_suppresses_network(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server, attack_page=True, recording=True)
    login_through_view(view, server.base_url())
    before = len(view.transport.requests)
    view.set_navigation_hook(lambda url: url.endswith("new_pm.php"))
    result = view.load_url("asset:///attack_form.html")
    assert result.submission.overridden
    assert result.submission.status is None
    assert len(view.transport.requests) == before
    assert server.app.posts == []


def test_get_form_submission_uses_query(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server, recording=True)
    doc = view.load_data(
        f'<form id="g" action="{server.base_url()}/cgi-bin/Forum/index.php">'
        '<input type="text" name="a" value="1 2"/></form>',
        "text/html",
        "UTF-8",
    ).document
    result = view.submit_form(doc.forms[0], initiator=doc.origin)
    assert result.status == 200
    assert b"GET /cgi-bin/Forum/index.php?a=1+2 HTTP/1.1\r\n" in view.transport.requests[-1]


def test_get_form_whose_action_has_a_fragment_keeps_its_fields(lab_server):
    # Had the fields gone after "#top", they would be part of the
    # fragment and never be sent.
    server = lab_server()
    seed_users(server)
    view = make_view(server, recording=True)
    doc = view.load_data(
        f'<form action="{server.base_url()}/cgi-bin/Forum/index.php#top">'
        '<input type="text" name="a" value="1 2"/></form>',
        "text/html",
        "UTF-8",
    ).document
    result = view.submit_form(doc.forms[0], initiator=doc.origin)
    assert result.status == 200
    assert b"GET /cgi-bin/Forum/index.php?a=1+2 HTTP/1.1\r\n" in view.transport.requests[-1]


# ------------------------------------------------------- hooks, victims


def test_hook_fires_on_redirect_not_initial_load(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server)
    seen = []

    def hook(url):
        seen.append((url, view.get_cookie(url)))
        return False

    view.set_navigation_hook(hook)
    view.load_url(f"{server.base_url()}/cgi-bin/Forum/login.php")
    assert seen == []  # API-initiated load: hook silent
    view.user_submit_form("login-form", [("username", "sohini"), ("password", "pw")])
    urls = [u for u, _ in seen]
    assert urls == [
        f"{server.base_url()}/cgi-bin/Forum/login.php",
        f"{server.base_url()}/cgi-bin/Forum/index.php",
    ]
    # No cookie yet at submit time; fresh session cookie visible on the hop.
    assert seen[0][1] is None
    assert seen[1][1] is not None and seen[1][1].startswith("session_id=")


def test_hook_override_on_a_redirect_hop_stops_there():
    app = ForumApp()
    app.register("sohini", "pw")
    view = WebViewInstance(transport=RecordingTransport(InProcessTransport(app)))
    view.load_url("http://127.0.0.1:8080/cgi-bin/Forum/login.php")
    view.set_navigation_hook(lambda url: url.endswith("/index.php"))
    result = view.user_submit_form("login-form", [("username", "sohini"), ("password", "pw")])
    assert result.overridden and result.document is None
    assert result.status == 302
    assert get_header(result.response, "Location") == "/cgi-bin/Forum/index.php"
    assert [raw.split(b"\r\n")[0] for raw in view.transport.requests] == [
        b"GET /cgi-bin/Forum/login.php HTTP/1.1",
        b"POST /cgi-bin/Forum/login.php HTTP/1.1",
    ]


def test_hook_fires_before_auto_submission(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server, attack_page=True)
    login_through_view(view, server.base_url())
    seen = []
    view.set_navigation_hook(lambda url: seen.append(url) or False)
    view.load_url("asset:///attack_form.html")
    assert seen[0].endswith("/cgi-bin/Forum/new_pm.php")


def test_reentrant_load_from_hook_rejected(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server)
    view.load_url(f"{server.base_url()}/cgi-bin/Forum/login.php")

    def evil_hook(url):
        view.load_url(f"{server.base_url()}/cgi-bin/Forum/index.php")
        return False

    view.set_navigation_hook(evil_hook)
    with pytest.raises(ReentrantLoad):
        view.user_submit_form("login-form", [("username", "sohini"), ("password", "pw")])


def test_user_submit_form_errors(lab_server):
    server = lab_server()
    seed_users(server)
    view = make_view(server)
    with pytest.raises(NoSuchForm):
        view.user_submit_form("login-form", [])
    view.load_url(f"{server.base_url()}/cgi-bin/Forum/login.php")
    with pytest.raises(NoSuchForm):
        view.user_submit_form("ghost-form", [])
    with pytest.raises(NoSuchField):
        view.user_submit_form("login-form", [("no_such_input", "x")])


def test_origin_discipline(lab_server):
    # Form submissions always carry Origin; API loads never do.
    server = lab_server()
    seed_users(server)
    view = make_view(server, recording=True)
    view.load_url(f"{server.base_url()}/cgi-bin/Forum/login.php")
    view.user_submit_form("login-form", [("username", "sohini"), ("password", "pw")])
    view.post_url(
        f"{server.base_url()}/cgi-bin/Forum/new_pm.php", b"recip=user1&title=t&message=m"
    )
    with_origin = [r for r in view.transport.requests if b"\r\nOrigin:" in r]
    assert len(with_origin) == 1
    assert with_origin[0].startswith(b"POST /cgi-bin/Forum/login.php")
    # Submission's Origin is the login page's own (same-site) web origin.
    assert f"\r\nOrigin: {server.base_url()}\r\n".encode() in with_origin[0]
