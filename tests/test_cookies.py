"""Cookie storage, scoping, and SameSite attachment tests."""

import logging

import pytest
from hypothesis import given, strategies as st

from csrflab.cookies import (
    Cookie,
    MalformedSetCookie,
    Origin,
    SameSite,
    cookies_for_request,
    get_cookie,
    parse_set_cookie,
    store_from_response,
)
from csrflab.httpcore import BadUrl, RequestUri, make_response, parse_url


def _store_one(store, host, header_value):
    response = make_response(200, headers=[("Set-Cookie", header_value)])
    return store_from_response(store, parse_url(f"http://{host}/"), response)


def test_store_decomposes_set_cookie():
    store = _store_one([], "forum.local", "session_id=9fe1; Path=/")
    assert store == [
        Cookie("session_id", "9fe1", "forum.local", "/", SameSite.NONE)
    ]


def test_store_samesite_strict_attribute():
    store = _store_one(
        [], "forum.local", "session_id=abc; Path=/; SameSite=Strict"
    )
    assert store[0].same_site is SameSite.STRICT


def test_replacement_keeps_position_and_latest_value():
    store = []
    _store_one(store, "forum.local", "a=1")
    _store_one(store, "forum.local", "b=2")
    _store_one(store, "forum.local", "a=3")
    assert get_cookie(store, "http://forum.local/") == "a=3; b=2"
    assert len(store) == 2


def test_malformed_headers_skipped_and_reported(caplog):
    response = make_response(
        200,
        headers=[
            ("Set-Cookie", "good=1"),
            ("Set-Cookie", "no-equals-sign"),
            ("Set-Cookie", "bad=2; Secure"),
            ("Set-Cookie", "fine=3; SameSite=Strict"),
        ],
    )
    store = []
    with caplog.at_level(logging.WARNING, logger="csrflab.cookies"):
        store_from_response(store, parse_url("http://forum.local/"), response)
    assert [c.name for c in store] == ["good", "fine"]
    assert caplog.text.count("skipping malformed Set-Cookie") == 2


@pytest.mark.parametrize(
    "header",
    ["", "=value", "sp ace=1", "a=1; Path=nope", "a=1; Max-Age=5", "a=1; SameSite=Lax"],
)
def test_parse_set_cookie_rejects(header):
    with pytest.raises(MalformedSetCookie):
        parse_set_cookie(header, "forum.local")


@pytest.mark.parametrize(
    "header, error",
    [
        ("a=1; Path", "cookie path must begin with '/'"),
        ("a=1; SameSite", "unsupported attribute 'SameSite'"),
        ("a=1; samesite=", "unsupported attribute 'samesite='"),
    ],
)
def test_an_attribute_without_its_value_is_rejected(header, error):
    with pytest.raises(MalformedSetCookie, match=error):
        parse_set_cookie(header, "forum.local")


@pytest.mark.parametrize("name", ["a=b", "a;b", "a b", "a\tb"])
def test_cookie_rejects_an_illegal_name(name):
    # parse_set_cookie cannot hand over a name with "=" or ";", but a
    # Cookie built directly can, and get_cookie would then join it.
    with pytest.raises(ValueError, match="illegal character in cookie name"):
        Cookie(name=name, value="v", domain="forum.local")


def test_get_cookie_empty_store():
    assert get_cookie([], "http://forum.local/") is None


def test_get_cookie_for_forum_url():
    store = _store_one([], "forum.local", "session_id=deadbeef; Path=/")
    got = get_cookie(store, "http://forum.local/cgi-bin/Forum/index.php")
    assert got == "session_id=deadbeef"


def test_get_cookie_host_isolation():
    # Brute force over a 3-host fixture: each host sees exactly its own.
    hosts = ["forum.local", "evil.local", "other.host"]
    store = []
    for host in hosts:
        _store_one(store, host, f"c_{host.split('.')[0]}=x")
    for host in hosts:
        got = get_cookie(store, f"http://{host}/any/path")
        assert got == f"c_{host.split('.')[0]}=x"


def test_get_cookie_port_does_not_partition():
    store = _store_one([], "forum.local", "a=1")
    assert get_cookie(store, "http://forum.local:8080/") == "a=1"


def test_get_cookie_path_prefix():
    store = _store_one([], "forum.local", "a=1; Path=/cgi-bin")
    assert get_cookie(store, "http://forum.local/cgi-bin/Forum/x.php") == "a=1"
    assert get_cookie(store, "http://forum.local/other") is None


def test_path_match_stops_at_a_segment_boundary():
    # RFC 6265 §5.1.4: a cookie path covers itself and what lies below
    # it, not every path that happens to start with the same letters.
    store = _store_one([], "forum.local", "a=1; Path=/cgi-bin")
    for path in ("/cgi-bin", "/cgi-bin/", "/cgi-bin/Forum/x.php"):
        assert get_cookie(store, f"http://forum.local{path}") == "a=1", path
    for path in ("/cgi-binary", "/cgi-bin.php", "/cgi"):
        assert get_cookie(store, f"http://forum.local{path}") is None, path
        uri = parse_url(f"http://forum.local{path}")
        assert cookies_for_request(store, uri, None) is None, path
    slashed = _store_one([], "forum.local", "b=2; Path=/cgi-bin/")
    assert get_cookie(slashed, "http://forum.local/cgi-bin/x") == "b=2"
    assert get_cookie(slashed, "http://forum.local/cgi-bin") is None


def test_get_cookie_ignores_samesite():
    store = _store_one([], "forum.local", "s=1; SameSite=Strict")
    assert get_cookie(store, "http://forum.local/") == "s=1"


@pytest.mark.parametrize("url", ["file:///etc/x", "asset:///a.html", "::nope::"])
def test_get_cookie_rejects_non_http(url):
    with pytest.raises(BadUrl):
        get_cookie([], url)


@pytest.mark.parametrize("url", ["file:///etc/x", "asset:///a.html"])
def test_store_from_response_rejects_non_http(url):
    store = []
    response = make_response(200, headers=[("Set-Cookie", "s=1")])
    with pytest.raises(BadUrl):
        store_from_response(store, parse_url(url), response)
    assert store == []


@pytest.mark.parametrize("value", ["x;y", "x\ny", "x\r"])
def test_cookie_rejects_an_illegal_value(value):
    with pytest.raises(ValueError, match="illegal character in cookie value"):
        Cookie(name="s", value=value, domain="forum.local")


FORUM = Origin.web("http", "forum.local", 8080)
EVIL = Origin.web("http", "evil.local", 80)
OPAQUE = Origin.opaque_origin()


def test_origin_serialization():
    assert FORUM.serialize() == "http://forum.local:8080"
    assert EVIL.serialize() == "http://evil.local"
    assert OPAQUE.serialize() == "null"
    assert Origin.from_uri(parse_url("http://Forum.local:8080/x")) == FORUM
    for url in ["file:///tmp/page.html", "asset:///attack_form.html"]:
        assert Origin.from_uri(parse_url(url)) == OPAQUE


def test_origin_same_site_rules():
    assert FORUM.same_site_with(Origin.web("http", "FORUM.local", 8080))
    # RFC 6265bis §5.2: same-site compares scheme and site, not ports.
    assert FORUM.same_site_with(Origin.web("http", "forum.local", 80))
    assert not FORUM.same_site_with(Origin.web("https", "forum.local", 8080))
    assert not FORUM.same_site_with(EVIL)
    assert not OPAQUE.same_site_with(FORUM)
    assert not OPAQUE.same_site_with(OPAQUE)  # opaque is alien even to itself
    assert not FORUM.same_site_with(OPAQUE)
    # Opaque is not a value of scheme and host: the empty web origin
    # that shares them is still not same-site with it.
    assert not Origin().same_site_with(OPAQUE)


def test_strict_attachment_enumeration():
    # All initiator/target combinations for a Strict cookie on forum.local.
    store = _store_one(
        [], "forum.local", "s=1; Path=/; SameSite=Strict"
    )
    cases = [
        (None, True),      # API-initiated: attaches
        (OPAQUE, False),   # raw-data / asset document: cross-site
        (FORUM, True),     # same scheme, host, port
        (Origin.web("http", "forum.local", 80), True),  # port differs, same site
        (EVIL, False),
    ]
    for initiator, expect in cases:
        uri = parse_url("http://forum.local:8080/cgi-bin/Forum/new_pm.php")
        got = cookies_for_request(store, uri, initiator)
        assert (got == "s=1") is expect, initiator


def test_lax_free_none_cookie_attaches_cross_site():
    store = _store_one([], "forum.local", "p=2; Path=/")
    assert cookies_for_request(store, parse_url("http://forum.local:8080/"), OPAQUE) == "p=2"


# ----------------------------------------------------------- properties

_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)
_values = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", max_size=6)
_hosts = st.sampled_from(["forum.local", "evil.local", "other.host"])
_paths = st.sampled_from(["/", "/a", "/a/b", "/cgi-bin"])
_sites = st.sampled_from(list(SameSite))


@st.composite
def _stores(draw):
    # Names are kept unique across the whole store so a returned
    # name identifies exactly one cookie when checking exclusions.
    store = []
    seen = set()
    for _ in range(draw(st.integers(0, 6))):
        name = draw(_names)
        if name in seen:
            continue
        seen.add(name)
        store.append(
            Cookie(name, draw(_values), draw(_hosts), draw(_paths), draw(_sites))
        )
    return store


@given(_stores(), _hosts, _paths)
def test_no_cross_host_leakage(store, host, path):
    got = get_cookie(store, f"http://{host}{path}") or ""
    returned = {p.split("=")[0] for p in got.split("; ") if p}
    allowed = {c.name for c in store if c.domain == host}
    assert returned <= allowed


@given(_stores(), _hosts, _paths)
def test_absent_initiator_equals_get_cookie(store, host, path):
    uri = RequestUri("http", host, 80, path)
    assert cookies_for_request(store, uri, None) == get_cookie(
        store, f"http://{host}{path}"
    )


@given(_stores(), _hosts, _paths, st.sampled_from([OPAQUE, EVIL, FORUM]))
def test_strict_exclusion_soundness(store, host, path, initiator):
    uri = RequestUri("http", host, 80, path)
    if initiator.same_site_with(Origin.from_uri(uri)):
        return
    got = cookies_for_request(store, uri, initiator) or ""
    returned = {p.split("=")[0] for p in got.split("; ") if p}
    strict = {c.name for c in store if c.same_site is SameSite.STRICT}
    assert returned.isdisjoint(strict)
