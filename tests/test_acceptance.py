"""Acceptance gate: one test per shipping criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS line
per criterion; any assertion failure is the corresponding FAIL.  These
tests exercise the package through its public surfaces (CLI, harness,
wire protocol) over loopback TCP wherever a server is involved.
"""

import json
import random
import re
import string
import time

from csrflab import cli, harness
from csrflab.cookies import (
    Cookie,
    Origin,
    SameSite,
    cookies_for_request,
    get_cookie,
)
from csrflab.fixtures import ATTACK_PAGE_HTML
from csrflab.harness import CookieCapture, ScenarioId, victim_login
from csrflab.httpcore import (
    Header,
    HttpMethod,
    HttpResponse,
    RequestUri,
    form_urldecode,
    form_urlencode,
    make_request,
    make_response,
    parse_request,
    parse_response,
    serialize,
    with_header,
)
from csrflab.transport import TcpTransport
from csrflab.webview import WebViewInstance, parse_html

from conftest import seed_users, wire_get


def _ok(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE criterion {criterion}: PASS - {text}")


# ---------------------------------------------------------------------- 1


def test_criterion_1_undefended_forum_falls_to_all_four_attacks(tmp_path, capsys):
    out = tmp_path / "report.json"
    started = time.time()
    code = cli.main(["matrix", "--json", str(out)])
    elapsed = time.time() - started
    assert code == 0
    report = json.loads(out.read_text())
    undefended = [c for c in report["cells"] if c["defense"] == "none"]
    assert [c["scenario"] for c in undefended] == ["A1", "A2", "A3", "A4"]
    titles = {
        "A1": "WebView Attack from android",
        "A2": "WebView Attack from android",
        "A3": "WebViewAttackTitle",
        "A4": "WebViewAttackTitle",
    }
    for cell in undefended:
        assert cell["success"] is True
        assert len(cell["evidence"]) == 1
        post = cell["evidence"][0]
        assert post["sender"] == "sohini"
        assert post["title"] == titles[cell["scenario"]]
    assert elapsed < 5.0, f"matrix took {elapsed:.2f}s, bound is 5s"
    with capsys.disabled():
        _ok(1, f"A1-A4 all post as the victim under policy none ({elapsed:.2f}s)")


# ---------------------------------------------------------------------- 2


def test_criterion_2_matrix_matches_expected_grid_reproducibly(capsys):
    first = harness.run_matrix()
    second = harness.run_matrix()
    assert len(first.grid) == 17
    assert harness.compare_with_expected(first) == []
    assert first.to_json() == second.to_json()
    with capsys.disabled():
        _ok(2, "17-cell grid as expected; same-seed reports byte-identical")


# ---------------------------------------------------------------------- 3

_HOST_CHARS = string.ascii_lowercase + string.digits
_PATH_CHARS = string.ascii_letters + string.digits + "-._~%"
_VALUE_CHARS = string.ascii_letters + string.digits + " !#$%&'()*+,-./:;<=>?@[]^_`{|}"


def _chars(rng, pool, low, high):
    return "".join(rng.choice(pool) for _ in range(rng.randint(low, high)))


def _random_request(rng):
    host = _chars(rng, _HOST_CHARS, 3, 12)
    port = rng.choice([80, 80, rng.randint(1, 65535)])
    segments = [_chars(rng, _PATH_CHARS, 1, 8) for _ in range(rng.randint(0, 4))]
    url = f"http://{host}:{port}/" + "/".join(segments)
    if rng.random() < 0.4:
        url += "?" + _chars(rng, string.ascii_letters + string.digits + "=&", 1, 20)
    headers = [
        # Surrounding whitespace is optional whitespace on the wire and
        # never survives a parse, so generated values carry none.
        (f"X-{_chars(rng, string.ascii_letters, 1, 10)}", _chars(rng, _VALUE_CHARS, 0, 30).strip())
        for _ in range(rng.randint(0, 4))
    ]
    method = rng.choice(list(HttpMethod))
    body = b""
    content_type = None
    if method in (HttpMethod.POST, HttpMethod.PUT) and rng.random() < 0.8:
        body = rng.randbytes(rng.randint(1, 300))
        content_type = "application/octet-stream"
    return make_request(method, url, headers=headers, body=body, content_type=content_type)


def _random_response(rng):
    status = rng.choice([200, 302, 400, 401, 403, 404, 500])
    headers = []
    if status == 302:
        headers.append(("Location", f"http://{_chars(rng, _HOST_CHARS, 3, 10)}/x"))
    body = rng.randbytes(rng.randint(0, 300)) if status != 302 else b""
    content_type = "application/octet-stream" if body else None
    return make_response(status, headers=headers, body=body, content_type=content_type)


def _random_pairs(rng):
    # Non-empty keys; values roam over ASCII, the codec's specials, and
    # non-Latin text.
    pool = _VALUE_CHARS + "~éßЖ中 "
    return [
        (_chars(rng, pool, 1, 12), _chars(rng, pool, 0, 20))
        for _ in range(rng.randint(0, 8))
    ]


def test_criterion_3_thousandfold_round_trips(capsys):
    rng = random.Random(0xC5F)
    for index in range(1000):
        if index % 2:
            message = _random_request(rng)
            assert parse_request(serialize(message)) == message
        else:
            message = _random_response(rng)
            assert parse_response(serialize(message)) == message
    for _ in range(1000):
        pairs = _random_pairs(rng)
        assert form_urldecode(form_urlencode(pairs)) == pairs
    with capsys.disabled():
        _ok(3, "1000 messages and 1000 pair lists round-trip exactly")


# ---------------------------------------------------------------------- 4


def test_criterion_4_set_header_semantics(capsys):
    # Append when absent: the new header lands last.
    request = with_header(make_request(HttpMethod.GET, "http://h/x"), "Cookie", "session_id=abc")
    assert (request.headers[-1].name, request.headers[-1].value) == (
        "Cookie",
        "session_id=abc",
    )
    # Overwrite on repeat: one header, second value retained.
    request = with_header(request, "Cookie", "session_id=def")
    cookies = [h for h in request.headers if h.name.lower() == "cookie"]
    assert [(h.name, h.value) for h in cookies] == [("Cookie", "session_id=def")]
    # Case-insensitive first-match: [X:1, Cookie:a, Y:2, Cookie:b]
    # becomes [X:1, Cookie:z, Y:2, Cookie:b] under with_header("cookie").
    stored = [("X", "1"), ("Cookie", "a"), ("Y", "2"), ("Cookie", "b")]
    response = HttpResponse(200, "OK", tuple(Header(name, value) for name, value in stored))
    response = with_header(response, "cookie", "z")
    pairs = [(h.name, h.value) for h in response.headers]
    assert pairs == [("X", "1"), ("Cookie", "z"), ("Y", "2"), ("Cookie", "b")]
    with capsys.disabled():
        _ok(4, "append-when-absent, overwrite-first, case-insensitive match")


# ---------------------------------------------------------------------- 5


def _random_store(rng):
    hosts = ["alpha.lab", "beta.lab", "gamma.lab"]
    paths = ["/", "/forum", "/forum/inner", "/other"]
    store = []
    for index in range(rng.randint(1, 12)):
        store.append(
            Cookie(
                name=f"c{index}",
                value=_chars(rng, string.ascii_lowercase, 1, 8),
                domain=rng.choice(hosts),
                path=rng.choice(paths),
                same_site=rng.choice([SameSite.NONE, SameSite.STRICT]),
            )
        )
    return store


def test_criterion_5_cookie_scoping_properties(capsys):
    rng = random.Random(513)
    checked_leaks = checked_strict = 0
    for _ in range(500):
        store = _random_store(rng)
        by_name = {c.name: c for c in store}
        for host in ("alpha.lab", "beta.lab", "gamma.lab", "delta.lab"):
            for path in ("/", "/forum", "/forum/inner"):
                header = get_cookie(store, f"http://{host}{path}")
                for part in (header or "").split("; ") if header else []:
                    cookie = by_name[part.split("=", 1)[0]]
                    # No cross-host leakage, no path overreach.
                    assert cookie.domain == host
                    assert path.startswith(cookie.path)
                    checked_leaks += 1
                # Cross-site request: nothing Strict may appear.
                header = cookies_for_request(
                    store,
                    RequestUri(scheme="http", host=host, port=80, path=path),
                    Origin(scheme="http", host="evil.lab", port=80),
                )
                for part in (header or "").split("; ") if header else []:
                    assert by_name[part.split("=", 1)[0]].same_site is SameSite.NONE
                    checked_strict += 1
    assert checked_leaks and checked_strict
    with capsys.disabled():
        _ok(5, "no cross-host leakage; no Strict cookie crosses site boundaries")


# ---------------------------------------------------------------------- 6


def test_criterion_6_victim_login_capture(lab_server, transport, capsys):
    server = lab_server()
    seed_users(server)
    view = WebViewInstance(transport=TcpTransport())
    capture = CookieCapture(view)
    view.set_navigation_hook(capture)

    # Hook discipline, step by step: the initial page load is
    # API-initiated and must not consult the hook.
    view.load_url(f"{server.base_url()}/cgi-bin/Forum/login.php")
    assert capture.urls == []
    result = view.user_submit_form(
        "login-form", [("username", "sohini"), ("password", "pw")]
    )
    assert result.status == 302
    # The submit and its redirect hop consulted; the cookie exists only
    # on the hop, after the login response was stored.
    assert len(capture.urls) == 2
    assert capture.urls[-1].endswith("/cgi-bin/Forum/index.php")
    assert len(capture.cookies) == 1

    # The full theft helper on a fresh victim: grammar plus the
    # server's own session books.
    other = lab_server()
    seed_users(other)
    thief_view = WebViewInstance(transport=TcpTransport())
    thief_view.set_navigation_hook(CookieCapture(thief_view))
    stolen = victim_login(thief_view, other.base_url(), "sohini", "pw")
    assert re.fullmatch(r"session_id=[0-9a-f]{32}", stolen)
    state = json.loads(
        wire_get(
            transport,
            other.base_url(),
            "/admin/state",
            headers=[("Authorization", "Bearer lab-admin-token")],
        ).body
    )
    session_id = stolen.removeprefix("session_id=")
    assert any(session_id.startswith(s["session_id"]) for s in state["sessions"])
    with capsys.disabled():
        _ok(6, "cookie captured on the redirect hop matches the server's books")


# ---------------------------------------------------------------------- 7


def test_criterion_7_attack_page_conformance(capsys):
    document = parse_html(ATTACK_PAGE_HTML, origin=Origin.opaque_origin())
    assert len(document.forms) == 1
    form = document.forms[0]
    assert form.fields == (
        ("title", "WebView Attack from android"),
        ("recip", "sohini"),
        ("message", "WebView attack message from Android"),
    )
    assert document.auto_submit == "post-form"
    assert form.id == "post-form"
    with capsys.disabled():
        _ok(7, "one form, exact field order and values, auto-submit by id")


# ---------------------------------------------------------------------- 8


def test_criterion_8_denied_attacks_change_nothing(capsys):
    report = harness.run_matrix()
    failing = [cell for cell in report.grid if not cell.success]
    assert len(failing) == 10
    for cell in failing:
        assert cell.state_before == cell.state_after
        assert cell.state_before["posts"] == cell.state_after["posts"]
    with capsys.disabled():
        _ok(8, f"all {len(failing)} denied cells left the server state untouched")
