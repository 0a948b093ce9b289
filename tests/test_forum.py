"""Forum application behavior: auth, defenses, state, determinism."""

import hashlib
import json
import os
import re
import stat

import pytest
from hypothesis import given, settings, strategies as st

from csrflab import forum
from csrflab.config import ConfigError, build_config, parse_config_text
from csrflab.forum import (
    BadUsername,
    CorruptSnapshot,
    DefenseMode,
    Deny,
    DuplicateUser,
    ForumApp,
    PostKind,
)
from csrflab.httpcore import (
    HttpMethod,
    form_urlencode,
    get_header,
    make_request,
    parse_response,
    serialize,
    with_header,
)

ATTACK_PM_PAIRS = [
    ("title", "WebView Attack from android"),
    ("recip", "sohini"),
    ("message", "WebView attack message from Android"),
]


def _request(path, method=HttpMethod.GET, pairs=None, cookie=None, headers=None):
    body = form_urlencode(pairs).encode() if pairs is not None else b""
    req = make_request(
        method,
        f"http://127.0.0.1:8080{path}",
        headers=headers,
        body=body,
        content_type="application/x-www-form-urlencoded" if pairs is not None else None,
    )
    if cookie:
        req = with_header(req, "Cookie", cookie)
    return req


def _post(app, path, pairs, cookie=None, headers=None):
    return app.handle_request(
        _request(path, HttpMethod.POST, pairs=pairs, cookie=cookie, headers=headers)
    )


def _login(app, username="sohini", password="pw"):
    resp = _post(app, "/cgi-bin/Forum/login.php", [("username", username), ("password", password)])
    assert resp.status == 302, resp.body
    set_cookie = get_header(resp, "Set-Cookie")
    return set_cookie.split(";")[0]


def _app(policy=DefenseMode.NONE, seed=7):
    app = ForumApp(policy=policy, seed=seed)
    app.register("sohini", "pw")
    app.register("user1", "pw1")
    return app


# ------------------------------------------------------------- accounts


def test_register_two_users():
    app = ForumApp()
    app.register("sohini", "pw")
    app.register("attacker_app", "pw2")
    assert list(app.users) == ["sohini", "attacker_app"]


def test_register_duplicate_and_bad_names():
    app = ForumApp()
    app.register("sohini", "pw")
    with pytest.raises(DuplicateUser):
        app.register("sohini", "other")
    for bad in ["", "has space", "x" * 33, "semi;colon"]:
        with pytest.raises(BadUsername):
            app.register(bad, "pw")
    # Over HTTP, each is a 400 that names the exception.
    for name, answer in [("sohini", b"DuplicateUser: sohini"), ("has space", b"BadUsername")]:
        resp = _post(app, "/cgi-bin/Forum/register.php", [("username", name), ("password", "pw")])
        assert resp.status == 400 and resp.body.startswith(answer)
    assert list(app.users) == ["sohini"]


def test_login_sets_cookie_policy_none():
    app = _app()
    resp = _post(app, "/cgi-bin/Forum/login.php", [("username", "sohini"), ("password", "pw")])
    assert resp.status == 302
    assert get_header(resp, "Location") == "/cgi-bin/Forum/index.php"
    set_cookie = get_header(resp, "Set-Cookie")
    assert re.fullmatch(r"session_id=[0-9a-f]{32}; Path=/", set_cookie)


def test_login_samesite_strict_attribute():
    app = _app(policy=DefenseMode.SAMESITE_STRICT)
    resp = _post(app, "/cgi-bin/Forum/login.php", [("username", "sohini"), ("password", "pw")])
    assert get_header(resp, "Set-Cookie").endswith("; SameSite=Strict")


def test_login_failures():
    app = _app()
    resp = _post(app, "/cgi-bin/Forum/login.php", [("username", "sohini"), ("password", "wrong")])
    assert resp.status == 401
    assert get_header(resp, "Set-Cookie") is None
    resp = _post(app, "/cgi-bin/Forum/login.php", [("username", "sohini")])
    assert resp.status == 400
    resp = _post(app, "/cgi-bin/Forum/login.php", [("username", "nobody"), ("password", "pw")])
    assert (resp.status, resp.body) == (401, b"bad credentials")
    assert app.sessions == {}


@pytest.mark.parametrize("route", ["register.php", "login.php"])
@pytest.mark.parametrize(
    "body, answer",
    [
        (b"username=sohini", b"username and password required"),
        (b"password=pw", b"username and password required"),
        (b"username=%ZZ&password=pw", b"malformed body"),
        (b"username=\xff&password=pw", b"malformed body"),
    ],
)
def test_register_and_login_answer_400_without_credentials(route, body, answer):
    app = _app()
    request = _request(f"/cgi-bin/Forum/{route}", HttpMethod.POST)._replace(body=body)
    resp = app.handle_request(request)
    assert (resp.status, resp.body) == (400, answer)
    assert list(app.users) == ["sohini", "user1"] and app.sessions == {}


# --------------------------------------------------------------- forms


def test_form_page_carries_token_under_csrf_policy():
    app = _app(policy=DefenseMode.CSRF_TOKEN)
    cookie = _login(app)
    resp = app.handle_request(_request("/cgi-bin/Forum/new_pm_form.php", cookie=cookie))
    assert resp.status == 200
    page = resp.body.decode()
    match = re.search(
        r'<input type="hidden" name="csrf_token" value="([0-9a-f]{32})"/>', page
    )
    assert match
    # Stable across renders of the same session.
    again = app.handle_request(_request("/cgi-bin/Forum/new_pm_form.php", cookie=cookie))
    assert match.group(1) in again.body.decode()


def test_form_page_tokenless_under_policy_none():
    app = _app()
    cookie = _login(app)
    resp = app.handle_request(_request("/cgi-bin/Forum/new_topic_form.php", cookie=cookie))
    assert resp.status == 200
    assert "csrf_token" not in resp.body.decode()


@pytest.mark.parametrize(
    "page, action", [("new_topic_form.php", "new_topic.php"), ("new_pm_form.php", "new_pm.php")]
)
def test_each_form_page_posts_to_its_own_action(page, action):
    app = _app()
    resp = app.handle_request(_request(f"/cgi-bin/Forum/{page}", cookie=_login(app)))
    assert f'action="http://127.0.0.1:8080/cgi-bin/Forum/{action}"' in resp.body.decode()


def test_form_page_requires_session():
    app = _app()
    resp = app.handle_request(_request("/cgi-bin/Forum/new_pm_form.php"))
    assert resp.status == 401


# ------------------------------------------------------------- defenses


def test_check_defenses_csrf_token():
    app = _app(policy=DefenseMode.CSRF_TOKEN)
    cookie = _login(app)
    session = app.sessions[cookie.split("=")[1]]
    req = _request("/cgi-bin/Forum/new_pm.php", HttpMethod.POST, pairs=[], cookie=cookie)
    assert app.check_defenses(session, req, []) == Deny("missing_or_bad_token")
    session = session._replace(csrf_token="a" * 32)
    assert app.check_defenses(session, req, [("csrf_token", "a" * 32)]) is None
    assert app.check_defenses(session, req, [("csrf_token", "b" * 32)]) == Deny(
        "missing_or_bad_token"
    )


def test_check_defenses_origin_rules():
    app = _app(policy=DefenseMode.ORIGIN_CHECK)
    cookie = _login(app)
    session = app.sessions[cookie.split("=")[1]]

    def verdict(headers):
        req = _request("/cgi-bin/Forum/new_pm.php", HttpMethod.POST, pairs=[], cookie=cookie, headers=headers)
        return app.check_defenses(session, req, [])

    assert verdict(None) == Deny("bad_origin")
    assert verdict([("Origin", "null")]) == Deny("bad_origin")
    assert verdict([("Origin", "http://evil.local")]) == Deny("bad_origin")
    assert verdict([("Origin", "http://127.0.0.1:8080")]) is None
    assert verdict([("Referer", "http://127.0.0.1:8080/cgi-bin/Forum/new_pm_form.php")]) is None
    assert verdict([("Referer", "http://evil.local/x")]) == Deny("bad_origin")
    assert verdict([("Referer", "not a url")]) == Deny("bad_origin")
    assert verdict([("Referer", "http://[::1/x")]) == Deny("bad_origin")


def test_a_fault_in_the_referer_check_is_a_500_not_a_denial(monkeypatch, caplog):
    # check_defenses catches only the BadUrl of a Referer that is no
    # URL; any other exception is a bug, answered 500 and logged.
    app = _app(policy=DefenseMode.ORIGIN_CHECK)
    cookie = _login(app)

    def broken(text):
        raise RuntimeError("injected")

    monkeypatch.setattr(forum, "parse_url", broken)
    request = _request(
        "/cgi-bin/Forum/new_pm.php", HttpMethod.POST, pairs=ATTACK_PM_PAIRS, cookie=cookie,
        headers=[("Referer", "http://127.0.0.1:8080/")],
    )
    with caplog.at_level("ERROR", logger="csrflab.forum"):
        response = parse_response(app.handle_raw(serialize(request)))
    assert response.status == 500
    assert "RuntimeError: injected" in caplog.text
    assert app.posts == []


# ---------------------------------------------------------------- posts


def test_new_pm_policy_none_records_victim_sender():
    app = _app()
    cookie = _login(app)
    resp = _post(app, "/cgi-bin/Forum/new_pm.php", ATTACK_PM_PAIRS, cookie=cookie)
    assert resp.status == 302
    assert len(app.posts) == 1
    post = app.posts[0]
    assert post.kind is PostKind.PRIVATE_MESSAGE
    assert post.sender == "sohini"
    assert post.recipient == "sohini"
    assert post.title == "WebView Attack from android"
    assert post.seq == 1


def test_new_pm_under_csrf_policy_denied():
    app = _app(policy=DefenseMode.CSRF_TOKEN)
    cookie = _login(app)
    resp = _post(app, "/cgi-bin/Forum/new_pm.php", ATTACK_PM_PAIRS, cookie=cookie)
    assert resp.status == 403
    assert resp.body == b"missing_or_bad_token"
    assert app.posts == []


def test_new_pm_with_valid_token_allowed():
    app = _app(policy=DefenseMode.CSRF_TOKEN)
    cookie = _login(app)
    page = app.handle_request(
        _request("/cgi-bin/Forum/new_pm_form.php", cookie=cookie)
    ).body.decode()
    token = re.search(r'name="csrf_token" value="([0-9a-f]{32})"', page).group(1)
    resp = _post(
        app, "/cgi-bin/Forum/new_pm.php", [("csrf_token", token)] + ATTACK_PM_PAIRS, cookie=cookie
    )
    assert resp.status == 302
    assert len(app.posts) == 1


def test_new_pm_unknown_recipient():
    app = _app()
    cookie = _login(app)
    resp = _post(
        app,
        "/cgi-bin/Forum/new_pm.php",
        [("title", "t"), ("recip", "nosuchuser"), ("message", "m")],
        cookie=cookie,
    )
    assert resp.status == 404
    assert app.posts == []


def test_new_pm_requires_session_and_fields():
    app = _app()
    assert _post(app, "/cgi-bin/Forum/new_pm.php", ATTACK_PM_PAIRS).status == 401
    cookie = _login(app)
    # A Cookie header without session_id is no session, even with one open.
    assert _post(app, "/cgi-bin/Forum/new_pm.php", ATTACK_PM_PAIRS, cookie="theme=dark").status == 401
    resp = _post(app, "/cgi-bin/Forum/new_pm.php", [("title", "t")], cookie=cookie)
    assert resp.status == 400
    assert b"recip" in resp.body
    request = _request("/cgi-bin/Forum/new_pm.php", HttpMethod.POST, cookie=cookie)
    request = request._replace(body=b"title=%ZZ")
    resp = app.handle_request(request)
    assert (resp.status, resp.body) == (400, b"malformed body")
    assert app.posts == []


def test_new_topic_policy_none():
    app = _app()
    cookie = _login(app, "user1", "pw1")
    resp = _post(
        app, "/cgi-bin/Forum/new_topic.php", [("title", "hello"), ("message", "world")], cookie=cookie
    )
    assert resp.status == 302
    post = app.posts[0]
    assert post.kind is PostKind.TOPIC
    assert post.sender == "user1"
    assert post.recipient is None


def test_index_page_lists_each_topic_with_its_title_escaped():
    app = _app()
    cookie = _login(app, "user1", "pw1")
    for path, pairs in [
        ("/cgi-bin/Forum/new_topic.php", [("title", "<b>Tom & \"Jerry\"</b>"), ("message", "m")]),
        ("/cgi-bin/Forum/new_pm.php", ATTACK_PM_PAIRS),
        ("/cgi-bin/Forum/new_topic.php", [("title", "plain"), ("message", "m")]),
    ]:
        assert _post(app, path, pairs, cookie=cookie).status == 302
    body = app.handle_request(_request("/cgi-bin/Forum/index.php")).body.decode()
    assert "<p>2 topics, 1 private messages</p>\n" in body
    assert (
        '    <p class="topic">&lt;b&gt;Tom &amp; &quot;Jerry&quot;&lt;/b&gt;</p>\n'
        '    <p class="topic">plain</p>\n  </body>'
    ) in body
    assert ATTACK_PM_PAIRS[0][1] not in body  # a private message is no topic


def test_new_topic_origin_check_without_origin():
    app = _app(policy=DefenseMode.ORIGIN_CHECK)
    cookie = _login(app)
    resp = _post(
        app, "/cgi-bin/Forum/new_topic.php", [("title", "t"), ("message", "m")], cookie=cookie
    )
    assert resp.status == 403
    assert resp.body == b"bad_origin"


def test_sender_never_read_from_body():
    app = _app()
    cookie = _login(app)
    _post(
        app,
        "/cgi-bin/Forum/new_topic.php",
        [("title", "t"), ("message", "m"), ("sender", "user1")],
        cookie=cookie,
    )
    assert app.posts[0].sender == "sohini"


# ---------------------------------------------------------------- admin


def test_admin_state_fresh_server():
    assert ForumApp().admin_state() == '{"users":[],"sessions":[],"posts":[]}'


def test_admin_state_requires_token():
    app = _app()
    resp = app.handle_request(
        _request("/admin/state", headers=[("Authorization", "Bearer wrong")])
    )
    assert resp.status == 401
    resp = app.handle_request(_request("/admin/state"))
    assert resp.status == 401


def test_admin_state_reports_posts_and_redacts_sessions():
    app = _app()
    cookie = _login(app)
    _post(app, "/cgi-bin/Forum/new_pm.php", ATTACK_PM_PAIRS, cookie=cookie)
    resp = app.handle_request(
        _request("/admin/state", headers=[("Authorization", "Bearer lab-admin-token")])
    )
    doc = json.loads(resp.body)
    assert doc["users"] == ["sohini", "user1"]
    assert len(doc["sessions"]) == 1
    assert len(doc["sessions"][0]["session_id"]) == 8
    assert doc["posts"][0]["sender"] == "sohini"
    assert doc["posts"][0]["kind"] == "private_message"


def test_denials_leave_state_unchanged():
    app = _app(policy=DefenseMode.CSRF_TOKEN)
    cookie = _login(app)
    before = app.admin_state()
    _post(app, "/cgi-bin/Forum/new_pm.php", ATTACK_PM_PAIRS, cookie=cookie)  # 403
    _post(app, "/cgi-bin/Forum/new_pm.php", ATTACK_PM_PAIRS)  # 401
    assert app.admin_state() == before


# --------------------------------------------------------- determinism


def _scripted_run(seed):
    app = ForumApp(seed=seed, policy=DefenseMode.CSRF_TOKEN)
    app.register("sohini", "pw")
    app.register("user1", "pw1")
    cookie = _login(app)
    app.handle_request(_request("/cgi-bin/Forum/new_pm_form.php", cookie=cookie))
    return app


def test_same_seed_replays_identically():
    one, two = _scripted_run(42), _scripted_run(42)
    assert one.admin_state() == two.admin_state()
    assert list(one.sessions) == list(two.sessions)
    assert [s.csrf_token for s in one.sessions.values()] == [
        s.csrf_token for s in two.sessions.values()
    ]
    assert _scripted_run(43).admin_state() != one.admin_state() or list(
        _scripted_run(43).sessions
    ) != list(one.sessions)


def test_snapshot_round_trip(tmp_path):
    app = _scripted_run(42)
    session = list(app.sessions.values())[0]
    pairs = [("csrf_token", session.csrf_token)] + ATTACK_PM_PAIRS
    cookie = f"session_id={session.session_id}"
    assert _post(app, "/cgi-bin/Forum/new_pm.php", pairs, cookie=cookie).status == 302
    path = tmp_path / "state.json"
    app.save_snapshot(str(path))
    clone = ForumApp.load_snapshot(str(path))
    assert clone.snapshot() == app.snapshot()
    assert len(clone.posts) == 1
    assert clone.admin_state() == app.admin_state()
    assert clone.tokens.next_token() == app.tokens.next_token()
    cookie = f"session_id={list(app.sessions)[0]}"
    resp = _post(
        clone,
        "/cgi-bin/Forum/new_pm.php",
        [("csrf_token", list(clone.sessions.values())[0].csrf_token)] + ATTACK_PM_PAIRS,
        cookie=cookie,
    )
    assert resp.status == 302


def test_snapshot_file_bytes_are_unchanged(tmp_path):
    # Pins the file format: seed and next_seq are written from the token
    # stream and the post list.
    app = _scripted_run(42)
    session = list(app.sessions.values())[0]
    pairs = [("csrf_token", session.csrf_token)] + ATTACK_PM_PAIRS
    cookie = f"session_id={session.session_id}"
    assert _post(app, "/cgi-bin/Forum/new_pm.php", pairs, cookie=cookie).status == 302
    path = tmp_path / "state.json"
    app.save_snapshot(str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "fb5aa6d76ee7f3b1255e00c5b40f1da25f3119a060a6e293739d5f8824ee68cb"
    )


def test_handle_raw_maps_garbage_to_400():
    app = _app()
    out = app.handle_raw(b"not an http request")
    assert out.startswith(b"HTTP/1.1 400 ")


@pytest.mark.parametrize(
    "raw",
    [
        # Latin-1 superscripts pass str.isdigit() but are not RFC 9112
        # DIGITs; int() used to raise out of handle_raw on them.
        b"GET /cgi-bin/Forum/index.php HTTP/1.1\r\nHost: h:8\xb2\r\n\r\n",
        b"POST /cgi-bin/Forum/login.php HTTP/1.1\r\nHost: h\r\n"
        b"Content-Length: \xb95\r\n\r\nusername=a",
    ],
    ids=["host-port", "content-length"],
)
def test_handle_raw_rejects_non_ascii_digits_with_400(raw):
    out = _app().handle_raw(raw)
    assert out.startswith(b"HTTP/1.1 400 ")


def test_handler_error_becomes_500(monkeypatch, caplog):
    app = _app()

    def broken():
        raise RuntimeError("injected")

    monkeypatch.setattr(app, "index_page", broken)
    raw = serialize(_request("/cgi-bin/Forum/index.php"))
    with caplog.at_level("ERROR", logger="csrflab.forum"):
        response = parse_response(app.handle_raw(raw))
    assert response.status == 500
    assert b"injected" not in response.body
    assert "RuntimeError: injected" in caplog.text
    # The lock was released: the next request is served.
    assert parse_response(app.handle_raw(serialize(_request("/cgi-bin/Forum/login.php")))).status == 200


def _valid_raw_requests(app):
    """One serialized request per route, authenticated where it matters."""
    forum = "/cgi-bin/Forum"
    cookie = _login(app)
    app.handle_request(_request(f"{forum}/new_pm_form.php", cookie=cookie))
    token = [("csrf_token", next(iter(app.sessions.values())).csrf_token or "")]
    origin = [("Origin", "http://127.0.0.1:8080")]
    post = token + ATTACK_PM_PAIRS
    requests = [
        _request(f"{forum}/register.php", HttpMethod.POST, [("username", "u2"), ("password", "p")]),
        _request(f"{forum}/login.php", HttpMethod.POST, [("username", "sohini"), ("password", "pw")]),
        _request(f"{forum}/login.php"),
        _request(f"{forum}/index.php"),
        _request(f"{forum}/new_pm_form.php", cookie=cookie),
        _request(f"{forum}/new_pm.php", HttpMethod.POST, post, cookie, origin),
        _request(f"{forum}/new_topic.php", HttpMethod.POST, post, cookie, origin),
        _request("/admin/state", headers=[("Authorization", "Bearer lab-admin-token")]),
    ]
    return [serialize(request) for request in requests]


_SPLICE = st.one_of(
    st.binary(min_size=1, max_size=8),
    st.sampled_from(
        [b"\r\n", b"\r\n\r\n", b":", b" ", b"0", b"99999999", b"-1", b"\xb2", b"\xff",
         b"%", b"%zz", b"=", b"&", b";", b"\x00", b"\t", b"?", b"/", b"//"]
    ),
)
_MUTATION = st.one_of(
    st.tuples(st.just("replace"), st.integers(min_value=0), st.integers(0, 255)),
    st.tuples(st.just("insert"), st.integers(min_value=0), _SPLICE),
    st.tuples(st.just("delete"), st.integers(min_value=0), st.integers(1, 16)),
    st.tuples(st.just("truncate"), st.integers(min_value=0), st.none()),
)


def _mutate(raw, mutations):
    buf = bytearray(raw)
    for op, position, arg in mutations:
        i = position % (len(buf) + 1)
        if op == "replace":
            buf[i:i + 1] = bytes([arg])
        elif op == "insert":
            buf[i:i] = arg
        elif op == "delete":
            del buf[i:i + arg]
        else:
            del buf[i:]
    return bytes(buf)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(DefenseMode)),
    st.integers(min_value=0),
    st.lists(_MUTATION, min_size=1, max_size=4),
)
def test_handle_raw_is_total_under_byte_mutations(policy, which, mutations):
    # Whatever bytes arrive, the handler answers with a response the
    # codec accepts; it never raises.
    app = _app(policy)
    valid = _valid_raw_requests(app)
    raw = _mutate(valid[which % len(valid)], mutations)
    parse_response(app.handle_raw(raw))


def test_save_snapshot_keeps_the_old_file_when_writing_fails(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    app = _scripted_run(42)
    app.save_snapshot(str(path))
    saved = path.read_text()
    # json.dump has written part of the document when it meets the
    # unserializable value at the end.
    doc = app.snapshot()
    doc["posts"].append(object())
    monkeypatch.setattr(app, "snapshot", lambda: doc)
    with pytest.raises(TypeError):
        app.save_snapshot(str(path))
    assert path.read_text() == saved
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


@pytest.mark.parametrize(
    "text",
    [
        "{\"policy\": \"none\", \"se",
        "[]",
        "{}",
        "{\"policy\": \"bogus\"}",
        # next_seq disagrees with the (zero) posts.
        '{"policy": "none", "seed": 1, "token_counter": 0, "next_seq": 5,'
        ' "users": [], "sessions": [], "posts": []}',
        # The one post is numbered 7: the next post would get seq 2.
        '{"policy": "none", "seed": 1, "token_counter": 0, "next_seq": 2,'
        ' "users": [], "sessions": [], "posts": [{"kind": "topic", "sender": "a",'
        ' "recipient": null, "title": "t", "message": "m", "seq": 7}]}',
    ],
)
def test_load_snapshot_rejects_corrupt_files(tmp_path, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    with pytest.raises(CorruptSnapshot):
        ForumApp.load_snapshot(str(path))


def test_save_snapshot_takes_a_file_name_of_250_bytes(tmp_path):
    # The temp file beside it must fit the 255-byte name limit too.
    path = tmp_path / ("s" * 250)
    app = _scripted_run(42)
    app.save_snapshot(str(path))
    assert ForumApp.load_snapshot(str(path)).snapshot() == app.snapshot()
    assert [p.name for p in tmp_path.iterdir()] == ["s" * 250]


def test_save_snapshot_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    synced = []
    fsync = os.fsync

    def recording_fsync(fd):
        synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), (tmp_path / "state.json").exists()))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    _scripted_run(42).save_snapshot(str(tmp_path / "state.json"))
    # The file before the rename, then its directory after it.
    assert synced == [(False, False), (True, True)]


_ONE_POST = {
    "policy": "none", "seed": 1, "token_counter": 3, "next_seq": 2,
    "users": [{"username": "a", "salt": "s", "password_digest": "d"}],
    "sessions": [],
    "posts": [
        {"kind": "topic", "sender": "a", "recipient": None, "title": "t", "message": "m", "seq": 1}
    ],
}


@pytest.mark.parametrize(
    "where, key, value",
    [
        (None, "seed", "x"),
        (None, "seed", 1.5),
        (None, "seed", True),
        (None, "token_counter", "2"),
        (None, "token_counter", True),
        (None, "token_counter", 1.5),
        (None, "token_counter", -1),
        (None, "next_seq", 2.0),
        (0, "seq", True),
        (0, "seq", 1.0),
    ],
)
def test_load_snapshot_rejects_a_counter_that_is_no_whole_number(tmp_path, where, key, value):
    # A token_counter of "2" would make every register and login answer
    # 500 for the rest of the session; True would pass as seq 1.
    doc = json.loads(json.dumps(_ONE_POST))
    (doc if where is None else doc["posts"][where])[key] = value
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptSnapshot, match=key):
        ForumApp.load_snapshot(str(path))
    path.write_text(json.dumps(_ONE_POST))
    assert ForumApp.load_snapshot(str(path)).snapshot() == _ONE_POST


@pytest.mark.parametrize(
    "records, change",
    [
        ("posts", lambda post: post.update(extra=1)),
        ("posts", lambda post: post.pop("recipient")),
        ("users", lambda user: user.pop("salt")),
        ("sessions", lambda session: session.pop("csrf_token")),
        ("sessions", lambda session: session.update(extra=1)),
    ],
)
def test_load_snapshot_rejects_a_record_with_other_keys(tmp_path, records, change):
    app = _scripted_run(42)
    session = list(app.sessions.values())[0]
    pairs = [("csrf_token", session.csrf_token)] + ATTACK_PM_PAIRS
    cookie = f"session_id={session.session_id}"
    assert _post(app, "/cgi-bin/Forum/new_pm.php", pairs, cookie=cookie).status == 302
    doc = app.snapshot()
    change(doc[records][0])
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptSnapshot):
        ForumApp.load_snapshot(str(path))


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc["sessions"][0].update(username="ghost"),
        lambda doc: doc["sessions"].append({**doc["sessions"][0], "username": "user1"}),
        lambda doc: doc["users"].append(dict(doc["users"][0])),
        lambda doc: doc.update(extra=1),
    ],
    ids=["session-of-no-user", "session-id-twice", "username-twice", "extra-top-level-key"],
)
def test_load_snapshot_rejects_a_document_that_would_not_round_trip(tmp_path, change):
    # Each of these used to load: a post on the ghost's session landed with
    # a sender who is no user, and a repeated id or name dropped a record.
    app = _scripted_run(42)
    doc = app.snapshot()
    change(doc)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptSnapshot):
        ForumApp.load_snapshot(str(path))


@pytest.mark.parametrize(
    "change",
    [{"sender": "ghost"}, {"kind": "private_message", "recipient": "ghost"}, {"recipient": "a"}],
    ids=["post-from-no-user", "message-to-no-user", "topic-to-a-user"],
)
def test_load_snapshot_rejects_a_post_the_forum_could_not_make(tmp_path, change):
    doc = json.loads(json.dumps(_ONE_POST))
    doc["posts"][0].update(change)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptSnapshot, match="post 0"):
        ForumApp.load_snapshot(str(path))


def test_unknown_route_404():
    app = _app()
    assert app.handle_request(_request("/nope.php")).status == 404


_ROUTED = [
    (HttpMethod.POST, "/cgi-bin/Forum/register.php", 400),
    (HttpMethod.POST, "/cgi-bin/Forum/login.php", 400),
    (HttpMethod.GET, "/cgi-bin/Forum/login.php", 200),
    (HttpMethod.GET, "/cgi-bin/Forum/index.php", 200),
    (HttpMethod.GET, "/cgi-bin/Forum/new_topic_form.php", 401),
    (HttpMethod.GET, "/cgi-bin/Forum/new_pm_form.php", 401),
    (HttpMethod.POST, "/cgi-bin/Forum/new_topic.php", 401),
    (HttpMethod.POST, "/cgi-bin/Forum/new_pm.php", 401),
    (HttpMethod.GET, "/admin/state", 401),
]


@pytest.mark.parametrize("method, path, status", _ROUTED)
def test_each_route_answers_only_its_own_method(method, path, status):
    app = _app()
    pairs = [] if method is HttpMethod.POST else None
    assert app.handle_request(_request(path, method, pairs=pairs)).status == status
    # A method no route takes gets the 404, pinned byte for byte.
    text = f"no route for PUT {path}".encode()
    assert serialize(app.handle_request(_request(path, HttpMethod.PUT))) == (
        b"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\n"
        b"Connection: close\r\nContent-Length: %d\r\n\r\n%s" % (len(text), text)
    )


# ---------------------------------------------------------------- config


def test_parse_config_text():
    values = parse_config_text(
        "# lab settings\nbind = 127.0.0.1\nport = 9000\npolicy = origin_check\n\nseed=5\n"
    )
    assert values == {"bind": "127.0.0.1", "port": "9000", "policy": "origin_check", "seed": "5"}


def test_build_config_merges_and_coerces():
    cfg = build_config({"port": "9000", "policy": "csrf_token"}, seed=11, port=None)
    assert cfg.port == 9000
    assert cfg.policy is DefenseMode.CSRF_TOKEN
    assert cfg.seed == 11
    assert cfg.bind == "127.0.0.1"


@pytest.mark.parametrize(
    "text",
    ["what is this", "mystery = 1", "port = eleven", "policy = bogus"],
)
def test_config_errors(text):
    with pytest.raises(ConfigError):
        build_config(parse_config_text(text))
