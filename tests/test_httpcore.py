"""Wire codec, header semantics, and form-encoding tests."""

from urllib.parse import quote_plus

import pytest
from hypothesis import given, settings, strategies as st

from csrflab.cookies import Cookie, Origin
from csrflab.httpcore import (
    _parse_header_block,
    _request_head,
    _response_head,
    _split_head,
    MAX_HEADER_LINES,
    BadUrl,
    Header,
    HttpMethod,
    HttpRequest,
    HttpResponse,
    IllegalHeader,
    MalformedEncoding,
    MalformedMessage,
    REASON_PHRASES,
    RequestUri,
    form_urldecode,
    form_urlencode,
    framed_body_size,
    get_header,
    get_header_values,
    make_request,
    make_response,
    parse_request,
    parse_response,
    parse_url,
    serialize,
    set_header,
)
from csrflab.webview import HtmlForm
from test_forum import _MUTATION, _mutate

# ---------------------------------------------------------------- parsing


def test_parse_request_minimal_get():
    raw = b"GET /index.php HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nConnection: close\r\n\r\n"
    req = parse_request(raw)
    assert req.method is HttpMethod.GET
    assert req.uri.path == "/index.php"
    assert req.uri.host == "127.0.0.1"
    assert req.uri.port == 8080
    assert req.uri.query is None
    assert req.body == b""


def test_parse_request_post_with_body_and_query():
    body = b"title=hi&message=there"
    raw = (
        b"POST /new_topic.php?draft=1 HTTP/1.1\r\n"
        b"Host: forum.local\r\n"
        b"Content-Type: application/x-www-form-urlencoded\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )
    req = parse_request(raw)
    assert req.method is HttpMethod.POST
    assert req.uri.port == 80
    assert req.uri.query == "draft=1"
    assert req.body == body


@pytest.mark.parametrize(
    "raw",
    [
        b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n",  # no Host
        b"GET /x HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
        b"GET /x HTTP/1.0\r\nHost: a\r\n\r\n",
        b"BREW /x HTTP/1.1\r\nHost: a\r\n\r\n",
        b"GET http://a/x HTTP/1.1\r\nHost: a\r\n\r\n",  # absolute-form target
        b"GET /x HTTP/1.1\r\nHost: a\r\nNo-Colon-Here\r\n\r\n",
        b"GET /x HTTP/1.1\r\nHost: a:notaport\r\n\r\n",
        b"GET /x HTTP/1.1\r\nHost: a:8\xb2\r\n\r\n",  # superscript two
        b"POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: \xb95\r\n\r\nabcde",
        b"GET /x HTTP/1.1\r\nHost: a\r\n",  # missing terminator
        b"GET /x HTTP/1.1\r\nHost: a\r\n\r\nstray-body",
        b"GET /x HTTP/1.1\r\nHost: 127.0.0.1:0\r\n\r\n",  # ports parse_url refuses
        b"GET /x HTTP/1.1\r\nHost: 127.0.0.1:99999\r\n\r\n",
        # Over 4,300 digits int() raises ValueError, not MalformedMessage.
        pytest.param(
            b"GET /x HTTP/1.1\r\nHost: a:" + b"8" * 5000 + b"\r\n\r\n", id="port-5000-digits"
        ),
        pytest.param(
            b"POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: " + b"5" * 5000 + b"\r\n\r\nabcde",
            id="content-length-5000-digits",
        ),
    ],
)
def test_parse_request_rejects(raw):
    with pytest.raises(MalformedMessage):
        parse_request(raw)


@pytest.mark.parametrize("port", [1, 65535])
def test_parse_request_host_port_is_one_parse_url_takes(port):
    uri = parse_request(b"GET /x HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n\r\n" % port).uri
    assert uri.port == port
    assert parse_url(uri.origin_text() + "/").port == port


def test_parse_request_content_length_mismatch():
    raw = b"POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nabc"
    with pytest.raises(MalformedMessage):
        parse_request(raw)


def test_parse_request_duplicate_content_length():
    raw = b"POST /x HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc"
    with pytest.raises(MalformedMessage):
        parse_request(raw)


def test_parse_response_basic():
    raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nhi"
    resp = parse_response(raw)
    assert resp.status == 200
    assert resp.reason == "OK"
    assert resp.body == b"hi"


def test_parse_response_302_needs_location():
    ok = b"HTTP/1.1 302 Found\r\nLocation: /index.php\r\nContent-Length: 0\r\n\r\n"
    assert parse_response(ok).status == 302
    with pytest.raises(MalformedMessage):
        parse_response(b"HTTP/1.1 302 Found\r\nContent-Length: 0\r\n\r\n")
    with pytest.raises(MalformedMessage):
        parse_response(
            b"HTTP/1.1 302 Found\r\nLocation: /a\r\nLocation: /b\r\nContent-Length: 0\r\n\r\n"
        )


@pytest.mark.parametrize(
    "raw",
    [
        b"HTTP/2 200 OK\r\n\r\n",
        b"HTTP/1.1 418 Teapot\r\n\r\n",
        b"HTTP/1.1 abc OK\r\n\r\n",
        b"HTTP/1.1 2\xb20 OK\r\n\r\n",  # superscript two
        b"HTTP/1.1 200\r\n\r\n",
        pytest.param(b"HTTP/1.1 " + b"2" * 5000 + b" OK\r\n\r\n", id="status-5000-digits"),
    ],
)
def test_parse_response_rejects(raw):
    with pytest.raises(MalformedMessage):
        parse_response(raw)


# ---------------------------------------------------------------- headers


def test_set_header_overwrites_first_match_only():
    req = HttpRequest(method=HttpMethod.GET, uri=RequestUri("http", "a"))
    req.headers = [
        Header("X", "1"),
        Header("Cookie", "a"),
        Header("Y", "2"),
        Header("Cookie", "b"),
    ]
    set_header(req, "cookie", "z")
    assert [(h.name, h.value) for h in req.headers] == [
        ("X", "1"),
        ("Cookie", "z"),
        ("Y", "2"),
        ("Cookie", "b"),
    ]


def test_set_header_appends_when_absent():
    req = HttpRequest(method=HttpMethod.GET, uri=RequestUri("http", "a"))
    req.headers = [Header("Host", "a")]
    set_header(req, "Cookie", "session_id=abc")
    assert req.headers[-1] == Header("Cookie", "session_id=abc")


def test_set_header_rejects_crlf_value():
    req = HttpRequest(method=HttpMethod.GET, uri=RequestUri("http", "a"))
    with pytest.raises(IllegalHeader):
        set_header(req, "X-Evil", "a\r\nInjected: yes")


def test_header_name_validation():
    with pytest.raises(IllegalHeader):
        Header("Bad Name", "v")
    with pytest.raises(IllegalHeader):
        Header("", "v")
    with pytest.raises(IllegalHeader):
        Header("a:b", "v")


def _oracle_name_is_legal(name):
    # The per-character rule the header regexes replaced.
    if not name:
        return False
    for ch in name:
        if not (33 <= ord(ch) <= 126) or ch == ":":
            return False
    return True


def _oracle_value_is_legal(value):
    for ch in value:
        if ch in "\r\n" or ord(ch) > 255:
            return False
    return True


# Half the draws use only octets the rule allows, half mix in CR, LF,
# ":", space, DEL and code points above U+00FF.
_header_mixed = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=33, max_codepoint=126),
        st.sampled_from(["\r", "\n", ":", " ", "\t", "\x00", "\x7f", "\x80", "\xff"]),
        st.sampled_from(["\u0100", "\u212a", "\ud800", "\U0010ffff"]),
        st.characters(),
    ),
    max_size=8,
)
_header_name = st.one_of(
    st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=8),
    _header_mixed,
)
_header_value = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=255, blacklist_characters="\r\n"), max_size=8),
    _header_mixed,
)


def _assert_header_agrees_with_oracle(name, value):
    if _oracle_name_is_legal(name) and _oracle_value_is_legal(value):
        assert Header(name, value).value == value
    else:
        with pytest.raises(IllegalHeader):
            Header(name, value)


@settings(max_examples=300)
@given(_header_name, _header_value)
def test_header_checks_agree_with_the_per_character_rule(name, value):
    _assert_header_agrees_with_oracle(name, value)


def test_header_checks_agree_with_the_per_character_rule_on_each_character():
    # Every Latin-1 character and a few past it, alone and inside text.
    for ch in map(chr, [*range(0x200), 0x212A, 0xD800, 0x10FFFF]):
        for name, value in ((ch, "v"), (f"X{ch}Y", "v"), ("X", ch), ("X", f"v{ch}w")):
            _assert_header_agrees_with_oracle(name, value)


def test_set_header_rejects_a_name_that_only_lowers_to_a_stored_one():
    # The Kelvin sign lowers to "k" but is no legal header name.
    req = HttpRequest(method=HttpMethod.GET, uri=RequestUri("http", "a"))
    req.headers = [Header("Key", "old")]
    with pytest.raises(IllegalHeader):
        set_header(req, "\u212aey", "new")
    assert req.headers == [Header("Key", "old")]


def test_get_header_first_match_and_all_values():
    resp = make_response(200, headers=[("Set-Cookie", "a=1"), ("Set-Cookie", "b=2")])
    assert get_header(resp, "set-cookie") == "a=1"
    assert get_header_values(resp, "SET-COOKIE") == ["a=1", "b=2"]
    assert get_header(resp, "X-Missing") is None


_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_",
    min_size=1,
    max_size=12,
)
_hval = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    max_size=20,
)


@given(_token, _hval, _hval)
def test_set_header_idempotent_on_value(name, v1, v2):
    req = HttpRequest(method=HttpMethod.GET, uri=RequestUri("http", "a"))
    set_header(req, name, v1)
    set_header(req, name, v2)
    set_header(req, name, v2)
    assert get_header(req, name) == v2
    assert len([h for h in req.headers if h.name.lower() == name.lower()]) == 1


# ------------------------------------------------------- codec oracles


def _oracle_split_head(raw):
    # The head split and header parse as they were before the head was
    # decoded once: bytes lines, one Latin-1 decode per name and value.
    end = raw.find(b"\r\n\r\n")
    if end < 0:
        raise MalformedMessage("missing CRLFCRLF header terminator")
    return raw[:end].split(b"\r\n"), raw[end + 4 :]


def _oracle_parse_header_lines(lines):
    headers = []
    for line in lines:
        name_part, sep, value_part = line.partition(b":")
        if not sep:
            raise MalformedMessage(f"header line without colon: {line!r}")
        try:
            name = name_part.decode("latin-1")
            value = value_part.decode("latin-1").strip(" \t")
            headers.append(Header(name, value))
        except IllegalHeader as exc:
            raise MalformedMessage(str(exc)) from exc
    return headers


def _oracle_serialize(message):
    # serialize as it was before the head was encoded once: one encode
    # per line.
    if isinstance(message, HttpRequest):
        start = f"{message.method.value} {message.uri.target()} HTTP/1.1"
    else:
        start = f"HTTP/1.1 {message.status} {message.reason}"
    out = [start.encode("latin-1"), b"\r\n"]
    for header in message.headers:
        out.append(f"{header.name}: {header.value}".encode("latin-1"))
        out.append(b"\r\n")
    out.append(b"\r\n")
    out.append(message.body)
    return b"".join(out)


def _oracle_head(raw):
    lines, body = _oracle_split_head(raw)
    return lines[0].decode("latin-1"), _oracle_parse_header_lines(lines[1:]), body


def _head(raw):
    head, body = _split_head(raw)
    start, _, block = head.partition("\r\n")
    return start, list(_parse_header_block(block)), body


# Octets that matter to the head: separators, CR and LF alone, the
# whitespace the value strip removes, and bytes past ASCII.
_head_octets = st.lists(
    st.one_of(
        st.sampled_from([b":", b"\r", b"\n", b"\r\n", b" ", b"\t", b"\x00", b"\x7f"]),
        st.sampled_from([b"\x80", b"\xe9", b"\xff", b"Host", b"Content-Length", b"a"]),
        st.binary(max_size=3),
    ),
    max_size=16,
).map(b"".join)


@settings(max_examples=150)
@given(st.lists(_head_octets, min_size=1, max_size=5), st.binary(max_size=8), st.booleans())
def test_head_parse_agrees_with_the_per_line_decode(lines, body, terminated):
    raw = b"\r\n".join(lines) + (b"\r\n\r\n" if terminated else b"") + body
    assert _outcome(_head, raw) == _outcome(_oracle_head, raw)


def test_head_parse_agrees_with_the_per_line_decode_on_each_octet():
    for octet in (bytes([i]) for i in range(256)):
        for line in (octet, b"X" + octet + b": v", b"X: v" + octet + b"w", b"X:" + octet):
            raw = b"HTTP/1.1 200 OK\r\n" + line + b"\r\n\r\n"
            assert _outcome(_head, raw) == _outcome(_oracle_head, raw)


# ------------------------------------------------------------- the memos


def _check_memo(memo, text):
    """After emptying memo, a first call misses and a second hits, and
    both agree with the uncached function; text that raises is never
    cached, so both calls miss."""
    try:
        expected = memo.__wrapped__(text)
    except Exception as exc:
        expected, raised = (type(exc), str(exc)), True
    else:
        raised = False
    memo.cache_clear()
    assert [_outcome(memo, text), _outcome(memo, text)] == [expected, expected]
    info = memo.cache_info()
    assert (info.hits, info.misses) == ((0, 2) if raised else (1, 1))


_url_text = st.one_of(
    st.builds(
        "{}://{}{}/{}".format,
        st.sampled_from(["http", "HTTP", "asset", "file", "ftp"]),
        st.sampled_from(["", "127.0.0.1", "a.example", "\u20ac", "[::1]", "[::1"]),
        st.sampled_from(["", ":", ":0", ":00", ":8080", ":65536", ":x"]),
        st.text(max_size=6),
    ),
    st.text(max_size=20),
)


@settings(max_examples=200)
@given(_url_text)
def test_parse_url_memo_agrees_with_the_uncached_parse(text):
    _check_memo(parse_url, text)


def test_parses_of_one_head_get_their_own_header_lists():
    raw_request = b"GET / HTTP/1.1\r\nHost: a\r\nX-Test: one\r\n\r\n"
    raw_response = b"HTTP/1.1 200 OK\r\nX-Test: one\r\nContent-Length: 0\r\n\r\n"
    for parse, raw in ((parse_request, raw_request), (parse_response, raw_response)):
        first, second = parse(raw), parse(raw)
        assert first.headers is not second.headers
        set_header(first, "X-Test", "two")
        set_header(first, "X-New", "three")
        assert get_header(second, "X-Test") == "one"
        assert get_header(second, "X-New") is None
        assert parse(raw) == second


_SHARED_GET = b"GET /x?q=1 HTTP/1.1\r\nHost: a\r\nX-Test: one\r\n\r\n"


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: parse_request(_SHARED_GET).headers[1], "value"),
        (lambda: parse_request(_SHARED_GET).uri, "path"),
        (lambda: parse_url("http://a.example/x"), "host"),
        (lambda: Origin.web("http", "a.example", 80), "host"),
        (lambda: Cookie("session_id", "abc", "a.example"), "value"),
        (lambda: HtmlForm("http://a.example/x"), "fields"),
    ],
    ids=["parsed-Header", "parsed-RequestUri", "parse_url", "Origin", "Cookie", "HtmlForm"],
)
def test_shared_values_reject_assignment(make, field):
    """A memo or a constant hands one value to many callers, so none may
    change it: not a field, and not a new attribute."""
    value = make()
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, "changed")


def test_inputs_that_raise_raise_on_every_call():
    for _ in range(3):
        with pytest.raises(MalformedMessage, match="without colon"):
            parse_request(b"GET / HTTP/1.1\r\nHost: a\r\nno colon\r\n\r\n")
        with pytest.raises(BadUrl, match="port 0"):
            parse_url("http://127.0.0.1:0/x")


def test_a_head_holds_at_most_max_header_lines():
    head = b"GET / HTTP/1.1\r\nHost: a\r\n"
    at_cap = head + b"a: b\r\n" * (MAX_HEADER_LINES - 1) + b"\r\n"
    assert len(parse_request(at_cap).headers) == MAX_HEADER_LINES
    with pytest.raises(MalformedMessage, match="header lines"):
        parse_request(head + b"a: b\r\n" * MAX_HEADER_LINES + b"\r\n")


# Latin-1 header values, and paths and reasons that also reach past
# Latin-1, where both encoders must raise the same UnicodeEncodeError.
_latin_1_value = st.text(
    alphabet=st.characters(max_codepoint=255, blacklist_characters="\r\n"), max_size=10
)
_wide_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=33, max_codepoint=126),
        st.sampled_from(["\xe9", "\xff", "\u0100", "\u20ac", "\U0001f600"]),
    ),
    max_size=8,
)


@st.composite
def _any_messages(draw):
    headers = [
        Header(name, value)
        for name, value in draw(st.lists(st.tuples(_token, _latin_1_value), max_size=5))
    ]
    body = draw(st.binary(max_size=16))
    if draw(st.booleans()):
        uri = RequestUri("http", "a", 8080, "/" + draw(_wide_text), draw(st.none() | _wide_text))
        method = draw(st.sampled_from(list(HttpMethod)))
        return HttpRequest(method=method, uri=uri, headers=headers, body=body)
    status = draw(st.sampled_from(sorted(REASON_PHRASES)))
    return HttpResponse(status=status, reason=draw(_wide_text), headers=headers, body=body)


@settings(max_examples=100)
@given(_any_messages())
def test_serialize_agrees_with_the_per_line_encode(message):
    assert _outcome(serialize, message) == _outcome(_oracle_serialize, message)


# ------------------------------------------------------------- round trip

_path_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789/-._", max_size=20
).map(lambda s: "/" + s)
_query_text = st.one_of(
    st.none(),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789=&-._", max_size=20),
)
_free_headers = st.lists(
    st.tuples(
        _token.filter(lambda n: n.lower() not in ("host", "content-length", "location")),
        _hval,
    ),
    max_size=5,
)


@st.composite
def _requests(draw):
    method = draw(st.sampled_from(list(HttpMethod)))
    host = draw(st.sampled_from(["127.0.0.1", "forum.local", "a.example"]))
    port = draw(st.sampled_from([80, 8080, 65535]))
    uri = RequestUri(
        scheme="http",
        host=host,
        port=port,
        path=draw(_path_text),
        query=draw(_query_text),
    )
    body = draw(st.binary(max_size=40))
    headers = [Header("Host", f"{host}:{port}" if port != 80 else host)]
    for name, value in draw(_free_headers):
        headers.append(Header(name, value))
    if body:
        headers.append(Header("Content-Length", str(len(body))))
    return HttpRequest(method=method, uri=uri, headers=headers, body=body)


@st.composite
def _responses(draw):
    status = draw(st.sampled_from(sorted(REASON_PHRASES)))
    headers = []
    if status == 302:
        headers.append(Header("Location", draw(_path_text)))
    for name, value in draw(_free_headers):
        headers.append(Header(name, value))
    body = draw(st.binary(max_size=40))
    headers.append(Header("Content-Length", str(len(body))))
    return HttpResponse(
        status=status, reason=REASON_PHRASES[status], headers=headers, body=body
    )


@given(_requests())
def test_request_round_trip(req):
    assert parse_request(serialize(req)) == req


@given(_responses())
def test_response_round_trip(resp):
    assert parse_response(serialize(resp)) == resp


@given(_requests())
def test_framed_body_size_is_the_body_parse_request_takes(req):
    raw = serialize(req)
    assert framed_body_size(raw[: len(raw) - len(req.body)]) == len(req.body)


@pytest.mark.parametrize(
    "lines, size",
    [
        (b"", 0),
        (b"content-length:\t00000000027 \r\n", 27),
        # Heads that parse_request rejects whatever body follows them.
        (b"Content-Length: 3\r\nContent-Length: 3\r\n", 0),
        (b"Content-Length: -1\r\n", 0),
        (b"Content-Length: \xb95\r\n", 0),
        (b"No-Colon-Here\r\nContent-Length: 27\r\n", 0),
        # Beyond _is_digits: more than any cap, and no int() of 5,000 digits.
        (b"Content-Length: " + b"9" * 19 + b"\r\n", 10**18),
        (b"Content-Length: " + b"9" * 5000 + b"\r\n", 10**18),
    ],
    ids=["none", "padded", "two", "negative", "superscript", "bad-line", "19-digits", "5000-digits"],
)
def test_framed_body_size(lines, size):
    assert framed_body_size(b"POST /x HTTP/1.1\r\nHost: a\r\n" + lines + b"\r\n") == size


def _head_bytes(message):
    """The head of a message as sent, up to and with its blank line."""
    raw = serialize(message)
    return raw[: len(raw) - len(message.body)]


# Heads as the round trip sends them, the same mutated byte by byte as
# the forum's totality test mutates requests, and lines of head octets
# under a valid start line.
_heads = st.one_of(
    st.one_of(_requests(), _responses()).map(_head_bytes),
    st.builds(
        _mutate,
        st.one_of(_requests(), _responses()).map(_head_bytes),
        st.lists(_MUTATION, min_size=1, max_size=4),
    ),
    st.builds(
        lambda start, lines: b"\r\n".join([start, *lines]) + b"\r\n\r\n",
        st.sampled_from([b"POST /x HTTP/1.1", b"HTTP/1.1 200 OK", b"HTTP/1.1 302 Found"]),
        st.lists(_head_octets, max_size=5),
    ),
)


@settings(max_examples=300)
@given(_heads)
def test_head_memos_agree_with_the_uncached_parse(raw):
    text = raw.partition(b"\r\n\r\n")[0].decode("latin-1")
    _check_memo(_request_head, text)
    _check_memo(_response_head, text)


@given(st.one_of(_requests(), _responses()).filter(lambda message: message.body))
def test_a_head_memo_hit_still_checks_the_body(message):
    if isinstance(message, HttpRequest):
        parse, memo = parse_request, _request_head
    else:
        parse, memo = parse_response, _response_head
    raw = serialize(message)
    memo.cache_clear()
    assert parse(raw) == message
    for _ in range(3):
        assert parse(raw) == message
        with pytest.raises(MalformedMessage, match="body bytes present"):
            parse(raw[:-1])
    assert (memo.cache_info().hits, memo.cache_info().misses) == (6, 1)


def _oracle_framed_body_size(head):
    # The framing rule before the head memos: the header lines alone
    # decide, for heads parse_request takes and for heads it rejects.
    try:
        _, headers, _ = _oracle_head(head)
    except MalformedMessage:
        return 0
    declared = [h.value for h in headers if h.name.lower() == "content-length"]
    if len(declared) != 1 or not (declared[0].isascii() and declared[0].isdigit()):
        return 0
    return int(declared[0]) if len(declared[0]) <= 18 else 10**18


@settings(max_examples=300)
@given(_heads, st.binary(max_size=8))
def test_framed_body_size_agrees_with_parse_request(head, extra):
    expected = _oracle_framed_body_size(head)
    _request_head.cache_clear()
    # A miss, then a hit: both frame as the block rule did.
    assert [framed_body_size(head), framed_body_size(head)] == [expected, expected]
    if head.find(b"\r\n\r\n") != len(head) - 4:
        return  # not exactly one complete head
    try:
        request = parse_request(head + extra)
    except MalformedMessage:
        return
    assert framed_body_size(head) == len(request.body) == len(extra)


def test_make_request_establishes_invariants():
    req = make_request(
        HttpMethod.POST,
        "http://127.0.0.1:8080/new_pm.php",
        body=b"abc",
        content_type="application/x-www-form-urlencoded",
    )
    assert get_header(req, "Host") == "127.0.0.1:8080"
    assert get_header(req, "Connection") == "close"
    assert get_header(req, "Content-Length") == "3"
    assert parse_request(serialize(req)) == req


def test_make_response_round_trips():
    resp = make_response(302, headers=[("Location", "/index.php")])
    assert resp.reason == "Found"
    assert get_header(resp, "Content-Length") == "0"
    assert parse_response(serialize(resp)) == resp


# ------------------------------------------------------------------ urls


def test_parse_url_http_forms():
    uri = parse_url("http://forum.local:8080/new_pm_form.php?x=1")
    assert uri == RequestUri("http", "forum.local", 8080, "/new_pm_form.php", "x=1")
    assert parse_url("http://a.example/").port == 80
    assert parse_url("http://a.example").path == "/"
    assert uri.origin_text() == "http://forum.local:8080"
    assert parse_url("http://a.example/x").origin_text() == "http://a.example"


def test_parse_url_local_schemes():
    uri = parse_url("asset:///attack_form.html")
    assert uri.scheme == "asset"
    assert uri.host == ""
    assert uri.path == "/attack_form.html"
    assert parse_url("file:///tmp/page.html").path == "/tmp/page.html"


@pytest.mark.parametrize(
    "url",
    [
        "ftp://a/x",
        "http:///nohost",
        "http://a:notaport/",
        "",
        "not a url",
        "http://[::1]:8080/",
        "http://[::1/",
        "data:text/html,x",
        # The request line is Latin-1 on the wire.
        "http://a/\u20ac",
        "http://a/?q=\u20ac",
        # So is the Host header.
        "http://\u20ac/x",
        # No server listens on port 0; it must not become port 80.
        "http://127.0.0.1:0/x",
        "http://127.0.0.1:00/x",
    ],
)
def test_parse_url_rejects(url):
    with pytest.raises(BadUrl):
        parse_url(url)


def test_latin_1_path_and_query_still_go_on_the_wire():
    request = make_request(HttpMethod.GET, "http://a/caf\xe9?q=\xff")
    assert serialize(request).startswith("GET /caf\xe9?q=\xff HTTP/1.1\r\n".encode("latin-1"))
    assert parse_request(serialize(request)) == request


# ----------------------------------------------------------------- codec


def test_form_urlencode_api_attack_body():
    pairs = [
        ("recip", "user1"),
        ("title", "WebViewAttackTitle"),
        ("message", "HttpAttackMessage"),
    ]
    encoded = form_urlencode(pairs)
    assert encoded == "recip=user1&title=WebViewAttackTitle&message=HttpAttackMessage"
    assert len(encoded.encode()) == 62


def test_form_urlencode_spaces_and_reserved():
    assert (
        form_urlencode([("message", "WebView attack message from Android")])
        == "message=WebView+attack+message+from+Android"
    )
    assert form_urlencode([("a b", "c&d=e")]) == "a+b=c%26d%3De"
    assert form_urlencode([("t", "100%+legit")]) == "t=100%25%2Blegit"


def test_form_urlencode_table_corners():
    # '*' passes through, '~' does not; multibyte goes octet by octet.
    assert form_urlencode([("k", "*-._")]) == "k=*-._"
    assert form_urlencode([("k", "~")]) == "k=%7E"
    assert form_urlencode([("k", "é")]) == "k=%C3%A9"
    assert form_urlencode([("k", "\x00")]) == "k=%00"


def test_form_urldecode_examples():
    assert form_urldecode("a+b=c%26d%3De") == [("a b", "c&d=e")]
    assert form_urldecode("k=%c3%a9") == [("k", "é")]  # lowercase hex accepted
    assert form_urldecode("") == []
    assert form_urldecode("flag") == [("flag", "")]


@pytest.mark.parametrize("bad", ["k=%G1", "k=%4", "k=%", "k=%FF"])
def test_form_urldecode_rejects(bad):
    with pytest.raises(MalformedEncoding):
        form_urldecode(bad)


_pair_text = st.text(max_size=15)


@given(st.lists(st.tuples(_pair_text.filter(bool), _pair_text), max_size=6))
def test_codec_round_trip(pairs):
    assert form_urldecode(form_urlencode(pairs)) == pairs


_FORM_SAFE = frozenset(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789*-._"
)


def _oracle_encode_component(text):
    # The octet loop the stdlib-based encoder replaced.
    out = []
    for octet in text.encode("utf-8"):
        if octet in _FORM_SAFE:
            out.append(chr(octet))
        elif octet == 0x20:
            out.append("+")
        else:
            out.append("%{:02X}".format(octet))
    return "".join(out)


def _oracle_decode_component(text):
    # The character loop the stdlib-based decoder replaced.
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "+":
            out.append(0x20)
            i += 1
        elif ch == "%":
            hex_pair = text[i + 1 : i + 3]
            if len(hex_pair) != 2 or any(c not in "0123456789abcdefABCDEF" for c in hex_pair):
                raise MalformedEncoding(f"bad percent escape at offset {i} in {text!r}")
            out.append(int(hex_pair, 16))
            i += 3
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    try:
        return out.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedEncoding(f"decoded octets are not UTF-8 in {text!r}") from exc


def _outcome(function, *args):
    """The value, or the type and message of what was raised."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


# Text mixing escapes, near-escapes and '+' with any other character.
# Lone surrogates are drawn only for the encoder: the forum decodes a
# body as strict UTF-8 before it is form-decoded, so no surrogate ever
# reaches the decoder.
_codec_piece = st.one_of(
    st.sampled_from(["%", "+", " ", "~", "*", "0", "7", "9", "a", "c", "f", "A", "F"]),
    st.sampled_from(["g", "G", "\uff11", "\xe9", "\u212a", "\U0001f600"]),
    st.sampled_from(["%C3", "%A9", "%FF", "%e2%82", "%ac", "%00", "%2B", "%7e"]),
    st.characters(blacklist_categories=("Cs",), blacklist_characters="&="),
)
_codec_text = st.lists(_codec_piece, max_size=12).map("".join)


@settings(max_examples=500)
@given(st.lists(st.one_of(_codec_piece, st.just("\ud800")), max_size=12).map("".join))
def test_encoder_agrees_with_the_octet_loop(text):
    got = _outcome(form_urlencode, [("k", text)])
    want = _outcome(_oracle_encode_component, text)
    assert got == (f"k={want}" if isinstance(want, str) else want)


@settings(max_examples=500)
@given(_codec_text)
def test_decoder_agrees_with_the_character_loop(text):
    got = _outcome(form_urldecode, f"k={text}")
    want = _outcome(_oracle_decode_component, text)
    assert got == ([("k", want)] if isinstance(want, str) else want)


@given(st.text(max_size=30).filter(lambda s: "~" not in s))
def test_encoder_agrees_with_stdlib_outside_tilde(text):
    # quote_plus treats '~' as safe; the lab table does not.  On every
    # other input the two encoders must agree exactly.
    assert form_urlencode([("k", text)]).removeprefix("k=") == quote_plus(text, safe="*")
