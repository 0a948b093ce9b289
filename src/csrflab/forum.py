"""The deliberately vulnerable forum: registration, login, topics, PMs.

The application authenticates requests by session cookie alone.  Whoever
presents a valid ``session_id`` cookie acts as that session's user; the
sender of a created post is always taken from the session, never from
the request body.  That binding is the whole point of the lab: a forged
or cross-site request riding on the victim's cookie posts as the victim.

Four defense policies can be mounted, exactly one per server instance:

  none             accept every cookie-authenticated post
  csrf_token       require a per-session synchronizer token in the body
  origin_check     require Origin (or Referer) to equal the site origin
  samesite_strict  mark the session cookie SameSite=Strict; the server
                   itself performs no additional check

Randomness (session ids, tokens, salts) comes from a seeded counter so
identical request sequences replay byte-identically.

Users, sessions and posts are NamedTuples, set once.  The one change to
a session, the CSRF token its first form page issues, puts a new record
in the old one's place, which keeps its position in the sessions dict
and so in the snapshot.
"""

from __future__ import annotations

import enum
import hashlib
import html
import json
import os
import threading
from typing import NamedTuple

from .httpcore import (
    BadUrl,
    HttpMethod,
    HttpRequest,
    HttpResponse,
    MalformedEncoding,
    MalformedMessage,
    form_urldecode,
    get_header,
    make_response,
    parse_request,
    parse_url,
    serialize,
)

FORUM_ROOT = "/cgi-bin/Forum"
DEFAULT_SEED = 1337
DEFAULT_ADMIN_TOKEN = "lab-admin-token"


class DuplicateUser(Exception):
    pass


class BadUsername(Exception):
    pass


class CorruptSnapshot(Exception):
    """A snapshot file that is not a saved forum state."""


class DefenseMode(str, enum.Enum):
    NONE = "none"
    CSRF_TOKEN = "csrf_token"
    ORIGIN_CHECK = "origin_check"
    SAMESITE_STRICT = "samesite_strict"


class PostKind(str, enum.Enum):
    TOPIC = "topic"
    PRIVATE_MESSAGE = "private_message"


class Deny(NamedTuple):
    reason: str


class TokenSource:
    """Deterministic hex-token generator: sha256 of seed and counter."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int) -> None:
        self.seed, self.counter = seed, 0

    def next_token(self) -> str:
        token = hashlib.sha256(f"{self.seed}:{self.counter}".encode()).hexdigest()[:32]
        self.counter += 1
        return token


class User(NamedTuple):
    username: str
    salt: str
    password_digest: str


class SessionRecord(NamedTuple):
    session_id: str
    username: str
    csrf_token: str | None


class PostRecord(NamedTuple):
    kind: PostKind
    sender: str
    recipient: str | None
    title: str
    message: str
    seq: int

    def to_dict(self) -> dict:
        """The post as both the admin view and the snapshot store it."""
        return {**self._asdict(), "kind": self.kind.value}


def _digest(salt: str, password: str) -> str:
    return hashlib.sha256((salt + ":" + password).encode()).hexdigest()


def _text_response(status: int, text: str) -> HttpResponse:
    return make_response(status, body=text.encode(), content_type="text/plain; charset=utf-8")


def _html_response(body_html: str) -> HttpResponse:
    return make_response(
        200, body=body_html.encode(), content_type="text/html; charset=utf-8"
    )


_USERNAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


class ForumApp:
    """One forum instance: state, defense policy, and request dispatch.

    All mutation happens under a single lock, so concurrent connections
    see serializable request handling.
    """

    def __init__(
        self,
        policy: DefenseMode = DefenseMode.NONE,
        seed: int = DEFAULT_SEED,
        admin_token: str = DEFAULT_ADMIN_TOKEN,
    ) -> None:
        self.policy = policy
        self.admin_token = admin_token
        self.tokens = TokenSource(seed)
        self.users: dict[str, User] = {}
        self.sessions: dict[str, SessionRecord] = {}
        self.posts: list[PostRecord] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ state

    def register(self, username: str, password: str) -> User:
        if not (1 <= len(username) <= 32) or any(c not in _USERNAME_OK for c in username):
            raise BadUsername(f"bad username {username!r}")
        if username in self.users:
            raise DuplicateUser(username)
        salt = self.tokens.next_token()
        user = User(username, salt, _digest(salt, password))
        self.users[username] = user
        return user

    def _open_session(self, username: str) -> SessionRecord:
        session = SessionRecord(self.tokens.next_token(), username, None)
        self.sessions[session.session_id] = session
        return session

    def _session_from_cookie(self, request: HttpRequest) -> SessionRecord | None:
        header = get_header(request, "Cookie")
        if header is None:
            return None
        for part in header.split(";"):
            name, _, value = part.strip().partition("=")
            if name == "session_id":
                return self.sessions.get(value)
        return None

    def _create_post(
        self, kind: PostKind, sender: str, recipient: str | None, title: str, message: str
    ) -> PostRecord:
        # Posts are only ever appended, so post n has seq n.
        post = PostRecord(kind, sender, recipient, title, message, len(self.posts) + 1)
        self.posts.append(post)
        return post

    # ---------------------------------------------------------- defense

    def _own_origin(self, request: HttpRequest) -> str:
        # The site's origin as the client addressed it (Host header),
        # so loopback aliases and explicit ports both compare cleanly.
        return request.uri.origin_text().lower()

    def check_defenses(
        self,
        session: SessionRecord,
        request: HttpRequest,
        body_pairs: list[tuple[str, str]],
    ) -> Deny | None:
        """Deny with a reason, or None when the policy lets the post through."""
        if self.policy is DefenseMode.CSRF_TOKEN:
            supplied = dict(body_pairs).get("csrf_token")
            if session.csrf_token is None or supplied != session.csrf_token:
                return Deny("missing_or_bad_token")
            return None
        if self.policy is DefenseMode.ORIGIN_CHECK:
            origin = get_header(request, "Origin")
            if origin is None:
                referer = get_header(request, "Referer")
                if referer is None:
                    return Deny("bad_origin")
                try:
                    origin = parse_url(referer).origin_text()
                except BadUrl:
                    return Deny("bad_origin")
            if origin.strip().lower() != self._own_origin(request):
                return Deny("bad_origin")
            return None
        # none and samesite_strict add no server-side check; the latter
        # relies entirely on the cookie attribute set at login.
        return None

    # ------------------------------------------------------------ pages

    def _form_page(self, request: HttpRequest, form: str, session: SessionRecord) -> str:
        base = self._own_origin(request)
        rows = []
        if self.policy is DefenseMode.CSRF_TOKEN:
            if session.csrf_token is None:
                session = session._replace(csrf_token=self.tokens.next_token())
                self.sessions[session.session_id] = session
            rows.append(
                f'<input type="hidden" name="csrf_token" value="{session.csrf_token}"/>'
            )
        if form == "new_pm":
            action = f"{base}{FORUM_ROOT}/new_pm.php"
            form_id = "pm-form"
            rows.append('<input type="text" name="recip" value="" />')
        else:
            action = f"{base}{FORUM_ROOT}/new_topic.php"
            form_id = "topic-form"
        rows.append('<input type="text" name="title" value="" />')
        rows.append('<input type="text" name="message" value="" />')
        rows.append('<input type="submit" value="Post" />')
        fields = "\n      ".join(rows)
        return (
            "<html>\n  <head><title>Forum</title></head>\n  <body>\n"
            f'    <form id="{form_id}" action="{action}" method="post">\n'
            f"      {fields}\n"
            "    </form>\n  </body>\n</html>\n"
        )

    def login_page(self, origin: str) -> str:
        # The emulator's parser knows only hidden/text/submit inputs, so
        # the password field is a text input here.
        action = f"{origin}{FORUM_ROOT}/login.php"
        return (
            "<html>\n  <head><title>Forum login</title></head>\n  <body>\n"
            f'    <form id="login-form" action="{action}" method="post">\n'
            '      <input type="text" name="username" value="" />\n'
            '      <input type="text" name="password" value="" />\n'
            '      <input type="submit" value="Log in" />\n'
            "    </form>\n  </body>\n</html>\n"
        )

    def index_page(self) -> str:
        topics = [p for p in self.posts if p.kind is PostKind.TOPIC]
        pms = [p for p in self.posts if p.kind is PostKind.PRIVATE_MESSAGE]
        items = "".join(
            f'    <p class="topic">{html.escape(p.title)}</p>\n' for p in topics
        )
        return (
            "<html>\n  <head><title>Forum</title></head>\n  <body>\n"
            "    <h1>Forum</h1>\n"
            f"    <p>{len(topics)} topics, {len(pms)} private messages</p>\n"
            f"{items}  </body>\n</html>\n"
        )

    # --------------------------------------------------------- handlers

    def _parse_body(self, request: HttpRequest) -> list[tuple[str, str]] | None:
        try:
            return form_urldecode(request.body.decode("utf-8"))
        except (MalformedEncoding, UnicodeDecodeError):
            return None

    def _with_credentials(self, request: HttpRequest, handler) -> HttpResponse:
        """handler(username, password) from the body, or the 400 for a
        body that does not carry both."""
        pairs = self._parse_body(request)
        if pairs is None:
            return _text_response(400, "malformed body")
        fields = dict(pairs)
        if "username" not in fields or "password" not in fields:
            return _text_response(400, "username and password required")
        return handler(fields["username"], fields["password"])

    def _handle_register(self, username: str, password: str) -> HttpResponse:
        try:
            self.register(username, password)
        except (BadUsername, DuplicateUser) as exc:
            return _text_response(400, f"{type(exc).__name__}: {exc}")
        return make_response(302, headers=[("Location", f"{FORUM_ROOT}/login.php")])

    def _handle_login(self, username: str, password: str) -> HttpResponse:
        user = self.users.get(username)
        if user is None or _digest(user.salt, password) != user.password_digest:
            return _text_response(401, "bad credentials")
        session = self._open_session(user.username)
        cookie = f"session_id={session.session_id}; Path=/"
        if self.policy is DefenseMode.SAMESITE_STRICT:
            cookie += "; SameSite=Strict"
        return make_response(
            302,
            headers=[("Location", f"{FORUM_ROOT}/index.php"), ("Set-Cookie", cookie)],
        )

    def _handle_post_action(self, request: HttpRequest, kind: PostKind) -> HttpResponse:
        session = self._session_from_cookie(request)
        if session is None:
            return _text_response(401, "login required")
        pairs = self._parse_body(request)
        if pairs is None:
            return _text_response(400, "malformed body")
        denied = self.check_defenses(session, request, pairs)
        if denied is not None:
            return _text_response(403, denied.reason)
        fields = dict(pairs)
        needed = ["title", "message"] + (["recip"] if kind is PostKind.PRIVATE_MESSAGE else [])
        missing = [n for n in needed if n not in fields]
        if missing:
            return _text_response(400, f"missing fields: {', '.join(missing)}")
        recipient = None
        if kind is PostKind.PRIVATE_MESSAGE:
            recipient = fields["recip"]
            if recipient not in self.users:
                return _text_response(404, f"no such user: {recipient}")
        # Sender comes from the authenticated session, never the body.
        self._create_post(kind, session.username, recipient, fields["title"], fields["message"])
        return make_response(302, headers=[("Location", f"{FORUM_ROOT}/index.php")])

    def _handle_form_page(self, request: HttpRequest, form: str) -> HttpResponse:
        session = self._session_from_cookie(request)
        if session is None:
            return _text_response(401, "login required")
        return _html_response(self._form_page(request, form, session))

    def _handle_admin_state(self, request: HttpRequest) -> HttpResponse:
        auth = get_header(request, "Authorization")
        if auth != f"Bearer {self.admin_token}":
            return _text_response(401, "admin token required")
        return make_response(
            200, body=self.admin_state().encode(), content_type="application/json"
        )

    def admin_state(self) -> str:
        """Deterministic JSON view: user names, redacted sessions, posts."""
        doc = {
            "users": list(self.users),
            "sessions": [
                {"session_id": s.session_id[:8], "username": s.username}
                for s in self.sessions.values()
            ],
            "posts": [post.to_dict() for post in self.posts],
        }
        return json.dumps(doc, separators=(",", ":"))

    # --------------------------------------------------------- dispatch

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        with self._lock:
            return self._route(request)

    # One handler per (method, path), each called with the app and the request.
    _ROUTES = {
        (HttpMethod.POST, f"{FORUM_ROOT}/register.php"):
            lambda app, request: app._with_credentials(request, app._handle_register),
        (HttpMethod.POST, f"{FORUM_ROOT}/login.php"):
            lambda app, request: app._with_credentials(request, app._handle_login),
        (HttpMethod.GET, f"{FORUM_ROOT}/login.php"):
            lambda app, request: _html_response(app.login_page(app._own_origin(request))),
        (HttpMethod.GET, f"{FORUM_ROOT}/index.php"):
            lambda app, request: _html_response(app.index_page()),
        (HttpMethod.GET, f"{FORUM_ROOT}/new_topic_form.php"):
            lambda app, request: app._handle_form_page(request, "new_topic"),
        (HttpMethod.GET, f"{FORUM_ROOT}/new_pm_form.php"):
            lambda app, request: app._handle_form_page(request, "new_pm"),
        (HttpMethod.POST, f"{FORUM_ROOT}/new_topic.php"):
            lambda app, request: app._handle_post_action(request, PostKind.TOPIC),
        (HttpMethod.POST, f"{FORUM_ROOT}/new_pm.php"):
            lambda app, request: app._handle_post_action(request, PostKind.PRIVATE_MESSAGE),
        (HttpMethod.GET, "/admin/state"):
            lambda app, request: app._handle_admin_state(request),
    }

    def _route(self, request: HttpRequest) -> HttpResponse:
        handler = self._ROUTES.get((request.method, request.uri.path))
        if handler is None:
            return _text_response(404, f"no route for {request.method.value} {request.uri.path}")
        return handler(self, request)

    def handle_raw(self, raw: bytes) -> bytes:
        """Byte-level contract shared by the TCP server and the
        in-process transport: request bytes in, response bytes out.

        Total: a handler error is logged and answered with a 500, so it
        never reaches (and ends) a server worker."""
        try:
            request = parse_request(raw)
        except MalformedMessage as exc:
            return serialize(_text_response(400, f"malformed request: {exc}"))
        try:
            response = self.handle_request(request)
        except Exception:
            import logging
            logging.getLogger(__name__).exception(
                "error handling %s %s", request.method.value, request.uri.path
            )
            response = _text_response(500, "internal server error")
        return serialize(response)

    # --------------------------------------------------------- snapshot

    def snapshot(self) -> dict:
        """Full state including secrets; loading it resumes the run."""
        return {
            "policy": self.policy.value,
            "seed": self.tokens.seed,
            "token_counter": self.tokens.counter,
            "next_seq": len(self.posts) + 1,
            "users": [user._asdict() for user in self.users.values()],
            "sessions": [session._asdict() for session in self.sessions.values()],
            "posts": [post.to_dict() for post in self.posts],
        }

    def save_snapshot(self, path: str) -> None:
        """Write to a temp file beside path, then rename it over path, so
        a crash mid-write leaves the previous snapshot intact.  The temp
        name is as short for a long path name as for a short one, and the
        directory is synced after the rename, so the rename is durable too."""
        import tempfile

        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=".snapshot.", suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self.snapshot(), fh, indent=2, sort_keys=False)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        directory_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)

    @classmethod
    def from_snapshot(cls, doc: dict, admin_token: str = DEFAULT_ADMIN_TOKEN) -> "ForumApp":
        # The counters are ints: a bool is not one, and "2" or 2.0 would
        # load, then break the token stream or the post numbering.
        for key in ("seed", "token_counter", "next_seq"):
            if type(doc[key]) is not int:
                raise ValueError(f"{key} is {doc[key]!r}, not an integer")
        if doc["token_counter"] < 0:
            raise ValueError(f"token_counter {doc['token_counter']} is negative")
        app = cls(policy=DefenseMode(doc["policy"]), seed=doc["seed"], admin_token=admin_token)
        app.tokens.counter = doc["token_counter"]
        # Each record takes exactly the keys the snapshot writes for it.
        for u in doc["users"]:
            app.users[u["username"]] = User(**u)
        for s in doc["sessions"]:
            if s["username"] not in app.users:
                raise ValueError(f"session {s['session_id']!r} names no user")
            app.sessions[s["session_id"]] = SessionRecord(**s)
        for i, p in enumerate(doc["posts"]):
            if type(p["seq"]) is not int or p["seq"] != i + 1:
                raise ValueError(f"post {i} has seq {p['seq']!r}, not {i + 1}")
            post = PostRecord(**{**p, "kind": PostKind(p["kind"])})
            # As the handlers make them: a post is from a user, a private
            # message is to a user, and a topic is to no one.
            recipients = app.users if post.kind is PostKind.PRIVATE_MESSAGE else (None,)
            if post.sender not in app.users or post.recipient not in recipients:
                raise ValueError(f"post {i} is from {post.sender!r} to {post.recipient!r}")
            app.posts.append(post)
        # A repeated username or session_id, an extra key or a next_seq that is
        # not len(posts) + 1 would not survive the load: the state must save
        # back to exactly the document.
        if app.snapshot() != doc:
            raise ValueError("the document is not what its own state saves")
        return app

    @classmethod
    def load_snapshot(cls, path: str, admin_token: str = DEFAULT_ADMIN_TOKEN) -> "ForumApp":
        """Raises CorruptSnapshot when the file is not a saved state."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_snapshot(json.load(fh), admin_token=admin_token)
            except (ValueError, KeyError, TypeError) as exc:
                raise CorruptSnapshot(f"{path}: {type(exc).__name__}: {exc}") from exc
