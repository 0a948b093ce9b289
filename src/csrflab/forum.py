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
"""

from __future__ import annotations

import enum
import hashlib
import html
import json
import logging
import os
import tempfile
import threading
from typing import NamedTuple

from .httpcore import (
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

_log = logging.getLogger(__name__)


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

    def __init__(self, seed: int, counter: int = 0) -> None:
        self.seed, self.counter = seed, counter

    def next_token(self) -> str:
        token = hashlib.sha256(f"{self.seed}:{self.counter}".encode()).hexdigest()[:32]
        self.counter += 1
        return token


class User(NamedTuple):
    username: str
    salt: str
    password_digest: str


class SessionRecord:
    __slots__ = ("session_id", "username", "csrf_token")

    def __init__(self, session_id: str, username: str, csrf_token: str | None = None) -> None:
        self.session_id, self.username, self.csrf_token = session_id, username, csrf_token


class PostRecord(NamedTuple):
    kind: PostKind
    sender: str
    recipient: str | None
    title: str
    message: str
    seq: int

    def to_dict(self) -> dict:
        """The post as both the admin view and the snapshot store it."""
        return {
            "kind": self.kind.value,
            "sender": self.sender,
            "recipient": self.recipient,
            "title": self.title,
            "message": self.message,
            "seq": self.seq,
        }


def _digest(salt: str, password: str) -> str:
    return hashlib.sha256((salt + ":" + password).encode()).hexdigest()


def _text_response(status: int, text: str, headers=None) -> HttpResponse:
    return make_response(
        status, headers=headers, body=text.encode(), content_type="text/plain; charset=utf-8"
    )


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
        session = SessionRecord(self.tokens.next_token(), username)
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
                except Exception:
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
                session.csrf_token = self.tokens.next_token()
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

    def _route(self, request: HttpRequest) -> HttpResponse:
        key = (request.method, request.uri.path)
        if key == (HttpMethod.POST, f"{FORUM_ROOT}/register.php"):
            return self._with_credentials(request, self._handle_register)
        if key == (HttpMethod.POST, f"{FORUM_ROOT}/login.php"):
            return self._with_credentials(request, self._handle_login)
        if key == (HttpMethod.GET, f"{FORUM_ROOT}/login.php"):
            return _html_response(self.login_page(self._own_origin(request)))
        if key == (HttpMethod.GET, f"{FORUM_ROOT}/index.php"):
            return _html_response(self.index_page())
        if key in (
            (HttpMethod.GET, f"{FORUM_ROOT}/new_topic_form.php"),
            (HttpMethod.GET, f"{FORUM_ROOT}/new_pm_form.php"),
        ):
            session = self._session_from_cookie(request)
            if session is None:
                return _text_response(401, "login required")
            form = "new_pm" if request.uri.path.endswith("new_pm_form.php") else "new_topic"
            return _html_response(self._form_page(request, form, session))
        if key == (HttpMethod.POST, f"{FORUM_ROOT}/new_topic.php"):
            return self._handle_post_action(request, PostKind.TOPIC)
        if key == (HttpMethod.POST, f"{FORUM_ROOT}/new_pm.php"):
            return self._handle_post_action(request, PostKind.PRIVATE_MESSAGE)
        if key == (HttpMethod.GET, "/admin/state"):
            return self._handle_admin_state(request)
        return _text_response(404, f"no route for {request.method.value} {request.uri.path}")

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
            _log.exception("error handling %s %s", request.method.value, request.uri.path)
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
            "users": [
                {"username": u.username, "salt": u.salt, "password_digest": u.password_digest}
                for u in self.users.values()
            ],
            "sessions": [
                {"session_id": s.session_id, "username": s.username, "csrf_token": s.csrf_token}
                for s in self.sessions.values()
            ],
            "posts": [post.to_dict() for post in self.posts],
        }

    def save_snapshot(self, path: str) -> None:
        """Write to a temp file beside path, then rename it over path, so
        a crash mid-write leaves the previous snapshot intact."""
        directory, name = os.path.split(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
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

    @classmethod
    def from_snapshot(cls, doc: dict, admin_token: str = DEFAULT_ADMIN_TOKEN) -> "ForumApp":
        app = cls(
            policy=DefenseMode(doc["policy"]), seed=doc["seed"], admin_token=admin_token
        )
        app.tokens.counter = doc["token_counter"]
        for u in doc["users"]:
            app.users[u["username"]] = User(u["username"], u["salt"], u["password_digest"])
        for s in doc["sessions"]:
            app.sessions[s["session_id"]] = SessionRecord(
                s["session_id"], s["username"], s["csrf_token"]
            )
        for i, p in enumerate(doc["posts"]):
            if p["seq"] != i + 1:
                raise ValueError(f"post {i} has seq {p['seq']}, not {i + 1}")
            app.posts.append(
                PostRecord(
                    PostKind(p["kind"]), p["sender"], p["recipient"],
                    p["title"], p["message"], p["seq"],
                )
            )
        if doc["next_seq"] != len(app.posts) + 1:
            raise ValueError(f"next_seq {doc['next_seq']} after {len(app.posts)} posts")
        return app

    @classmethod
    def load_snapshot(cls, path: str, admin_token: str = DEFAULT_ADMIN_TOKEN) -> "ForumApp":
        """Raises CorruptSnapshot when the file is not a saved state."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_snapshot(json.load(fh), admin_token=admin_token)
            except (ValueError, KeyError, TypeError) as exc:
                raise CorruptSnapshot(f"{path}: {type(exc).__name__}: {exc}") from exc
