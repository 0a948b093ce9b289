"""Experiment orchestration: victim login, four attacks, outcome matrix.

Each matrix cell gets a fresh ForumApp (same seed), a fresh emulator,
and a scripted victim: register, log in through the emulator with a
cookie-capturing navigation hook installed, then fire one attack under
one defense policy.  Over TCP one ForumServer listens for the whole
matrix and each cell mounts its own app on it, so no state crosses
cells while the socket stays up.  Success is decided from server-state
evidence (new posts attributed to the victim with the attack's title),
never from the HTTP status alone; the status is recorded alongside for
the grid.

The four scenarios:

  A1  load_url of a packaged attack page that auto-submits a hidden form
  A2  load_data of the same markup as a raw string (opaque origin)
  A3  post_url of a url-encoded body straight to the PM endpoint
  A4  a forged request carrying the cookie lifted from the cookie
      manager during the victim's login (optionally with a spoofed
      Origin header)

EXPECTED_GRID holds the outcome every cell must produce; the CLI exits
nonzero when a run disagrees.
"""

from __future__ import annotations

import contextlib
import enum
import json
import tempfile
import time
from dataclasses import dataclass, field

from . import __version__, client, fixtures
from .config import LabConfig
from .cookies import CookieStore
from .forum import DefenseMode, ForumApp
from .httpcore import (
    HttpMethod,
    form_urlencode,
    make_request,
    parse_response,
    serialize,
    set_header,
)
from .server import ForumServer
from .transport import InProcessTransport, TcpTransport, Transport
from .webview import WebViewInstance

DEFAULT_SEED = 1337
VICTIM = "sohini"
VICTIM_PASSWORD = "victim-pw"
PEER = "user1"
PEER_PASSWORD = "peer-pw"

FORUM_ROOT = "/cgi-bin/Forum"


class LoginFailed(Exception):
    pass


class NoCookieCaptured(Exception):
    pass


class ScenarioSetupFailed(Exception):
    """A precondition step broke; distinct from the attack failing."""


class SnapshotMismatch(Exception):
    """Before/after snapshots do not describe the same server run."""


class ScenarioId(str, enum.Enum):
    A1_LOAD_URL_ASSET_FORM = "A1"
    A2_LOAD_DATA = "A2"
    A3_POST_URL = "A3"
    A4_FORGED_CLIENT = "A4"


_SCENARIO_TITLES = {
    ScenarioId.A1_LOAD_URL_ASSET_FORM: fixtures.ATTACK_TITLE,
    ScenarioId.A2_LOAD_DATA: fixtures.ATTACK_TITLE,
    ScenarioId.A3_POST_URL: fixtures.API_POST_TITLE,
    ScenarioId.A4_FORGED_CLIENT: fixtures.API_POST_TITLE,
}

_SCENARIO_NOTES = {
    ScenarioId.A1_LOAD_URL_ASSET_FORM: "auto-submitting form loaded from a packaged asset",
    ScenarioId.A2_LOAD_DATA: "auto-submitting form loaded as raw data, opaque origin",
    ScenarioId.A3_POST_URL: "direct API POST with no initiating document",
    ScenarioId.A4_FORGED_CLIENT: "forged request carrying the captured session cookie",
}


@dataclass
class AttackOutcome:
    scenario: ScenarioId
    defense: DefenseMode
    spoof: bool
    success: bool
    http_status: int
    evidence: list[dict]
    notes: str
    # Server state around the attack step, for audits; not part of the
    # report schema.
    state_before: dict | None = field(default=None, repr=False)
    state_after: dict | None = field(default=None, repr=False)

    def to_cell(self) -> dict:
        return {
            "scenario": self.scenario.value,
            "defense": self.defense.value,
            "spoof": self.spoof,
            "success": self.success,
            "status": self.http_status,
            "evidence": self.evidence,
            "notes": self.notes,
        }


@dataclass
class MatrixReport:
    grid: list[AttackOutcome]
    seed: int
    version: str = __version__
    # Wall-clock stays on the object only; the JSON report must be
    # byte-identical across same-seed runs.
    started_at: float = 0.0
    finished_at: float = 0.0

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "version": self.version,
            "cells": [outcome.to_cell() for outcome in self.grid],
        }
        return json.dumps(doc, indent=2) + "\n"


# Expected outcome per (scenario, defense, spoof): success flag and the
# status of the attack's own request.  The none column reproduces the
# undefended forum; the rest follow from which component each defense
# can see (tokens: body; origins: headers; SameSite: browser attachment).
EXPECTED_GRID: dict[tuple[str, str, bool], tuple[bool, int]] = {
    ("A1", "none", False): (True, 302),
    ("A1", "csrf_token", False): (False, 403),
    ("A1", "origin_check", False): (False, 403),
    ("A1", "samesite_strict", False): (False, 401),
    ("A2", "none", False): (True, 302),
    ("A2", "csrf_token", False): (False, 403),
    ("A2", "origin_check", False): (False, 403),
    ("A2", "samesite_strict", False): (False, 401),
    ("A3", "none", False): (True, 302),
    ("A3", "csrf_token", False): (False, 403),
    ("A3", "origin_check", False): (False, 403),
    ("A3", "samesite_strict", False): (True, 302),
    ("A4", "none", False): (True, 302),
    ("A4", "csrf_token", False): (False, 403),
    ("A4", "origin_check", False): (False, 403),
    ("A4", "samesite_strict", False): (True, 302),
    ("A4", "origin_check", True): (True, 302),
}


class CookieCapture:
    """Navigation hook that records what the cookie manager holds for
    every navigated URL, the way a snooping host application would."""

    def __init__(self, view: WebViewInstance) -> None:
        self.view = view
        self.urls: list[str] = []
        self.cookies: list[str] = []

    def __call__(self, url: str) -> bool:
        self.urls.append(url)
        cookie = self.view.get_cookie(url)
        if cookie is not None:
            self.cookies.append(cookie)
        return False


def victim_login(
    view: WebViewInstance, base_url: str, username: str, password: str
) -> str:
    """Drive the victim's login through the emulator and return the
    cookie the installed CookieCapture hook saw on the redirect hop."""
    view.load_url(f"{base_url}{FORUM_ROOT}/login.php")
    result = view.user_submit_form(
        "login-form", [("username", username), ("password", password)]
    )
    if result.status == 401:
        raise LoginFailed(f"server rejected credentials for {username!r}")
    capture = view.navigation_hook
    if not isinstance(capture, CookieCapture) or not capture.cookies:
        raise NoCookieCaptured("no cookie-capturing hook saw a session cookie")
    return capture.cookies[-1]


def verify_outcome(
    state_before, state_after, expected_sender: str, expected_title: str
) -> tuple[bool, list[dict]]:
    """Evidence-based verdict: the attack succeeded iff the state delta
    contains a post from expected_sender titled expected_title.

    Both snapshots must come from the same run: users, sessions, and
    posts only ever grow, so the before-lists must be prefixes of the
    after-lists (SnapshotMismatch otherwise).
    """
    before = json.loads(state_before) if isinstance(state_before, str) else state_before
    after = json.loads(state_after) if isinstance(state_after, str) else state_after
    for key in ("users", "sessions", "posts"):
        if after[key][: len(before[key])] != before[key]:
            raise SnapshotMismatch(f"{key} in the before-snapshot are not a prefix of after")
    delta = after["posts"][len(before["posts"]):]
    evidence = [
        post
        for post in delta
        if post["sender"] == expected_sender and post["title"] == expected_title
    ]
    return bool(evidence), evidence


# ----------------------------------------------------------- wire helpers


def _exchange(transport: Transport, request) -> "HttpResponse":
    uri = request.uri
    return parse_response(transport.exchange(uri.host, uri.port, serialize(request)))


def _wire_post(transport, base_url, path, pairs):
    request = make_request(
        HttpMethod.POST,
        f"{base_url}{path}",
        body=form_urlencode(pairs).encode(),
        content_type="application/x-www-form-urlencoded",
    )
    return _exchange(transport, request)


def _register_users(transport, base_url) -> None:
    for username, password in ((VICTIM, VICTIM_PASSWORD), (PEER, PEER_PASSWORD)):
        response = _wire_post(
            transport,
            base_url,
            f"{FORUM_ROOT}/register.php",
            [("username", username), ("password", password)],
        )
        if response.status != 302:
            raise ScenarioSetupFailed(
                f"registration of {username!r} answered {response.status}"
            )


def _admin_state(transport, base_url, admin_token) -> dict:
    request = make_request(
        HttpMethod.GET,
        f"{base_url}/admin/state",
        headers=[("Authorization", f"Bearer {admin_token}")],
    )
    response = _exchange(transport, request)
    if response.status != 200:
        raise ScenarioSetupFailed(f"admin state endpoint answered {response.status}")
    return json.loads(response.body)


# -------------------------------------------------------------- scenarios


def run_scenario(
    scenario: ScenarioId,
    defense: DefenseMode,
    spoof_origin: bool = False,
    seed: int = DEFAULT_SEED,
    in_process: bool = False,
    install_hook: bool = True,
    server: ForumServer | None = None,
) -> AttackOutcome:
    """One matrix cell on a fresh ForumApp(policy=defense, seed=seed).

    In-process the cell talks to the app directly.  Over TCP the app is
    mounted on `server`, the one run_matrix starts for the whole matrix;
    without one the cell starts and stops its own ephemeral-port server.
    install_hook=False is fault injection for tests: the victim login
    then captures nothing and the cell fails setup."""
    args = (scenario, defense, spoof_origin, seed, install_hook)
    if in_process:
        return _run_cell(*args, server=None)
    if server is None:
        with ForumServer(LabConfig(port=0, seed=seed)) as own:
            return _run_cell(*args, server=own)
    return _run_cell(*args, server=server)


def _run_cell(scenario, defense, spoof_origin, seed, install_hook, server) -> AttackOutcome:
    """The cell body; server=None runs it in-process."""
    app = ForumApp(policy=defense, seed=seed)
    if server is None:
        transport: Transport = InProcessTransport(app)
        base_url = "http://127.0.0.1:8080"
    else:
        server.app = app
        transport = TcpTransport()
        base_url = server.base_url()
    with tempfile.TemporaryDirectory(prefix="csrf-lab-assets-") as asset_root:
        _register_users(transport, base_url)

        view = WebViewInstance(transport=transport, asset_root=asset_root)
        if install_hook:
            view.set_navigation_hook(CookieCapture(view))
        try:
            stolen_cookie = victim_login(view, base_url, VICTIM, VICTIM_PASSWORD)
        except Exception as exc:
            raise ScenarioSetupFailed(f"victim login failed: {exc}") from exc

        before = _admin_state(transport, base_url, app.admin_token)
        try:
            status, response_body = _attack(
                scenario, view, transport, base_url, stolen_cookie, spoof_origin, asset_root
            )
        except Exception as exc:
            raise ScenarioSetupFailed(f"attack step crashed: {exc}") from exc
        after = _admin_state(transport, base_url, app.admin_token)

    success, evidence = verify_outcome(before, after, VICTIM, _SCENARIO_TITLES[scenario])
    notes = _SCENARIO_NOTES[scenario]
    if spoof_origin:
        notes += "; Origin header spoofed to the site origin"
    if not success and response_body:
        notes += f"; server said: {response_body}"
    return AttackOutcome(
        scenario=scenario,
        defense=defense,
        spoof=spoof_origin,
        success=success,
        http_status=status,
        evidence=evidence,
        notes=notes,
        state_before=before,
        state_after=after,
    )


def _attack(
    scenario, view, transport, base_url, stolen_cookie, spoof_origin, asset_root
) -> tuple[int, str]:
    """Returns the status of the attack's own request plus a short body
    excerpt for the notes."""
    if scenario is ScenarioId.A1_LOAD_URL_ASSET_FORM:
        page = fixtures.attack_form_html(base_url)
        with open(f"{asset_root}/attack_form.html", "w", encoding="utf-8") as fh:
            fh.write(page)
        result = view.load_url("asset:///attack_form.html")
        return _navigation_status(result)
    if scenario is ScenarioId.A2_LOAD_DATA:
        result = view.load_data(
            fixtures.attack_form_html(base_url), "text/html; charset=utf-8", "UTF-8"
        )
        return _navigation_status(result)
    if scenario is ScenarioId.A3_POST_URL:
        result = view.post_url(
            f"{base_url}{FORUM_ROOT}/new_pm.php", fixtures.API_POST_BODY.encode()
        )
        return _navigation_status(result)
    forged = client.build(
        HttpMethod.POST, f"{base_url}{FORUM_ROOT}/new_pm.php", fixtures.API_POST_PAIRS
    )
    client.set_cookie_header(forged, stolen_cookie)
    if spoof_origin:
        set_header(forged.inner, "Origin", base_url)
    response = client.execute(forged, transport)
    return response.status, _body_excerpt(response)


def _navigation_status(result) -> tuple[int, str]:
    status = result.final_status()
    if status is None:
        raise ScenarioSetupFailed("the attack never produced a network response")
    deepest = result
    while deepest.submission is not None:
        deepest = deepest.submission
    return status, _body_excerpt(deepest.response)


def _body_excerpt(response) -> str:
    if response is None or response.status == 302:
        return ""
    return response.body[:120].decode("utf-8", errors="replace")


# ----------------------------------------------------------------- matrix


def matrix_cells() -> list[tuple[ScenarioId, DefenseMode, bool]]:
    """The 17 cells: every scenario under every defense, plus the one
    informative spoof variant (A4 with a forged Origin is only a
    distinct experiment where origins are actually checked)."""
    cells = [
        (scenario, defense, False)
        for scenario in ScenarioId
        for defense in DefenseMode
    ]
    cells.append((ScenarioId.A4_FORGED_CLIENT, DefenseMode.ORIGIN_CHECK, True))
    return cells


def run_matrix(seed: int = DEFAULT_SEED, in_process: bool = False) -> MatrixReport:
    """Every cell of matrix_cells() in order.  Over TCP one ephemeral-port
    server serves the whole matrix; each cell mounts a fresh app on it."""
    report = MatrixReport(grid=[], seed=seed, started_at=time.time())
    if in_process:
        listener = contextlib.nullcontext()
    else:
        listener = ForumServer(LabConfig(port=0, seed=seed))
    with listener as server:
        for scenario, defense, spoof in matrix_cells():
            try:
                outcome = run_scenario(
                    scenario, defense, spoof_origin=spoof, seed=seed,
                    in_process=in_process, server=server,
                )
            except ScenarioSetupFailed as exc:
                outcome = AttackOutcome(
                    scenario=scenario,
                    defense=defense,
                    spoof=spoof,
                    success=False,
                    http_status=0,
                    evidence=[],
                    notes=f"ScenarioSetupFailed: {exc}",
                )
            report.grid.append(outcome)
    report.finished_at = time.time()
    return report


def compare_with_expected(report: MatrixReport) -> list[str]:
    """Mismatch descriptions against EXPECTED_GRID; empty means the run
    reproduced the expected outcomes exactly."""
    problems = []
    seen = set()
    for outcome in report.grid:
        key = (outcome.scenario.value, outcome.defense.value, outcome.spoof)
        seen.add(key)
        expected = EXPECTED_GRID.get(key)
        if expected is None:
            problems.append(f"unexpected cell {key}")
            continue
        got = (outcome.success, outcome.http_status)
        if got != expected:
            problems.append(f"cell {key}: expected {expected}, got {got}")
    for key in EXPECTED_GRID:
        if key not in seen:
            problems.append(f"missing cell {key}")
    return problems
