"""Experiment orchestration: victim login, four attacks, outcome matrix.

A run opens one Lab (open_lab), and each cell (run_scenario) mounts a
fresh ForumApp with the lab's seed on it: on the run's one ForumServer
over TCP, on an InProcessTransport in-process.  The lab also holds the
attack page, aimed at its base URL, as one string: A1's emulator gets
it as its packaged asset and A2 loads it as raw data, so a run writes
no file.  No server or browser state crosses cells.  A cell registers
a scripted victim, logs it in through a fresh emulator with a
cookie-capturing navigation hook installed, then fires one attack under
one defense policy; every request goes out through client.execute.
Success is decided from server-state evidence (new posts attributed to
the victim with the attack's title), never from the HTTP status alone;
the status is recorded alongside for the grid.

Over TCP the lab's threads share one CPU.  Every exchange passes the
interpreter lock between the client and the server's worker about four
times, and on a machine with more than one CPU each pass to a thread on
another CPU has to wake that CPU first.  open_lab restricts the calling
thread to the lowest CPU of its mask before the server's workers are
created, so that they inherit it, and gives the thread its own mask
back on exit.

SCENARIOS is the one table of the four scenarios.  Each declares its
initiator, and expected_cell derives every cell's outcome from it, and
from what the defense can see; EXPECTED_GRID and matrix_cells() are
built from that, and the CLI exits nonzero when a run disagrees with
the grid:

  A1  load_url of a packaged attack page that auto-submits a hidden form
  A2  load_data of the same markup as a raw string (opaque origin)
  A3  post_url of a url-encoded body straight to the PM endpoint
  A4  a forged request carrying the cookie lifted from the cookie
      manager during the victim's login (optionally with a spoofed
      Origin header)
"""

from __future__ import annotations

import contextlib
import enum
import json
import os
from collections.abc import Callable, Iterator
from typing import NamedTuple

from . import __version__, client, fixtures
from .config import LabConfig
from .forum import DEFAULT_SEED, FORUM_ROOT, DefenseMode, ForumApp
from .httpcore import HttpMethod, HttpRequest, HttpResponse, MalformedMessage, with_header

# Sent through client.execute; still imported because the benchmark's
# tracer (perfbench/tracing.py) wraps them by this module's name.
from .httpcore import form_urlencode, make_request, parse_response, serialize  # noqa: F401
from .server import ForumServer
from .transport import ConnectionFailed, InProcessTransport, TcpTransport
from .webview import WebViewInstance

VICTIM = "sohini"
VICTIM_PASSWORD = "victim-pw"
PEER = "user1"
PEER_PASSWORD = "peer-pw"


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


class AttackOutcome(NamedTuple):
    scenario: ScenarioId
    defense: DefenseMode
    spoof: bool
    success: bool
    http_status: int
    evidence: list[dict]
    notes: str
    # Server state around the attack step, for audits; not part of the
    # report schema.
    state_before: dict | None = None
    state_after: dict | None = None

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


class MatrixReport(NamedTuple):
    grid: tuple[AttackOutcome, ...]
    seed: int

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "version": __version__,
            "cells": [outcome.to_cell() for outcome in self.grid],
        }
        return json.dumps(doc, indent=2) + "\n"


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
    state_before: dict, state_after: dict, expected_sender: str, expected_title: str
) -> tuple[bool, list[dict]]:
    """Evidence-based verdict: the attack succeeded iff the state delta
    contains a post from expected_sender titled expected_title.

    Both snapshots must come from the same run: users, sessions, and
    posts only ever grow, so the before-lists must be prefixes of the
    after-lists (SnapshotMismatch otherwise).
    """
    for key in ("users", "sessions", "posts"):
        if state_after[key][: len(state_before[key])] != state_before[key]:
            raise SnapshotMismatch(f"{key} in the before-snapshot are not a prefix of after")
    delta = state_after["posts"][len(state_before["posts"]):]
    evidence = [
        post
        for post in delta
        if post["sender"] == expected_sender and post["title"] == expected_title
    ]
    return bool(evidence), evidence


# ------------------------------------------------------------------- lab


class Lab(NamedTuple):
    """Where the cells of one run send their requests.  mount is the
    object whose .app each cell assigns: the ForumServer over TCP, the
    InProcessTransport in-process.  attack_page is the text of the attack
    page aimed at base_url: A1 loads it as the packaged asset
    attack_form.html, A2 as raw data.  seed is the token stream seed of
    every cell's ForumApp."""

    transport: TcpTransport | InProcessTransport
    base_url: str
    mount: ForumServer | InProcessTransport
    attack_page: str
    seed: int


@contextlib.contextmanager
def open_lab(seed: int = DEFAULT_SEED, in_process: bool = False) -> Iterator[Lab]:
    """The lab every run_scenario call needs, for one seed.  Over TCP,
    one ephemeral-port ForumServer for the whole run, stopped on exit,
    whose workers share the calling thread's one CPU; in-process,
    dispatch straight into the mounted app.  Either way the attack page
    is built once, for the lab's base_url."""
    if in_process:
        transport = InProcessTransport(None)
        base_url = fixtures.DEFAULT_BASE_URL
        yield Lab(transport, base_url, transport, fixtures.attack_form_html(base_url), seed)
        return
    with _one_cpu(), ForumServer(LabConfig(port=0, seed=seed)) as server:
        base_url = server.base_url()
        yield Lab(TcpTransport(), base_url, server, fixtures.attack_form_html(base_url), seed)


@contextlib.contextmanager
def _one_cpu() -> Iterator[None]:
    """Restrict the calling thread, and the threads it starts, to the
    lowest CPU of its mask, and restore its mask on exit.  Threads that
    already exist keep theirs: Linux sets affinity per thread.  A no-op
    where os has no sched_setaffinity."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def _set_up(lab: Lab, request: HttpRequest, step: str, status: int) -> HttpResponse:
    """One set-up exchange, which must answer status; ScenarioSetupFailed
    naming step when it does not, or does not answer at all."""
    try:
        response = client.execute(request, lab.transport)
    except (ConnectionFailed, MalformedMessage) as exc:
        raise ScenarioSetupFailed(f"{step} failed: {exc}") from exc
    if response.status != status:
        raise ScenarioSetupFailed(f"{step} answered {response.status}")
    return response


def _register_users(lab: Lab) -> None:
    for username, password in ((VICTIM, VICTIM_PASSWORD), (PEER, PEER_PASSWORD)):
        request = client.build(
            HttpMethod.POST,
            f"{lab.base_url}{FORUM_ROOT}/register.php",
            [("username", username), ("password", password)],
        )
        _set_up(lab, request, f"registration of {username!r}", 302)


def _admin_state(lab: Lab, admin_token: str) -> dict:
    request = client.build(
        HttpMethod.GET,
        f"{lab.base_url}/admin/state",
        headers=[("Authorization", f"Bearer {admin_token}")],
    )
    return json.loads(_set_up(lab, request, "admin state fetch", 200).body)


# --------------------------------------------------------------- attacks
#
# Each attack step returns the status of the attack's own request plus a
# short body excerpt for the notes.


def _load_asset_page(view, lab, stolen_cookie, spoof_origin) -> tuple[int, str]:
    return _navigation_status(view.load_url("asset:///attack_form.html"))


def _load_raw_data(view, lab, stolen_cookie, spoof_origin) -> tuple[int, str]:
    result = view.load_data(lab.attack_page, "text/html; charset=utf-8", "UTF-8")
    return _navigation_status(result)


def _post_url(view, lab, stolen_cookie, spoof_origin) -> tuple[int, str]:
    result = view.post_url(
        f"{lab.base_url}{FORUM_ROOT}/new_pm.php", fixtures.API_POST_BODY.encode()
    )
    return _navigation_status(result)


def _forged_client(view, lab, stolen_cookie, spoof_origin) -> tuple[int, str]:
    forged = client.build(
        HttpMethod.POST, f"{lab.base_url}{FORUM_ROOT}/new_pm.php", fixtures.API_POST_PAIRS
    )
    forged = with_header(forged, "Cookie", stolen_cookie)
    if spoof_origin:
        forged = with_header(forged, "Origin", lab.base_url)
    response = client.execute(forged, lab.transport)
    return response.status, _body_excerpt(response)


def _navigation_status(result) -> tuple[int, str]:
    deepest = result.deepest()
    if deepest.status is None:
        raise ScenarioSetupFailed("the attack never produced a network response")
    return deepest.status, _body_excerpt(deepest.response)


def _body_excerpt(response) -> str:
    if response.status == 302:
        return ""
    return response.body[:120].decode("utf-8", errors="replace")


# ------------------------------------------------------------- scenarios


class Initiator(enum.Enum):
    """Who sends a scenario's attack request, the one fact its cells turn on."""

    CROSS_SITE_DOCUMENT = "a cross-site document in the WebView"
    API_CALL = "the WebView API, with no document"
    NO_BROWSER = "a client of the app's own, with no browser"


class ScenarioSpec(NamedTuple):
    """One row: title is that of the forged post whose presence proves
    success."""

    title: str
    notes: str
    attack: Callable[..., tuple[int, str]]
    initiator: Initiator


# The grid is derived, not listed: expected_cell gives each cell from the
# row's initiator and from which component each defense can see (tokens:
# body; origins: headers; SameSite: browser attachment).
SCENARIOS: dict[ScenarioId, ScenarioSpec] = {
    ScenarioId.A1_LOAD_URL_ASSET_FORM: ScenarioSpec(
        title=fixtures.ATTACK_TITLE,
        notes="auto-submitting form loaded from a packaged asset",
        attack=_load_asset_page,
        initiator=Initiator.CROSS_SITE_DOCUMENT,
    ),
    ScenarioId.A2_LOAD_DATA: ScenarioSpec(
        title=fixtures.ATTACK_TITLE,
        notes="auto-submitting form loaded as raw data, opaque origin",
        attack=_load_raw_data,
        initiator=Initiator.CROSS_SITE_DOCUMENT,
    ),
    ScenarioId.A3_POST_URL: ScenarioSpec(
        title=fixtures.API_POST_TITLE,
        notes="direct API POST with no initiating document",
        attack=_post_url,
        initiator=Initiator.API_CALL,
    ),
    ScenarioId.A4_FORGED_CLIENT: ScenarioSpec(
        title=fixtures.API_POST_TITLE,
        notes="forged request carrying the captured session cookie",
        attack=_forged_client,
        initiator=Initiator.NO_BROWSER,
    ),
}


def expected_cell(spec: ScenarioSpec, defense: DefenseMode, spoof: bool) -> tuple[bool, int, str]:
    """(success, status of the attack's own request, decided_by) of one
    cell.  No initiator can read the session's token, which only a form
    page's body carries.  None sends the site's Origin, unless no browser
    stands in between and it spoofs one.  SameSite=Strict withholds the
    cookie only from a request that a cross-site document starts."""
    if defense is DefenseMode.CSRF_TOKEN:
        return False, 403, "server:missing_or_bad_token"
    if defense is DefenseMode.ORIGIN_CHECK and not spoof:
        return False, 403, "server:bad_origin"
    if defense is DefenseMode.SAMESITE_STRICT and spec.initiator is Initiator.CROSS_SITE_DOCUMENT:
        return False, 401, "emulator:samesite_withheld"
    return True, 302, "none"


def matrix_cells() -> list[tuple[ScenarioId, DefenseMode, bool]]:
    """The 17 cells in table order: every scenario under every defense,
    then a spoofed Origin, which is a distinct experiment only for the
    initiator that can forge one and only where origins are checked."""
    return [
        (scenario, defense, spoof)
        for scenario, spec in SCENARIOS.items()
        for spoof in (False, True)
        for defense in DefenseMode
        if not spoof
        or (defense is DefenseMode.ORIGIN_CHECK and spec.initiator is Initiator.NO_BROWSER)
    ]


# (success, status) per (scenario, defense, spoof).
EXPECTED_GRID: dict[tuple[str, str, bool], tuple[bool, int]] = {
    (scenario.value, defense.value, spoof): expected_cell(SCENARIOS[scenario], defense, spoof)[:2]
    for scenario, defense, spoof in matrix_cells()
}


def run_scenario(
    lab: Lab, scenario: ScenarioId, defense: DefenseMode, spoof_origin: bool = False
) -> AttackOutcome:
    """One matrix cell on a fresh ForumApp(policy=defense, seed=lab.seed),
    mounted on lab."""
    app = ForumApp(policy=defense, seed=lab.seed)
    lab.mount.app = app
    spec = SCENARIOS[scenario]
    _register_users(lab)

    view = WebViewInstance(lab.transport, {"attack_form.html": lab.attack_page})
    view.set_navigation_hook(CookieCapture(view))
    try:
        stolen_cookie = victim_login(view, lab.base_url, VICTIM, VICTIM_PASSWORD)
    except Exception as exc:
        raise ScenarioSetupFailed(f"victim login failed: {exc}") from exc

    before = _admin_state(lab, app.admin_token)
    try:
        status, response_body = _attack(scenario, view, lab, stolen_cookie, spoof_origin)
    except Exception as exc:
        raise ScenarioSetupFailed(f"attack step crashed: {exc}") from exc
    after = _admin_state(lab, app.admin_token)

    success, evidence = verify_outcome(before, after, VICTIM, spec.title)
    notes = spec.notes
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


def _attack(scenario, view, lab, stolen_cookie, spoof_origin) -> tuple[int, str]:
    """The attack step of the scenario's row."""
    return SCENARIOS[scenario].attack(view, lab, stolen_cookie, spoof_origin)


# ----------------------------------------------------------------- matrix


def run_matrix(seed: int = DEFAULT_SEED, in_process: bool = False) -> MatrixReport:
    """Every cell of matrix_cells() in order, all on one lab: over TCP one
    ephemeral-port server serves the whole matrix."""
    grid = []
    with open_lab(seed, in_process) as lab:
        for scenario, defense, spoof in matrix_cells():
            try:
                outcome = run_scenario(lab, scenario, defense, spoof_origin=spoof)
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
            grid.append(outcome)
    return MatrixReport(tuple(grid), seed)


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
