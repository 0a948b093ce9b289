"""Harness tests: victim login, outcome verification, and the matrix."""

import hashlib
import importlib
import json
import pkgutil
import re
import tempfile

import pytest

import csrflab
from csrflab import client, cookies, harness
from csrflab.forum import DefenseMode, ForumApp
from csrflab.harness import (
    PEER,
    VICTIM,
    AttackOutcome,
    CookieCapture,
    LoginFailed,
    NoCookieCaptured,
    ScenarioId,
    ScenarioSetupFailed,
    SnapshotMismatch,
    matrix_cells,
    open_lab,
    run_matrix,
    run_scenario,
    verify_outcome,
    victim_login,
)
from csrflab.httpcore import make_response, serialize
from csrflab.server import ForumServer
from csrflab.transport import ConnectionFailed, InProcessTransport, TcpTransport
from csrflab.webview import WebViewInstance

from conftest import seed_users, wire_get

SESSION_COOKIE = re.compile(r"^session_id=[0-9a-f]{32}$")


def _memos_in_src() -> dict:
    """Every functools.lru_cache memo that src/csrflab defines, module-level
    or on a class, found by its cache_info attribute, by qualified name."""
    memos = {}
    for info in pkgutil.iter_modules(csrflab.__path__):
        module = importlib.import_module(f"csrflab.{info.name}")
        owners = [module] + [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for owner in owners:
            for value in vars(owner).values():
                if hasattr(value, "cache_info") and value.__module__.startswith("csrflab."):
                    memos[f"{value.__module__}.{value.__qualname__}"] = value
    return memos


def _logged_in_view(server, hook=True):
    seed_users(server)
    view = WebViewInstance(transport=TcpTransport())
    if hook:
        view.set_navigation_hook(CookieCapture(view))
    return view


# ------------------------------------------------------------ victim login


class TestVictimLogin:
    def test_returns_the_captured_session_cookie(self, lab_server, transport):
        server = lab_server()
        view = _logged_in_view(server)
        stolen = victim_login(view, server.base_url(), "sohini", "pw")
        assert SESSION_COOKIE.match(stolen)
        # The capture is real: its id prefix is in the server's books.
        state = json.loads(
            wire_get(
                transport,
                server.base_url(),
                "/admin/state",
                headers=[("Authorization", "Bearer lab-admin-token")],
            ).body
        )
        session_id = stolen.removeprefix("session_id=")
        assert any(session_id.startswith(s["session_id"]) for s in state["sessions"])

    def test_hook_sees_redirect_hop_but_not_initial_load(self, lab_server):
        server = lab_server()
        view = _logged_in_view(server)
        victim_login(view, server.base_url(), "sohini", "pw")
        capture = view.navigation_hook
        # load_url of the login page is API-initiated: no consult.  The
        # submit and its redirect hop are document-initiated: two consults.
        assert len(capture.urls) == 2
        assert capture.urls[0].endswith("/cgi-bin/Forum/login.php")
        assert capture.urls[1].endswith("/cgi-bin/Forum/index.php")
        # The cookie exists only once the login response was stored, so
        # exactly the redirect-hop consult captured it.
        assert len(capture.cookies) == 1

    def test_bad_password_raises(self, lab_server):
        server = lab_server()
        view = _logged_in_view(server)
        with pytest.raises(LoginFailed):
            victim_login(view, server.base_url(), "sohini", "wrong")

    def test_no_capture_hook_raises(self, lab_server):
        server = lab_server()
        view = _logged_in_view(server, hook=False)
        with pytest.raises(NoCookieCaptured):
            victim_login(view, server.base_url(), "sohini", "pw")

    def test_a_capture_that_saw_no_cookie_raises(self, lab_server):
        # The capture reads another view's (empty) cookie manager.
        server = lab_server()
        view = _logged_in_view(server, hook=False)
        capture = CookieCapture(WebViewInstance(transport=TcpTransport()))
        view.set_navigation_hook(capture)
        with pytest.raises(NoCookieCaptured):
            victim_login(view, server.base_url(), "sohini", "pw")
        assert len(capture.urls) == 2

    def test_suppressing_hook_raises_too(self, lab_server):
        # A hook that is not a CookieCapture cannot prove a theft.
        server = lab_server()
        view = _logged_in_view(server, hook=False)
        view.set_navigation_hook(lambda url: False)
        with pytest.raises(NoCookieCaptured):
            victim_login(view, server.base_url(), "sohini", "pw")


# --------------------------------------------------------- verify_outcome


def _state(posts=(), users=("sohini", "user1"), sessions=()):
    return {
        "users": list(users),
        "sessions": list(sessions),
        "posts": list(posts),
    }


def _post(sender, title, seq):
    return {
        "kind": "private_message",
        "sender": sender,
        "recipient": "user1",
        "title": title,
        "message": "m",
        "seq": seq,
    }


class TestVerifyOutcome:
    def test_new_victim_post_is_success(self):
        before = _state()
        after = _state(posts=[_post("sohini", "T", 1)])
        success, evidence = verify_outcome(before, after, "sohini", "T")
        assert success and evidence == [_post("sohini", "T", 1)]

    def test_no_delta_is_failure(self):
        before = _state(posts=[_post("sohini", "T", 1)])
        success, evidence = verify_outcome(before, before, "sohini", "T")
        assert not success and evidence == []

    def test_post_by_someone_else_is_not_evidence(self):
        # A post the attacker made under their own account proves
        # nothing was forged.
        before = _state()
        after = _state(posts=[_post("attacker", "T", 1)])
        success, evidence = verify_outcome(before, after, "sohini", "T")
        assert not success and evidence == []

    def test_wrong_title_is_not_evidence(self):
        before = _state()
        after = _state(posts=[_post("sohini", "other", 1)])
        assert verify_outcome(before, after, "sohini", "T") == (False, [])

    def test_unrelated_snapshots_raise(self):
        before = _state(posts=[_post("sohini", "T", 1)])
        after = _state(posts=[_post("sohini", "different", 1)])
        with pytest.raises(SnapshotMismatch):
            verify_outcome(before, after, "sohini", "T")

    def test_shrunk_user_list_raises(self):
        before = _state(users=("sohini", "user1"))
        after = _state(users=("sohini",))
        with pytest.raises(SnapshotMismatch):
            verify_outcome(before, after, "sohini", "T")



# ------------------------------------------------------------- scenarios


class TestRunScenario:
    @pytest.fixture
    def lab(self):
        with open_lab(in_process=True) as lab:
            yield lab

    @pytest.mark.parametrize("scenario", list(ScenarioId))
    def test_every_scenario_succeeds_undefended(self, lab, scenario):
        outcome = run_scenario(lab, scenario, DefenseMode.NONE)
        assert outcome.success
        assert outcome.http_status == 302
        assert outcome.evidence[0]["sender"] == VICTIM

    def test_a1_over_real_tcp(self):
        with open_lab() as lab:
            outcome = run_scenario(lab, ScenarioId.A1_LOAD_URL_ASSET_FORM, DefenseMode.NONE)
        assert (outcome.success, outcome.http_status) == (True, 302)
        assert outcome.evidence[0]["title"] == "WebView Attack from android"
        assert outcome.evidence[0]["recipient"] == "sohini"

    def test_token_defense_stops_the_form_attack(self, lab):
        outcome = run_scenario(lab, ScenarioId.A1_LOAD_URL_ASSET_FORM, DefenseMode.CSRF_TOKEN)
        assert (outcome.success, outcome.http_status) == (False, 403)
        assert "missing_or_bad_token" in outcome.notes

    def test_a_failed_attack_with_an_empty_answer_adds_no_server_note(self, lab, monkeypatch):
        # A 302 leaves no excerpt; a failure then has nothing to quote.
        monkeypatch.setattr(harness, "_attack", lambda *args: (302, ""))
        outcome = run_scenario(lab, ScenarioId.A3_POST_URL, DefenseMode.NONE)
        assert (outcome.success, outcome.http_status) == (False, 302)
        assert outcome.notes == "direct API POST with no initiating document"

    def test_samesite_starves_the_webview_attacks(self, lab):
        outcome = run_scenario(lab, ScenarioId.A2_LOAD_DATA, DefenseMode.SAMESITE_STRICT)
        # No cookie crossed the site boundary, so not even a session.
        assert (outcome.success, outcome.http_status) == (False, 401)

    def test_samesite_does_not_touch_api_posts(self, lab):
        outcome = run_scenario(lab, ScenarioId.A3_POST_URL, DefenseMode.SAMESITE_STRICT)
        assert (outcome.success, outcome.http_status) == (True, 302)
        assert outcome.evidence[0]["recipient"] == PEER

    def test_origin_check_blocks_the_forged_client(self, lab):
        outcome = run_scenario(lab, ScenarioId.A4_FORGED_CLIENT, DefenseMode.ORIGIN_CHECK)
        assert (outcome.success, outcome.http_status) == (False, 403)

    def test_spoofed_origin_walks_through_the_origin_check(self, lab):
        outcome = run_scenario(
            lab,
            ScenarioId.A4_FORGED_CLIENT,
            DefenseMode.ORIGIN_CHECK,
            spoof_origin=True,
        )
        assert (outcome.success, outcome.http_status) == (True, 302)
        assert "spoofed" in outcome.notes

    def test_failing_cell_leaves_state_alone(self, lab):
        outcome = run_scenario(lab, ScenarioId.A1_LOAD_URL_ASSET_FORM, DefenseMode.ORIGIN_CHECK)
        assert not outcome.success
        assert outcome.state_before == outcome.state_after

    def test_no_hook_fails_setup(self, lab, monkeypatch):
        monkeypatch.setattr(WebViewInstance, "set_navigation_hook", lambda view, hook: view)
        with pytest.raises(ScenarioSetupFailed):
            run_scenario(lab, ScenarioId.A4_FORGED_CLIENT, DefenseMode.NONE)

    @pytest.mark.parametrize(
        "answer, message",
        [
            (serialize(make_response(404)), "answered 404"),
            (ConnectionFailed("refused"), "failed: refused"),
            (b"not an HTTP response", "failed: "),
        ],
        ids=["404", "refused", "garbled"],
    )
    @pytest.mark.parametrize(
        "target, step",
        [
            (b"POST /cgi-bin/Forum/register.php ", "registration of 'sohini'"),
            (b"GET /admin/state ", "admin state"),
        ],
        ids=["register", "admin-state"],
    )
    def test_a_setup_step_without_a_usable_answer_fails_setup(
        self, lab, monkeypatch, target, step, answer, message
    ):
        exchange = InProcessTransport.exchange

        def answer_target(transport, host, port, raw):
            if not raw.startswith(target):
                return exchange(transport, host, port, raw)
            if isinstance(answer, Exception):
                raise answer
            return answer

        monkeypatch.setattr(InProcessTransport, "exchange", answer_target)
        with pytest.raises(ScenarioSetupFailed, match=f"^{step} .*{message}"):
            run_scenario(lab, ScenarioId.A4_FORGED_CLIENT, DefenseMode.NONE)

    @pytest.mark.parametrize(
        "page, message",
        [
            ("<html>no form here</html>", "attack step crashed: the attack never produced"),
            (None, "attack step crashed: .*attack_form.html"),
        ],
        ids=["no-request", "no-page"],
    )
    def test_an_attack_step_that_breaks_fails_setup(self, lab, monkeypatch, page, message):
        if page is None:
            # A view whose bundle lacks the page: load_url raises AssetNotFound.
            monkeypatch.setattr(
                harness, "WebViewInstance", lambda transport, assets: WebViewInstance(transport)
            )
        else:
            lab = lab._replace(attack_page=page)
        with pytest.raises(ScenarioSetupFailed, match=message):
            run_scenario(lab, ScenarioId.A1_LOAD_URL_ASSET_FORM, DefenseMode.NONE)

    @pytest.mark.parametrize("scenario", list(ScenarioId))
    def test_every_exchange_goes_through_client_execute(self, lab, scenario, monkeypatch):
        # One request path: registration, login, redirect hops, the
        # attack and the admin fetches all reach the transport through
        # client.execute, looked up as a module attribute.
        calls = {"execute": 0, "exchange": 0}
        execute, exchange = client.execute, InProcessTransport.exchange

        def counting_execute(*args, **kwargs):
            calls["execute"] += 1
            return execute(*args, **kwargs)

        def counting_exchange(transport, host, port, raw):
            calls["exchange"] += 1
            return exchange(transport, host, port, raw)

        monkeypatch.setattr(client, "execute", counting_execute)
        monkeypatch.setattr(InProcessTransport, "exchange", counting_exchange)
        run_scenario(lab, scenario, DefenseMode.NONE)
        assert calls["exchange"] >= 8
        assert calls["execute"] == calls["exchange"]

    def test_deterministic_outcomes(self, lab):
        one = run_scenario(lab, ScenarioId.A4_FORGED_CLIENT, DefenseMode.NONE)
        two = run_scenario(lab, ScenarioId.A4_FORGED_CLIENT, DefenseMode.NONE)
        assert one.to_cell() == two.to_cell()


# ---------------------------------------------------------------- matrix


class TestMatrix:
    def test_cell_listing(self):
        cells = matrix_cells()
        assert len(cells) == 17
        assert cells[-1] == (ScenarioId.A4_FORGED_CLIENT, DefenseMode.ORIGIN_CHECK, True)
        # One spoof cell; every scenario visits every defense once plain.
        assert sum(1 for _, _, spoof in cells if spoof) == 1

    def test_matrix_matches_expected_grid(self):
        report = run_matrix(in_process=True)
        assert harness.compare_with_expected(report) == []

    def test_report_schema(self):
        report = run_matrix(in_process=True)
        doc = json.loads(report.to_json())
        assert list(doc.keys()) == ["seed", "version", "cells"]
        assert doc["seed"] == harness.DEFAULT_SEED
        assert len(doc["cells"]) == 17
        for cell in doc["cells"]:
            assert list(cell.keys()) == [
                "scenario",
                "defense",
                "spoof",
                "success",
                "status",
                "evidence",
                "notes",
            ]

    @pytest.mark.parametrize("seed", [1337, 7])
    def test_tcp_and_in_process_reports_are_identical(self, seed):
        assert run_matrix(seed).to_json() == run_matrix(seed, in_process=True).to_json()

    def test_tcp_matrix_starts_one_server(self, monkeypatch):
        starts = []
        original = ForumServer.start

        def counting_start(server):
            starts.append(server.port)
            return original(server)

        monkeypatch.setattr(ForumServer, "start", counting_start)
        report = run_matrix()
        assert harness.compare_with_expected(report) == []
        assert len(starts) == 1

    def test_wire_bytes_are_unchanged(self, monkeypatch):
        # sha256 over every request and response of the in-process
        # matrices for the two golden seeds, in exchange order.
        wire = hashlib.sha256()
        messages = 0
        original = InProcessTransport.exchange

        def recording_exchange(transport, host, port, raw):
            nonlocal messages
            response = original(transport, host, port, raw)
            wire.update(raw)
            wire.update(response)
            messages += 2
            return response

        monkeypatch.setattr(InProcessTransport, "exchange", recording_exchange)
        for seed in (1337, 7):
            run_matrix(seed, in_process=True)
        assert messages == 560
        assert wire.hexdigest() == (
            "95e4bbee7c8641529e279fcbf02109ac4419b7a1e1f20397b281b564ead972df"
        )

    @pytest.mark.parametrize("in_process", [True, False])
    def test_a_run_writes_no_file(self, monkeypatch, tmp_path, in_process):
        # The attack page lives in memory: with the temporary directory
        # and the working directory both pointed at an empty one, it
        # stays empty during every attack step and after the run.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        seen = []
        original = harness._attack

        def listing_attack(*args):
            seen.append(list(tmp_path.iterdir()))
            return original(*args)

        monkeypatch.setattr(harness, "_attack", listing_attack)
        report = run_matrix(in_process=in_process)
        assert harness.compare_with_expected(report) == []
        assert seen == [[]] * len(report.grid)
        assert list(tmp_path.iterdir()) == []

    def test_cells_on_the_shared_server_start_from_empty_state(self):
        # Each cell mounts a fresh app: before its attack it sees only
        # its own two registrations and no posts from earlier cells.
        for outcome in run_matrix().grid:
            assert outcome.state_before["users"] == [VICTIM, PEER]
            assert outcome.state_before["posts"] == []

    def test_json_is_reproducible(self):
        assert run_matrix(in_process=True).to_json() == run_matrix(in_process=True).to_json()

    def test_replayed_matrices_never_miss_a_memo(self):
        # In-process only: over TCP each matrix listens on a new port, so
        # its URLs and Host headers are new text every time.
        memos = _memos_in_src()
        assert {
            "csrflab.httpcore._header",
            "csrflab.httpcore._head_bytes",
            "csrflab.httpcore._request_headers",
            "csrflab.httpcore._response_headers",
            "csrflab.httpcore._request_head",
            "csrflab.httpcore._response_head",
            "csrflab.httpcore.parse_url",
            "csrflab.webview._resolve",
            "csrflab.webview._scan",
        } <= set(memos)
        seeds = (1337, 7, 42)
        for seed in seeds:
            run_matrix(seed, in_process=True)
        misses = {name: memo.cache_info().misses for name, memo in memos.items()}
        for seed in seeds:
            run_matrix(seed, in_process=True)
        assert {name: memo.cache_info().misses for name, memo in memos.items()} == misses

    def test_timestamps_stay_out_of_the_report(self):
        report = run_matrix(in_process=True)
        assert "started" not in report.to_json() and "finished" not in report.to_json()

    def test_setup_failure_becomes_a_dead_cell(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ScenarioSetupFailed("injected")

        monkeypatch.setattr(harness, "_register_users", explode)
        report = run_matrix(in_process=True)
        assert len(report.grid) == 17
        for outcome in report.grid:
            assert (outcome.success, outcome.http_status) == (False, 0)
            assert outcome.notes.startswith("ScenarioSetupFailed:")

    def test_compare_flags_missing_and_wrong_cells(self):
        report = run_matrix(in_process=True)
        first, *middle, _ = report.grid
        grid = (
            first._replace(success=False),
            *middle,
            AttackOutcome(
                ScenarioId.A1_LOAD_URL_ASSET_FORM, DefenseMode.NONE, True, True, 302, [], ""
            ),
        )
        problems = harness.compare_with_expected(report._replace(grid=grid))
        assert any("expected" in p for p in problems)
        assert any("missing cell" in p for p in problems)
        assert [p for p in problems if "('A1', 'none', True)" in p] == [
            "unexpected cell ('A1', 'none', True)"
        ]

    def test_expected_grid_shape(self):
        grid = harness.EXPECTED_GRID
        assert len(grid) == 17
        # Nothing beats an undefended forum; SameSite only bites the
        # browser-path attacks; the spoofed Origin defeats the check.
        assert all(grid[(s, "none", False)] == (True, 302) for s in "A1 A2 A3 A4".split())
        assert grid[("A1", "samesite_strict", False)] == (False, 401)
        assert grid[("A3", "samesite_strict", False)] == (True, 302)
        assert grid[("A4", "origin_check", True)] == (True, 302)


# -------------------------------------------------- which rule decides


def _rule_off(monkeypatch, rule):
    """Disable one of the rules the grid turns on, or the emulator's
    Origin header."""
    if rule in ("csrf_token", "origin_check"):
        check = ForumApp.check_defenses
        mode = DefenseMode(rule)

        def check_defenses(app, session, request, pairs):
            return None if app.policy is mode else check(app, session, request, pairs)

        monkeypatch.setattr(ForumApp, "check_defenses", check_defenses)
    elif rule == "samesite_strict":
        scoped = cookies._scoped
        monkeypatch.setattr(
            cookies, "_scoped", lambda store, uri, withhold_strict: scoped(store, uri, False)
        )
    else:
        exchange = WebViewInstance._network_exchange

        def without_origin(view, method, url, body, content_type, initiator, origin_header):
            return exchange(view, method, url, body, content_type, initiator, None)

        monkeypatch.setattr(WebViewInstance, "_network_exchange", without_origin)


@pytest.mark.parametrize(
    "rule, flipped",
    [
        ("csrf_token", {(s, "csrf_token", False) for s in ("A1", "A2", "A3", "A4")}),
        ("origin_check", {(s, "origin_check", False) for s in ("A1", "A2", "A3", "A4")}),
        ("samesite_strict", {("A1", "samesite_strict", False), ("A2", "samesite_strict", False)}),
        # A1 and A2 send "Origin: null" and A3 and A4 none; the forum
        # denies both alike, so the grid cannot tell them apart.
        ("emulator_origin_header", set()),
    ],
)
def test_each_rule_decides_exactly_its_cells(monkeypatch, rule, flipped):
    _rule_off(monkeypatch, rule)
    report = run_matrix(1337, in_process=True)
    cells = {
        (o.scenario.value, o.defense.value, o.spoof): (o.success, o.http_status)
        for o in report.grid
    }
    assert len(cells) == 17
    assert {key for key, got in cells.items() if got != harness.EXPECTED_GRID[key]} == flipped
