"""The benchmark's workloads, all closed loop and all on loopback.

matrix_tcp / matrix_inproc
    ``harness.run_matrix`` repeated, one matrix at a time, over loopback
    TCP or in-process dispatch.  The lab seeds cycle through 1337, 7 (the
    two seeds with a golden report digest) and one seed drawn from the
    workload seed.
serve_mixed
    One long-lived ``ForumServer`` under ``csrf_token``, as ``csrf-lab
    serve`` runs it, driven by closed-loop clients that each register and
    log in once, then loop: GET index.php (read), GET new_pm_form.php
    (read, issues the token), POST new_pm.php (write, message size
    log-uniform from 16 B to 16 KiB).

Every workload counts the operations it checks and the ones that came
out wrong; correctness is checked in the timed loop as well as after it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import re
import threading
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

LAB_MODULES = (
    "httpcore", "cookies", "transport", "forum", "config",
    "server", "client", "fixtures", "webview", "harness",
)
GOLDEN_SEEDS = (1337, 7)
MATRIX_CELLS = 17
FORUM_ROOT = "/cgi-bin/Forum"


def import_lab() -> SimpleNamespace:
    return SimpleNamespace(
        **{name: importlib.import_module(f"csrflab.{name}") for name in LAB_MODULES}
    )


@dataclass
class Phase:
    """What one timed phase measured (durations in seconds) and checked;
    also the tally of every check of a run."""

    wall_s: float = 0.0
    rounds: list[float] = field(default_factory=list)
    cells: array = field(default_factory=lambda: array("d"))
    requests: dict[str, array] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def extend(self, other: "Phase") -> None:
        self.wall_s += other.wall_s
        self.rounds += other.rounds
        self.cells.extend(other.cells)
        for kind, samples in other.requests.items():
            self.requests.setdefault(kind, array("d")).extend(samples)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[: 20 - len(self.problems)]


def _timed_phase(timers, seconds: float, body) -> Phase:
    """Run body(deadline, phase) with the timers cleared, and collect
    what they measured."""
    phase = Phase()
    timers.reset()
    start = perf_counter()
    body(start + seconds, phase)
    phase.wall_s = perf_counter() - start
    phase.cells.extend(timers.cells)
    for kind, samples in timers.requests.items():
        phase.requests[kind] = array("d", samples)
    return phase


# ------------------------------------------------------------------ matrix


def _golden_digests() -> dict[int, str]:
    doc = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
    return {int(seed): digest for seed, digest in doc["report_sha256"].items()}


def report_digest(report) -> str:
    """sha256 of the report JSON (seed and cells) without its version
    field, so that a version bump leaves the golden digests valid."""
    doc = json.loads(report.to_json())
    del doc["version"]
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


class MatrixWorkload:
    def __init__(self, seed: int, in_process: bool) -> None:
        self.in_process = in_process
        drawn = random.Random(seed).randrange(1, 1 << 31)
        seeds = [*GOLDEN_SEEDS, drawn]
        shift = seed % len(seeds)
        self.lab_seeds = seeds[shift:] + seeds[:shift]
        self.digests = _golden_digests()
        self.lab = None
        self._next = 0

    def setup(self, lab) -> None:
        self.lab = lab

    def teardown(self) -> None:
        pass

    def _run_checked(self, seed: int, in_process: bool, phase: Phase):
        """One matrix; every cell is one checked operation.  A report whose
        bytes differ from the seed's digest (golden, or else that of the
        first report of the seed) fails all its cells; otherwise each cell
        off the expected grid fails."""
        harness = self.lab.harness
        phase.attempted += MATRIX_CELLS
        try:
            report = harness.run_matrix(seed, in_process=in_process)
        except Exception as exc:  # ConnectionFailed and friends escape run_matrix
            phase.fail(MATRIX_CELLS, f"seed {seed}: {type(exc).__name__}: {exc}")
            return None
        digest = report_digest(report)
        expected = self.digests.setdefault(seed, digest)
        if digest != expected:
            phase.fail(MATRIX_CELLS, f"seed {seed}: report digest {digest[:16]} != {expected[:16]}")
            return report
        problems = harness.compare_with_expected(report)
        if problems:
            phase.fail(min(len(problems), MATRIX_CELLS), f"seed {seed}: {problems[0]}")
        return report

    def warm_up(self, checks: Phase) -> None:
        """One matrix per lab seed, which also fixes the digest of the seed
        drawn from the workload seed."""
        phase = Phase()
        for seed in self.lab_seeds:
            self._run_checked(seed, self.in_process, phase)
        checks.extend(phase)

    def measure(self, timers, seconds: float) -> Phase:
        """Matrices until the deadline, at least one."""
        def body(deadline, phase):
            while True:
                seed = self.lab_seeds[self._next % len(self.lab_seeds)]
                self._next += 1
                t0 = perf_counter()
                report = self._run_checked(seed, self.in_process, phase)
                if report is not None:
                    phase.rounds.append(perf_counter() - t0)
                if perf_counter() >= deadline:
                    break

        return _timed_phase(timers, seconds, body)

    def verify(self, checks: Phase) -> None:
        """The other transport must produce the same report digest, so the
        same cells, for every lab seed."""
        phase = Phase()
        for seed in self.lab_seeds:
            self._run_checked(seed, not self.in_process, phase)
        checks.extend(phase)


# ------------------------------------------------------------------- serve

_TOKEN = re.compile(r'name="csrf_token" value="([0-9a-f]+)"')
_MESSAGE_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " .,;:-_*~&=+%/?!'\"<>()"
)
_POOL_SIZE = 16 * 1024
# Message sizes are drawn one per stratum of the log-uniform range and
# shuffled, and each client cycles through its draws: every run then
# posts nearly the same mix of sizes, whatever its seed and length.
_SIZE_STRATA = 256


class ServeWorkload:
    def __init__(self, seed: int, clients: int) -> None:
        rng = random.Random(seed)
        self.lab_seed = rng.randrange(1, 1 << 31)
        self.clients = clients
        self.pool = "".join(rng.choices(_MESSAGE_ALPHABET, k=_POOL_SIZE))
        # Per client: (size, offset) of each message, size log-uniform in
        # [16, 16384] bytes.
        self.schedules = []
        for _ in range(clients):
            sizes = [int(16 * 1024 ** ((i + rng.random()) / _SIZE_STRATA))
                     for i in range(_SIZE_STRATA)]
            rng.shuffle(sizes)
            self.schedules.append(
                [(size, rng.randrange(0, _POOL_SIZE - size + 1)) for size in sizes]
            )
        self.usernames = [f"bench{i}" for i in range(clients)]
        self.lab = None
        self.server = None
        self.base_url = ""
        self._lock = threading.Lock()
        self.cookies: list[str] = []
        self.sent: list[list[tuple[str, int, int]]] = []
        # Cycles each client has started, over every timed phase: message
        # titles stay unique when a run measures in several phases.
        self.cycles_started: list[int] = []
        self._setup_checks = Phase()

    # The wire-level API every request path in csrflab shares.
    def _exchange(self, transport, method: str, path: str, headers=(), pairs=None):
        httpcore = self.lab.httpcore
        kwargs = {"headers": list(headers)}
        if pairs is not None:
            kwargs["body"] = httpcore.form_urlencode(pairs).encode()
            kwargs["content_type"] = "application/x-www-form-urlencoded"
        request = httpcore.make_request(
            httpcore.HttpMethod(method), f"{self.base_url}{path}", **kwargs
        )
        raw = transport.exchange(request.uri.host, request.uri.port, httpcore.serialize(request))
        return httpcore.parse_response(raw)

    def setup(self, lab) -> None:
        """Start the server, then register and log in every client."""
        self.lab = lab
        config = lab.config.LabConfig(
            port=0, policy=lab.forum.DefenseMode.CSRF_TOKEN, seed=self.lab_seed
        )
        self.server = lab.server.ForumServer(config).start()
        self.base_url = self.server.base_url()
        transport = lab.transport.TcpTransport()
        self.cookies = []
        self.sent = [[] for _ in range(self.clients)]
        self.cycles_started = [0] * self.clients
        checks = self._setup_checks = Phase()
        for username in self.usernames:
            pairs = [("username", username), ("password", f"{username}-pw")]
            checks.attempted += 2
            registered = self._exchange(transport, "POST", f"{FORUM_ROOT}/register.php", pairs=pairs)
            login = self._exchange(transport, "POST", f"{FORUM_ROOT}/login.php", pairs=pairs)
            cookie = lab.httpcore.get_header(login, "Set-Cookie")
            if registered.status != 302 or login.status != 302 or cookie is None:
                checks.fail(2, f"setup of {username}: {registered.status}, {login.status}")
                cookie = ""
            self.cookies.append(cookie.split(";")[0])

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def warm_up(self, checks: Phase) -> None:
        checks.extend(self._setup_checks)

    def _client(self, index: int, deadline: float, phase: Phase, cycles: list) -> None:
        lab = self.lab
        transport = lab.transport.TcpTransport()
        cookie = [("Cookie", self.cookies[index])]
        recipient = self.usernames[(index + 1) % self.clients]
        schedule = self.schedules[index]
        sent = self.sent[index]
        attempted = failed = 0
        k = self.cycles_started[index]
        problems = []
        while perf_counter() < deadline:
            size, offset = schedule[k % len(schedule)]
            title = f"m{index}-{k}"
            k += 1
            t0 = perf_counter()
            try:
                attempted += 1
                page = self._exchange(transport, "GET", f"{FORUM_ROOT}/index.php")
                if page.status != 200:
                    raise ValueError(f"index.php answered {page.status}")
                attempted += 1
                form = self._exchange(transport, "GET", f"{FORUM_ROOT}/new_pm_form.php", cookie)
                token = _TOKEN.search(form.body.decode("utf-8", errors="replace"))
                if form.status != 200 or token is None:
                    raise ValueError(f"new_pm_form.php answered {form.status} without a token")
                attempted += 1
                pairs = [
                    ("csrf_token", token.group(1)),
                    ("recip", recipient),
                    ("title", title),
                    ("message", self.pool[offset:offset + size]),
                ]
                posted = self._exchange(transport, "POST", f"{FORUM_ROOT}/new_pm.php", cookie, pairs)
                if posted.status != 302:
                    raise ValueError(f"new_pm.php answered {posted.status}")
                sent.append((title, size, offset))
            except (lab.transport.ConnectionFailed, ValueError) as exc:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"client {index}: {exc}")
            cycles.append((t0, perf_counter()))
        self.cycles_started[index] = k
        with self._lock:
            phase.attempted += attempted
            if failed:
                phase.fail(failed, "; ".join(problems))

    def measure(self, timers, seconds: float) -> Phase:
        def body(deadline, phase):
            per_client = [[] for _ in range(self.clients)]
            threads = [
                threading.Thread(
                    target=self._client, args=(i, deadline, phase, per_client[i]),
                    name=f"perfbench-client-{i}", daemon=True,
                )
                for i in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=seconds + 60)
                if thread.is_alive():
                    phase.fail(1, f"{thread.name} did not finish")
            for cycles in per_client:
                # A round is 17 consecutive cycles of one client, as a
                # matrix is 17 consecutive cells.
                for i in range(0, len(cycles) - MATRIX_CELLS + 1, MATRIX_CELLS):
                    phase.rounds.append(cycles[i + MATRIX_CELLS - 1][1] - cycles[i][0])
                # Cells here are client cycles, timed by the clients.
                for t0, t1 in cycles:
                    phase.cells.append(t1 - t0)

        return _timed_phase(timers, seconds, body)

    def verify(self, checks: Phase) -> None:
        """Every accepted write is in the server state, exactly once, with
        its sender, recipient and message; nothing else is."""
        phase = Phase()
        phase.attempted += 1
        admin = [("Authorization", f"Bearer {self.server.app.admin_token}")]
        response = self._exchange(self.lab.transport.TcpTransport(), "GET", "/admin/state", admin)
        if response.status != 200:
            phase.fail(1, f"admin state answered {response.status}")
            checks.extend(phase)
            return
        posts = {post["title"]: post for post in json.loads(response.body)["posts"]}
        expected = sum(len(sent) for sent in self.sent)
        phase.attempted += expected
        if len(posts) != expected:
            phase.fail(abs(len(posts) - expected), f"{len(posts)} posts stored, {expected} accepted")
        for index, sent in enumerate(self.sent):
            recipient = self.usernames[(index + 1) % self.clients]
            for title, size, offset in sent:
                post = posts.get(title)
                want = (self.usernames[index], recipient, self.pool[offset:offset + size])
                if post is None or (post["sender"], post["recipient"], post["message"]) != want:
                    phase.fail(1, f"post {title} missing or altered")
        checks.extend(phase)


def new_workload(name: str, seed: int, clients: int = 2):
    if name == "serve_mixed":
        return ServeWorkload(seed, min(clients, len(os.sched_getaffinity(0))))
    return MatrixWorkload(seed, in_process=(name == "matrix_inproc"))
