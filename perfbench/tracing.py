"""Wrappers the benchmark installs around csrflab's layer boundaries.

Two kinds of wrapper, both installed by replacing the attribute that a
caller looks up (a module global such as ``csrflab.forum.parse_request``
or a class attribute such as ``ForumApp.handle_raw``) and removed again
with ``Patches.restore``:

* ``Timers`` are on in every run.  They time one matrix cell (the
  ``run_scenario`` that ``run_matrix`` looks up) and one request (each
  transport's ``exchange``: request bytes in, response bytes out, as the
  client sees it).  They feed the end-to-end metrics.
* ``Tracer`` is on only in the traced run.  It records a span per call
  at every layer boundary: id, parent id (the enclosing span on the same
  thread), root id (shared by every span of one cell or one request),
  name, start, end and an outcome tag.  Spans stay in memory and are
  summarised, and written out, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
from array import array
from time import perf_counter


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def request_kind(raw: bytes) -> str:
    """GET requests read state; every other method may write it."""
    return "read" if raw.startswith(b"GET ") else "write"


class Timers(Patches):
    """Per-cell and per-request samples."""

    def __init__(self, lab) -> None:
        super().__init__()
        # Durations in seconds.  Client threads append concurrently; one
        # array append is atomic under the interpreter lock.
        self.cells = array("d")
        self.requests = {"read": array("d"), "write": array("d")}

        def time_cell(original):
            def timed(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.cells.append(perf_counter() - t0)
            return timed

        def time_exchange(original):
            def timed(transport, host, port, raw):
                t0 = perf_counter()
                try:
                    return original(transport, host, port, raw)
                finally:
                    self.requests[request_kind(raw)].append(perf_counter() - t0)
            return timed

        self.replace(lab.harness, "run_scenario", time_cell)
        self.replace(lab.transport.TcpTransport, "exchange", time_exchange)
        self.replace(lab.transport.InProcessTransport, "exchange", time_exchange)

    def reset(self) -> None:
        for samples in (self.cells, *self.requests.values()):
            del samples[:]


# (owner path, attribute, span name, tag).  Owner paths are relative to
# the lab namespace; the span name is the layer name used in the
# per-layer metrics.  Functions imported by name into several modules
# are wrapped at every module that calls them.
# ``httpcore`` itself is listed for the benchmark's own serving clients,
# which call ``httpcore.<function>``.
_HTTPCORE_USERS = {
    "parse_request": ("forum",),
    "parse_response": ("httpcore", "harness", "client", "webview"),
    "serialize": ("httpcore", "forum", "harness", "client", "webview"),
    "make_request": ("httpcore", "harness", "client", "webview"),
    "form_urlencode": ("httpcore", "harness", "client", "webview"),
    "form_urldecode": ("forum",),
}

SPAN_POINTS = [
    ("harness", "run_scenario", "harness.cell", None),
    ("harness", "_register_users", "harness.register", None),
    ("harness", "victim_login", "harness.login", None),
    ("harness", "_attack", "harness.attack", None),
    ("harness", "_admin_state", "harness.admin_fetch", None),
    ("harness", "verify_outcome", "harness.verify", None),
    ("client", "execute", "client.execute", None),
    ("server.ForumServer", "start", "server.start", None),
    ("server.ForumServer", "stop", "server.stop", None),
    ("server", "read_http_message", "transport.read_http_message", "threads"),
    ("transport.TcpTransport", "exchange", "transport.exchange", "threads"),
    ("transport.InProcessTransport", "exchange", "transport.exchange", "threads"),
    ("forum.ForumApp", "handle_raw", "forum.handle_raw", "kind"),
    ("forum.ForumApp", "check_defenses", "forum.check_defenses", "deny"),
    ("forum.ForumApp", "admin_state", "forum.admin_state", None),
    ("webview", "parse_html", "webview.parse_html", None),
    ("webview.WebViewInstance", "_navigate", "webview.navigate", None),
    ("webview.WebViewInstance", "_network_exchange", "webview.network_exchange", None),
    ("cookies", "cookies_for_request", "cookies.for_request", "attached"),
    ("cookies", "store_from_response", "cookies.store_from_response", None),
] + [
    (module, function, f"httpcore.{function}", None)
    for function, modules in _HTTPCORE_USERS.items()
    for module in modules
]


def _resolve(lab, path: str):
    owner = lab
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer(Patches):
    """Spans accumulate over every install() ... restore() interval."""

    def __init__(self, lab) -> None:
        super().__init__()
        self.lab = lab
        self.spans: list[tuple] = []
        self.threads_peak = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def install(self) -> "Tracer":
        for path, attr, name, tag in SPAN_POINTS:
            self.replace(_resolve(self.lab, path), attr, self._span_wrapper(name, tag))
        return self

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, tag_kind: str | None):
        spans = self.spans
        ids = self._ids
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                stack = tracer._stack()
                span_id = next(ids)
                parent, root = stack[-1] if stack else (0, span_id)
                stack.append((span_id, root))
                if tag_kind == "threads":
                    tracer.threads_peak = max(tracer.threads_peak, threading.active_count())
                result = None
                t0 = perf_counter()
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    if tag_kind == "kind":
                        tag = request_kind(args[1])
                    elif tag_kind == "deny":
                        tag = type(result).__name__ == "Deny"
                    elif tag_kind == "attached":
                        tag = result is not None
                    else:
                        tag = None
                    spans.append((span_id, parent, root, name, t0, t1, tag))
            return traced

        return make

    def write(self, path) -> None:
        """One JSON line per span: id, parent, root, name, start (us from
        the first span), duration (us), tag."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, root, name, t0, t1, tag in self.spans:
                fh.write(json.dumps(
                    [span_id, parent, root, name,
                     round((t0 - origin) * 1e6, 1), round((t1 - t0) * 1e6, 1), tag]
                ))
                fh.write("\n")


def span_summary(spans) -> dict[str, dict]:
    """Per span name: calls, median and total inclusive time, total self
    time (duration minus the time covered by child spans)."""
    child_time: dict[int, float] = {}
    for _, parent, _, _, t0, t1, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    durations: dict[str, list[float]] = {}
    self_total: dict[str, float] = {}
    for span_id, _, _, name, t0, t1, _ in spans:
        durations.setdefault(name, []).append(t1 - t0)
        self_total[name] = self_total.get(name, 0.0) + (t1 - t0) - child_time.get(span_id, 0.0)
    return {
        name: {
            "calls": len(values),
            "p50_us": statistics.median(values) * 1e6,
            "total_s": sum(values),
            "self_s": self_total[name],
        }
        for name, values in sorted(durations.items())
    }


# Per-layer metric: (name, unit, the end-to-end metric it should move and
# on which workload).  This is the table a change to one layer is checked
# against.
_HTTPCORE_MOVES = "round_s on matrix_inproc; write_p50_ms on serve_mixed"
LAYER_METRICS = [
    ("server.start_ms", "ms", "round_s, cell_p50_ms on matrix_tcp only"),
    ("server.stop_ms", "ms", "round_s, cell_p50_ms on matrix_tcp only"),
    ("server.lifecycle_share", "ratio", "round_s, cell_p50_ms on matrix_tcp only"),
    ("server.threads_peak", "count", "read_tail_ms, write_tail_ms on serve_mixed"),
    ("transport.exchange_us", "us", "round_s on matrix_tcp; req_per_s, read_p50_ms on serve_mixed"),
    ("transport.exchanges_per_cell", "count", "round_s on matrix_tcp"),
    ("transport.read_http_message_us", "us", "write_p50_ms (large bodies) on serve_mixed"),
    ("forum.handle_raw_us", "us", "round_s on matrix_inproc"),
    ("forum.handle_raw_read_us", "us", "req_per_s, read_p50_ms on serve_mixed"),
    ("forum.handle_raw_write_us", "us", "req_per_s, write_p50_ms on serve_mixed"),
    ("forum.handle_raw_share", "ratio", "req_per_s, read_p50_ms, write_p50_ms on serve_mixed"),
    ("forum.check_defenses_us", "us", "cell_p50_ms on matrix_inproc"),
    ("forum.denied_share", "ratio", "cell_p50_ms on matrix_inproc"),
    ("forum.admin_state_us", "us", "cell_p50_ms on matrix_inproc"),
] + [
    metric
    for function in _HTTPCORE_USERS
    for metric in (
        (f"httpcore.{function}_us", "us", _HTTPCORE_MOVES),
        (f"httpcore.{function}_per_cell", "count", _HTTPCORE_MOVES),
    )
] + [
    ("webview.parse_html_us", "us", "round_s on matrix_inproc, diluted on matrix_tcp"),
    ("webview.navigate_ms", "ms", "round_s on matrix_inproc, diluted on matrix_tcp"),
    ("webview.redirect_hops_per_cell", "count", "round_s on matrix_inproc, diluted on matrix_tcp"),
    ("cookies.for_request_us", "us", "cell_p50_ms on matrix_inproc"),
    ("cookies.store_from_response_us", "us", "cell_p50_ms on matrix_inproc"),
    ("cookies.attached_share", "ratio", "cell_p50_ms on matrix_inproc"),
    ("harness.cell_setup_ms", "ms", "cell_p50_ms on matrix_tcp and matrix_inproc"),
    ("harness.attack_ms", "ms", "cell_p50_ms on matrix_tcp and matrix_inproc"),
    ("harness.admin_fetch_ms", "ms", "cell_p50_ms on matrix_tcp and matrix_inproc"),
    ("harness.verify_us", "us", "cell_p50_ms on matrix_tcp and matrix_inproc"),
    ("client.execute_us", "us", "cell_p50_ms (A4 cells only) on matrix_tcp and matrix_inproc"),
    ("trace.overhead_share", "ratio", "nothing: median traced round over untraced, minus 1"),
]

# Only a traced serve_mixed run measures these.
SCALING_METRICS = [
    ("serve.scaling_ratio", "ratio", "req_per_s on serve_mixed: 2-client over 1-client rate"),
    ("serve.req_per_s_1client", "1/s", "req_per_s on serve_mixed"),
    ("serve.requests_1client", "count", "nothing: sample count of serve.req_per_s_1client"),
    ("serve.requests_2client", "count", "nothing: sample count of the 2-client rate"),
]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, cells: int, wall_s: float) -> dict[str, float]:
    """Per-layer values from the traced spans.  ``cells`` is the number of
    cells (matrix cells, or client cycles when serving) the traced phase
    completed; ``wall_s`` its wall time.  A layer the workload never
    enters reads 0."""
    by_name: dict[str, list[tuple]] = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)

    def durations(name, tag=...):
        return [s[5] - s[4] for s in by_name.get(name, ()) if tag is ... or s[6] == tag]

    def total(name, tag=...):
        return sum(durations(name, tag))

    def count(name, tag=...):
        return len(durations(name, tag))

    def share(part, whole):
        return part / whole if whole else 0.0

    per_cell = max(cells, 1)
    # Register and login of one cell, summed per cell (spans of one cell
    # share the cell's root id).
    setup_per_cell: dict[int, float] = {}
    for name in ("harness.register", "harness.login"):
        for span in by_name.get(name, ()):
            setup_per_cell[span[2]] = setup_per_cell.get(span[2], 0.0) + span[5] - span[4]

    values = {
        "server.start_ms": _median(durations("server.start")) * 1e3,
        "server.stop_ms": _median(durations("server.stop")) * 1e3,
        "server.lifecycle_share": share(total("server.start") + total("server.stop"), wall_s),
        "server.threads_peak": tracer.threads_peak,
        "transport.exchange_us": _median(durations("transport.exchange")) * 1e6,
        "transport.exchanges_per_cell": count("transport.exchange") / per_cell,
        "transport.read_http_message_us": _median(durations("transport.read_http_message")) * 1e6,
        "forum.handle_raw_us": _median(durations("forum.handle_raw")) * 1e6,
        "forum.handle_raw_read_us": _median(durations("forum.handle_raw", "read")) * 1e6,
        "forum.handle_raw_write_us": _median(durations("forum.handle_raw", "write")) * 1e6,
        "forum.handle_raw_share": share(total("forum.handle_raw"), total("transport.exchange")),
        "forum.check_defenses_us": _median(durations("forum.check_defenses")) * 1e6,
        "forum.denied_share": share(count("forum.check_defenses", True), count("forum.check_defenses")),
        "forum.admin_state_us": _median(durations("forum.admin_state")) * 1e6,
    }
    for function in _HTTPCORE_USERS:
        values[f"httpcore.{function}_us"] = _median(durations(f"httpcore.{function}")) * 1e6
        values[f"httpcore.{function}_per_cell"] = count(f"httpcore.{function}") / per_cell
    values.update({
        "webview.parse_html_us": _median(durations("webview.parse_html")) * 1e6,
        "webview.navigate_ms": _median(durations("webview.navigate")) * 1e3,
        "webview.redirect_hops_per_cell":
            (count("webview.network_exchange") - count("webview.navigate")) / per_cell,
        "cookies.for_request_us": _median(durations("cookies.for_request")) * 1e6,
        "cookies.store_from_response_us": _median(durations("cookies.store_from_response")) * 1e6,
        "cookies.attached_share": share(count("cookies.for_request", True), count("cookies.for_request")),
        "harness.cell_setup_ms": _median(list(setup_per_cell.values())) * 1e3,
        "harness.attack_ms": _median(durations("harness.attack")) * 1e3,
        "harness.admin_fetch_ms": _median(durations("harness.admin_fetch")) * 1e3,
        "harness.verify_us": _median(durations("harness.verify")) * 1e6,
        "client.execute_us": _median(durations("client.execute")) * 1e6,
    })
    return values
