"""The benchmark (perfbench/tracing.py) wraps csrflab's layer
boundaries by attribute name.  Every point the tracer lists must still
resolve, or a traced run fails at install time, and the always-on Timers
must still see every cell and every exchange, or the end-to-end metrics
are computed from too few samples."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from csrflab import harness, transport
from csrflab.forum import ForumApp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_point_resolves():
    tracing = _load_tracing()
    modules = {path.split(".")[0] for path, _, _, _ in tracing.SPAN_POINTS}
    lab = SimpleNamespace(
        **{name: importlib.import_module(f"csrflab.{name}") for name in modules}
    )
    for path, attr, name, _ in tracing.SPAN_POINTS:
        owner = tracing._resolve(lab, path)
        assert callable(getattr(owner, attr, None)), f"{name}: {path}.{attr} is gone"


def test_timers_sample_every_cell_and_every_exchange(monkeypatch):
    handled = []
    original = ForumApp.handle_raw

    def counting_handle_raw(app, raw):
        handled.append(raw)
        return original(app, raw)

    monkeypatch.setattr(ForumApp, "handle_raw", counting_handle_raw)
    timers = _load_tracing().Timers(SimpleNamespace(harness=harness, transport=transport))
    try:
        harness.run_matrix(in_process=True)
    finally:
        timers.restore()
    assert len(timers.cells) == 17
    requests = sum(len(samples) for samples in timers.requests.values())
    assert requests == len(handled) == 140
