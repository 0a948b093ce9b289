"""The benchmark's tracer (perfbench/tracing.py) wraps csrflab's layer
boundaries by attribute name.  Every point it lists must still resolve,
or a traced run fails at install time."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

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
