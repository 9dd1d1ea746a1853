"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps package
callees by owner and attribute name; every one of them must exist."""

import types
from pathlib import Path

import roilqr.harness  # also binds roilqr; the package does not import it

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # executed from its source text: nothing is written next to it, and
    # the module uses only the stdlib and does nothing at import time
    module = types.ModuleType("_perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_trace_point_resolves():
    tracing = _load_tracing()
    points = tracing._points(roilqr)
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in points
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"trace points without a callee: {missing}"
    assert {name for _, _, name, _ in points} <= set(tracing.LAYERS)
