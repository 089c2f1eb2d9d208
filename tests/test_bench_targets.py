"""The benchmark tracer wraps package functions by name; every name must resolve."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracer.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"bench/tracer.py wraps names that no longer exist: {missing}"
    tracer.Tracer()  # builds every wrapper without attaching it
