"""The benchmark's tracer patches names in the package; they must exist."""

import importlib
import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    # a refactor that drops a name the tracer patches breaks traced
    # benchmark runs; this catches it without running the benchmark
    patches = _load_tracer().PATCHES
    assert patches
    missing = [
        (module, attr)
        for module, attr, _ in patches
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
