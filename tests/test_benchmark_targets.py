"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bredon_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for owner, attr, name in tracing.TARGETS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            # a class target wraps a staticmethod found in the class body
            cls = getattr(module, class_name)
            assert isinstance(cls.__dict__.get(attr), staticmethod), name
        else:
            assert callable(getattr(module, attr, None)), name
