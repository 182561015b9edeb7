"""The benchmark's tracer binds kdrecon functions by name: keep the names.

``perfbench/tracing.py`` wraps every ``TRACED[layer]`` function with a bare
``getattr`` on ``kdrecon.<layer>``, and its ``COUNTERS`` read the ``path`` or
``shots`` argument by position.  A rename or a reordered signature would
otherwise show only when a traced benchmark run crashes or miscounts.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    sys.path.insert(0, str(PERFBENCH))  # tracing.py imports its sibling stats.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                      PERFBENCH / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(PERFBENCH))


tracing = _load_tracing()


def _function(span: str):
    layer, name = span.split(".")
    return getattr(importlib.import_module(f"kdrecon.{layer}"), name)


@pytest.mark.parametrize("span", tracing.span_names())
def test_every_traced_name_is_a_function(span):
    assert callable(_function(span))


@pytest.mark.parametrize("span", sorted(tracing.COUNTERS))
def test_every_counter_reads_its_argument_by_position(span):
    key, count = tracing.COUNTERS[span]
    name, value, expected = (("shots", 7, 7) if key == "shots"
                             else ("path", __file__, Path(__file__).stat().st_size))
    params = list(inspect.signature(_function(span)).parameters)
    assert name in params
    args = [None] * len(params)  # any other position read fails on None
    args[params.index(name)] = value
    assert count(tuple(args), {}) == expected
    assert count((), {name: value}) == expected
