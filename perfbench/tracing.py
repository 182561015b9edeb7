"""Spans around calls into kdrecon's public functions, recorded from outside.

Each traced function is replaced, by attribute substitution, in every module
namespace that binds it (``photonics`` binds ``cv.momentum_samples_raw``,
``scenarios`` binds ``serialize.write_json``, the package re-exports many), so
calls between modules are caught too.  No source file is edited and
``Tracer.restore`` puts every original back.  Spans are held in memory.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

from stats import self_times

# Layer -> public functions traced.  ``errors`` does no work and is absent.
TRACED = {
    "core": ("observable_power", "expectation"),
    "moments": ("moment_vector", "correlation_matrix", "correlation_tensor"),
    "vandermonde": ("invert_vandermonde", "solve_least_squares"),
    "reconstruct": (
        "conditional_from_moments", "joint_from_correlations", "npoint_from_correlations",
    ),
    "oracle": ("kd_conditional", "kd_joint", "kd_npoint"),
    "cv": (
        "momentum_samples_raw", "position_samples_raw", "weak_char_fn",
        "conditional_pseudo_cv", "joint_kd_cv", "ccr_witness",
    ),
    "photonics": (
        "run_setting", "propagate_and_analyze", "sample_shots", "estimate_weak_char",
        "run_reconstruction",
    ),
    "serialize": (
        "write_json", "write_pseudo_csv", "write_plot_csv", "read_json", "pseudo_from_dict",
    ),
    "scenarios": ("load_scenario", "run_scenario", "compare_distributions"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Extra amounts summed at a span's end: span name -> (key, f(args, kwargs)).
COUNTERS = {
    "photonics.sample_shots": ("shots", lambda a, k: int(_arg(a, k, 1, "shots"))),
    "serialize.write_json": ("bytes", lambda a, k: _size(_arg(a, k, 0, "path"))),
    "serialize.write_pseudo_csv": ("bytes", lambda a, k: _size(_arg(a, k, 1, "path"))),
    "serialize.write_plot_csv": ("bytes", lambda a, k: _size(_arg(a, k, 0, "path"))),
    "serialize.read_json": ("bytes", lambda a, k: _size(_arg(a, k, 0, "path"))),
}
COUNTER_NAMES = [f"{name}.{key}" for name, (key, _) in COUNTERS.items()]


def span_names():
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    """Holds spans ``[name, start, end, parent, case_id]`` and extra counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.enabled = False
        self.case_id = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                if count is not None:
                    self.counts[f"{name}.{count[0]}"] += count[1](args, kwargs)

        return traced

    def install(self):
        """Substitute a wrapper for every traced function in every ``kdrecon``
        namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kdrecon" or name.startswith("kdrecon."))
        ]
        for layer, fns in TRACED.items():
            module = sys.modules[f"kdrecon.{layer}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def restore(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self, per: float = 1.0) -> dict:
        """Per-function and per-layer calls and self time, divided by ``per``."""
        calls = defaultdict(int)
        own = defaultdict(float)
        for span, t in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            own[span[0]] += t
        out = {}
        layer_self = defaultdict(float)
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / per
            out[f"{name}.self_s"] = own[name] / per
            layer_self[name.split(".")[0]] += own[name]
        for layer in TRACED:
            out[f"{layer}.self_s"] = layer_self[layer] / per
        for key in COUNTER_NAMES:
            out[key] = self.counts.get(key, 0.0) / per
        return out
