"""Attribute-substitution tracing: coverage across namespaces, and restore."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import kdrecon.cli  # noqa: E402,F401  (loads every module the tracer patches)
from kdrecon import cv, photonics, scenarios, serialize  # noqa: E402

from tracing import TRACED, Tracer, span_names  # noqa: E402

OUT = HERE.parent / ".perfbench_out"


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "kdrecon" or name.startswith("kdrecon."))
        for attr, value in vars(module).items()
    }


def test_restore_puts_every_binding_back():
    before = _bindings()
    with Tracer() as tracer:
        tracer.install()
        assert photonics.momentum_samples_raw is not before[("kdrecon.cv", "momentum_samples_raw")]
        assert scenarios.write_json is not before[("kdrecon.serialize", "write_json")]
        assert kdrecon.moment_vector is not before[("kdrecon.moments", "moment_vector")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_restore_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            tracer.install()
            raise RuntimeError("boom")
    assert all(_bindings()[k] is v for k, v in before.items())


def test_spans_nest_across_modules_and_sum_to_top_level():
    g = cv.Grid(64, 16.0)
    w = cv.gaussian_state(g)
    with Tracer() as tracer:
        tracer.install()
        tracer.enabled = True
        tracer.case_id = "case-1"
        cv.ccr_witness(w)
        tracer.enabled = False
        cv.ccr_witness(w)  # not recorded
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cv.ccr_witness"
    assert names.count("cv.ccr_witness") == 1
    joint = names.index("cv.joint_kd_cv")
    assert tracer.spans[joint][3] == 0  # child of ccr_witness
    assert "cv.momentum_samples_raw" in names
    assert {s[4] for s in tracer.spans} == {"case-1"}
    summary = tracer.summary()
    top = tracer.spans[0][2] - tracer.spans[0][1]
    total_self = sum(summary[f"{layer}.self_s"] for layer in TRACED)
    assert total_self == pytest.approx(top, rel=1e-9)
    assert summary["cv.ccr_witness.calls"] == 1


def test_calls_made_inside_the_package_are_traced():
    g = cv.Grid(16, 8.0)
    w = cv.gaussian_state(g)
    with Tracer() as tracer:
        tracer.install()
        tracer.enabled = True
        photonics.run_reconstruction(w, 0.05, shots=10**4, seed=1, post_index=g.n // 2)
    summary = tracer.summary(per=2)
    # 16 frequencies x 2 quadratures x 2 analyzers, halved by per=2
    assert summary["photonics.run_setting.calls"] == 32
    assert summary["photonics.sample_shots.calls"] == 32
    assert summary["photonics.sample_shots.shots"] == 32 * 10**4
    assert summary["photonics.estimate_weak_char.calls"] == 16 * 16 / 2
    assert summary["cv.momentum_samples_raw.calls"] > 0  # bound in photonics


def test_byte_counts_from_written_files():
    OUT.mkdir(exist_ok=True)
    path = OUT / "tracing-test.json"
    try:
        with Tracer() as tracer:
            tracer.install()
            tracer.enabled = True
            serialize.write_json(path, {"a": [1, 2, 3]})
            serialize.read_json(path)
        size = path.stat().st_size
        summary = tracer.summary()
        assert summary["serialize.write_json.bytes"] == size
        assert summary["serialize.read_json.bytes"] == size
    finally:
        path.unlink(missing_ok=True)


def test_every_traced_name_exists():
    for name in span_names():
        layer, fn = name.split(".")
        assert callable(getattr(sys.modules[f"kdrecon.{layer}"], fn))
