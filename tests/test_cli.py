import csv
import dataclasses
import json

import numpy as np
import pytest

from kdrecon import cv, photonics, scenarios
from kdrecon.cli import _strict, main
from kdrecon.core import GRID_CAP, random_observable, random_state
from kdrecon.errors import (
    DimensionMismatch,
    OrderingTagMismatch,
    ParseError,
    SchemaError,
    ShapeMismatch,
    SizeCap,
)
from kdrecon.oracle import PseudoDistribution
from kdrecon.scenarios import (
    _cv_joint_oracle,
    compare_distributions,
    load_scenario,
    run_scenario,
)
from kdrecon.serialize import (
    complex_array_from_json,
    pseudo_from_dict,
    pseudo_to_dict,
    read_json,
    write_json,
)
from kdrecon.vandermonde import MAX_ORDERS

QUBIT_SCENARIO = {
    "kind": "discrete-conditional",
    "state": {"amplitudes": [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]},
    "observable_a": {"pauli": "z"},
    "observable_b": {"pauli": "y"},
    "postselect_index": 0,
}

EXPERIMENT = {
    "kind": "experiment",
    "grid": {"n": 64, "length": 16.0},
    "state": {"type": "gaussian"},
    "epsilon": 0.05,
    "shots": 1000,
    "post_index": 32,
}

CCR_SCENARIO = {
    "kind": "ccr",
    "grid": {"n": 256, "length": 40.0},
    "state": {"type": "gaussian"},
}

# the CV kinds whose paths are O(n log n), so their grids are not capped; the
# grid and the state are filled in by each test
UNCAPPED_CV = ({"kind": "cv-conditional", "post_momentum_index": 0}, CCR_SCENARIO,
               dict(EXPERIMENT, shots=None))


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestSerialize:
    def test_complex_array_roundtrip(self, tmp_path):
        a = np.array([[1 + 2j, -0.125], [0, 3.7j]])
        write_json(tmp_path / "a.json", {"values": a})
        back = complex_array_from_json(read_json(tmp_path / "a.json")["values"], a.shape)
        assert np.array_equal(a, back)

    def test_pseudo_roundtrip(self, tmp_path):
        pd = PseudoDistribution(
            np.array([[0.5, 0.5j], [0.25, -0.25]]),
            ("A", "B"),
            ordering_tag="kd",
            cell_weight=1.0,
        )
        path = tmp_path / "pd.json"
        write_json(path, pseudo_to_dict(pd))
        back = pseudo_from_dict(read_json(path))
        assert np.array_equal(back.values, pd.values)
        assert back.ordering_tag == "kd"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": \n "oops",,}')
        with pytest.raises(ParseError, match="line"):
            read_json(path)

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError, match="missing"):
            pseudo_from_dict({"shape": [2], "values": []})

    @pytest.mark.parametrize("entries, shape", [
        ([{"re": 1.0, "im": 0.0}], (2,)),
        ([{"re": 1.0, "im": 0.0}] * 4, (3,)),
        ([{"re": 1e308, "im": 10**400}], (1,)),
        ({"re": 1.0, "im": 0.0}, (1,)),
        ([{"re": 1.0, "imag": 0.0}], (1,)),
    ])
    def test_unfillable_values_rejected(self, entries, shape):
        with pytest.raises(SchemaError):
            complex_array_from_json(entries, shape)


class TestLoadScenario:
    def test_minimal_qubit_scenario(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, QUBIT_SCENARIO))
        assert sc.kind == "discrete-conditional"
        assert sc.seed == 0

    def test_numpy_integer_seed_kept_as_int(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, QUBIT_SCENARIO))
        for seed in (np.int64(5), np.uint8(5)):
            kept = dataclasses.replace(sc, seed=seed).seed
            assert type(kept) is int and kept == 5

    def test_unknown_key_named(self, tmp_path):
        bad = dict(QUBIT_SCENARIO, epsilonn=0.1)
        with pytest.raises(SchemaError, match="epsilonn"):
            load_scenario(write_scenario(tmp_path, bad))

    def test_nested_unknown_key_named(self, tmp_path):
        bad = dict(QUBIT_SCENARIO)
        bad["observable_a"] = {"pauli": "z", "lable": "typo"}
        with pytest.raises(SchemaError, match="lable"):
            load_scenario(write_scenario(tmp_path, bad))

    def test_bad_grid_size_rejected(self, tmp_path):
        bad = {
            "kind": "ccr",
            "grid": {"n": 1000, "length": 40.0},
            "state": {"type": "gaussian"},
        }
        with pytest.raises(SchemaError, match="grid"):
            load_scenario(write_scenario(tmp_path, bad))

    @pytest.mark.parametrize("label", [5, True, ["z"], {"name": "z"}])
    @pytest.mark.parametrize("observable", [
        {"pauli": "z"},
        {"random": {"dim": 2, "seed": 1}},
        {"eigenvalues": [1.0, -1.0],
         "eigenvectors": [[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                          [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]]},
    ])
    def test_non_string_label_rejected(self, tmp_path, observable, label):
        bad = dict(QUBIT_SCENARIO, observable_a=dict(observable, label=label))
        with pytest.raises(SchemaError, match="label"):
            load_scenario(write_scenario(tmp_path, bad))

    def test_missing_required_key(self, tmp_path):
        bad = {k: v for k, v in QUBIT_SCENARIO.items() if k != "observable_b"}
        with pytest.raises(SchemaError, match="observable_b"):
            load_scenario(write_scenario(tmp_path, bad))


class TestCliRuns:
    def test_qubit_conditional_end_to_end(self, tmp_path):
        scen = write_scenario(tmp_path, QUBIT_SCENARIO)
        out = tmp_path / "out"
        rc = main(["reconstruct", "--scenario", str(scen), "--out", str(out),
                   "--emit-oracle"])
        assert rc == 0
        dist = pseudo_from_dict(read_json(out / "distribution.json"))
        # |+x> pre-selection, |+y> post-selection: ((1+i)/2, (1-i)/2)
        assert np.allclose(dist.values, [(1 + 1j) / 2, (1 - 1j) / 2])
        assert (out / "plot.csv").exists()
        assert (out / "distribution.csv").exists()
        report = compare_distributions(
            out / "distribution.json", out / "oracle.json", 1e-9
        )
        assert report["pass"]

    def test_oracle_subcommand_writes_reconstruction_and_oracle(self, tmp_path):
        scen = write_scenario(tmp_path, QUBIT_SCENARIO)
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert main(["oracle", "--scenario", str(scen), "--out", str(out)]) == 0
        assert main(["reconstruct", "--scenario", str(scen), "--out", str(ref),
                     "--emit-oracle"]) == 0
        for name in ("distribution.json", "oracle.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_commuting_joint_round_trip(self, tmp_path):
        # the oracle divides by no overlap, so a commuting pair is no refusal
        scen = write_scenario(tmp_path, {
            "kind": "discrete-joint", "state": {"amplitudes": [{"re": 0.6, "im": 0.0},
                                                               {"re": 0.8, "im": 0.0}]},
            "observable_a": {"pauli": "z"}, "observable_b": {"pauli": "z"}})
        out = tmp_path / "out"
        assert main(["reconstruct", "--scenario", str(scen), "--out", str(out),
                     "--emit-oracle"]) == 0
        dist = pseudo_from_dict(read_json(out / "distribution.json"))
        assert np.max(np.abs(dist.values - np.diag([0.36, 0.64]))) < 1e-12
        assert main(["compare", str(out / "distribution.json"), str(out / "oracle.json"),
                     "--tol", "1e-12"]) == 0

    @pytest.mark.parametrize("mode, axis", [("x-then-p", "x"), ("p-then-x", "p")])
    def test_experiment_conditional_plot_names_its_axis(self, tmp_path, mode, axis):
        scen = write_scenario(tmp_path, dict(EXPERIMENT, grid={"n": 32, "length": 12.0},
                                             shots=None, post_index=16, mode=mode))
        out = tmp_path / "out"
        assert main(["experiment", "--scenario", str(scen), "--out", str(out)]) == 0
        with open(out / "plot.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        coords = getattr(cv.Grid(32, 12.0), axis)
        assert rows[0] == [axis, "re", "im"]
        assert [float(r[0]) for r in rows[1:]] == coords.tolist()

    @pytest.mark.parametrize("ordering", ["x-then-p", "p-then-x"])
    def test_cv_joint_oracle_is_independent(self, tmp_path, monkeypatch, ordering):
        scen = write_scenario(tmp_path, {
            "kind": "cv-joint", "grid": {"n": 64, "length": 16.0, "hbar": 2.5},
            "state": {"type": "random-smooth", "seed": 4}, "ordering": ordering,
        })
        out = tmp_path / "out"
        assert main(["reconstruct", "--scenario", str(scen), "--out", str(out),
                     "--emit-oracle"]) == 0
        pair = (out / "distribution.json", out / "oracle.json")
        assert compare_distributions(*pair, 1e-12)["pass"]
        # a wrong joint_kd_cv must not be matched by its own oracle
        monkeypatch.setattr(cv, "joint_kd_cv", lambda w, o: np.zeros((64, 64), complex))
        assert main(["reconstruct", "--scenario", str(scen), "--out", str(out),
                     "--emit-oracle"]) == 0
        assert not compare_distributions(*pair, 1e-3)["pass"]

    def test_ccr_diagnostics(self, tmp_path):
        for n in (256, 1024):
            scen = write_scenario(tmp_path, dict(CCR_SCENARIO, grid={"n": n, "length": 40.0}))
            out = tmp_path / f"out{n}"
            rc = main(["ccr", "--scenario", str(scen), "--out", str(out)])
            assert rc == 0
            diag = read_json(out / "diagnostics.json")
            assert abs(diag["witness"]["im"] - 1.0) < 1e-6
            assert abs(diag["witness"]["re"]) < 1e-9

    def test_determinism_byte_identical(self, tmp_path):
        scenario = {
            "kind": "experiment",
            "grid": {"n": 32, "length": 16.0},
            "state": {"type": "gaussian", "width": 0.7071067811865476},
            "epsilon": 0.05,
            "shots": 20000,
            "post_index": 16,
            "seed": 13,
        }
        scen = write_scenario(tmp_path, scenario)
        outs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            assert main(["experiment", "--scenario", str(scen), "--out", str(out)]) == 0
            outs.append((out / "distribution.json").read_bytes())
        assert outs[0] == outs[1]

    def test_domain_error_exit_code_and_error_json(self, tmp_path):
        bad = dict(QUBIT_SCENARIO)
        # post-select orthogonally to the pre-selection state
        bad["state"] = {"amplitudes": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": -1.0}]}
        scen = write_scenario(tmp_path, bad)
        out = tmp_path / "out"
        rc = main(["reconstruct", "--scenario", str(scen), "--out", str(out)])
        assert rc == 2
        err = read_json(out / "error.json")
        assert err["error"] == "PostSelectionTooWeak"

    def test_experiment_at_a_dark_post_pixel_is_refused(self, tmp_path):
        # pixel 2's post-selection probability is 2e-31
        scen = write_scenario(tmp_path, dict(EXPERIMENT, shots=None, epsilon=1e-3, post_index=2))
        out = tmp_path / "out"
        assert main(["experiment", "--scenario", str(scen), "--out", str(out)]) == 2
        err = read_json(out / "error.json")
        assert err["error"] == "PostSelectionTooWeak" and "pixel 2" in err["message"]

    @pytest.mark.parametrize("scenario", [
        {"kind": "cv-joint", "grid": {"n": 64, "length": 16.0},
         "state": {"type": "gaussian", "width": 0}},
        dict(CCR_SCENARIO, state={"type": "gaussian", "width": 0}),
        {"kind": "discrete-joint", "observable_a": {"pauli": "z"}, "observable_b": {"pauli": "x"},
         "state": {"amplitudes": [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]}},
    ], ids=["cv-joint-width-0", "ccr-width-0", "discrete-joint-zero-amplitudes"])
    def test_nan_state_is_a_norm_violation(self, tmp_path, scenario):
        # the state normalizes to NaN, which every norm check must refuse
        scen = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        command = "ccr" if scenario["kind"] == "ccr" else "reconstruct"
        with np.errstate(divide="ignore", invalid="ignore"):
            assert main([command, "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "NormViolation"
        assert not (out / "diagnostics.json").exists()

    @pytest.mark.parametrize("scenario", [
        dict(QUBIT_SCENARIO, postselect_index=2),
        dict(QUBIT_SCENARIO, postselect_index=-1),
        {"kind": "cv-conditional", "grid": {"n": 64, "length": 16.0},
         "state": {"type": "gaussian"}, "post_momentum_index": 64},
        {"kind": "experiment", "grid": {"n": 64, "length": 16.0},
         "state": {"type": "gaussian"}, "epsilon": 0.05, "shots": 1000, "post_index": -1},
        {"kind": "experiment", "grid": {"n": 64, "length": 16.0},
         "state": {"type": "gaussian"}, "epsilon": 0.05, "shots": 1000, "post_index": 64},
    ])
    def test_out_of_range_index_is_schema_error(self, tmp_path, scenario):
        scen = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        command = "experiment" if scenario["kind"] == "experiment" else "reconstruct"
        assert main([command, "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "SchemaError"

    @pytest.mark.parametrize("scenario, key", [
        ({"kind": "cv-joint", "grid": {"n": 64, "length": 16.0},
          "state": {"type": "gaussian"}, "ordering": "sideways"}, "ordering"),
        ({"kind": "experiment", "grid": {"n": 64, "length": 16.0},
          "state": {"type": "gaussian"}, "epsilon": 0.05, "shots": 1000,
          "post_index": 32, "mode": "sideways"}, "mode"),
        ({"kind": "experiment", "grid": {"n": 64, "length": 16.0},
          "state": {"type": "gaussian"}, "epsilon": 0.05, "shots": 1000,
          "post_index": 32, "mode": None}, "mode"),
        (dict(QUBIT_SCENARIO, moment_orders=0), "moment_orders"),
        (dict(QUBIT_SCENARIO, moment_orders=-1), "moment_orders"),
        (dict(QUBIT_SCENARIO, moment_orders="3"), "moment_orders"),
        *((dict(QUBIT_SCENARIO, seed=seed), "seed")
          for seed in (1.7, True, -1, 2**63, 2**64, "3")),
        *((dict(EXPERIMENT, seed=seed), "seed") for seed in (-1, 2**64)),
        *((dict(EXPERIMENT, shots=shots), "shots") for shots in (-5, 0, "1e4", 2.5, True)),
        *((dict(EXPERIMENT, epsilon=eps), "epsilon")
          for eps in ("x", 0, -0.05, 1.5707963267948966, 2.0, True, None)),
        *((dict(EXPERIMENT, min_counts=floor), "min_counts") for floor in (0, 2.5, "100")),
        (dict(EXPERIMENT, grid={"n": 96, "length": 16.0}), "grid n"),
        ({"kind": "discrete-npoint", "state": {"random": {"dim": 3, "seed": 1}},
          "observables": []}, "discrete-npoint needs at least one observable"),
        ({"kind": "discrete-npoint", "state": {"random": {"dim": 3, "seed": 1}},
          "observables": {"pauli": "z"}}, "observables must be a list"),
        # numbers are checked, never coerced; a bool is never a number
        *((dict(CCR_SCENARIO, grid=grid), "grid") for grid in (
            {"n": 64.7, "length": 16.0}, {"n": 64.0, "length": 16.0}, {"n": "64", "length": 16.0},
            {"n": True, "length": 16.0}, {"n": 64, "length": "16"}, {"n": 64, "length": None},
            {"n": 64, "length": float("nan")}, {"n": 64, "length": 16.0, "hbar": True},
            {"length": 16.0}, {"n": 64},
        )),
        *((dict(CCR_SCENARIO, state=state), "state") for state in (
            {"type": "gaussian", "width": "1"}, {"type": "gaussian", "center": True},
            {"type": "gaussian", "width": float("inf")},
            {"type": "hermite", "n": 2.9}, {"type": "hermite", "n": -1}, {"type": "hermite"},
            {"type": "two-peak", "phase": "0"},
            {"type": "random-smooth", "seed": 1.5}, {"type": "random-smooth", "modes": 0},
        )),
        *((dict(QUBIT_SCENARIO, state={"random": random}), "random") for random in (
            {"dim": "3"}, {"dim": 2.0}, {"dim": 0}, {"dim": 2, "seed": 1.5},
            {"dim": 2, "seed": -1}, {"dim": 2, "seed": False}, {"seed": 1},
        )),
        *((dict(QUBIT_SCENARIO, observable_a=obs), "observable_a") for obs in (
            {"pauli": "q"}, {"pauli": None}, {"random": {"dim": "2"}},
            {"random": {"dim": 2, "seed": 1.5}},
            {"eigenvalues": ["1.0", -1.0], "eigenvectors": [
                [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]]},
            {"eigenvalues": 1.0, "eigenvectors": []},
            {"eigenvalues": [1.0, -1.0], "eigenvectors": 5},
            {"eigenvalues": [1.0, -1.0], "eigenvectors": []},
        )),
        # a value of the wrong JSON type where an object or a list is due
        (dict(QUBIT_SCENARIO, state={"amplitudes": 5}), "amplitudes"),
        (dict(QUBIT_SCENARIO, state="abc"), "state must be a JSON object"),
        # a shot count outside [0, 2^63), which no int64 sample count holds
        *((dict(EXPERIMENT, shots=shots), "shots") for shots in (2**63, 10**19)),
        # a boolean option is a JSON boolean, never read by its truthiness
        *((dict(QUBIT_SCENARIO, renormalize=flag), "renormalize")
          for flag in ("yes", "false", 1, 0, None, [])),
        *((dict(EXPERIMENT, joint=flag), "joint") for flag in ("false", "true", 1, 0, None)),
        ({"kind": "discrete-joint", "state": {"random": {"dim": 2}}, "observable_a": {"pauli": "z"},
          "observable_b": {"pauli": "x"}, "renormalize": "yes"}, "renormalize"),
        ({"kind": "discrete-npoint", "state": {"random": {"dim": 2}},
          "observables": [{"pauli": "z"}], "renormalize": 1}, "renormalize"),
        # an object that names none of its kind's forms
        (dict(QUBIT_SCENARIO, state={}), "state needs 'amplitudes' or 'random'"),
        (dict(QUBIT_SCENARIO, observable_a={"label": "A"}), "observable_a needs 'pauli'"),
        (dict(CCR_SCENARIO, state={"type": "squeezed"}), "unknown cv state type"),
        # a key of another form, or of another cv state type, is refused by name
        *((dict(CCR_SCENARIO, state={"type": "gaussian", key: 2}), f"'{key}' in gaussian state")
          for key in ("seed", "modes", "separation")),
        (dict(CCR_SCENARIO, state={"type": "random-smooth", "width": 1.0}),
         "'width' in random-smooth state"),
        (dict(CCR_SCENARIO, state={"type": "hermite", "n": 1, "phase": 0.0}),
         "'phase' in hermite state"),
        # an integer too large for its field: past float range, refused by
        # name, and a list of 10^30 Hermite coefficients, which overflows
        (dict(CCR_SCENARIO, grid={"n": 64, "length": 10**400}), "grid.length must be"),
        (dict(EXPERIMENT, epsilon=10**400), "epsilon must be"),
        (dict(QUBIT_SCENARIO, observable_a={"eigenvalues": [10**400, -1.0], "eigenvectors": [
            [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
            [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]]}),
         r"observable_a.eigenvalues\[0\] must be"),
        (dict(CCR_SCENARIO, state={"type": "hermite", "n": 10**30}), "index-sized"),
        (dict(QUBIT_SCENARIO, state=dict(QUBIT_SCENARIO["state"], random={"dim": 2})),
         "state mixes two forms: 'amplitudes' and 'random'"),
        *((dict(QUBIT_SCENARIO, observable_a={"pauli": "z", key: value}),
           f"observable_a mixes two forms: 'pauli' and '{key}'") for key, value in (
            ("random", {"dim": 2}), ("eigenvalues", [1.0, -1.0]),
            ("eigenvectors", [[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]]))),
    ])
    def test_unknown_ordering_or_mode_is_schema_error(self, tmp_path, monkeypatch,
                                                      scenario, key):
        def sweep(*args, **kwargs):
            raise AssertionError("the photonic sweep ran")

        monkeypatch.setattr(photonics, "run_reconstruction", sweep)
        scen = write_scenario(tmp_path, scenario)
        with pytest.raises(SchemaError, match=key):
            load_scenario(scen)
        out = tmp_path / "out"
        command = "experiment" if scenario["kind"] == "experiment" else "reconstruct"
        assert main([command, "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "SchemaError"

    def test_moment_orders_cap(self, tmp_path):
        at = write_scenario(tmp_path, dict(QUBIT_SCENARIO, moment_orders=MAX_ORDERS), "at.json")
        out = tmp_path / "at"
        assert main(["reconstruct", "--scenario", str(at), "--out", str(out),
                     "--emit-oracle"]) == 0
        assert compare_distributions(out / "distribution.json", out / "oracle.json",
                                     1e-12)["pass"]
        past = write_scenario(tmp_path, dict(QUBIT_SCENARIO, moment_orders=MAX_ORDERS + 1))
        with pytest.raises(SizeCap, match="moment_orders"):
            load_scenario(past)
        out = tmp_path / "past"
        assert main(["reconstruct", "--scenario", str(past), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "SizeCap"

    @pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")
    def test_overflowing_moment_powers_are_size_cap(self, tmp_path):
        # 1e6**59 passes the float range: the moments were NaN and the
        # rescaling raised a raw OverflowError
        identity = [[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                    [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]]
        scen = write_scenario(tmp_path, dict(
            QUBIT_SCENARIO, moment_orders=60,
            observable_a={"eigenvalues": [1e6, 1e6 + 1], "eigenvectors": identity}))
        out = tmp_path / "out"
        assert main(["reconstruct", "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "SizeCap"

    @pytest.mark.parametrize("scenario", [
        {"kind": "cv-joint", "ordering": "p-then-x"},
        dict(EXPERIMENT, shots=None, post_index=None, joint=True),
        dict(EXPERIMENT, post_index=None, joint=True),
    ])
    def test_grid_past_the_cap_is_size_cap(self, tmp_path, scenario):
        scen = write_scenario(tmp_path, dict(
            scenario, grid={"n": 2 * GRID_CAP, "length": 400.0}, state={"type": "gaussian"}))
        out = tmp_path / "out"
        command = "reconstruct" if scenario["kind"] == "cv-joint" else scenario["kind"]
        assert main([command, "--scenario", str(scen), "--out", str(out),
                     "--emit-oracle"]) == 2
        assert read_json(out / "error.json")["error"] == "SizeCap"

    @pytest.mark.parametrize("n", [2 * GRID_CAP, 2**40, 2**62])
    @pytest.mark.parametrize("scenario", [
        {"kind": "cv-joint"},
        dict(EXPERIMENT, shots=None, post_index=None, joint=True),
        dict(EXPERIMENT, post_index=None, joint=True),
    ], ids=["cv-joint", "experiment-born", "experiment-shots-joint"])
    def test_grid_past_the_cap_is_refused_before_the_state_is_built(self, tmp_path, monkeypatch,
                                                                    scenario, n):
        # at n = 2^40 the state alone was a MemoryError, at 2^62 numpy's
        # ValueError, both as tracebacks
        def build(*args):
            raise AssertionError("the state was built")

        monkeypatch.setattr(scenarios, "_build_cv_state", build)
        scen = write_scenario(tmp_path, dict(
            scenario, grid={"n": n, "length": 400.0}, state={"type": "gaussian"}))
        with pytest.raises(SizeCap, match=str(GRID_CAP)):
            load_scenario(scen)
        out = tmp_path / "out"
        command = "reconstruct" if scenario["kind"] == "cv-joint" else scenario["kind"]
        assert main([command, "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "SizeCap"

    def test_cv_conditional_past_the_grid_cap_is_loaded(self, tmp_path):
        # its path is O(n log n) and builds no n x n array
        scen = write_scenario(tmp_path, {
            "kind": "cv-conditional", "grid": {"n": 2 * GRID_CAP, "length": 400.0},
            "state": {"type": "gaussian"}, "post_momentum_index": GRID_CAP})
        assert load_scenario(scen).kind == "cv-conditional"

    @pytest.mark.parametrize("mode", ["x-then-p", "p-then-x"])
    def test_conditional_experiment_past_the_grid_cap_matches_its_oracle(self, tmp_path, mode):
        # its Born stage reads one camera column, so the cap does not apply;
        # at eps = 1e-3 the O(eps^2) bias read 1.8e-7 (x-then-p) and 9.2e-8 (p-then-x)
        scen = write_scenario(tmp_path, dict(
            EXPERIMENT, grid={"n": 2 * GRID_CAP, "length": 400.0},
            state={"type": "gaussian", "width": 2**-0.5}, epsilon=1e-3, shots=None,
            post_index=GRID_CAP, mode=mode))
        out = tmp_path / "out"
        assert main(["experiment", "--scenario", str(scen), "--out", str(out),
                     "--emit-oracle"]) == 0
        assert compare_distributions(out / "distribution.json", out / "oracle.json",
                                     1e-6)["pass"]

    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    def test_ccr_past_the_grid_cap_writes_i_hbar(self, tmp_path, hbar):
        # the witness is one FFT pair on n-vectors, so the cap does not apply
        scen = write_scenario(tmp_path, dict(
            CCR_SCENARIO, grid={"n": 2 * GRID_CAP, "length": 400.0, "hbar": hbar}))
        out = tmp_path / "out"
        assert main(["ccr", "--scenario", str(scen), "--out", str(out)]) == 0
        w = read_json(out / "diagnostics.json")["witness"]
        assert abs(complex(w["re"], w["im"]) - 1j * hbar) < 1e-9

    def test_grid_no_array_can_hold_is_schema_error(self, tmp_path):
        # numpy refuses 2^62 samples with a ValueError, which was a traceback
        for scenario in UNCAPPED_CV:
            scen = write_scenario(tmp_path, dict(
                scenario, grid={"n": 2**62, "length": 400.0}, state={"type": "gaussian"}))
            out = tmp_path / scenario["kind"]
            command = "reconstruct" if scenario["kind"].startswith("cv-") else scenario["kind"]
            assert main([command, "--scenario", str(scen), "--out", str(out)]) == 2
            assert read_json(out / "error.json")["error"] == "SchemaError"

    def test_builder_out_of_memory_is_size_cap(self, tmp_path, monkeypatch):
        # an uncapped grid numpy cannot allocate, without allocating it
        def build(p):
            raise MemoryError("Unable to allocate 8.00 TiB")

        for scenario in UNCAPPED_CV:
            kind = scenario["kind"]
            required, optional, _ = scenarios._KINDS[kind]
            monkeypatch.setitem(scenarios._KINDS, kind, (required, optional, build))
            scen = write_scenario(tmp_path, dict(
                scenario, grid={"n": 2**40, "length": 400.0}, state={"type": "gaussian"}))
            with pytest.raises(SizeCap, match="8.00 TiB"):
                load_scenario(scen)
            out = tmp_path / kind
            command = "reconstruct" if kind.startswith("cv-") else kind
            assert main([command, "--scenario", str(scen), "--out", str(out)]) == 2
            assert read_json(out / "error.json")["error"] == "SizeCap"

    @pytest.mark.parametrize("scenario, oracle", [
        (QUBIT_SCENARIO, "kd_conditional"),
        ({"kind": "discrete-joint", "state": {"random": {"dim": 3, "seed": 1}},
          "observable_a": {"random": {"dim": 3, "seed": 2}},
          "observable_b": {"random": {"dim": 3, "seed": 3}}}, "kd_joint"),
        ({"kind": "discrete-npoint", "state": {"random": {"dim": 2, "seed": 1}},
          "observables": [{"pauli": "z"}, {"pauli": "x"}]}, "kd_npoint"),
        ({"kind": "cv-conditional", "grid": {"n": 64, "length": 16.0},
          "state": {"type": "gaussian"}, "post_momentum_index": 32}, "_cv_conditional_oracle"),
        ({"kind": "cv-joint", "grid": {"n": 64, "length": 16.0},
          "state": {"type": "gaussian"}}, "_cv_joint_oracle"),
        (dict(EXPERIMENT, shots=None), "_cv_conditional_oracle"),
        (dict(EXPERIMENT, shots=None, post_index=None, joint=True), "joint_kd_cv"),
    ], ids=["discrete-conditional", "discrete-joint", "discrete-npoint", "cv-conditional",
            "cv-joint", "experiment-conditional", "experiment-joint"])
    def test_oracle_built_only_when_written(self, tmp_path, monkeypatch, scenario, oracle):
        class Built(Exception):
            pass

        def build(*args, **kwargs):
            raise Built(oracle)

        # the experiment's joint oracle is the exact CV joint, which no
        # experiment run computes otherwise
        monkeypatch.setattr(cv if oracle == "joint_kd_cv" else scenarios, oracle, build)
        sc = load_scenario(write_scenario(tmp_path, scenario))
        run_scenario(sc, tmp_path / "plain")
        assert (tmp_path / "plain" / "distribution.json").exists()
        assert not (tmp_path / "plain" / "oracle.json").exists()
        with pytest.raises(Built):
            run_scenario(sc, tmp_path / "emit", emit_oracle=True)

    def test_discrete_joint_oracle_is_the_conjugate_kd_bracket(self, tmp_path):
        scenario = {"kind": "discrete-joint", "state": {"random": {"dim": 4, "seed": 3}},
                    "observable_a": {"random": {"dim": 4, "seed": 5}, "label": "A"},
                    "observable_b": {"random": {"dim": 4, "seed": 7}, "label": "B"}}
        out = tmp_path / "out"
        assert main(["reconstruct", "--scenario", str(write_scenario(tmp_path, scenario)),
                     "--out", str(out), "--emit-oracle"]) == 0
        oracle = pseudo_from_dict(read_json(out / "oracle.json"))
        psi = random_state(4, 3).amplitudes
        ua, ub = random_observable(4, 5).eigenvectors, random_observable(4, 7).eigenvectors
        # conj(<b_j|a_i><a_i|psi><psi|b_j>) = <a_i|b_j><psi|a_i><b_j|psi>
        bracket = np.array([[(ua[:, i].conj() @ ub[:, j]) * (psi.conj() @ ua[:, i])
                             * (ub[:, j].conj() @ psi) for j in range(4)] for i in range(4)])
        assert (oracle.ordering_tag, oracle.axes) == ("kd-conjugate", ("A", "B"))
        assert np.max(np.abs(oracle.values - bracket)) < 1e-15

    @pytest.mark.parametrize("command, scenario, index", [
        ("reconstruct", {"kind": "cv-conditional", "grid": {"n": 64, "length": 16.0, "hbar": 2.5},
                         "state": {"type": "gaussian", "center": 0.5, "momentum": 0.7},
                         "post_momentum_index": 30}, "post_momentum_index"),
        ("experiment", dict(EXPERIMENT, shots=None, post_index=34,
                            state={"type": "random-smooth", "seed": 4}), "post_index"),
    ], ids=["cv-conditional", "experiment-x-then-p"])
    def test_position_conditional_oracle_is_the_weak_valued_projector(
            self, tmp_path, command, scenario, index):
        out = tmp_path / "out"
        assert main([command, "--scenario", str(write_scenario(tmp_path, scenario)),
                     "--out", str(out), "--emit-oracle"]) == 0
        oracle = pseudo_from_dict(read_json(out / "oracle.json"))
        grid = cv.Grid(**scenario["grid"])
        psi = scenarios._build_cv_state(scenario["state"], grid).samples
        p = grid.p[scenario[index]]
        bra_p_x = np.exp(-1j * p * grid.x / grid.hbar) / np.sqrt(2 * np.pi * grid.hbar)
        # <p|x><x|psi>/<p|psi>, with <p|psi> summed directly over the grid
        bracket = bra_p_x * psi / (grid.dx * np.sum(bra_p_x * psi))
        assert (oracle.ordering_tag, oracle.axes) == ("cv-conditional", ("x",))
        assert (oracle.conditioning, oracle.cell_weight) == (f"p={p:.6g}", grid.dx)
        assert np.max(np.abs(oracle.values - bracket)) < 1e-13 * np.max(np.abs(bracket))

    @pytest.mark.parametrize("scenario, match", [
        ([QUBIT_SCENARIO], "must be a JSON object"),
        (dict(QUBIT_SCENARIO, kind="discrete-marginal"), "kind must be one of"),
        ({k: v for k, v in QUBIT_SCENARIO.items() if k != "kind"}, "kind must be one of"),
        (dict(QUBIT_SCENARIO, kind=["discrete-joint"]), "kind must be one of"),
    ], ids=["array", "unknown-kind", "no-kind", "unhashable-kind"])
    def test_scenario_not_an_object_of_a_known_kind(self, tmp_path, scenario, match):
        scen = write_scenario(tmp_path, scenario)
        with pytest.raises(SchemaError, match=match):
            load_scenario(scen)
        out = tmp_path / "out"
        assert main(["reconstruct", "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "SchemaError"

    def test_cv_joint_oracle_past_the_cap_builds_nothing(self, size_cap_peak):
        grid = cv.Grid(2 * GRID_CAP, 400.0)
        w = cv.gaussian_state(grid)
        assert size_cap_peak(lambda: _cv_joint_oracle(grid, w, "x-then-p")) < 5 * 2**20

    @pytest.mark.parametrize("scenario", [
        dict(QUBIT_SCENARIO, state={"random": {"dim": 3}}),
        {"kind": "discrete-joint", "state": {"random": {"dim": 2}},
         "observable_a": {"pauli": "z"}, "observable_b": {"random": {"dim": 3}}},
        {"kind": "discrete-npoint", "state": {"random": {"dim": 2}},
         "observables": [{"pauli": "z"}, {"random": {"dim": 3}}]},
    ], ids=["conditional", "joint", "npoint"])
    def test_discrete_dimension_mismatch_is_refused_at_load(self, tmp_path, monkeypatch,
                                                           scenario):
        def synthesis(*args, **kwargs):
            raise AssertionError("the data were synthesised")

        for name in ("moment_vector", "correlation_matrix", "correlation_tensor"):
            monkeypatch.setattr(scenarios, name, synthesis)
        scen = write_scenario(tmp_path, scenario)
        with pytest.raises(DimensionMismatch, match=scenario["kind"]):
            load_scenario(scen)
        out = tmp_path / "out"
        assert main(["reconstruct", "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "DimensionMismatch"

    def test_observable_a_dimension_mismatch_is_a_domain_error(self, tmp_path):
        scen = write_scenario(tmp_path, dict(
            QUBIT_SCENARIO,
            state={"random": {"dim": 3, "seed": 1}},
            observable_a={"random": {"dim": 4, "seed": 2}},
            observable_b={"random": {"dim": 3, "seed": 3}},
        ))
        out = tmp_path / "out"
        assert main(["reconstruct", "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "DimensionMismatch"

    def test_experiment_without_output_rejected_before_the_sweep(self, tmp_path, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the photonic sweep ran")

        monkeypatch.setattr(photonics, "run_reconstruction", sweep)
        scen = write_scenario(tmp_path, {
            "kind": "experiment", "grid": {"n": 64, "length": 16.0},
            "state": {"type": "gaussian"}, "epsilon": 0.05, "shots": 1000,
        })
        with pytest.raises(SchemaError, match="post_index or joint"):
            load_scenario(scen)
        out = tmp_path / "out"
        assert main(["experiment", "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "SchemaError"

    def test_conditional_experiment_builds_no_joint(self, tmp_path, monkeypatch):
        # with a post_index only the conditional is written, so "joint": true
        # must not build the n x n joint it would drop
        ref = tmp_path / "ref"
        assert main(["experiment", "--scenario", str(write_scenario(tmp_path, EXPERIMENT)),
                     "--out", str(ref)]) == 0
        joints, real = [], photonics.run_reconstruction

        def spy(*args, joint, **kwargs):
            joints.append(joint)
            return real(*args, joint=joint, **kwargs)

        monkeypatch.setattr(photonics, "run_reconstruction", spy)
        scen = write_scenario(tmp_path, dict(EXPERIMENT, joint=True), "joint.json")
        out = tmp_path / "out"
        assert main(["experiment", "--scenario", str(scen), "--out", str(out)]) == 0
        assert joints == [False]
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in ref.iterdir())
        for path in ref.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2**63)])
    def test_out_of_range_seed_override_is_schema_error(self, tmp_path, seed):
        scen = write_scenario(tmp_path, dict(EXPERIMENT, shots=None))
        out = tmp_path / "out"
        assert main(["experiment", "--scenario", str(scen), "--out", str(out),
                     "--seed", seed]) == 2
        assert read_json(out / "error.json")["error"] == "SchemaError"

    def test_noiseless_p_then_x_conditional_sums_to_one(self, tmp_path):
        scen = write_scenario(tmp_path, {
            "kind": "experiment", "grid": {"n": 64, "length": 16.0},
            "state": {"type": "gaussian"}, "epsilon": 1e-3, "shots": None,
            "post_index": 32, "mode": "p-then-x",
        })
        out = tmp_path / "out"
        assert main(["experiment", "--scenario", str(scen), "--out", str(out),
                     "--emit-oracle"]) == 0
        assert read_json(out / "diagnostics.json")["sum_deviation"] < 1e-6
        assert pseudo_from_dict(read_json(out / "distribution.json")).axes == ("p",)
        assert main(["compare", str(out / "distribution.json"), str(out / "oracle.json"),
                     "--tol", "1e-5"]) == 0

    def test_seed_override_reaches_the_shot_streams(self, tmp_path):
        override, in_file, default = tmp_path / "override", tmp_path / "file", tmp_path / "zero"
        scen = write_scenario(tmp_path, EXPERIMENT)
        assert main(["experiment", "--scenario", str(scen), "--out", str(override),
                     "--seed", "5"]) == 0
        assert main(["experiment", "--scenario", str(scen), "--out", str(default)]) == 0
        seeded = write_scenario(tmp_path, dict(EXPERIMENT, seed=5), "seeded.json")
        assert main(["experiment", "--scenario", str(seeded), "--out", str(in_file)]) == 0
        distribution = (override / "distribution.json").read_bytes()
        assert distribution == (in_file / "distribution.json").read_bytes()
        assert distribution != (default / "distribution.json").read_bytes()
        assert read_json(override / "diagnostics.json")["seed"] == 5

    @pytest.mark.parametrize("scenario, builder", [
        (dict(EXPERIMENT, shots=None), (cv, "gaussian_state")),
        (CCR_SCENARIO, (cv, "gaussian_state")),
        ({"kind": "discrete-joint", "state": {"random": {"dim": 3, "seed": 1}},
          "observable_a": {"random": {"dim": 3, "seed": 2}},
          "observable_b": {"random": {"dim": 3, "seed": 3}}}, (scenarios, "random_state")),
    ])
    def test_a_run_builds_its_state_once(self, tmp_path, monkeypatch, scenario, builder):
        calls = []
        module, name = builder
        build = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or build(*a, **k))
        scen = write_scenario(tmp_path, scenario)
        command = "ccr" if scenario["kind"] == "ccr" else "reconstruct"
        assert main([command, "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_schema_error_exit_code(self, tmp_path):
        scen = write_scenario(tmp_path, dict(QUBIT_SCENARIO, epsilonn=1))
        rc = main(["reconstruct", "--scenario", str(scen), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_io_error_exit_code(self, tmp_path):
        rc = main(["reconstruct", "--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_wrong_kind_for_subcommand(self, tmp_path):
        scen = write_scenario(tmp_path, QUBIT_SCENARIO)
        rc = main(["ccr", "--scenario", str(scen), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_wrong_kind_is_schema_error(self, tmp_path):
        scen = write_scenario(tmp_path, CCR_SCENARIO)
        out = tmp_path / "out"
        assert main(["experiment", "--scenario", str(scen), "--out", str(out)]) == 2
        err = read_json(out / "error.json")
        assert err["error"] == "SchemaError" and "'ccr'" in err["message"]
        assert not (out / "distribution.json").exists()

    def test_out_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KDRECON_OUT", str(tmp_path / "envout"))
        scen = write_scenario(tmp_path, QUBIT_SCENARIO)
        assert main(["reconstruct", "--scenario", str(scen)]) == 0
        assert (tmp_path / "envout" / "distribution.json").exists()


BAD_ENTRIES = [
    {"re": "1.0", "im": 0.0},
    {"re": 1.0, "im": None},
    {"re": True, "im": 0.0},
    {"re": 1.0},
    {"re": 1.0, "im": 0.0, "phase": 0.0},
    [1.0, 0.0],
    1.0,
]


class TestNonNumericEntries:
    """A complex entry that is not exactly a {re, im} pair of numbers is a SchemaError."""

    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_scenario_amplitudes(self, tmp_path, bad):
        scenario = dict(QUBIT_SCENARIO, state={"amplitudes": [{"re": 1.0, "im": 0.0}, bad]})
        scen = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        assert main(["reconstruct", "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "SchemaError"

    @pytest.mark.parametrize("bad", [None] + BAD_ENTRIES)
    def test_scenario_eigenvectors(self, tmp_path, bad):
        one, zero = {"re": 1.0, "im": 0.0}, {"re": 0, "im": 0}
        scenario = dict(QUBIT_SCENARIO, observable_a={
            "eigenvalues": [1.0, -1.0],
            "eigenvectors": [[one, zero], [zero, one if bad is None else bad]],
        })
        scen = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        rc = main(["reconstruct", "--scenario", str(scen), "--out", str(out)])
        if bad is None:  # the well-formed observable (sigma_z) runs
            assert rc == 0
            return
        assert rc == 2
        assert read_json(out / "error.json")["error"] == "SchemaError"

    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_compare(self, tmp_path, bad, capsys):
        pd = PseudoDistribution(np.array([0.5, 0.5]), ("A",), "kd")
        write_json(tmp_path / "a.json", pseudo_to_dict(pd))
        broken = read_json(tmp_path / "a.json")
        broken["values"][1] = bad
        (tmp_path / "b.json").write_text(json.dumps(broken))
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
        assert "SchemaError: entry 1" in capsys.readouterr().err


def _distribution_json(**fields):
    pd = PseudoDistribution(np.array([0.5, 0.5]), ("A",), "kd")
    return {**pseudo_to_dict(pd), "values": [{"re": 0.5, "im": 0.0}] * 2, **fields}


@pytest.mark.parametrize("broken", [
    [_distribution_json()],
    _distribution_json(shape=4096),
    _distribution_json(shape=["2"]),
    _distribution_json(shape=[2.0]),
    _distribution_json(shape=[True]),
    _distribution_json(shape=[-2]),
    _distribution_json(axes=5),
    _distribution_json(axes=["A", "B"]),
    _distribution_json(axes=[1]),
    _distribution_json(ordering_tag=3),
    _distribution_json(conditioning=0),
    _distribution_json(conditioning=["p"]),
    _distribution_json(cell_weight="x"),
    _distribution_json(cell_weight=True),
    _distribution_json(cell_weight=None),
    _distribution_json(cell_weight=10**400),
    _distribution_json(cell_weight=float("inf")),
], ids=["top-level-list", "shape-int", "shape-str", "shape-float", "shape-bool",
        "shape-negative", "axes-int", "axes-count", "axes-int-entry", "ordering-tag-int",
        "conditioning-int", "conditioning-list", "cell-weight-str", "cell-weight-bool",
        "cell-weight-null", "cell-weight-past-float", "cell-weight-inf"])
def test_compare_rejects_ill_typed_distribution_fields(tmp_path, broken, capsys):
    """A distribution file whose fields have the wrong JSON type is a SchemaError."""
    write_json(tmp_path / "a.json", _distribution_json())
    (tmp_path / "b.json").write_text(json.dumps(broken))
    assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert "SchemaError: pseudo-distribution" in capsys.readouterr().err
    with pytest.raises(SchemaError):
        pseudo_from_dict(broken)


@pytest.mark.parametrize("shape", [[2**32, 2**32], [0, 2**63], [0] * 65],
                         ids=["product-wraps-to-0", "dimension-past-intp", "65-axes"])
def test_compare_rejects_a_shape_no_array_has(tmp_path, shape, capsys):
    """A shape no array can have is a SchemaError.  np.prod wrapped the first
    to 0 entries modulo 2^64, the other two have 0 entries, and so each
    passed the entry count and numpy's reshape raised a bare ValueError."""
    broken = _distribution_json(shape=shape, axes=["A"] * len(shape), values=[])
    with pytest.raises(SchemaError):
        pseudo_from_dict(broken)
    write_json(tmp_path / "a.json", _distribution_json())
    (tmp_path / "b.json").write_text(json.dumps(broken))
    assert main(["compare", str(tmp_path / "b.json"), str(tmp_path / "b.json")]) == 2
    assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert "SchemaError" in capsys.readouterr().err


def test_integer_cell_weight_and_null_conditioning_accepted():
    pd = pseudo_from_dict(_distribution_json(cell_weight=1, conditioning=None))
    assert pd.cell_weight == 1.0 and pd.conditioning is None


class TestCompare:
    def test_identical_files_pass(self, tmp_path):
        pd = PseudoDistribution(np.array([0.5, 0.5]), ("A",), "kd-conditional")
        for name in ("a.json", "b.json"):
            write_json(tmp_path / name, pseudo_to_dict(pd))
        report = compare_distributions(tmp_path / "a.json", tmp_path / "b.json", 1e-12)
        assert report["pass"] and report["max_delta"] == 0.0

    def test_tag_mismatch_rejected(self, tmp_path):
        pd = PseudoDistribution(np.array([0.5, 0.5j]), ("A",), "kd")
        conj = PseudoDistribution(np.array([0.5, -0.5j]), ("A",), "kd-conjugate")
        write_json(tmp_path / "a.json", pseudo_to_dict(pd))
        write_json(tmp_path / "b.json", pseudo_to_dict(conj))
        with pytest.raises(OrderingTagMismatch):
            compare_distributions(tmp_path / "a.json", tmp_path / "b.json", 1.0)

    def test_shape_mismatch_rejected(self, tmp_path):
        write_json(tmp_path / "a.json",
                   pseudo_to_dict(PseudoDistribution(np.zeros(2), ("A",), "kd")))
        write_json(tmp_path / "b.json",
                   pseudo_to_dict(PseudoDistribution(np.zeros(3), ("A",), "kd")))
        with pytest.raises(ShapeMismatch):
            compare_distributions(tmp_path / "a.json", tmp_path / "b.json", 1.0)

    def test_failure_reports_entries(self, tmp_path):
        write_json(tmp_path / "a.json",
                   pseudo_to_dict(PseudoDistribution(np.array([0.5, 0.5]), ("A",), "kd")))
        write_json(tmp_path / "b.json",
                   pseudo_to_dict(PseudoDistribution(np.array([0.5, 0.6]), ("A",), "kd")))
        report = compare_distributions(tmp_path / "a.json", tmp_path / "b.json", 1e-3)
        assert not report["pass"]
        assert report["worst_index"] == [1]
        assert report["entries"][0]["delta"] == pytest.approx(0.1)
        # 2-D: failing cells in row-major order, with both values and the delta
        a = np.arange(6, dtype=float).reshape(2, 3) * (1 - 1j)
        b = a.copy()
        b[1, 0] += 0.5j
        b[0, 2] -= 0.25
        b[1, 2] += 2.0
        b[0, 1] += 1e-4
        write_json(tmp_path / "a.json", pseudo_to_dict(PseudoDistribution(a, ("A", "B"), "kd")))
        write_json(tmp_path / "b.json", pseudo_to_dict(PseudoDistribution(b, ("A", "B"), "kd")))
        report = compare_distributions(tmp_path / "a.json", tmp_path / "b.json", 1e-3)
        assert report["worst_index"] == [1, 2]
        assert report["entries"] == [
            {"index": [i, j], "a": {"re": a[i, j].real, "im": a[i, j].imag},
             "b": {"re": b[i, j].real, "im": b[i, j].imag}, "delta": abs(b[i, j] - a[i, j])}
            for i, j in [(0, 2), (1, 0), (1, 2)]
        ]
        assert json.loads(json.dumps(report))["entries"][1]["b"] == {"re": 3.0, "im": -2.5}

    def test_compare_cli_exit_codes(self, tmp_path):
        pd = PseudoDistribution(np.array([1.0]), ("A",), "kd")
        write_json(tmp_path / "a.json", pseudo_to_dict(pd))
        write_json(tmp_path / "b.json", pseudo_to_dict(pd))
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
        other = PseudoDistribution(np.array([0.0]), ("A",), "kd")
        write_json(tmp_path / "b.json", pseudo_to_dict(other))
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                     "--tol", "1e-6"]) == 2
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "missing.json")]) == 1

    def test_nan_mismatch_reported(self, tmp_path, capsys):
        # delta > tol is False for a NaN delta: the NaN cell must still be listed
        write_json(tmp_path / "a.json", pseudo_to_dict(
            PseudoDistribution(np.array([1.0, 2.0, 3.0]), ("A",), "kd")))
        write_json(tmp_path / "b.json", pseudo_to_dict(
            PseudoDistribution(np.array([1.0, np.nan, 3.0]), ("A",), "kd")))
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                     "--tol", "1e-6"]) == 2

        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        # the report is strict JSON: NaN is a string
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["pass"] is False and np.isnan(float(report["max_delta"]))
        assert [e["index"] for e in report["entries"]] == [[1]]
        assert report["worst_index"] == [1]
        assert np.isnan(float(report["entries"][0]["b"]["re"]))
        assert float(report["entries"][0]["a"]["re"]) == 2.0
        # and so are the infinities
        write_json(tmp_path / "c.json", pseudo_to_dict(
            PseudoDistribution(np.array([1.0, np.inf, -np.inf]), ("A",), "kd")))
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "c.json")]) == 2
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["max_delta"] == "Infinity"
        assert [e["b"]["re"] for e in report["entries"]] == ["Infinity", "-Infinity"]

    def test_strict_report_maps_only_the_non_finite_floats(self):
        nan, inf = float("nan"), float("inf")
        report = {"max_delta": nan, "tol": 1e-8, "pass": False, "worst_index": [0, 3],
                  "entries": [{"index": [0, 3], "a": {"re": inf, "im": -0.0},
                               "b": {"re": -inf, "im": 5e-324}, "delta": np.float64(nan)}],
                  "note": "nan", "none": None}
        assert _strict(report) == {
            "max_delta": "NaN", "tol": 1e-8, "pass": False, "worst_index": [0, 3],
            "entries": [{"index": [0, 3], "a": {"re": "Infinity", "im": -0.0},
                         "b": {"re": "-Infinity", "im": 5e-324}, "delta": "NaN"}],
            "note": "nan", "none": None}
        assert json.dumps(_strict(report), allow_nan=False).count('"NaN"') == 2
        finite = [1.5, -0.0, 7, True, "inf"]
        assert all(a is b for a, b in zip(_strict(finite), finite))

    @pytest.mark.parametrize("tol", ["nan", "-1e-9", "-inf", "tight"])
    def test_bad_tolerance_refused(self, tmp_path, tol, capsys):
        pd = PseudoDistribution(np.array([1.0]), ("A",), "kd")
        write_json(tmp_path / "a.json", pseudo_to_dict(pd))
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(tmp_path / "a.json"), str(tmp_path / "a.json"), f"--tol={tol}"])
        assert exc.value.code == 2
        assert f"argument --tol: must be a number >= 0, got '{tol}'" in capsys.readouterr().err


class TestUndecodableInput:
    """A file that is not UTF-8 is a ParseError (exit 2), not a traceback."""

    def test_compare(self, tmp_path, capsys):
        write_json(tmp_path / "a.json", _distribution_json())
        (tmp_path / "b.json").write_bytes(b'{"shape": [2], "axes": ["\xff"]}')
        assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
        assert "ParseError" in capsys.readouterr().err
        with pytest.raises(ParseError, match="UTF-8"):
            read_json(tmp_path / "b.json")

    @pytest.mark.parametrize("command", ["reconstruct", "experiment", "ccr"])
    def test_scenario(self, tmp_path, command):
        scen = tmp_path / "scenario.json"
        scen.write_bytes(json.dumps(CCR_SCENARIO).encode()[:-1] + b', "kind\xff": 1}')
        out = tmp_path / "out"
        assert main([command, "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "ParseError"



class TestInputPastTheDecodersLimits:
    """JSON nested past the decoder's recursion limit, or an integer past
    Python's digit limit, is a ParseError (exit 2), not a traceback."""

    @staticmethod
    def check_refused(tmp_path, text, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text(text)
        out = tmp_path / "out"
        assert main(["reconstruct", "--scenario", str(scen), "--out", str(out)]) == 2
        assert read_json(out / "error.json")["error"] == "ParseError"
        assert main(["compare", str(scen), str(scen)]) == 2
        assert "ParseError" in capsys.readouterr().err
        return scen

    def test_nesting(self, tmp_path, capsys):
        scen = self.check_refused(tmp_path, "[" * 200_000, capsys)
        with pytest.raises(ParseError, match="recursion"):
            read_json(scen)

    def test_digits(self, tmp_path, capsys):
        scen = self.check_refused(tmp_path, json.dumps(CCR_SCENARIO).replace("40.0", "1" * 5000),
                                  capsys)
        with pytest.raises(ParseError, match="digits"):
            read_json(scen)
