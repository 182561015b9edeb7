import json

import numpy as np
import pytest

from kdrecon import cv, photonics, scenarios
from kdrecon.cli import main
from kdrecon.core import GRID_CAP
from kdrecon.errors import (
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
    ])
    def test_unfillable_values_rejected(self, entries, shape):
        with pytest.raises(SchemaError):
            complex_array_from_json(entries, shape)


class TestLoadScenario:
    def test_minimal_qubit_scenario(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, QUBIT_SCENARIO))
        assert sc.kind == "discrete-conditional"
        assert sc.seed == 0

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
          "observables": []}, "observables"),
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
        {"kind": "ccr"},
        dict(EXPERIMENT, shots=None, post_index=0),
        EXPERIMENT,
    ])
    def test_grid_past_the_cap_is_size_cap(self, tmp_path, scenario):
        scen = write_scenario(tmp_path, dict(
            scenario, grid={"n": 2 * GRID_CAP, "length": 400.0}, state={"type": "gaussian"}))
        out = tmp_path / "out"
        command = "reconstruct" if scenario["kind"] == "cv-joint" else scenario["kind"]
        assert main([command, "--scenario", str(scen), "--out", str(out),
                     "--emit-oracle"]) == 2
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

    def test_cv_joint_oracle_past_the_cap_builds_nothing(self, size_cap_peak):
        grid = cv.Grid(2 * GRID_CAP, 400.0)
        w = cv.gaussian_state(grid)
        assert size_cap_peak(lambda: _cv_joint_oracle(grid, w, "x-then-p")) < 5 * 2**20

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
], ids=["top-level-list", "shape-int", "shape-str", "shape-float", "shape-bool",
        "shape-negative", "axes-int", "axes-count", "axes-int-entry", "ordering-tag-int",
        "conditioning-int", "conditioning-list", "cell-weight-str", "cell-weight-bool",
        "cell-weight-null"])
def test_compare_rejects_ill_typed_distribution_fields(tmp_path, broken, capsys):
    """A distribution file whose fields have the wrong JSON type is a SchemaError."""
    write_json(tmp_path / "a.json", _distribution_json())
    (tmp_path / "b.json").write_text(json.dumps(broken))
    assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert "SchemaError: pseudo-distribution" in capsys.readouterr().err
    with pytest.raises(SchemaError):
        pseudo_from_dict(broken)


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
