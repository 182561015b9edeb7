"""Array-level artifact writers against the per-cell encoding they replace.

The reference encoders below are the per-cell ones: a list of {re, im} dicts
through json.dumps(indent=2, sort_keys=True), and csv.writer rows with
repr(float(v)).  The writers must produce the same bytes.
"""

import csv
import io
import json

import numpy as np
import pytest

from kdrecon import cv
from kdrecon.cli import main
from kdrecon.oracle import PseudoDistribution
from kdrecon.serialize import (
    pseudo_from_dict,
    pseudo_to_dict,
    read_json,
    write_json,
    write_plot_csv,
    write_pseudo_csv,
)

SPECIALS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.0, -1e-300, 2.0**-1074 * 3]


def reference_json(pd: PseudoDistribution) -> bytes:
    payload = {
        "shape": list(pd.shape),
        "axes": list(pd.axes),
        "ordering_tag": pd.ordering_tag,
        "conditioning": pd.conditioning,
        "cell_weight": pd.cell_weight,
        "values": [{"re": z.real, "im": z.imag} for z in pd.values.ravel().tolist()],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def reference_rows(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


def reference_pseudo_csv(pd: PseudoDistribution) -> bytes:
    rows = ([*idx, repr(float(pd.values[idx].real)), repr(float(pd.values[idx].imag))]
            for idx in np.ndindex(*pd.shape))
    return reference_rows([f"i_{a}" for a in pd.axes] + ["re", "im"], rows)


def reference_plot_csv(columns: dict) -> bytes:
    arrays = [np.asarray(c) for c in columns.values()]
    return reference_rows(list(columns), ([repr(float(v)) for v in row]
                                          for row in zip(*arrays)))


def random_values(shape, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-12, 12, size=shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


def with_specials(values):
    flat = values.ravel().copy()
    n = len(SPECIALS)
    flat.real[:n] = SPECIALS
    flat.imag[:n] = SPECIALS[::-1]
    flat.imag[n:2 * n] = SPECIALS
    return flat.reshape(values.shape)


DISTRIBUTIONS = {
    "1d-conditioned": PseudoDistribution(
        random_values((40,), 1), ("x",), "cv-conditional", conditioning="pixel=3",
        cell_weight=0.0625),
    "2d": PseudoDistribution(random_values((6, 9), 2), ("x", "p"), "cv-x-then-p",
                             cell_weight=0.1 * 0.3),
    "3d-npoint": PseudoDistribution(random_values((3, 4, 5), 3), ("A0", "A1", "A2"), "kd"),
    "specials-2d": PseudoDistribution(with_specials(random_values((5, 8), 4)), ("A", "B"),
                                      "kd-conjugate", conditioning=""),
    "specials-3d": PseudoDistribution(with_specials(random_values((2, 3, 6), 5)),
                                      ("A0", "A1", "A2"), "kd", conditioning="p=0.5"),
    "empty": PseudoDistribution(np.zeros(0), ("A",), "kd"),
}


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_distribution_json_matches_per_cell_encoding(tmp_path, name):
    pd = DISTRIBUTIONS[name]
    path = tmp_path / "d.json"
    write_json(path, pseudo_to_dict(pd))
    assert path.read_bytes() == reference_json(pd)
    back = pseudo_from_dict(read_json(path))
    assert back.values.tobytes() == pd.values.tobytes()
    assert (back.axes, back.ordering_tag, back.conditioning, back.cell_weight) == (
        pd.axes, pd.ordering_tag, pd.conditioning, pd.cell_weight)


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_distribution_csv_matches_per_cell_encoding(tmp_path, name):
    pd = DISTRIBUTIONS[name]
    path = tmp_path / "d.csv"
    write_pseudo_csv(pd, path)
    assert path.read_bytes() == reference_pseudo_csv(pd)


@pytest.mark.parametrize("columns", [
    {"x": np.linspace(-4, 4, 9), "re": np.array(SPECIALS), "im": -np.array(SPECIALS)},
    {"flat_index": np.arange(12), "re": random_values((12,), 6).real,
     "im": random_values((12,), 7).imag},
    {"eigenvalue": [1, -1, 3], "re": [0.5, -0.0, 1e300], "im": np.array([2, 5, 7])},
    {"a": np.zeros(0), "b": np.arange(0)},
], ids=["specials", "int-index", "lists", "empty"])
def test_plot_csv_matches_per_cell_encoding(tmp_path, columns):
    path = tmp_path / "plot.csv"
    write_plot_csv(path, columns)
    assert path.read_bytes() == reference_plot_csv(columns)


def test_payload_without_arrays_is_plain_json(tmp_path):
    payload = {"kind": "ccr", "witness": {"re": -0.0, "im": 1.0},
               "warnings": ["a \"quoted\" line\n  \"values\": null"], "values": None}
    write_json(tmp_path / "d.json", payload)
    assert (tmp_path / "d.json").read_text() == json.dumps(
        payload, indent=2, sort_keys=True) + "\n"


def test_array_written_under_its_sorted_key(tmp_path):
    values = random_values((3,), 8)
    payload = {"z": 1, "values": values, "a": {"values": None}, "b": values[:1]}
    write_json(tmp_path / "d.json", payload)
    as_pairs = {k: ([{"re": z.real, "im": z.imag} for z in v.tolist()]
                    if isinstance(v, np.ndarray) else v) for k, v in payload.items()}
    assert (tmp_path / "d.json").read_text() == json.dumps(
        as_pairs, indent=2, sort_keys=True) + "\n"


def _bits(a):
    return np.asarray(a, dtype=complex).view(np.int64)


def _complex(re, im):
    """re + i*im with the signs of zeros kept (re + 1j*im loses some)."""
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = np.array(re, dtype=float), np.array(im, dtype=float)
    return z


def _csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [list(col) for col in zip(*rows[1:])]


@pytest.mark.parametrize("command, scenario", [
    ("reconstruct", {"kind": "cv-joint", "grid": {"n": 32, "length": 12.0, "hbar": 1.5},
                     "state": {"type": "random-smooth", "seed": 3}, "ordering": "p-then-x"}),
    ("experiment", {"kind": "experiment", "grid": {"n": 32, "length": 14.0},
                    "state": {"type": "random-smooth", "seed": 5}, "epsilon": 0.025,
                    "shots": 100000, "joint": True, "seed": 11}),
])
def test_cli_artifacts_round_trip_bit_exactly(tmp_path, command, scenario):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scen), "--out", str(out), "--emit-oracle"]) == 0
    read_back = {}
    for stem in ("distribution", "oracle"):
        text = (out / f"{stem}.json").read_bytes()
        pd = read_back[stem] = pseudo_from_dict(read_json(out / f"{stem}.json"))
        assert reference_json(pd) == text
        write_json(tmp_path / "again.json", pseudo_to_dict(pd))
        assert (tmp_path / "again.json").read_bytes() == text
        assert reference_pseudo_csv(pd) == (out / f"{stem}.csv").read_bytes()
        _, cols = _csv_columns(out / f"{stem}.csv")
        assert np.array_equal(_bits(_complex(*cols[-2:])), _bits(pd.values.ravel()))
        if stem == "distribution":
            header, cols = _csv_columns(out / "plot.csv")
            assert header == ["x", "p", "re", "im"]
            assert np.array_equal(_bits(_complex(*cols[2:])), _bits(pd.values.ravel()))
    if scenario["kind"] == "cv-joint":
        direct = cv.joint_kd_cv(cv.random_smooth_state(cv.Grid(32, 12.0, 1.5), 3), "p-then-x")
        assert np.array_equal(_bits(read_back["distribution"].values), _bits(direct))
