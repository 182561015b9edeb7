"""Array-level artifact writers against the per-cell encoding they replace.

The reference encoders below are the per-cell ones: a list of {re, im} dicts
through json.dumps(indent=2, sort_keys=True), and csv.writer rows with
repr(float(v)).  The writers must produce the same bytes.
"""

import csv
import io
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from kdrecon import cv, scenarios, serialize
from kdrecon.cli import main
from kdrecon.core import random_observable
from kdrecon.oracle import PseudoDistribution
from kdrecon.scenarios import _phase_space, load_scenario, run_scenario
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
    arrays = [np.asarray(c).ravel() for c in columns.values()]
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
    "length-1-axes": PseudoDistribution(random_values((1, 4, 1), 9), ("A0", "A1", "A2"), "kd"),
    "length-0-axis": PseudoDistribution(np.zeros((3, 0, 2)), ("A0", "A1", "A2"), "kd"),
    "wide-index": PseudoDistribution(random_values((11, 1, 12), 10), ("A0", "A1", "A2"), "kd"),
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


BASE = np.array(SPECIALS + [1.5, -2.25])


@pytest.mark.parametrize("columns", [
    {"x": np.broadcast_to(BASE[:, None], (len(BASE), 3)),
     "p": np.broadcast_to(-BASE[:3], (len(BASE), 3)),
     "re": random_values((len(BASE), 3), 11).real, "im": np.zeros((len(BASE), 3))},
    {"a": np.broadcast_to(BASE, (2, len(BASE))), "b": np.broadcast_to(BASE[::-1], (2, len(BASE)))},
    {"c": np.broadcast_to(np.float64(np.nan), (5,)), "d": np.broadcast_to(-0.0, (1, 5))},
    {"e": np.broadcast_to(BASE[:, None, None], (len(BASE), 2, 3)).transpose(2, 0, 1),
     "f": np.broadcast_to(np.arange(3.0)[:, None, None], (3, len(BASE), 2))},
    {"g": np.broadcast_to(BASE[:, None], (len(BASE), 0)), "h": np.zeros((len(BASE), 0))},
], ids=["phase-space", "row", "scalar", "3d-transposed", "empty"])
def test_broadcast_plot_columns_match_per_cell_encoding(tmp_path, columns):
    """A stride-0 column is formatted from its base, with the same bytes."""
    assert any(0 in np.asarray(c).strides for c in columns.values())
    path = tmp_path / "plot.csv"
    write_plot_csv(path, columns)
    assert path.read_bytes() == reference_plot_csv(columns)


def test_broadcast_array_json_matches_per_cell_encoding(tmp_path):
    """JSON's NaN/Infinity spellings apply to the base of a broadcast array."""
    base = with_specials(random_values((len(SPECIALS) * 2,), 12))
    values = np.broadcast_to(base, (3, base.size))
    write_json(tmp_path / "d.json", {"values": values})
    expected = json.dumps({"values": [{"re": z.real, "im": z.imag}
                                      for z in values.ravel().tolist()]},
                          indent=2, sort_keys=True)
    assert (tmp_path / "d.json").read_text() == expected + "\n"


@pytest.mark.parametrize("lengths", [(5, 3), (3, 5, 5), (4, 0)])
def test_unequal_plot_columns_refused(tmp_path, lengths):
    columns = {f"c{i}": np.arange(float(m)) for i, m in enumerate(lengths)}
    with pytest.raises(ValueError, match="differ in length"):
        write_plot_csv(tmp_path / "plot.csv", columns)
    assert not (tmp_path / "plot.csv").exists()


def test_empty_plot_refused(tmp_path):
    with pytest.raises(ValueError, match="at least one column"):
        write_plot_csv(tmp_path / "plot.csv", {})
    assert not (tmp_path / "plot.csv").exists()


def test_phase_space_plot_formats_each_coordinate_once(tmp_path, monkeypatch):
    n = 32
    grid = cv.Grid(n, 12.0)
    values = random_values((n, n), 13)
    formatted = []

    def counting(data):
        formatted.append(len(data) // 8)
        return tuple(map(float.__repr__, np.frombuffer(data).tolist()))

    monkeypatch.setattr(serialize, "_float_reprs", counting)
    write_plot_csv(tmp_path / "plot.csv", _phase_space(grid, values, "x-then-p")[1])
    assert sorted(formatted) == [n, n, n * n, n * n]  # x, p, then re and im
    x, p = np.meshgrid(grid.x, grid.p, indexing="ij")
    assert (tmp_path / "plot.csv").read_bytes() == reference_plot_csv(
        {"x": x, "p": p, "re": values.real, "im": values.imag})


CHUNK = serialize.CHUNK_ROWS
# value counts around the chunk edges, each with a 2-D factorization
EDGE_SHAPES = {CHUNK - 1: (63, 65), CHUNK: (64, 64), CHUNK + 1: (17, 241),
               3 * CHUNK + 5: (19, 647)}
assert all(a * b == size for size, (a, b) in EDGE_SHAPES.items())


@pytest.mark.parametrize("size", sorted(EDGE_SHAPES))
@pytest.mark.parametrize("rank", [1, 2])
def test_chunk_edges_match_per_cell_encoding(tmp_path, size, rank):
    """Rows are written CHUNK_ROWS at a time; the bytes do not show where."""
    shape = (size,) if rank == 1 else EDGE_SHAPES[size]
    pd = PseudoDistribution(with_specials(random_values(shape, size + rank)),
                            ("x", "p")[:rank], "cv-x-then-p", cell_weight=0.5)
    write_json(tmp_path / "d.json", pseudo_to_dict(pd))
    assert (tmp_path / "d.json").read_bytes() == reference_json(pd)
    write_pseudo_csv(pd, tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes() == reference_pseudo_csv(pd)
    if rank == 1:
        columns = {"x": np.linspace(-3.0, 3.0, size), "re": pd.values.real,
                   "im": pd.values.imag}
    else:  # broadcast coordinates, as a phase-space plot has
        a, b = (np.linspace(-1.0, 1.0, m) for m in shape)
        columns = {"a": np.broadcast_to(a[:, None], shape), "b": np.broadcast_to(b, shape),
                   "re": pd.values.real, "im": pd.values.imag}
    write_plot_csv(tmp_path / "plot.csv", columns)
    assert (tmp_path / "plot.csv").read_bytes() == reference_plot_csv(columns)


def _cv_joint_scenario(tmp_path, n):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "cv-joint", "grid": {"n": n, "length": 12.0},
                                "state": {"type": "random-smooth", "seed": n}}))
    return load_scenario(path)


def test_run_formats_each_stored_float_once(tmp_path, monkeypatch):
    """The result's re and im are formatted for its JSON file and re-used by
    its CSV and plot files, and the oracle's by its CSV file."""
    n = 32
    formatted = []
    original = serialize._float_reprs

    def counting(data):
        formatted.append(len(data) // 8)
        return original(data)

    monkeypatch.setattr(serialize, "_float_reprs", counting)
    run_scenario(_cv_joint_scenario(tmp_path, n), tmp_path / "out", emit_oracle=True)
    # x, p, then the result's and the oracle's re and im
    assert sorted(formatted) == [n, n, n * n, n * n, n * n, n * n]


def test_scope_shares_each_array_and_bare_writers_format_their_own(tmp_path, monkeypatch):
    """Inside shared_reprs() the JSON, CSV and plot writers format a
    distribution's re and im once; outside it each writer formats its own."""
    pd = PseudoDistribution(random_values((8,), 21), ("x",), "cv-conditional")
    plot = {"x": np.arange(8.0), "re": pd.values.real, "im": pd.values.imag}
    formatted = []
    original = serialize._float_reprs

    def counting(data):
        formatted.append(len(data) // 8)
        return original(data)

    monkeypatch.setattr(serialize, "_float_reprs", counting)

    def write_all():
        write_json(tmp_path / "d.json", pseudo_to_dict(pd))
        write_pseudo_csv(pd, tmp_path / "d.csv")
        write_plot_csv(tmp_path / "plot.csv", plot)

    with serialize.shared_reprs():
        write_all()
    assert len(formatted) == 3  # im, re, then the x column
    assert not hasattr(serialize._SCOPE, "reprs")
    formatted.clear()
    write_all()
    assert len(formatted) == 7  # 2 for the JSON file, 2 for the CSV file, 3 for the plot
    assert (tmp_path / "d.json").read_bytes() == reference_json(pd)
    assert (tmp_path / "d.csv").read_bytes() == reference_pseudo_csv(pd)
    assert (tmp_path / "plot.csv").read_bytes() == reference_plot_csv(plot)


def _held_after(call) -> int:
    """Bytes still traced after ``call()`` has returned or raised."""
    tracemalloc.start()
    try:
        try:
            call()
        except OSError:
            pass
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "writer-raises"])
def test_run_keeps_no_strings_after_it_ends(tmp_path, monkeypatch, fail):
    """An n=256 run formats 4 x 65,536 floats (about 5 MB of strings each);
    none of them outlive it, also when a writer raises inside a filled scope."""
    run_scenario(_cv_joint_scenario(tmp_path, 32), tmp_path / "warm", emit_oracle=True)
    sc = _cv_joint_scenario(tmp_path, 256)
    if fail:
        def refuse(path, columns):
            raise OSError("disk full")
        monkeypatch.setattr(scenarios, "write_plot_csv", refuse)
    held = _held_after(lambda: run_scenario(sc, tmp_path / "out", emit_oracle=True))
    assert (tmp_path / "out" / "distribution.csv").exists()
    assert held < 1e6


def _joint(n):
    grid = cv.Grid(n, 24.0)
    return _phase_space(grid, cv.joint_kd_cv(cv.random_smooth_state(grid, 5)), "x-then-p")[0]


def test_bare_write_keeps_no_strings(tmp_path):
    """A 512 x 512 distribution's re and im parts make about 43 MB of strings;
    a write_json called outside any scope keeps none of them."""
    pd = _joint(512)
    held = _held_after(lambda: write_json(tmp_path / "d.json", pseudo_to_dict(pd)))
    assert (tmp_path / "d.json").stat().st_size > 2 * pd.values.size * 10
    assert held < 1e6


def test_error_in_a_scope_drops_its_strings(tmp_path):
    pd = _joint(256)

    def write_then_fail():
        with serialize.shared_reprs():
            write_json(tmp_path / "d.json", pseudo_to_dict(pd))
            assert len(serialize._SCOPE.reprs) == 2  # the re and im strings, held
            raise OSError("disk full")

    assert _held_after(write_then_fail) < 1e6
    assert not hasattr(serialize._SCOPE, "reprs")


def test_threads_writing_at_once_each_write_their_own_bytes(tmp_path):
    """Four threads write small distributions, bare and inside a scope, with
    the interpreter switching threads every microsecond: no write raises,
    and each thread's files hold its own distribution."""
    calls = 3000
    pds = [PseudoDistribution(random_values((4,), 30 + t), ("A",), "kd") for t in range(4)]
    errors = []

    def work(t):
        out = tmp_path / f"t{t}"
        out.mkdir()
        expected = reference_json(pds[t]), reference_pseudo_csv(pds[t])
        try:
            for i in range(calls):
                if i % 2:
                    scenarios._write_distribution(out, pds[t])
                    assert (out / "distribution.csv").read_bytes() == expected[1]
                    assert (out / "distribution.json").read_bytes() == expected[0]
                else:
                    write_json(out / "bare.json", pseudo_to_dict(pds[t]))
                    assert (out / "bare.json").read_bytes() == expected[0]
        except Exception as exc:  # reported below, with its thread and call
            errors.append((t, i, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


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


@pytest.mark.parametrize("scenario", [
    {"kind": "cv-joint", "grid": {"n": 32, "length": 12.0, "hbar": 1.5},
     "state": {"type": "random-smooth", "seed": 3}},
    {"kind": "discrete-joint", "state": {"random": {"dim": 5, "seed": 1}},
     "observable_a": {"random": {"dim": 5, "seed": 2}},
     "observable_b": {"random": {"dim": 5, "seed": 3}}},
], ids=["cv-joint", "discrete-joint"])
def test_cli_plot_coordinates_are_the_meshgrid(tmp_path, scenario):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert main(["reconstruct", "--scenario", str(scen), "--out", str(out)]) == 0
    if scenario["kind"] == "cv-joint":
        grid = cv.Grid(32, 12.0, 1.5)
        names, coords = ["x", "p"], (grid.x, grid.p)
    else:
        names = ["a", "b"]
        coords = [random_observable(5, seed).eigenvalues for seed in (2, 3)]
    header, cols = _csv_columns(out / "plot.csv")
    assert header == names + ["re", "im"]
    for col, mesh in zip(cols, np.meshgrid(*coords, indexing="ij")):
        assert col == [repr(float(v)) for v in mesh.ravel()]
