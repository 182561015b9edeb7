"""Scenario files: schema validation, object construction, and orchestration.

A scenario is a JSON object with a ``kind`` selecting the pipeline; unknown
keys anywhere in the file are rejected by name so typos fail loudly.  Each
kind has one builder (``_KINDS``): it checks and builds every object the kind
refers to, once, at load time, and returns the closure that runs the kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import cv, photonics
from .core import (
    ObservableSpec,
    QuantumState,
    pauli_spec,
    random_observable,
    random_state,
    require_grid_size,
)
from .errors import OrderingTagMismatch, SchemaError, ShapeMismatch, SizeCap
from .moments import correlation_matrix, correlation_tensor, moment_vector
from .oracle import (
    PseudoDistribution,
    kd_conditional,
    kd_joint,
    kd_npoint,
    postselection_probability,
)
from .reconstruct import (
    conditional_from_moments,
    joint_from_correlations,
    npoint_from_correlations,
)
from .serialize import (
    complex_array_from_json,
    pseudo_from_dict,
    pseudo_to_dict,
    read_json,
    release_reprs,
    write_json,
    write_plot_csv,
    write_pseudo_csv,
)
from .vandermonde import MAX_ORDERS

_MISSING = object()  # a required key that is absent


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: ``run(seed, diag)`` does the kind's work on objects
    built at load time, extends ``diag`` and returns (result, plot columns, a
    callable that builds the oracle), or None for a kind that writes none."""

    kind: str
    seed: int
    run: Callable[[int, dict], tuple | None]

    def __post_init__(self):
        if type(self.seed) is not int or not 0 <= self.seed < photonics.SEED_LIMIT:
            raise SchemaError(f"seed must be an integer in [0, 2^63), got {self.seed!r}")


def _number(value, name: str, kind: type = float, minimum=None):
    """A scenario number, checked and never coerced: an int for ``kind=int``,
    else a finite int or float, returned as a float.  A bool, a string, a
    missing key or a value below ``minimum`` is a SchemaError."""
    if value is _MISSING:
        raise SchemaError(f"missing required key {name!r}")
    ok = type(value) is int or (kind is float and type(value) is float and np.isfinite(value))
    if not ok or (minimum is not None and value < minimum):
        need = "an integer" if kind is int else "a finite number"
        need += "" if minimum is None else f" >= {minimum}"
        raise SchemaError(f"{name} must be {need}, got {value!r}")
    return kind(value)


def _check_keys(obj: dict, allowed, context: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{context} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown key {sorted(unknown)[0]!r} in {context}")


def load_scenario(path) -> Scenario:
    """Check a scenario file and build every object it refers to, so a bad
    spec fails at load time; the returned Scenario runs on those objects."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise SchemaError("scenario must be a JSON object")
    kind = raw.get("kind")
    if kind not in _KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
    required, optional, build = _KINDS[kind]
    _check_keys(raw, {"kind", "seed"} | required | set(optional), "scenario")
    missing = required - set(raw)
    if missing:
        raise SchemaError(f"missing required key {sorted(missing)[0]!r} for kind {kind}")
    return Scenario(kind, raw.get("seed", 0), build({**optional, **raw}))


# -- input object builders ---------------------------------------------------

def _random_args(spec, context: str):
    """(dim, seed) of a seeded random state or observable."""
    _check_keys(spec, {"dim", "seed"}, context)
    return (_number(spec.get("dim", _MISSING), f"{context}.dim", int, minimum=1),
            _number(spec.get("seed", 0), f"{context}.seed", int, minimum=0))


def _build_state(spec, context="state") -> QuantumState:
    _check_keys(spec, {"amplitudes", "random"}, context)
    if "amplitudes" in spec:
        amps = spec["amplitudes"]
        if type(amps) is not list:
            raise SchemaError(f"{context}.amplitudes must be a list of {{re, im}} pairs")
        return QuantumState.normalized(complex_array_from_json(amps, (len(amps),)))
    if "random" in spec:
        return random_state(*_random_args(spec["random"], f"{context}.random"))
    raise SchemaError(f"{context} needs 'amplitudes' or 'random'")


def _build_observable(spec, context="observable") -> ObservableSpec:
    _check_keys(spec, {"pauli", "eigenvalues", "eigenvectors", "random", "label"}, context)
    label = spec.get("label")
    if label is not None and not isinstance(label, str):
        raise SchemaError(f"{context}.label must be a string, got {label!r}")
    if "pauli" in spec:
        if spec["pauli"] not in ("x", "y", "z"):
            raise SchemaError(f"{context}.pauli must be 'x', 'y' or 'z', got {spec['pauli']!r}")
        return pauli_spec(spec["pauli"], label=label)
    if "random" in spec:
        return random_observable(*_random_args(spec["random"], f"{context}.random"),
                                 label=label or "A")
    if "eigenvalues" in spec and "eigenvectors" in spec:
        if type(spec["eigenvalues"]) is not list:
            raise SchemaError(f"{context}.eigenvalues must be a list of numbers")
        vals = [_number(v, f"{context}.eigenvalues[{i}]")
                for i, v in enumerate(spec["eigenvalues"])]
        cols = spec["eigenvectors"]
        if type(cols) is not list or not cols:
            raise SchemaError(f"{context}.eigenvectors must be a non-empty list of columns")
        vecs = np.stack([complex_array_from_json(col, (len(vals),)) for col in cols], axis=1)
        return ObservableSpec(vals, vecs, label=label or "A")
    raise SchemaError(f"{context} needs 'pauli', 'random', or eigenvalues+eigenvectors")


def _build_grid(spec) -> cv.Grid:
    _check_keys(spec, {"n", "length", "hbar"}, "grid")
    n = _number(spec.get("n", _MISSING), "grid.n", int)
    length = _number(spec.get("length", _MISSING), "grid.length")
    try:
        return cv.Grid(n, length, _number(spec.get("hbar", 1.0), "grid.hbar"))
    except ValueError as exc:
        raise SchemaError(f"invalid grid: {exc}") from exc


def _build_cv_state(spec, grid: cv.Grid) -> cv.WaveFunction:
    _check_keys(
        spec,
        {"type", "center", "momentum", "width", "n", "separation", "phase", "seed", "modes"},
        "state",
    )
    state_type = spec.get("type")

    def get(key, default=_MISSING, kind=float, minimum=None):
        return _number(spec.get(key, default), f"state.{key}", kind, minimum)

    if state_type == "gaussian":
        return cv.gaussian_state(
            grid, center=get("center", 0.0), momentum=get("momentum", 0.0), width=get("width", 1.0)
        )
    if state_type == "hermite":
        return cv.hermite_state(grid, get("n", kind=int, minimum=0), width=get("width", 1.0))
    if state_type == "two-peak":
        return cv.two_peak_state(grid, separation=get("separation", 4.0),
                                 width=get("width", 1.0), phase=get("phase", 0.0))
    if state_type == "random-smooth":
        return cv.random_smooth_state(
            grid, get("seed", 0, int, minimum=0), modes=get("modes", 6, int, minimum=1)
        )
    raise SchemaError(f"unknown cv state type {state_type!r}")


def _discrete_pair(p: dict):
    """The state and the two observables of a discrete conditional or joint."""
    return (_build_state(p["state"]), _build_observable(p["observable_a"], "observable_a"),
            _build_observable(p["observable_b"], "observable_b"))


def _cv_inputs(p: dict):
    grid = _build_grid(p["grid"])
    return grid, _build_cv_state(p["state"], grid)


def _index(p: dict, key: str, size: int) -> int:
    """p[key] as an outcome or grid index, refused outside [0, size)."""
    if type(p[key]) is not int or not 0 <= p[key] < size:
        raise SchemaError(f"{key} must be an integer in [0, {size}), got {p[key]!r}")
    return p[key]


# -- orchestration -----------------------------------------------------------

def _write_distribution(out: Path, pd: PseudoDistribution, stem="distribution"):
    write_json(out / f"{stem}.json", pseudo_to_dict(pd))
    write_pseudo_csv(pd, out / f"{stem}.csv")


def _plot_columns_1d(coords, values, coord_name="x"):
    return {coord_name: coords, "re": np.real(values), "im": np.imag(values)}


def _plot_columns_2d(coords_a, coords_b, values, names):
    """Columns over the (a, b) grid in row-major order; the coordinates are
    broadcast views, so write_plot_csv formats each coordinate once."""
    shape = (len(coords_a), len(coords_b))
    return {names[0]: np.broadcast_to(np.asarray(coords_a)[:, None], shape),
            names[1]: np.broadcast_to(coords_b, shape),
            "re": values.real, "im": values.imag}


def _cv_conditional(grid: cv.Grid, q: np.ndarray, conditioning: str,
                    axis: str = "x") -> PseudoDistribution:
    """Conditional over x, or over p (the p-then-x experiment), weighted per cell."""
    return PseudoDistribution(
        q, (axis,), ordering_tag="cv-conditional", conditioning=conditioning,
        cell_weight=grid.dx if axis == "x" else grid.dp,
    )


def _phase_space(grid: cv.Grid, values: np.ndarray, ordering: str):
    """(x, p) pseudo-distribution and its plot columns."""
    pd = PseudoDistribution(
        values, ("x", "p"), ordering_tag=f"cv-{ordering}", cell_weight=grid.dx * grid.dp
    )
    return pd, _plot_columns_2d(grid.x, grid.p, values, ("x", "p"))


# Kind builders: checked params -> run(seed, diag), on objects built here.

def _build_discrete_conditional(p: dict):
    orders = p["moment_orders"]
    if orders is not None and _number(orders, "moment_orders", int, minimum=1) > MAX_ORDERS:
        raise SizeCap(f"moment_orders {orders} exceeds the cap of {MAX_ORDERS}")
    psi, a, b = _discrete_pair(p)
    j = _index(p, "postselect_index", b.dim)  # an eigenvector of observable_b

    def run(seed, diag):
        mv = moment_vector(a, psi, QuantumState(b.eigenvector(j)), orders=orders)
        result = conditional_from_moments(a, mv, renormalize=p["renormalize"])
        diag["postselection_probability"] = postselection_probability(psi, b, j)
        return (result, _plot_columns_1d(a.eigenvalues, result.values, "eigenvalue"),
                lambda: kd_conditional(psi, a, b, j))
    return run


def _build_discrete_joint(p: dict):
    psi, a, b = _discrete_pair(p)

    def oracle():
        k = kd_joint(psi, a, b)
        return PseudoDistribution(np.conj(k.values), k.axes, ordering_tag="kd-conjugate")

    def run(seed, diag):
        c = correlation_matrix(a, b, psi)
        result = joint_from_correlations(a, b, c, renormalize=p["renormalize"])
        plot = _plot_columns_2d(a.eigenvalues, b.eigenvalues, result.values, ("a", "b"))
        return result, plot, oracle
    return run


def _build_discrete_npoint(p: dict):
    psi, obs = _build_state(p["state"]), p["observables"]
    if not isinstance(obs, list) or not obs:
        raise SchemaError(f"observables must be a non-empty list, got {obs!r}")
    obs = [_build_observable(o, f"observables[{i}]") for i, o in enumerate(obs)]

    def run(seed, diag):
        c = correlation_tensor(obs, psi)
        result = npoint_from_correlations(obs, c, renormalize=p["renormalize"])
        flat = result.values.ravel()
        plot = _plot_columns_1d(np.arange(flat.size), flat, "flat_index")
        return result, plot, lambda: kd_npoint(psi, obs)
    return run


def _build_cv_conditional(p: dict):
    grid, w = _cv_inputs(p)
    ip = _index(p, "post_momentum_index", grid.n)

    def run(seed, diag):
        z = cv.weak_char_fn(w, grid.p[ip])
        q = cv.conditional_pseudo_cv(z)
        diag["post_momentum"] = float(grid.p[ip])
        result = _cv_conditional(grid, q, z.conditioning)
        return result, _plot_columns_1d(grid.x, q), lambda: _cv_conditional_oracle(grid, w, ip)
    return run


def _build_cv_joint(p: dict):
    ordering = p["ordering"]
    if ordering not in cv.ORDERINGS:
        raise SchemaError(f"ordering must be one of {cv.ORDERINGS}, got {ordering!r}")
    grid, w = _cv_inputs(p)

    def run(seed, diag):
        result, plot = _phase_space(grid, cv.joint_kd_cv(w, ordering), ordering)
        return result, plot, lambda: _cv_joint_oracle(grid, w, ordering)
    return run


def _build_experiment(p: dict):
    grid, w = _cv_inputs(p)
    post, mode = p["post_index"], p["mode"]
    if post is not None:
        _index(p, "post_index", grid.n)  # a camera pixel
    shots = None if p["shots"] is None else _number(p["shots"], "shots", int, minimum=1)
    epsilon = _number(p["epsilon"], "epsilon")
    min_counts = _number(p["min_counts"], "min_counts", int, minimum=1)
    try:
        photonics.require_settings(grid, epsilon, mode, post)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    if post is None and not p["joint"]:
        raise SchemaError("experiment scenario needs post_index or joint=true")

    def run(seed, diag):
        res = photonics.run_reconstruction(w, epsilon=epsilon, shots=shots, seed=seed, mode=mode,
                                           post_index=post, joint=bool(p["joint"]),
                                           min_counts=min_counts)
        diag.update(epsilon=epsilon, shots=shots, mode=mode)
        diag["post_selection_rates"] = [float(r) for r in res.rates]
        if post is not None:
            axis = "x" if mode == "x-then-p" else "p"
            result = _cv_conditional(grid, res.conditional, f"pixel={post}", axis)
            diag["conditional_standard_error"] = float(res.conditional_se[0])
            coords = grid.x if axis == "x" else grid.p
            return (result, _plot_columns_1d(coords, res.conditional),
                    lambda: _cv_conditional_oracle(grid, w, post, axis))
        result, plot = _phase_space(grid, res.joint, mode)
        return result, plot, lambda: _phase_space(grid, cv.joint_kd_cv(w, mode), mode)[0]
    return run


def _build_ccr(p: dict):
    grid, w = _cv_inputs(p)

    def run(seed, diag):
        witness = cv.ccr_witness(w)
        diag["witness"] = {"re": witness.real, "im": witness.imag}
        diag["expected"] = {"re": 0.0, "im": grid.hbar}
        return None
    return run


# kind -> (required keys, optional keys with their defaults, builder)
_KINDS = {
    "discrete-conditional": ({"state", "observable_a", "observable_b", "postselect_index"},
                             {"moment_orders": None, "renormalize": False},
                             _build_discrete_conditional),
    "discrete-joint": ({"state", "observable_a", "observable_b"}, {"renormalize": False},
                       _build_discrete_joint),
    "discrete-npoint": ({"state", "observables"}, {"renormalize": False},
                        _build_discrete_npoint),
    "cv-conditional": ({"grid", "state", "post_momentum_index"}, {}, _build_cv_conditional),
    "cv-joint": ({"grid", "state"}, {"ordering": "x-then-p"}, _build_cv_joint),
    "experiment": ({"grid", "state", "epsilon", "shots"},
                   {"mode": "x-then-p", "post_index": None, "joint": False, "min_counts": 100},
                   _build_experiment),
    "ccr": ({"grid", "state"}, {}, _build_ccr),
}
KINDS = tuple(_KINDS)


def run_scenario(sc: Scenario, out_dir, emit_oracle: bool = False) -> dict:
    """Execute the scenario's reconstruction pipeline; write artifacts; return
    a diagnostics dict (also written to diagnostics.json)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    diag = {"kind": sc.kind, "seed": sc.seed}
    outputs = sc.run(sc.seed, diag)
    try:
        if outputs is not None:
            result, plot, oracle = outputs
            oracle_pd = oracle() if emit_oracle else None
            total = result.total
            diag["sum"] = {"re": total.real, "im": total.imag}
            diag["sum_deviation"] = abs(total - 1.0)
            _write_distribution(out, result)
            write_plot_csv(out / "plot.csv", plot)
            if oracle_pd is not None:
                _write_distribution(out, oracle_pd, stem="oracle")
        write_json(out / "diagnostics.json", diag)
    finally:
        release_reprs()  # the formatted strings of this run's arrays
    return diag


def _cv_conditional_oracle(grid: cv.Grid, w: cv.WaveFunction, index: int,
                           axis: str = "x") -> PseudoDistribution:
    """Weak-valued position projector <p|x><x|psi>/<p|psi> on the grid, for p
    at ``index``; over p (the p-then-x experiment) the momentum projector
    <x|p><p|psi>/<x|psi> for x at ``index``."""
    psi_p = cv.to_momentum(w)
    if axis == "x":
        bra_p_x = np.exp(-1j * grid.p[index] * grid.x / grid.hbar) / np.sqrt(2 * np.pi * grid.hbar)
        return _cv_conditional(grid, bra_p_x * w.samples / psi_p[index], f"p={grid.p[index]:.6g}")
    bra_x_p = np.exp(1j * grid.x[index] * grid.p / grid.hbar) / np.sqrt(2 * np.pi * grid.hbar)
    return _cv_conditional(grid, bra_x_p * psi_p / w.samples[index], f"x={grid.x[index]:.6g}",
                           "p")


def _cv_joint_oracle(grid: cv.Grid, w: cv.WaveFunction, ordering: str) -> PseudoDistribution:
    """K(x, p) by the characteristic-function route, independent of joint_kd_cv.

    T[k, p] = psi~(p - hbar k) conj(psi~(p)) is Z(k | p) times the
    post-selection density |psi~(p)|^2, so its inverse transform over k is
    <p|x><x|psi><psi|p> with no division.  hbar*k_m is (m - n/2) momentum
    steps, so the shift is an exact (periodic) index offset.  The table is
    gathered and weighted in place, so at most two n x n complex arrays, the
    table and its transform, are held at once.
    """
    n = grid.n
    require_grid_size(n)
    psi_p = cv.to_momentum(w)
    index = np.add.outer(n // 2 - np.arange(n), np.arange(n))  # p - shift, row by row
    index %= n
    table = psi_p[index]
    del index
    table *= psi_p.conj()
    k = cv.inverse_char_transform(table, grid.dk)
    if ordering == "p-then-x":
        np.conjugate(k, out=k)
    return _phase_space(grid, k, ordering)[0]


def compare_distributions(path_a, path_b, tol: float) -> dict:
    """Elementwise diff of two pseudo-distribution JSON files."""
    a = pseudo_from_dict(read_json(path_a))
    b = pseudo_from_dict(read_json(path_b))
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    if a.ordering_tag != b.ordering_tag:
        raise OrderingTagMismatch(
            f"ordering tags differ: {a.ordering_tag!r} vs {b.ordering_tag!r}"
        )
    delta = np.abs(a.values - b.values)
    max_delta = float(np.max(delta)) if delta.size else 0.0
    report = {"max_delta": max_delta, "tol": tol, "pass": bool(max_delta <= tol)}
    if not report["pass"]:
        worst = np.unravel_index(int(np.argmax(delta)), delta.shape)
        failing = ~(delta <= tol)  # a NaN delta fails too
        report["entries"] = [
            {"index": index, "a": {"re": ar, "im": ai}, "b": {"re": br, "im": bi}, "delta": d}
            for index, ar, ai, br, bi, d in zip(
                np.argwhere(failing).tolist(),
                a.values.real[failing].tolist(), a.values.imag[failing].tolist(),
                b.values.real[failing].tolist(), b.values.imag[failing].tolist(),
                delta[failing].tolist(),
            )
        ]
        report["worst_index"] = [int(v) for v in worst]
    return report
