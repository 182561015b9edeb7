"""Scenario files: schema validation, object construction, and orchestration.

A scenario is a JSON object with a ``kind`` selecting the pipeline; unknown
keys anywhere in the file are rejected by name so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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
    write_json,
    write_plot_csv,
    write_pseudo_csv,
)
from .vandermonde import MAX_ORDERS

_COMMON_KEYS = {"kind", "seed"}
_MISSING = object()  # a required key that is absent

_KIND_KEYS = {
    "discrete-conditional": {
        "required": {"state", "observable_a", "observable_b", "postselect_index"},
        "optional": {"moment_orders": None, "renormalize": False},
        "index": "postselect_index",  # an eigenvector of observable_b
    },
    "discrete-joint": {
        "required": {"state", "observable_a", "observable_b"},
        "optional": {"renormalize": False},
    },
    "discrete-npoint": {
        "required": {"state", "observables"},
        "optional": {"renormalize": False},
    },
    "cv-conditional": {
        "required": {"grid", "state", "post_momentum_index"},
        "optional": {},
        "index": "post_momentum_index",  # a grid point, as is post_index
    },
    "cv-joint": {
        "required": {"grid", "state"},
        "optional": {"ordering": "x-then-p"},
        "choices": {"ordering": cv.ORDERINGS},
    },
    "experiment": {
        "required": {"grid", "state", "epsilon", "shots"},
        "optional": {
            "mode": "x-then-p",
            "post_index": None,
            "joint": False,
            "min_counts": 100,
        },
        "choices": {"mode": cv.ORDERINGS},
        "index": "post_index",
    },
    "ccr": {"required": {"grid", "state"}, "optional": {}},
}


@dataclass(frozen=True)
class Scenario:
    kind: str
    params: dict
    seed: int

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


def _validated(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise SchemaError("scenario must be a JSON object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}, got {kind!r}")
    spec = _KIND_KEYS[kind]
    allowed = _COMMON_KEYS | spec["required"] | set(spec["optional"])
    _check_keys(raw, allowed, "scenario")
    missing = spec["required"] - set(raw)
    if missing:
        raise SchemaError(f"missing required key {sorted(missing)[0]!r} for kind {kind}")
    params = {k: v for k, v in raw.items() if k not in _COMMON_KEYS}
    for key, default in spec["optional"].items():
        params.setdefault(key, default)
    for key, choices in spec.get("choices", {}).items():
        if params[key] not in choices:
            raise SchemaError(f"{key} must be one of {choices}, got {params[key]!r}")
    return Scenario(kind=kind, params=params, seed=raw.get("seed", 0))


def load_scenario(path) -> Scenario:
    scenario = _validated(read_json(path))
    # eagerly construct every referenced object so bad specs fail at load time
    _build_inputs(scenario)
    return scenario


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


def _build_inputs(sc: Scenario) -> dict:
    p = sc.params
    if p.get("moment_orders") is not None:
        if _number(p["moment_orders"], "moment_orders", int, minimum=1) > MAX_ORDERS:
            raise SizeCap(f"moment_orders {p['moment_orders']} exceeds the cap of {MAX_ORDERS}")
    built = {}
    if sc.kind.startswith("discrete"):
        built["state"] = _build_state(p["state"])
        if sc.kind == "discrete-npoint":
            obs = p["observables"]
            if not isinstance(obs, list) or not obs:
                raise SchemaError(f"observables must be a non-empty list, got {obs!r}")
            built["observables"] = [
                _build_observable(o, f"observables[{i}]") for i, o in enumerate(obs)
            ]
        else:
            built["observable_a"] = _build_observable(p["observable_a"], "observable_a")
            built["observable_b"] = _build_observable(p["observable_b"], "observable_b")
    else:
        built["grid"] = _build_grid(p["grid"])
        built["state"] = _build_cv_state(p["state"], built["grid"])
    key = _KIND_KEYS[sc.kind].get("index")
    if key is not None and p[key] is not None:
        size = built["grid"].n if "grid" in built else built["observable_b"].dim
        if type(p[key]) is not int or not 0 <= p[key] < size:
            raise SchemaError(f"{key} must be an integer in [0, {size}), got {p[key]!r}")
    if sc.kind == "experiment":
        _check_experiment(p, built["grid"])
    return built


def _check_experiment(p: dict, grid: cv.Grid):
    if p["shots"] is not None:
        _number(p["shots"], "shots", int, minimum=1)
        if grid.n > photonics.STREAM_BASE:
            raise SchemaError(f"a shot-level experiment takes grid n <= {photonics.STREAM_BASE}")
    # sin(2 epsilon) > 0 normalizes every asymmetry
    if not 0 < _number(p["epsilon"], "epsilon") < np.pi / 2:
        raise SchemaError(f"epsilon must be a number in (0, pi/2), got {p['epsilon']!r}")
    _number(p["min_counts"], "min_counts", int, minimum=1)
    if p["post_index"] is None and not p["joint"]:
        raise SchemaError("experiment scenario needs post_index or joint=true")


# -- orchestration -----------------------------------------------------------

def _write_distribution(out: Path, pd: PseudoDistribution, stem="distribution"):
    write_json(out / f"{stem}.json", pseudo_to_dict(pd))
    write_pseudo_csv(pd, out / f"{stem}.csv")


def _plot_columns_1d(coords, values, coord_name="x"):
    return {coord_name: coords, "re": np.real(values), "im": np.imag(values)}


def _plot_columns_2d(coords_a, coords_b, values, names):
    aa, bb = np.meshgrid(coords_a, coords_b, indexing="ij")
    return {names[0]: aa.ravel(), names[1]: bb.ravel(),
            "re": values.real.ravel(), "im": values.imag.ravel()}


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


# Runners: (scenario, built inputs, diagnostics dict to extend) -> (result,
# plot columns, oracle or None), or None for a kind that writes no distribution.

def _run_discrete_conditional(sc: Scenario, built: dict, diag: dict):
    p = sc.params
    psi, a, b = built["state"], built["observable_a"], built["observable_b"]
    j = p["postselect_index"]
    mv = moment_vector(a, psi, QuantumState(b.eigenvector(j)), orders=p["moment_orders"])
    result = conditional_from_moments(a, mv, renormalize=p["renormalize"])
    oracle_pd = kd_conditional(psi, a, b, j)
    diag["postselection_probability"] = postselection_probability(psi, b, j)
    return result, _plot_columns_1d(a.eigenvalues, result.values, "eigenvalue"), oracle_pd


def _run_discrete_joint(sc: Scenario, built: dict, diag: dict):
    psi, a, b = built["state"], built["observable_a"], built["observable_b"]
    c = correlation_matrix(a, b, psi)
    result = joint_from_correlations(a, b, c, renormalize=sc.params["renormalize"])
    k = kd_joint(psi, a, b)
    oracle_pd = PseudoDistribution(np.conj(k.values), k.axes, ordering_tag="kd-conjugate")
    plot = _plot_columns_2d(a.eigenvalues, b.eigenvalues, result.values, ("a", "b"))
    return result, plot, oracle_pd


def _run_discrete_npoint(sc: Scenario, built: dict, diag: dict):
    psi, obs = built["state"], built["observables"]
    c = correlation_tensor(obs, psi)
    result = npoint_from_correlations(obs, c, renormalize=sc.params["renormalize"])
    flat = result.values.ravel()
    plot = _plot_columns_1d(np.arange(flat.size), flat, "flat_index")
    return result, plot, kd_npoint(psi, obs)


def _run_cv_conditional(sc: Scenario, built: dict, diag: dict):
    grid, w = built["grid"], built["state"]
    ip = sc.params["post_momentum_index"]
    z = cv.weak_char_fn(w, grid.p[ip])
    q = cv.conditional_pseudo_cv(z)
    diag["post_momentum"] = float(grid.p[ip])
    result = _cv_conditional(grid, q, z.conditioning)
    return result, _plot_columns_1d(grid.x, q), _cv_conditional_oracle(grid, w, ip)


def _run_cv_joint(sc: Scenario, built: dict, diag: dict):
    grid, w = built["grid"], built["state"]
    ordering = sc.params["ordering"]
    result, plot = _phase_space(grid, cv.joint_kd_cv(w, ordering), ordering)
    return result, plot, _cv_joint_oracle(grid, w, ordering)


def _run_experiment(sc: Scenario, built: dict, diag: dict):
    p = sc.params
    grid, w = built["grid"], built["state"]
    post, mode = p["post_index"], p["mode"]
    res = photonics.run_reconstruction(
        w,
        epsilon=float(p["epsilon"]),
        shots=p["shots"],
        seed=sc.seed,
        mode=mode,
        post_index=post,
        joint=bool(p["joint"]),
        min_counts=p["min_counts"],
    )
    diag.update(res.diagnostics)
    diag["post_selection_rates"] = [float(r) for r in res.rates]
    if res.conditional is not None:
        axis = "x" if mode == "x-then-p" else "p"
        result = _cv_conditional(grid, res.conditional, f"pixel={post}", axis)
        diag["conditional_standard_error"] = float(res.conditional_se[0])
        coords = grid.x if axis == "x" else grid.p
        oracle_pd = _cv_conditional_oracle(grid, w, post) if axis == "x" else None
        return result, _plot_columns_1d(coords, res.conditional), oracle_pd
    result, plot = _phase_space(grid, res.joint, mode)
    return result, plot, _phase_space(grid, cv.joint_kd_cv(w, mode), mode)[0]


def _run_ccr(sc: Scenario, built: dict, diag: dict):
    witness = cv.ccr_witness(built["state"])
    diag["witness"] = {"re": witness.real, "im": witness.imag}
    diag["expected"] = {"re": 0.0, "im": built["grid"].hbar}
    return None


_RUNNERS = {
    "discrete-conditional": _run_discrete_conditional,
    "discrete-joint": _run_discrete_joint,
    "discrete-npoint": _run_discrete_npoint,
    "cv-conditional": _run_cv_conditional,
    "cv-joint": _run_cv_joint,
    "experiment": _run_experiment,
    "ccr": _run_ccr,
}
KINDS = tuple(_RUNNERS)


def run_scenario(sc: Scenario, out_dir, emit_oracle: bool = False) -> dict:
    """Execute the scenario's reconstruction pipeline; write artifacts; return
    a diagnostics dict (also written to diagnostics.json)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    built = _build_inputs(sc)
    diag = {"kind": sc.kind, "seed": sc.seed}
    outputs = _RUNNERS[sc.kind](sc, built, diag)
    if outputs is not None:
        result, plot, oracle_pd = outputs
        total = result.total
        diag["sum"] = {"re": total.real, "im": total.imag}
        diag["sum_deviation"] = abs(total - 1.0)
        _write_distribution(out, result)
        write_plot_csv(out / "plot.csv", plot)
        if emit_oracle and oracle_pd is not None:
            _write_distribution(out, oracle_pd, stem="oracle")
    write_json(out / "diagnostics.json", diag)
    return diag


def _cv_conditional_oracle(grid: cv.Grid, w: cv.WaveFunction, ip: int) -> PseudoDistribution:
    """Weak-valued position projector <p|x><x|psi>/<p|psi> on the grid."""
    psi_p = cv.to_momentum(w).samples
    bra_p_x = np.exp(-1j * grid.p[ip] * grid.x / grid.hbar) / np.sqrt(2 * np.pi * grid.hbar)
    return _cv_conditional(grid, bra_p_x * w.samples / psi_p[ip], f"p={grid.p[ip]:.6g}")


def _cv_joint_oracle(grid: cv.Grid, w: cv.WaveFunction, ordering: str) -> PseudoDistribution:
    """K(x, p) by the characteristic-function route, independent of joint_kd_cv.

    T[k, p] = psi~(p - hbar k) conj(psi~(p)) is Z(k | p) times the
    post-selection density |psi~(p)|^2, so its inverse transform over k is
    <p|x><x|psi><psi|p> with no division.  hbar*k_m is (m - n/2) momentum
    steps, so the shift is an exact (periodic) index offset.
    """
    n = grid.n
    require_grid_size(n)
    psi_p = cv.to_momentum(w).samples
    shifts = np.arange(n) - n // 2
    table = psi_p[(np.arange(n)[None, :] - shifts[:, None]) % n] * psi_p.conj()
    k = cv.inverse_char_transform(grid.k, table, grid.x)
    return _phase_space(grid, k if ordering == "x-then-p" else k.conj(), ordering)[0]


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
        failing = delta > tol
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
