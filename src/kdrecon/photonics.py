"""Shot-level Monte-Carlo simulation of the proposed optical experiment.

Pipeline: imprint a spatial wavefunction on a single photon, weakly rotate
its polarization as a sinusoid of position (or of momentum, in the 4f
configuration), Fourier-propagate, analyze in a polarization basis, histogram
camera counts, and estimate the weak characteristic function from conditioned
polarization asymmetries.

Readout protocol (validated against the grid oracle, not assumed): with input
polarization H and rotation angle eps*sin(k x + phi),
  - phi = pi/2 probes cos(k x), phi = 0 probes sin(k x);
  - the diagonal-analyzer asymmetry gives the real part of the weak value,
    the circular-analyzer asymmetry the imaginary part;
  - Z(k) = <cos>_w + i <sin>_w, each asymmetry normalized by sin(2 eps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cv import (
    Grid,
    WaveFunction,
    inverse_char_transform,
    momentum_samples_raw,
    position_samples_raw,
)
from .errors import (
    DimensionMismatch,
    InsufficientCounts,
    InvalidProbability,
    MissingSetting,
    NormViolation,
    OffGridParameter,
    PostSelectionTooWeak,
)

ANALYZERS = ("hv", "diag", "circ")
QUADRATURES = ("cos", "sin")  # phi = pi/2 and phi = 0
_QUAD_PHASE = {"cos": np.pi / 2, "sin": 0.0}


@dataclass(frozen=True)
class PhotonState:
    """Spatial-polarization amplitude array; columns are the H/V components."""

    grid: Grid
    amplitudes: np.ndarray  # (n, 2) complex
    domain: str = "position"

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.shape != (self.grid.n, 2):
            raise DimensionMismatch("photon amplitudes must have shape (n, 2)")
        step = self.grid.dx if self.domain == "position" else self.grid.dp
        norm = step * np.sum(np.abs(a) ** 2)
        if abs(norm - 1.0) > 1e-9:
            raise NormViolation(f"photon norm deviates from 1 by {abs(norm - 1.0):.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def coordinates(self) -> np.ndarray:
        return self.grid.x if self.domain == "position" else self.grid.p


@dataclass(frozen=True)
class SlmSetting:
    """Sinusoidal weak-rotation pattern: angle = epsilon * sin(k * coord + phase)."""

    k: float
    phase: float
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("coupling epsilon must be positive")


@dataclass(frozen=True)
class ShotHistogram:
    counts: np.ndarray  # (n, 2) integer
    shots: int
    seed: tuple

    def __post_init__(self):
        c = np.asarray(self.counts)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)


def prepare_photon(w: WaveFunction, pol) -> PhotonState:
    pol = np.asarray(pol, dtype=complex)
    if pol.shape != (2,):
        raise DimensionMismatch("polarization must be a 2-vector")
    if abs(np.sum(np.abs(pol) ** 2) - 1.0) > 1e-9:
        raise NormViolation("polarization vector is not normalized")
    if w.representation != "position":
        raise ValueError("prepare_photon expects a position-representation state")
    return PhotonState(w.grid, np.outer(w.samples, pol))


def photon_to_momentum(s: PhotonState) -> PhotonState:
    if s.domain != "position":
        raise ValueError("state already in momentum domain")
    cols = [momentum_samples_raw(s.grid, s.amplitudes[:, c]) for c in range(2)]
    return PhotonState(s.grid, np.stack(cols, axis=1), domain="momentum")


def photon_to_position(s: PhotonState) -> PhotonState:
    if s.domain != "momentum":
        raise ValueError("state already in position domain")
    cols = [position_samples_raw(s.grid, s.amplitudes[:, c]) for c in range(2)]
    return PhotonState(s.grid, np.stack(cols, axis=1), domain="position")


def _check_slm_frequency(s: PhotonState, k: float):
    step = s.grid.dk if s.domain == "position" else s.grid.dx / s.grid.hbar
    if abs(k / step - round(k / step)) > 1e-9:
        raise OffGridParameter(
            f"SLM frequency {k} is not a multiple of the conjugate step {step}"
        )


def slm_weak_rotation(s: PhotonState, setting: SlmSetting) -> PhotonState:
    """Exact (non-linearized) pointwise polarization rotation in the H/V plane."""
    _check_slm_frequency(s, setting.k)
    theta = setting.epsilon * np.sin(setting.k * s.coordinates + setting.phase)
    c, sn = np.cos(theta), np.sin(theta)
    h, v = s.amplitudes[:, 0], s.amplitudes[:, 1]
    rotated = np.stack([c * h - sn * v, sn * h + c * v], axis=1)
    return PhotonState(s.grid, rotated, domain=s.domain)


_ANALYZER_KETS = {
    # columns: (plus outcome, minus outcome)
    "hv": np.array([[1, 0], [0, 1]], dtype=complex),
    "diag": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "circ": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
}


def propagate_and_analyze(s: PhotonState, mode: str, analyzer: str) -> np.ndarray:
    """Born probabilities per (pixel, analyzer outcome), shape (n, 2).

    x-then-p: single Fourier lens, camera in the momentum plane.
    p-then-x: second half of the 4f system, camera in the position plane
    (the state must already carry the momentum-space modulation).
    """
    if analyzer not in _ANALYZER_KETS:
        raise ValueError(f"unknown analyzer {analyzer!r}")
    if mode == "x-then-p":
        if s.domain != "position":
            raise ValueError("x-then-p propagation starts from the position domain")
        out = photon_to_momentum(s)
        step = s.grid.dp
    elif mode == "p-then-x":
        if s.domain != "momentum":
            raise ValueError("p-then-x propagation starts from the momentum domain")
        out = photon_to_position(s)
        step = s.grid.dx
    else:
        raise ValueError(f"unknown mode {mode!r}")
    kets = _ANALYZER_KETS[analyzer]
    proj = out.amplitudes @ kets.conj()  # (n, 2) amplitudes on the two outcomes
    return step * np.abs(proj) ** 2


def sample_shots(prob: np.ndarray, shots: int, seed) -> ShotHistogram:
    """Multinomial camera statistics with a counter-based (Philox) stream."""
    p = np.asarray(prob, dtype=float)
    if np.any(p < -1e-12):
        raise InvalidProbability("negative probability encountered")
    total = p.sum()
    if total > 1 + 1e-9:
        raise InvalidProbability(f"probabilities sum to {total}")
    parts = tuple(int(v) for v in np.atleast_1d(seed))
    # fold (base seed, stream indices...) into the 128-bit Philox key
    stream = 0
    for v in parts[1:]:
        stream = stream * 4096 + v
    key = (parts[0], stream)
    rng = np.random.Generator(np.random.Philox(key=key))
    counts = rng.multinomial(shots, np.clip(p, 0, None).ravel() / max(total, 1e-300))
    return ShotHistogram(counts.reshape(p.shape), shots, key)


def _asymmetry(freq_row: np.ndarray):
    """(plus - minus)/(plus + minus) and its binomial variance estimate."""
    tot = freq_row.sum()
    if tot <= 0:
        return 0.0, np.inf
    asym = (freq_row[0] - freq_row[1]) / tot
    return asym, max(1.0 - asym**2, 1e-12)


def estimate_weak_char(histograms: dict, setting: SlmSetting, pixel: int,
                       min_counts: int = 100):
    """Combine the four (quadrature, analyzer) histograms at one camera pixel.

    ``histograms`` maps ("cos"|"sin", "diag"|"circ") to a ShotHistogram (or to
    a probability array for the infinite-statistics shortcut).  Returns
    (z_estimate, standard_error); the error is the combined standard error of
    the complex estimate (0 for analytic input).
    """
    norm = np.sin(2 * setting.epsilon)
    parts = {}
    variances = {}
    for quad in QUADRATURES:
        for analyzer in ("diag", "circ"):
            key = (quad, analyzer)
            if key not in histograms:
                raise MissingSetting(f"histogram for {key} is missing")
            h = histograms[key]
            if isinstance(h, ShotHistogram):
                row = h.counts[pixel].astype(float)
                n = row.sum()
                if n < min_counts:
                    raise InsufficientCounts(
                        f"only {int(n)} counts at pixel {pixel} for {key}"
                    )
                asym, var1 = _asymmetry(row)
                variances[key] = var1 / n
            else:
                row = np.asarray(h, dtype=float)[pixel]
                if row.sum() <= 0:
                    raise PostSelectionTooWeak(f"zero probability at pixel {pixel}")
                asym, _ = _asymmetry(row)
                variances[key] = 0.0
            parts[key] = asym
    z = (
        parts[("cos", "diag")]
        - parts[("sin", "circ")]
        + 1j * (parts[("cos", "circ")] + parts[("sin", "diag")])
    ) / norm
    se = float(np.sqrt(sum(variances.values()))) / norm
    return z, se


def run_setting(w: WaveFunction, setting: SlmSetting, mode: str, analyzer: str) -> np.ndarray:
    """Probability array (n, 2) for one full optical configuration, input polarization H."""
    s = prepare_photon(w, (1.0, 0.0))
    if mode == "p-then-x":
        s = photon_to_momentum(s)
    s = slm_weak_rotation(s, setting)
    return propagate_and_analyze(s, mode, analyzer)


@dataclass
class ReconstructionResult:
    grid: Grid
    mode: str
    post_index: int | None
    z_values: np.ndarray          # (n_k, n_pixels) complex estimates
    z_errors: np.ndarray          # (n_k, n_pixels) standard errors
    rates: np.ndarray             # post-selection frequency per pixel
    conditional: np.ndarray | None  # q(x) at post_index (or q(p) in p-then-x)
    conditional_se: np.ndarray | None
    joint: np.ndarray | None      # (n_x, n_p) joint estimate when requested
    diagnostics: dict = field(default_factory=dict)


def _conjugate_params(grid: Grid, mode: str) -> np.ndarray:
    # modulation frequencies conjugate to the detected variable's partner
    if mode == "x-then-p":
        return grid.k
    return grid.x / grid.hbar  # lambda values: shifts of x by lambda*hbar


def run_reconstruction(
    w: WaveFunction,
    epsilon: float,
    shots: int | None,
    seed: int,
    mode: str = "x-then-p",
    post_index: int | None = None,
    joint: bool = False,
    min_counts: int = 100,
) -> ReconstructionResult:
    """Full k-sweep: histograms -> Z estimates -> inverse Fourier transform.

    ``shots=None`` selects the infinite-statistics shortcut (analytic Born
    probabilities, zero statistical error).  Each (k, quadrature, analyzer)
    cell draws from its own Philox stream keyed by (seed, indices), so shard
    merging is schedule-independent.
    """
    g = w.grid
    params = _conjugate_params(g, mode)
    n = g.n
    z_values = np.zeros((n, n), dtype=complex)
    z_errors = np.zeros((n, n))
    rates = np.zeros(n)
    for m, kp in enumerate(params):
        hists = {}
        for qi, quad in enumerate(QUADRATURES):
            for ai, analyzer in enumerate(("diag", "circ")):
                probs = run_setting(w, SlmSetting(kp, _QUAD_PHASE[quad], epsilon),
                                    mode, analyzer)
                if shots is None:
                    hists[(quad, analyzer)] = probs
                    rates[:] += probs.sum(axis=1) / (4 * n)
                else:
                    h = sample_shots(probs, shots, (seed, m, qi, ai))
                    hists[(quad, analyzer)] = h
                    rates[:] += h.counts.sum(axis=1) / (4 * n * shots)
        setting = SlmSetting(kp, 0.0, epsilon)
        for pix in range(n):
            try:
                z, se = estimate_weak_char(hists, setting, pix, min_counts)
            except (InsufficientCounts, PostSelectionTooWeak):
                z, se = 0.0, np.inf
            z_values[m, pix] = z
            z_errors[m, pix] = se
    out_values = g.x if mode == "x-then-p" else g.p
    conditional = conditional_se = None
    if post_index is not None:
        if not np.all(np.isfinite(z_errors[:, post_index])):
            raise InsufficientCounts(
                f"post-selected pixel {post_index} lacks counts at some frequencies"
            )
        conditional = inverse_char_transform(params, z_values[:, post_index], out_values)
        dparam = params[1] - params[0]
        # independent errors per frequency propagate in quadrature through the
        # linear inverse transform
        conditional_se = np.full(
            n, dparam / (2 * np.pi) * float(np.sqrt(np.sum(z_errors[:, post_index] ** 2)))
        )
    joint_est = None
    if joint:
        step = g.dp if mode == "x-then-p" else g.dx
        valid = np.all(np.isfinite(z_errors), axis=0) & (rates > 0)
        # rows: reconstructed variable; columns: camera pixel
        joint_est = inverse_char_transform(params, z_values, out_values) \
            * np.where(valid, rates / step, 0.0)
        if mode == "p-then-x":
            # rows currently index p, columns index x; present as (x, p)
            joint_est = joint_est.T
    return ReconstructionResult(
        grid=g,
        mode=mode,
        post_index=post_index,
        z_values=z_values,
        z_errors=z_errors,
        rates=rates,
        conditional=conditional,
        conditional_se=conditional_se,
        joint=joint_est,
        diagnostics={
            "epsilon": epsilon,
            "shots": shots,
            "seed": seed,
            "mode": mode,
        },
    )
