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

import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import require_index
from .cv import (
    ORDERINGS,
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
# the four (quadrature, analyzer) cells measured at every frequency
_CELLS = tuple((quad, analyzer) for quad in QUADRATURES for analyzer in ("diag", "circ"))


def _require_unit_norm(amplitudes: np.ndarray, step: float):
    """NormViolation unless every state held in the last two axes has unit norm."""
    deviation = np.max(np.abs(step * np.sum(np.abs(amplitudes) ** 2, axis=(-2, -1)) - 1.0))
    if not deviation <= 1e-9:
        raise NormViolation(f"photon norm deviates from 1 by {deviation:.3e}")


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
        _require_unit_norm(a, self.grid.dx if self.domain == "position" else self.grid.dp)
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
        if not self.epsilon > 0:
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
    if not abs(np.sum(np.abs(pol) ** 2) - 1.0) <= 1e-9:
        raise NormViolation("polarization vector is not normalized")
    if w.representation != "position":
        raise ValueError("prepare_photon expects a position-representation state")
    return PhotonState(w.grid, np.outer(w.samples, pol))


def photon_to_momentum(s: PhotonState) -> PhotonState:
    if s.domain != "position":
        raise ValueError("state already in momentum domain")
    cols = [momentum_samples_raw(s.grid, s.amplitudes[:, c]) for c in range(2)]
    return PhotonState(s.grid, np.stack(cols, axis=1), domain="momentum")


def _slm_state(w: WaveFunction, mode: str) -> PhotonState:
    """The H-polarized photon in the domain its SLM modulates."""
    s = prepare_photon(w, (1.0, 0.0))
    return photon_to_momentum(s) if mode == "p-then-x" else s


def _check_slm_frequency(s: PhotonState, k):
    """OffGridParameter unless every frequency in ``k`` is on the conjugate grid."""
    step = s.grid.dk if s.domain == "position" else s.grid.dx / s.grid.hbar
    k = np.asarray(k, dtype=float)
    off = np.abs(k / step - np.round(k / step)) > 1e-9
    if np.any(off):
        raise OffGridParameter(
            f"SLM frequency {k[off].flat[0]} is not a multiple of the conjugate step {step}"
        )


def _rotate(hv: np.ndarray, coords: np.ndarray, k, phase: float, epsilon: float) -> np.ndarray:
    """Rotate H/V amplitudes ``hv`` (component, pixel) by epsilon*sin(k*coords + phase).

    An array of frequencies ``k`` adds a leading frequency axis to the result.
    """
    theta = epsilon * np.sin(np.multiply.outer(k, coords) + phase)
    c, sn = np.cos(theta), np.sin(theta)
    h, v = hv[0], hv[1]
    return np.stack([c * h - sn * v, sn * h + c * v], axis=-2)


def slm_weak_rotation(s: PhotonState, setting: SlmSetting) -> PhotonState:
    """Exact (non-linearized) pointwise polarization rotation in the H/V plane."""
    _check_slm_frequency(s, setting.k)
    rotated = _rotate(s.amplitudes.T, s.coordinates, setting.k, setting.phase, setting.epsilon)
    return PhotonState(s.grid, rotated.T, domain=s.domain)


_ANALYZER_KETS = {
    # columns: (plus outcome, minus outcome)
    "hv": np.array([[1, 0], [0, 1]], dtype=complex),
    "diag": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "circ": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
}


def _propagate(g: Grid, hv: np.ndarray, mode: str):
    """Camera-plane amplitudes of SLM-plane amplitudes ``hv`` (..., component,
    pixel), checked for unit norm, and the camera pixel step.

    x-then-p: single Fourier lens, camera in the momentum plane.
    p-then-x: second half of the 4f system, camera in the position plane.
    """
    if mode == "x-then-p":
        out, step = momentum_samples_raw(g, hv), g.dp
    else:
        out, step = position_samples_raw(g, hv), g.dx
    _require_unit_norm(out, step)
    return out, step


def _analyze(hv: np.ndarray, step: float, analyzer: str) -> np.ndarray:
    """Born probabilities (..., outcome, pixel) of camera-plane amplitudes
    (..., component, pixel); outcome 0 is the analyzer's plus port."""
    if analyzer not in _ANALYZER_KETS:
        raise ValueError(f"unknown analyzer {analyzer!r}")
    return step * np.abs(_ANALYZER_KETS[analyzer].conj().T @ hv) ** 2


def propagate_and_analyze(s: PhotonState, mode: str, analyzer: str) -> np.ndarray:
    """Born probabilities per (pixel, analyzer outcome), shape (n, 2).

    For p-then-x the state must already carry the momentum-space modulation.
    """
    if mode not in ORDERINGS:
        raise ValueError(f"unknown mode {mode!r}")
    domain = "position" if mode == "x-then-p" else "momentum"
    if s.domain != domain:
        raise ValueError(f"{mode} propagation starts from the {domain} domain")
    out, step = _propagate(s.grid, s.amplitudes.T, mode)
    return _analyze(out, step, analyzer).T


# shot streams: a seed in [0, 2^63) and stream indices in [0, 4096) folded
# into one stream word below 2^63, together the 128-bit Philox key
SEED_LIMIT = 2**63
STREAM_BASE = 4096
_ZERO_WORDS = [0, 0, 0, 0]
_thread = threading.local()


def _philox(key) -> np.random.Generator:
    """This thread's Philox generator, re-keyed to ``key`` at counter 0.

    Philox is counter-based, so the state set here is exactly that of a fresh
    ``Philox(key=key)`` and yields the same stream, without the OS-entropy
    seed sequence that constructor draws.
    """
    rng = getattr(_thread, "rng", None)
    if rng is None:
        rng = _thread.rng = np.random.Generator(np.random.Philox(key=0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": np.asarray(key).astype(np.uint64)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def sample_shots(prob: np.ndarray, shots: int, seed) -> ShotHistogram:
    """Multinomial camera statistics with a counter-based (Philox) stream.

    ``seed`` is an integer in [0, 2^63) or a tuple (seed, i_1, ..., i_m) of
    one with stream indices in [0, 4096); the indices fold into one stream
    word, which must stay below 2^63, and (seed, stream) is the Philox key.
    Each thread re-keys one generator per call rather than building one; the
    streams are those of ``np.random.Generator(np.random.Philox(key=key))``.
    """
    p = np.asarray(prob, dtype=float)
    if not p.min(initial=0.0) >= -1e-12:
        raise InvalidProbability("negative probability encountered")
    total = p.sum()
    if not total <= 1 + 1e-9:
        raise InvalidProbability(f"probabilities sum to {total}")
    base, *indices = seed if isinstance(seed, (tuple, list)) else (seed,)
    base = operator.index(base)
    if not 0 <= base < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2^63), got {base}")
    stream = 0
    for v in indices:
        v = operator.index(v)
        if not 0 <= v < STREAM_BASE:
            raise ValueError(f"stream index must lie in [0, {STREAM_BASE}), got {v}")
        stream = stream * STREAM_BASE + v
    if stream >= SEED_LIMIT:
        raise ValueError(f"{len(indices)} stream indices fold past 2^63")
    key = (base, stream)
    # clip to [0, inf) straight into C order, so a transposed view (as the
    # sweep passes) costs no separate ravel copy
    pvals = np.maximum(p, 0, out=np.empty(p.shape)).ravel()
    pvals /= max(total, 1e-300)
    counts = _philox(key).multinomial(shots, pvals)
    return ShotHistogram(counts.reshape(p.shape), shots, key)


def _asymmetry(plus, minus, min_counts: int | None):
    """Elementwise (plus - minus)/(plus + minus), its variance, the total
    recorded, and a mask of entries too poorly recorded to use.

    ``min_counts=None`` marks Born probabilities: zero variance, unusable
    where the probability vanishes.  Counts carry the binomial variance
    (1 - A^2)/N and are unusable below ``min_counts``.
    """
    total = plus + minus
    recorded = total > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        asym = np.where(recorded, (plus - minus) / total, 0.0)
        if min_counts is None:
            return asym, np.zeros_like(asym), total, ~recorded
        var = np.where(recorded, np.maximum(1.0 - asym**2, 1e-12) / total, np.inf)
    return asym, var, total, total < min_counts


def _combine(asym: dict, var_sum, epsilon: float):
    """Z = (A_cos,diag - A_sin,circ + i(A_cos,circ + A_sin,diag)) / sin(2 eps)
    and its standard error, from per-cell asymmetries and their summed variance."""
    norm = np.sin(2 * epsilon)
    z = (
        asym["cos", "diag"]
        - asym["sin", "circ"]
        + 1j * (asym["cos", "circ"] + asym["sin", "diag"])
    ) / norm
    return z, np.sqrt(var_sum) / norm


def estimate_weak_char(histograms: dict, setting: SlmSetting, pixel: int,
                       min_counts: int = 100):
    """Combine the four (quadrature, analyzer) histograms at one camera pixel.

    ``histograms`` maps ("cos"|"sin", "diag"|"circ") to a ShotHistogram (or to
    a probability array for the infinite-statistics shortcut).  Returns
    (z_estimate, standard_error); the error is the combined standard error of
    the complex estimate (0 for analytic input).
    """
    parts = {}
    var_sum = 0.0
    for key in _CELLS:
        if key not in histograms:
            raise MissingSetting(f"histogram for {key} is missing")
        h = histograms[key]
        counted = isinstance(h, ShotHistogram)
        row = h.counts[pixel] if counted else np.asarray(h, dtype=float)[pixel]
        parts[key], var, total, short = _asymmetry(
            row[0], row[1], min_counts if counted else None
        )
        if short and counted:
            raise InsufficientCounts(f"only {int(total)} counts at pixel {pixel} for {key}")
        if short:
            raise PostSelectionTooWeak(f"zero probability at pixel {pixel}")
        var_sum = var_sum + var
    z, se = _combine(parts, var_sum, setting.epsilon)
    return complex(z), float(se)


def run_setting(w: WaveFunction, setting: SlmSetting, mode: str, analyzer: str) -> np.ndarray:
    """Probability array (n, 2) for one full optical configuration, input polarization H."""
    return propagate_and_analyze(slm_weak_rotation(_slm_state(w, mode), setting), mode, analyzer)


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


def _sweep(s: PhotonState, params: np.ndarray, epsilon: float, mode: str,
           shots: int | None, seed: int, min_counts: int):
    """Sweep every (k, quadrature, analyzer) cell, batched over k and pixel.

    Returns the (k, pixel) asymmetries keyed by (quadrature, analyzer), their
    summed variance, the (k, pixel) mask of entries lacking data, and the
    counts (or probability) per pixel summed over all cells.  It works one
    quadrature at a time and frees each cell's arrays before the next is
    built, so one transform serves both analyzers and no (k, quadrature,
    analyzer, outcome, pixel) tensor is ever held.
    """
    _check_slm_frequency(s, params)
    n = s.grid.n
    parts = {}
    var_sum = np.zeros((n, n))
    short = np.zeros((n, n), dtype=bool)
    recorded = np.zeros(n)
    for qi, quad in enumerate(QUADRATURES):
        out, step = _propagate(
            s.grid,
            _rotate(s.amplitudes.T, s.coordinates, params, _QUAD_PHASE[quad], epsilon),
            mode,
        )
        for ai, analyzer in enumerate(("diag", "circ")):
            rows = _analyze(out, step, analyzer)  # (k, outcome, pixel)
            if shots is not None:
                # each frequency m draws from the Philox stream of its cell
                # (seed, m, qi, ai)
                rows = np.stack([
                    sample_shots(cell.T, shots, (seed, m, qi, ai)).counts.T
                    for m, cell in enumerate(rows)
                ])
            parts[quad, analyzer], var, total, cell_short = _asymmetry(
                rows[:, 0], rows[:, 1], None if shots is None else min_counts
            )
            var_sum += var
            short |= cell_short
            recorded += total.sum(axis=0)
            del rows, var, total
        del out
    return parts, var_sum, short, recorded


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
    merging is schedule-independent.  ``epsilon`` must lie in (0, pi/2), so
    that sin(2 epsilon) > 0, and a shot-level sweep takes at most 4096
    frequencies (``sample_shots``' stream index range).
    """
    if mode not in ORDERINGS:
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < epsilon < np.pi / 2:
        raise ValueError(f"coupling epsilon must lie in (0, pi/2), got {epsilon!r}")
    g = w.grid
    if shots is not None and g.n > STREAM_BASE:
        raise ValueError(f"shot streams index at most {STREAM_BASE} frequencies, got {g.n}")
    if post_index is not None:
        require_index(post_index, g.n, "post_index")
    params = _conjugate_params(g, mode)
    n = g.n
    parts, var_sum, short, recorded = _sweep(
        _slm_state(w, mode), params, epsilon, mode, shots, seed, min_counts
    )
    rates = recorded / (4 * n * (1 if shots is None else shots))
    z_values, z_errors = _combine(parts, var_sum, epsilon)
    z_values[short] = 0.0
    z_errors[short] = np.inf
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
