"""Shot-level Monte-Carlo simulation of the proposed optical experiment.

Pipeline of public stages, each batched over every frequency k and camera
pixel: imprint a wavefunction on an H-polarized photon and weakly rotate its
polarization as a sinusoid of position, or of momentum in the 4f
configuration (run_setting); Fourier-propagate and analyze it
(propagate_and_analyze); draw camera counts (sample_shots); estimate the weak
characteristic function from conditioned asymmetries (estimate_weak_char).

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

from .core import require_grid_size, require_index
from .cv import (
    ORDERINGS,
    Grid,
    WaveFunction,
    inverse_char_transform,
    momentum_samples_raw,
    position_samples_raw,
)
from .errors import (
    InsufficientCounts,
    InvalidProbability,
    NormViolation,
    OffGridParameter,
)

ANALYZERS = ("diag", "circ")
QUADRATURES = ("cos", "sin")  # phi = pi/2 and phi = 0
_QUAD_PHASE = {"cos": np.pi / 2, "sin": 0.0}
_ANALYZER_KETS = (
    # per analyzer in ANALYZERS order; columns: (plus outcome, minus outcome)
    np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
)


def _require_unit_norm(amplitudes: np.ndarray, step: float):
    """NormViolation unless every state held in the last two axes has unit norm."""
    deviation = np.max(np.abs(step * np.sum(np.abs(amplitudes) ** 2, axis=(-2, -1)) - 1.0))
    if not deviation <= 1e-9:
        raise NormViolation(f"photon norm deviates from 1 by {deviation:.3e}")


def run_setting(w: WaveFunction, k, phase: float, epsilon: float, mode: str) -> np.ndarray:
    """Born probabilities (analyzer, k, outcome, pixel) of one SLM phase.

    The H-polarized photon carrying ``w`` is rotated in the H/V plane by the
    exact angle epsilon*sin(k*coord + phase) at each SLM pixel and frequency
    in ``k`` (a scalar k drops that axis); coord is x, or p for p-then-x,
    whose SLM sits in the 4f momentum plane.  Every k must be a multiple of
    the conjugate step (dk, or dx/hbar).
    """
    if w.representation != "position":
        raise ValueError("run_setting expects a position-representation state")
    g = w.grid
    if mode == "x-then-p":
        h, coords, step = w.samples, g.x, g.dk
    elif mode == "p-then-x":
        h, coords, step = momentum_samples_raw(g, w.samples), g.p, g.dx / g.hbar
    else:
        raise ValueError(f"unknown mode {mode!r}")
    k = np.asarray(k, dtype=float)
    off = ~(np.abs(k / step - np.round(k / step)) <= 1e-9)  # NaN and inf are off too
    if np.any(off):
        raise OffGridParameter(
            f"SLM frequency {k[off].flat[0]} is not a multiple of the conjugate step {step}"
        )
    theta = epsilon * np.sin(np.multiply.outer(k, coords) + phase)
    # the V input is 0, so the rotation sends h to (cos theta, sin theta) h
    return propagate_and_analyze(g, np.stack([np.cos(theta) * h, np.sin(theta) * h], axis=-2),
                                 mode)


def propagate_and_analyze(g: Grid, hv: np.ndarray, mode: str) -> np.ndarray:
    """Born probabilities (analyzer, ..., outcome, pixel) at the camera of
    SLM-plane amplitudes ``hv`` (..., component, pixel); analyzers in
    ANALYZERS order, outcome 0 the analyzer's plus port.

    x-then-p: single Fourier lens, camera in the momentum plane.
    p-then-x: second half of the 4f system, camera in the position plane.
    Each camera-plane state must have unit norm.
    """
    if mode not in ORDERINGS:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "x-then-p":
        out, step = momentum_samples_raw(g, hv), g.dp
    else:
        out, step = position_samples_raw(g, hv), g.dx
    _require_unit_norm(out, step)
    probs = np.empty((len(ANALYZERS),) + out.shape)
    for p, kets in zip(probs, _ANALYZER_KETS):
        p[...] = step * np.abs(kets.conj().T @ out) ** 2
    return probs


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


def sample_shots(prob: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial camera counts, shaped as ``prob``, from a counter-based
    (Philox) stream.

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
    return counts.reshape(p.shape)


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


def estimate_weak_char(asym: dict, var_sum, epsilon: float):
    """Z = (A_cos,diag - A_sin,circ + i(A_cos,circ + A_sin,diag)) / sin(2 eps)
    and its standard error, from the asymmetries keyed by (quadrature,
    analyzer) and their summed variance, elementwise over (k, pixel)."""
    norm = np.sin(2 * epsilon)
    z = (
        asym["cos", "diag"]
        - asym["sin", "circ"]
        + 1j * (asym["cos", "circ"] + asym["sin", "diag"])
    ) / norm
    return z, np.sqrt(var_sum) / norm


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


def _sweep(w: WaveFunction, params: np.ndarray, epsilon: float, mode: str,
           shots: int | None, seed: int, min_counts: int):
    """Sweep every (k, quadrature, analyzer) cell, batched over k and pixel.

    Returns the (k, pixel) asymmetries keyed by (quadrature, analyzer), their
    summed variance, the (k, pixel) mask of entries lacking data, and the
    counts (or probability) per pixel summed over all cells.  It works one
    quadrature at a time, so no (k, quadrature, analyzer, outcome, pixel)
    tensor is ever held.
    """
    n = w.grid.n
    asym = {}
    var_sum = np.zeros((n, n))
    short = np.zeros((n, n), dtype=bool)
    recorded = np.zeros(n)
    for qi, quad in enumerate(QUADRATURES):
        probs = run_setting(w, params, _QUAD_PHASE[quad], epsilon, mode)
        for ai, rows in enumerate(probs):  # (k, outcome, pixel)
            if shots is not None:
                # each frequency m draws from the Philox stream of its cell
                # (seed, m, qi, ai)
                rows = np.stack([
                    sample_shots(cell.T, shots, (seed, m, qi, ai)).T
                    for m, cell in enumerate(rows)
                ])
            asym[quad, ANALYZERS[ai]], var, total, cell_short = _asymmetry(
                rows[:, 0], rows[:, 1], None if shots is None else min_counts
            )
            var_sum += var
            short |= cell_short
            recorded += total.sum(axis=0)
        del probs, rows, var, total
    return asym, var_sum, short, recorded


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
    """Full k-sweep: the four stages, then the inverse Fourier transform.

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
    require_grid_size(g.n)  # refused before the n x n (k, pixel) tables are built
    if post_index is not None:
        require_index(post_index, g.n, "post_index")
    params = _conjugate_params(g, mode)
    n = g.n
    asym, var_sum, short, recorded = _sweep(w, params, epsilon, mode, shots, seed, min_counts)
    rates = recorded / (4 * n * (1 if shots is None else shots))
    z_values, z_errors = estimate_weak_char(asym, var_sum, epsilon)
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
