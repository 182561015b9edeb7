"""Shot-level Monte-Carlo simulation of the proposed optical experiment.

Pipeline of public stages, each batched over every frequency k and camera
pixel: imprint a wavefunction on an H-polarized photon and weakly rotate its
polarization as a sinusoid of position, or of momentum in the 4f
configuration (run_setting); Fourier-propagate and analyze it
(propagate_and_analyze); draw the camera counts of a quadrature's two analyzer
blocks at once, each from its own Philox stream, the second on a persistent
worker thread (sample_shots); estimate the weak characteristic function from
conditioned asymmetries (estimate_weak_char).

Readout protocol (validated against the grid oracle, not assumed): with input
polarization H and rotation angle eps*sin(k x + phi),
  - phi = pi/2 probes cos(k x), phi = 0 probes sin(k x);
  - the diagonal-analyzer asymmetry gives the real part of the weak value,
    the circular-analyzer asymmetry the imaginary part;
  - Z(k) = <cos>_w + i <sin>_w, each asymmetry normalized by sin(2 eps).
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass

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


SEED_LIMIT = 2**63  # each Philox key word, and each shot count, lies in [0, 2^63)

_pool = None  # the one worker thread that draws blocks 1.. of a stack
_pool_lock = threading.Lock()


def _forget_pool():
    # a fork child has no copy of the parent's worker thread, so a pool it
    # inherited would queue draws that never run
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _draw(pvals: np.ndarray, shots: int, key: tuple[int, int]) -> np.ndarray:
    """The counts of one block's (cell, outcome) probabilities, its cells drawn
    in order from a generator of its own."""
    return np.random.Generator(np.random.Philox(key=key)).multinomial(shots, pvals)


def _submit_draw(*args):
    """Draw on the worker thread, which is started on first use (with the
    ``concurrent.futures`` import) and kept for later calls."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kdrecon-shots")
        return _pool.submit(_draw, *args)


def _require_key(key) -> tuple[int, int]:
    if not (isinstance(key, tuple) and len(key) == 2):
        raise ValueError(f"key must be a (seed, stream) pair, got {key!r}")
    key = tuple(operator.index(v) for v in key)
    if not all(0 <= v < SEED_LIMIT for v in key):
        raise ValueError(f"key words must lie in [0, 2^63), got {key}")
    return key


def _require_shots(shots, minimum: int = 0) -> int:
    """``shots`` as an integer in [minimum, 2^63); TypeError for a bool or a
    non-integer, ValueError outside the range."""
    if isinstance(shots, bool):
        raise TypeError(f"shots must be an integer, got {shots!r}")
    shots = operator.index(shots)
    if not minimum <= shots < SEED_LIMIT:
        raise ValueError(f"shots must lie in [{minimum}, 2^63), got {shots}")
    return shots


def sample_shots(prob: np.ndarray, shots: int, keys) -> np.ndarray:
    """Multinomial camera counts, shaped as ``prob``, of a stack of blocks.

    Block ``prob[b]`` holds the cells ``prob[b, j]``; a cell's outcomes are
    its values in C order, normalised by their sum.  ``keys`` holds one
    Philox key per block, a (seed, stream) pair of integers in [0, 2^63).
    The cells of block b are drawn in order from
    ``np.random.Generator(np.random.Philox(key=keys[b]))``, so consecutive
    runs of cells drawn from one such generator give the same counts.  A bad
    key, ``shots`` outside [0, 2^63), or a cell that is not a probability or
    sums to 0 is refused before any draw.

    The calling thread draws block 0 and one persistent worker thread the
    others; each block owns its generator, so the counts are those of
    drawing the blocks one after another.  No draw outlives the call.
    """
    keys = [_require_key(key) for key in keys]
    shots = _require_shots(shots)
    p = np.asarray(prob, dtype=float)
    if p.ndim < 3 or len(p) != len(keys):
        raise ValueError(
            f"prob needs a leading axis of {len(keys)} blocks of cells, got shape {p.shape}"
        )
    if not p.min(initial=0.0) >= -1e-12:
        raise InvalidProbability("negative probability encountered")
    # clip to [0, inf) straight into C-ordered (block, cell, outcome) blocks
    pvals = np.maximum(p, 0, out=np.empty(p.shape)).reshape(p.shape[:2] + (-1,))
    totals = pvals.sum(axis=2)
    if not np.all(totals <= 1 + 1e-9):
        raise InvalidProbability(f"probabilities sum to {totals.max()}")
    if not np.all(totals > 0):
        raise InvalidProbability("a cell's probabilities sum to 0")
    pvals /= totals[..., None]
    pending = [_submit_draw(pvals[b], shots, keys[b]) for b in range(1, len(keys))]
    try:
        counts = [_draw(pvals[0], shots, keys[0])]
    finally:
        for future in pending:  # wait for every draw, even when block 0 raised
            future.exception()
    counts += [future.result() for future in pending]
    return np.stack(counts).reshape(p.shape)


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
    z_values: np.ndarray          # (n_k, n_pixels) complex estimates
    z_errors: np.ndarray          # (n_k, n_pixels) standard errors
    rates: np.ndarray             # post-selection frequency per pixel
    conditional: np.ndarray | None  # q(x) at post_index (or q(p) in p-then-x)
    conditional_se: np.ndarray | None
    joint: np.ndarray | None      # (n_x, n_p) joint estimate when requested


def _sweep(w: WaveFunction, params: np.ndarray, epsilon: float, mode: str,
           shots: int | None, seed: int, min_counts: int):
    """Sweep every (k, quadrature, analyzer) cell, batched over k and pixel.

    Returns the (k, pixel) asymmetries keyed by (quadrature, analyzer), their
    summed variance, the (k, pixel) mask of entries lacking data, and the
    counts (or probability) per pixel summed over all cells.  It works one
    quadrature at a time, so no (k, quadrature, analyzer, outcome, pixel)
    tensor is ever held.  Every stage runs on the calling thread.
    """
    n = w.grid.n
    asym = {}
    var_sum = np.zeros((n, n))
    short = np.zeros((n, n), dtype=bool)
    recorded = np.zeros(n)
    for qi, quad in enumerate(QUADRATURES):
        probs = run_setting(w, params, _QUAD_PHASE[quad], epsilon, mode)
        if shots is not None:  # one stream per (quadrature, analyzer) block, its k cells in order
            probs = sample_shots(probs, shots, [(seed, 2 * qi), (seed, 2 * qi + 1)])
        for ai, rows in enumerate(probs):  # (k, outcome, pixel)
            asym[quad, ANALYZERS[ai]], var, total, cell_short = _asymmetry(
                rows[:, 0], rows[:, 1], None if shots is None else min_counts
            )
            var_sum += var
            short |= cell_short
            recorded += total.sum(axis=0)
        del probs, rows, var, total
    return asym, var_sum, short, recorded


def require_settings(grid: Grid, epsilon: float, mode: str, post_index: int | None = None,
                     shots: int | None = None):
    """ValueError unless ``run_reconstruction`` can run these settings: a known
    mode, epsilon in (0, pi/2) so that sin(2 epsilon) > 0, a post_index on
    the grid, and shots None or in [1, 2^63) (TypeError for a bool or a
    non-integer); SizeCap for a grid past the n x n cap."""
    if shots is not None:
        _require_shots(shots, minimum=1)
    if mode not in ORDERINGS:
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < epsilon < np.pi / 2:
        raise ValueError(f"coupling epsilon must lie in (0, pi/2), got {epsilon!r}")
    require_grid_size(grid.n)  # refused before the n x n (k, pixel) tables are built
    if post_index is not None:
        require_index(post_index, grid.n, "post_index")


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
    probabilities, zero statistical error).  Each (quadrature qi, analyzer
    ai) block draws its k cells in order from the Philox stream keyed by
    (seed, 2 qi + ai); a quadrature's two blocks are drawn in one
    ``sample_shots`` call.  The settings are refused, before any work, as
    ``require_settings`` says.
    """
    g = w.grid
    require_settings(g, epsilon, mode, post_index, shots)
    params = _conjugate_params(g, mode)
    n = g.n
    asym, var_sum, short, recorded = _sweep(w, params, epsilon, mode, shots, seed, min_counts)
    rates = recorded / (4 * n * (1 if shots is None else shots))
    z_values, z_errors = estimate_weak_char(asym, var_sum, epsilon)
    z_values[short] = 0.0
    z_errors[short] = np.inf
    dparam = params[1] - params[0]
    conditional = conditional_se = None
    if post_index is not None:
        if not np.all(np.isfinite(z_errors[:, post_index])):
            raise InsufficientCounts(
                f"post-selected pixel {post_index} lacks counts at some frequencies"
            )
        conditional = inverse_char_transform(z_values[:, post_index], dparam)
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
        joint_est = inverse_char_transform(z_values, dparam) * np.where(valid, rates / step, 0.0)
        if mode == "p-then-x":
            # rows currently index p, columns index x; present as (x, p)
            joint_est = joint_est.T
    return ReconstructionResult(
        z_values=z_values,
        z_errors=z_errors,
        rates=rates,
        conditional=conditional,
        conditional_se=conditional_se,
        joint=joint_est,
    )
