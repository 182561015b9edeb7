"""Shot-level Monte-Carlo simulation of the proposed optical experiment.

Pipeline of public stages, each batched over every frequency k and camera
pixel: imprint a wavefunction on an H-polarized photon, weakly rotate its
polarization as a sinusoid of position, or of momentum in the 4f
configuration, then Fourier-propagate and analyze it (run_setting, whose
last step propagate_and_analyze also offers on its own); draw the camera
counts of a quadrature's two analyzer blocks, one after the other, each from
its own Philox stream (sample_shots); estimate the weak characteristic
function from conditioned asymmetries (estimate_weak_char).

A joint sweep draws the whole camera: its Z tables are (k, pixel).  A
conditional-only sweep reads one post pixel, as a slit there would: it reads
each cell's three-outcome marginal (plus, minus at the pixel; anywhere else),
drawn when there are shots, so its Z tables are one (k, 1) column.

The sweep runs quadrature 0's chain (Born probabilities, draws, asymmetries)
on the calling thread and quadrature 1's on a persistent worker thread.  The
worker calls only the private stage bodies, so every call of a public name
comes from the calling thread.

Readout protocol (validated against the grid oracle, not assumed): with input
polarization H and rotation angle eps*sin(k x + phi),
  - phi = pi/2 probes cos(k x), phi = 0 probes sin(k x);
  - the diagonal-analyzer asymmetry gives the real part of the weak value,
    the circular-analyzer asymmetry the imaginary part;
  - Z(k) = <cos>_w + i <sin>_w, each asymmetry normalized by sin(2 eps).
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import require_grid_size, require_index
from .cv import (
    ORDERINGS,
    Grid,
    WaveFunction,
    _grid_transform,
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
_PRODUCT_CELLS = 2**15  # complex camera cells projected on the analyzers at once


def _order(g: Grid, mode: str):
    """What the measurement order fixes: the SLM coordinate, the conjugate
    frequencies and their step, whether the lens from the SLM plane to the
    camera is the inverse transform, and the camera step.  x-then-p modulates
    x, at k, and images p through one Fourier lens; p-then-x modulates p, at
    lambda = x/hbar (shifts of x by lambda*hbar), in the 4f momentum plane and
    images x through the inverse transform."""
    if mode == "x-then-p":
        return g.x, g.k, g.dk, False, g.dp
    if mode == "p-then-x":
        return g.p, g.x / g.hbar, g.dx / g.hbar, True, g.dx
    raise ValueError(f"unknown mode {mode!r}")


def _slm_plane(w: WaveFunction, mode: str) -> np.ndarray:
    """The photon's amplitudes on the SLM: ``w``'s position samples, or its
    momentum samples in the 4f order, whose SLM sits in the momentum plane."""
    return momentum_samples_raw(w.grid, w.samples) if mode == "p-then-x" else w.samples


def run_setting(w: WaveFunction, k, phase: float, epsilon: float, mode: str) -> np.ndarray:
    """Born probabilities (analyzer, k, outcome, pixel) of one SLM phase.

    The H-polarized photon carrying ``w`` is rotated in the H/V plane by the
    exact angle epsilon*sin(k*coord + phase) at each SLM pixel and frequency
    in ``k`` (a scalar k drops that axis); coord is x, or p for p-then-x,
    whose SLM sits in the 4f momentum plane.  Every k must be a multiple of
    the conjugate step (dk, or dx/hbar).  Both come from ``_order``, which
    refuses an unknown mode before any transform.  The photon is then
    propagated and analyzed as ``propagate_and_analyze`` says.
    """
    return _setting(w.grid, _slm_plane(w, mode), k, phase, epsilon, mode)


def _setting(g: Grid, h: np.ndarray, k, phase: float, epsilon: float, mode: str) -> np.ndarray:
    """run_setting's body, from the SLM-plane amplitudes ``h``: the rotated
    photon is built in one buffer, which the lens transforms in place."""
    coords, _, step, inverse, camera_step = _order(g, mode)
    k = np.asarray(k, dtype=float)
    off = ~(np.abs(k / step - np.round(k / step)) <= 1e-9)  # NaN and inf are off too
    if np.any(off):
        raise OffGridParameter(
            f"SLM frequency {k[off].flat[0]} is not a multiple of the conjugate step {step}"
        )
    theta = epsilon * np.sin(np.multiply.outer(k, coords) + phase)
    # the V input is 0, so the rotation sends h to (cos theta, sin theta) h
    hv = np.empty(theta.shape[:-1] + (2, g.n), dtype=complex)
    np.multiply(np.cos(theta), h, out=hv[..., 0, :])
    np.multiply(np.sin(theta), h, out=hv[..., 1, :])
    del theta
    return _analyze(_grid_transform(g, hv, inverse, out=hv), camera_step)


def propagate_and_analyze(g: Grid, hv: np.ndarray, mode: str) -> np.ndarray:
    """Born probabilities (analyzer, ..., outcome, pixel) at the camera of
    SLM-plane amplitudes ``hv`` (..., component, pixel); analyzers in
    ANALYZERS order, outcome 0 the analyzer's plus port.  ``hv`` is left
    unchanged.

    x-then-p: single Fourier lens, camera in the momentum plane.
    p-then-x: second half of the 4f system, camera in the position plane.
    Each camera-plane state must have unit norm, checked from the analyzer-0
    probabilities: its two ports sum to the photon's norm.
    """
    *_, inverse, step = _order(g, mode)
    return _analyze((position_samples_raw if inverse else momentum_samples_raw)(g, hv), step)


def _analyze(camera: np.ndarray, step: float) -> np.ndarray:
    """propagate_and_analyze's probabilities from the camera-plane amplitudes
    ``camera``, projected a run of about _PRODUCT_CELLS cells at a time, so no
    product of ``camera``'s size is built."""
    rows = camera.reshape(-1, *camera.shape[-2:])
    probs = np.empty((len(ANALYZERS),) + rows.shape)
    run = max(1, _PRODUCT_CELLS // rows[0].size)
    for start in range(0, len(rows), run):
        for p, kets in zip(probs[:, start:start + run], _ANALYZER_KETS):
            p[...] = step * np.abs(kets.conj().T @ rows[start:start + run]) ** 2
    probs = probs.reshape((len(ANALYZERS),) + camera.shape)
    deviation = np.max(np.abs(probs[0].sum(axis=(-2, -1)) - 1.0))
    if not deviation <= 1e-9:
        raise NormViolation(f"photon norm deviates from 1 by {deviation:.3e}")
    return probs


SEED_LIMIT = 2**63  # each Philox key word, and each shot count, lies in [0, 2^63)

_pool = None  # the one worker thread that runs quadrature 1's chain of every sweep
_pool_lock = threading.Lock()


def _forget_pool():
    # a fork child has no copy of the parent's worker thread, so a pool it
    # inherited would queue chains that never run
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _clipped_rows(cells: np.ndarray) -> np.ndarray:
    """``cells`` clipped to [0, inf), as C-ordered (cell, outcome) rows."""
    return np.maximum(cells, 0, out=np.empty(cells.shape)).reshape(len(cells), -1)


def _draw(runs, shots: int, key: tuple[int, int], out: np.ndarray) -> None:
    """Draw one block's counts into ``out``, its cells in order from a
    generator of its own; ``runs`` yields the (cell slice, normalised rows) of
    consecutive runs of cells."""
    gen = np.random.Generator(np.random.Philox(key=key))
    for cells, pvals in runs:
        out[cells] = gen.multinomial(shots, pvals)


def _submit(fn, *args):
    """Run ``fn(*args)`` on the worker thread, which is started on first use
    (with the ``concurrent.futures`` import) and kept for later sweeps."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kdrecon-sweep")
        return _pool.submit(fn, *args)


def _require_key(key) -> tuple[int, int]:
    if not (isinstance(key, tuple) and len(key) == 2):
        raise ValueError(f"key must be a (seed, stream) pair, got {key!r}")
    return tuple(require_index(v, SEED_LIMIT, "key word") for v in key)


def sample_shots(prob: np.ndarray, shots: int, keys) -> np.ndarray:
    """Multinomial camera counts, shaped as ``prob``, of a stack of blocks.

    Block ``prob[b]`` holds the cells ``prob[b, j]``; a cell's outcomes are
    its values in C order, normalised by their sum.  ``keys`` holds one
    Philox key per block, a (seed, stream) pair of integers in [0, 2^63).
    The cells of block b are drawn in order from
    ``np.random.Generator(np.random.Philox(key=keys[b]))``, so consecutive
    runs of cells drawn from one such generator give the same counts.  A bad
    key, ``shots`` outside [0, 2^63), or a cell that is not a probability or
    sums to 0 is refused before any draw.  The blocks are drawn one after
    another on the calling thread.
    """
    return _sample_shots(prob, shots, keys)


def _sample_shots(prob: np.ndarray, shots: int, keys) -> np.ndarray:
    """sample_shots' body.  Each block is clipped, normalised and drawn a run
    of about _PRODUCT_CELLS cells at a time, so no copy of the stack is built."""
    keys = [_require_key(key) for key in keys]
    shots = require_index(shots, SEED_LIMIT, "shots")
    p = np.asarray(prob, dtype=float)
    if p.ndim < 3 or len(p) != len(keys):
        raise ValueError(
            f"prob needs a leading axis of {len(keys)} blocks of cells, got shape {p.shape}"
        )
    if not p.min(initial=0.0) >= -1e-12:
        raise InvalidProbability("negative probability encountered")
    outcomes = int(np.prod(p.shape[2:]))
    run = max(1, _PRODUCT_CELLS // max(1, outcomes))
    runs = [slice(start, start + run) for start in range(0, p.shape[1], run)]
    totals = np.empty(p.shape[:2])
    for block, block_totals in zip(p, totals):
        for cells in runs:
            block_totals[cells] = _clipped_rows(block[cells]).sum(axis=1)
    if not np.all(totals <= 1 + 1e-9):
        raise InvalidProbability(f"probabilities sum to {totals.max()}")
    if not np.all(totals > 0):
        raise InvalidProbability("a cell's probabilities sum to 0")
    counts = np.empty(p.shape[:2] + (outcomes,), dtype=np.int64)
    for block, block_totals, key, out in zip(p, totals, keys, counts):
        _draw(((cells, _clipped_rows(block[cells]) / block_totals[cells, None]) for cells in runs),
              shots, key, out)
    return counts.reshape(p.shape)


def _asymmetry(plus, minus, min_counts: int | None):
    """Elementwise (plus - minus)/(plus + minus), its variance, the total
    recorded, and a mask of entries too poorly recorded to use.

    ``min_counts=None`` marks Born probabilities: variance 0.0, unusable
    where the probability vanishes.  Counts carry the binomial variance
    (1 - A^2)/N and are unusable below ``min_counts``.  The asymmetry is 0
    where nothing was recorded.
    """
    total = plus + minus
    recorded = total > 0
    # nothing recorded means plus = minus = 0, so the asymmetry stays 0 there
    asym = np.subtract(plus, minus, out=np.empty(np.shape(total)))
    np.divide(asym, total, out=asym, where=recorded)
    if min_counts is None:
        return asym, 0.0, total, ~recorded
    var = np.square(asym, out=np.empty(np.shape(total)))  # then 1 - A^2, floored, over N
    np.subtract(1.0, var, out=var)
    np.maximum(var, 1e-12, out=var)
    np.divide(var, total, out=var, where=recorded)
    np.copyto(var, np.inf, where=~recorded)
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
    # n_pixels is 1 for a conditional-only run (its post pixel), n otherwise
    z_values: np.ndarray          # (n_k, n_pixels) complex estimates
    z_errors: np.ndarray          # (n_k, n_pixels) standard errors
    rates: np.ndarray             # (n_pixels,) post-selection frequency per pixel
    conditional: np.ndarray | None  # q(x) at post_index (or q(p) in p-then-x)
    conditional_se: np.ndarray | None
    joint: np.ndarray | None      # (n_x, n_p) joint estimate when requested


def _quadrature(qi: int, born, sample, shots: int | None, seed: int, min_counts: int,
                pixel: int | None):
    """Quadrature qi's chain: its Born probabilities ``born(phase)``, their
    two analyzer blocks drawn by ``sample`` from the streams (seed, 2 qi) and
    (seed, 2 qi + 1), each block's k cells in order, then each analyzer's
    ``_asymmetry`` figures, its total summed over k.

    With a ``pixel``, only that camera column is kept: each cell's (plus,
    minus at the pixel; anywhere else) marginal, an (analyzer, k, 3, 1)
    stack, whose plus and minus are read as they are, or drawn with ``shots``."""
    probs = born(_QUAD_PHASE[QUADRATURES[qi]])
    if pixel is not None:
        # each cell's marginal: its two ports at the pixel, and the rest of its photons
        plus, minus = probs[..., 0, pixel], probs[..., 1, pixel]
        rest = probs.sum(axis=(-2, -1)) - plus - minus
        probs = np.stack([plus, minus, rest], axis=-1)[..., None]
    if shots is not None:
        probs = sample(probs, shots, [(seed, 2 * qi), (seed, 2 * qi + 1)])
    chain = []
    for rows in probs:  # (k, outcome, pixel)
        asym, var, total, short = _asymmetry(rows[:, 0], rows[:, 1],
                                             None if shots is None else min_counts)
        chain.append((asym, var, total.sum(axis=0), short))
        del total  # the next analyzer's tables are built without it
    return chain


def _sweep(w: WaveFunction, params: np.ndarray, epsilon: float, mode: str,
           shots: int | None, seed: int, min_counts: int, pixel: int | None):
    """Sweep every (k, quadrature, analyzer) cell, batched over k and pixel.

    Returns the (k, pixel) asymmetries keyed by (quadrature, analyzer), their
    summed variance, the (k, pixel) mask of entries lacking data, and the
    counts (or probability) per pixel summed over all cells; with a
    ``pixel``, only that pixel's column, as ``_quadrature`` says.
    Quadrature 0's chain runs on the calling thread through the public
    stages, and quadrature 1's on the worker thread through their private
    bodies, so every traced stage runs on the calling thread.  An error in
    either chain is raised once both have ended.  The sums are formed here in
    (quadrature, analyzer) order, so every output has the bits of running the
    chains one after the other.
    """
    g = w.grid
    h = _slm_plane(w, mode)
    pending = _submit(_quadrature, 1, lambda phase: _setting(g, h, params, phase, epsilon, mode),
                      _sample_shots, shots, seed, min_counts, pixel)
    try:
        chains = _quadrature(0, lambda phase: run_setting(w, params, phase, epsilon, mode),
                             sample_shots, shots, seed, min_counts, pixel)
    finally:
        pending.exception()  # the worker's chain ends before any error of this one is raised
    chains += pending.result()
    asym = {}
    shape = chains[0][0].shape  # (k, pixel)
    var_sum = np.zeros(shape)
    short = np.zeros(shape, dtype=bool)
    recorded = np.zeros(shape[1])
    for key, (a, var, total, cell_short) in zip(itertools.product(QUADRATURES, ANALYZERS),
                                                chains):
        asym[key] = a
        var_sum += var
        short |= cell_short
        recorded += total
    return asym, var_sum, short, recorded


def require_settings(grid: Grid, epsilon: float, mode: str, post_index: int | None = None,
                     shots: int | None = None, min_counts: int = 100):
    """ValueError unless ``run_reconstruction`` can run these settings: a known
    mode, epsilon in (0, pi/2) so that sin(2 epsilon) > 0, a post_index on the
    grid, shots None or in [1, 2^63), min_counts in [1, 2^63) (TypeError for a
    bool or a non-integer, None for min_counts); SizeCap for a grid past the
    n x n cap.  Returns post_index as an int, or None."""
    require_grid_size(grid.n)
    if shots is not None and require_index(shots, SEED_LIMIT, "shots") == 0:
        raise ValueError("shots must be at least 1, got 0")
    if require_index(min_counts, SEED_LIMIT, "min_counts") == 0:
        raise ValueError("min_counts must be at least 1, got 0")
    if mode not in ORDERINGS:
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < epsilon < np.pi / 2:
        raise ValueError(f"coupling epsilon must lie in (0, pi/2), got {epsilon!r}")
    return None if post_index is None else require_index(post_index, grid.n, "post_index")


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
    (seed, 2 qi + ai); a quadrature's two blocks are drawn in one call, and
    the two quadratures run on two threads.  Without ``joint``, a run with a
    ``post_index`` reads only the post pixel: its ``z_values``, ``z_errors``
    and ``rates`` are (n_k, 1) and (1,), and each cell draws only its
    (plus, minus at the pixel; anywhere else) marginal.  The settings are
    refused, before any work, as ``require_settings`` says.
    """
    g = w.grid
    post_index = require_settings(g, epsilon, mode, post_index, shots, min_counts)
    _, params, _, _, step = _order(g, mode)
    n = g.n
    pixel = None if joint else post_index
    asym, var_sum, short, recorded = _sweep(w, params, epsilon, mode, shots, seed, min_counts,
                                            pixel)
    rates = recorded / (4 * n * (1 if shots is None else shots))
    z_values, z_errors = estimate_weak_char(asym, var_sum, epsilon)
    z_values[short] = 0.0
    z_errors[short] = np.inf
    dparam = params[1] - params[0]
    conditional = conditional_se = None
    if post_index is not None:
        column = post_index if pixel is None else 0
        if not np.all(np.isfinite(z_errors[:, column])):
            raise InsufficientCounts(
                f"post-selected pixel {post_index} lacks counts at some frequencies"
            )
        conditional = inverse_char_transform(z_values[:, column], dparam)
        # independent errors per frequency propagate in quadrature through the
        # linear inverse transform
        conditional_se = np.full(
            n, dparam / (2 * np.pi) * float(np.sqrt(np.sum(z_errors[:, column] ** 2)))
        )
    joint_est = None
    if joint:
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
