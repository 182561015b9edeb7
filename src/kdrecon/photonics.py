"""Shot-level Monte-Carlo simulation of the proposed optical experiment.

Pipeline of public stages, each batched over the measured frequencies k and
every camera pixel: imprint a wavefunction on an H-polarized photon, weakly
rotate its polarization as a sinusoid of position, or of momentum in the 4f
configuration, then Fourier-propagate and analyze it (run_setting, whose last
step propagate_and_analyze also offers on its own); draw the camera counts
(sample_shots); estimate the weak characteristic function (estimate_weak_char).
The four (quadrature qi, analyzer ai) blocks travel as one stack from the
Born stage to Z, block b = 2 qi + ai drawn from the Philox stream (seed, b),
and each stage makes one pass over the whole stack, on the calling thread;
a joint and a conditional-only sweep differ only in their Born stage.

A joint sweep reads the whole camera through one run_setting per quadrature,
stacked, and its Z tables are (k, pixel).  A conditional-only sweep reads
one post pixel, as a slit there would, through the private _column, which
computes only that pixel's column, in O(n log n) and at any grid size: by the
Jacobi-Anger expansion the rotated photon is a short sum of shifted copies of
the SLM plane's one lens transform.  It gives each cell's three-outcome
marginal (plus, minus at the pixel; anywhere else), so its Z tables are one
(k, 1) column.

Readout protocol (validated against the grid oracle, not assumed): with input
polarization H and rotation angle eps*sin(k x + phi),
  - phi = pi/2 probes cos(k x), phi = 0 probes sin(k x);
  - the diagonal-analyzer asymmetry gives the real part of the weak value,
    the circular-analyzer asymmetry the imaginary part;
  - Z(k) = <cos>_w + i <sin>_w, each asymmetry normalized by sin(2 eps).
Parity: both weak values depend on |k| only.  The cos hologram at -k is the
one at +k, and the sin hologram at -k is the +k rotation reversed, which
swaps each analyzer's plus and minus ports: at any eps, every Born
probability at -k is the one at +k, ports swapped for sin.  So a sweep
measures only the n/2 + 1 rows q = -n/2, 0, 1, ..., n/2 - 1 (_kept), and
row -q is Z = <cos>_w - i <sin>_w of row q (_unfold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import PS_FLOOR, require_grid_size, require_index, require_postselection
from .cv import (
    ORDERINGS,
    Grid,
    WaveFunction,
    _grid_offsets,
    _grid_transform,
    _require_unit_norm,
    inverse_char_transform,
    momentum_samples_raw,
    position_samples_raw,
)
from .errors import InsufficientCounts, InvalidProbability, NormViolation

ANALYZERS = ("diag", "circ")
QUADRATURES = ("cos", "sin")  # phi = pi/2 and phi = 0
_QUAD_PHASE = {"cos": np.pi / 2, "sin": 0.0}
_ANALYZER_KETS = (
    # per analyzer in ANALYZERS order; columns: (plus outcome, minus outcome)
    np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
)
_ANALYZER_BRAS = np.conj(_ANALYZER_KETS).transpose(0, 2, 1)  # (analyzer, port, H/V)
_PRODUCT_CELLS = 2**15  # complex camera cells projected on the analyzers at once
_EXPANSION_POINTS = 64  # samples per period of cos(eps sin u) and sin(eps sin u)
_DROPPED_BOUND = 1e-15  # summed magnitude of the expansion coefficients left out


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
    whose SLM sits in the 4f momentum plane.  Every k must be m times the
    conjugate step (dk, or dx/hbar) with -n/2 <= m < n/2, one of the grid's
    own frequencies, as ``cv._grid_offsets`` checks: OffGridParameter for
    any other, which the lens would alias.  The coordinate and the step come
    from ``_order``, which refuses an unknown mode before any transform.  The
    rotated photon is built in one buffer, which the lens transforms in
    place: the photon is propagated and analyzed as ``propagate_and_analyze``
    says.  An empty ``k`` gives the empty (analyzer, 0, outcome, pixel) stack.
    """
    g = w.grid
    coords, _, step, inverse, camera_step = _order(g, mode)
    k = np.asarray(k, dtype=float)
    _grid_offsets(g, k, step, "SLM frequency")
    h = _slm_plane(w, mode)
    theta = epsilon * np.sin(np.multiply.outer(k, coords) + phase)
    # the V input is 0, so the rotation sends h to (cos theta, sin theta) h
    hv = np.empty(theta.shape[:-1] + (2, g.n), dtype=complex)
    np.multiply(np.cos(theta), h, out=hv[..., 0, :])
    np.multiply(np.sin(theta), h, out=hv[..., 1, :])
    del theta
    return _analyze(_grid_transform(g, hv, inverse, out=hv), camera_step)


@lru_cache(maxsize=8)
def _expansion(epsilon: float, points: int):
    """Orders m and coefficients c_m of cos(eps sin u) = sum_{m even} c_m e^{imu}
    and sin(eps sin u) = sum_{m odd} c_m e^{imu} (Jacobi-Anger: c_m = J_m(eps),
    times -i for odd m), from a ``points``-point FFT of each, read-only.  The
    orders run over |m| <= M for the least M whose dropped coefficients sum
    to at most _DROPPED_BOUND.  The FFT folds the orders past |m| = points/2
    onto that edge order, so it is always dropped: NormViolation when it
    alone sums past the bound.  Cached: every sweep at one epsilon shares
    it."""
    u = 2 * np.pi * np.arange(points) / points
    orders = np.fft.fftfreq(points, 1 / points).round().astype(int)
    coeff = (np.fft.fft([np.cos(epsilon * np.sin(u)), np.sin(epsilon * np.sin(u))])
             / points)[orders % 2, np.arange(points)]  # each order's own function
    size = np.zeros(points // 2 + 1)  # summed |c| per |m|
    np.add.at(size, np.abs(orders), np.abs(coeff))
    dropped = np.cumsum(size[::-1])[::-1]  # dropped[r]: the sum over |m| >= r
    if not dropped[-1] <= _DROPPED_BOUND:
        raise NormViolation(
            f"expansion coefficients of order {points // 2} and past sum to {dropped[-1]:.3e}")
    top = int(np.argmax(dropped[1:] <= _DROPPED_BOUND))
    kept = np.arange(-top, top + 1)
    coeff = coeff[kept % points]
    kept.setflags(write=False)
    coeff.setflags(write=False)
    return kept, coeff


@lru_cache(maxsize=8)
def _weights(epsilon: float, points: int, phases: tuple):
    """``_expansion``'s orders m and the (order, phase) weights c_m e^{i m phase},
    read-only; cached beside it."""
    orders, coeff = _expansion(epsilon, points)
    weights = coeff[:, None] * np.exp(np.multiply.outer(1j * orders, phases))
    weights.setflags(write=False)
    return orders, weights


def _column(g: Grid, h: np.ndarray, k, phases, epsilon: float, mode: str,
            pixel: int) -> np.ndarray:
    """run_setting's (analyzer, k, outcome, 1) marginal at camera ``pixel``
    for a 1-D ``k`` and each SLM phase in ``phases``, stacked (phase, ...),
    from the SLM-plane amplitudes ``h``: each analyzer's plus and minus at
    the pixel, then 1 - plus - minus (clipped at 0), the photons anywhere
    else.  The k are checked as run_setting checks them, and every
    k = q * step shifts the camera amplitudes by exactly q bins, so with h~
    the one lens transform of ``h`` the two polarization components at
    pixel j are sums over the orders of ``_expansion``: c_m e^{i m phase}
    h~[(j - s m q) mod n], the even orders for H and the odd for V, with
    s = 1 for x-then-p and -1 for p-then-x.
    The lens output's norm must be 1 to 1e-9 (NormViolation), as the
    rotation keeps it.  Each cell is computed elementwise, and each of the
    two sums adds its orders one after the other, so a cell has the same
    bits whatever k array, and whatever other phases, it is computed in."""
    _, _, step, inverse, camera_step = _order(g, mode)
    q = _grid_offsets(g, k, step, "SLM frequency").reshape(-1)
    lens = _grid_transform(g, h, inverse)
    _require_unit_norm(abs(camera_step * np.sum(np.abs(lens) ** 2) - 1.0), "photon")
    orders, weights = _weights(float(epsilon), _EXPANSION_POINTS, tuple(phases))
    # (order, phase, k): the camera index of order m is pixel + m q, or pixel - m q for
    # x-then-p, mod n (a power of two: the low bits, negative indices included)
    index = (pixel + np.multiply.outer(orders if inverse else -orders, q)) & (g.n - 1)
    terms = lens[index][:, None] * weights[..., None]
    # H sums the even orders, V the odd; an accumulation adds in order whatever the shape
    hv = [np.add.accumulate(terms[m % 2::2])[-1] for m in orders[:2]]
    bras = _ANALYZER_BRAS[..., None, None]
    amp = bras[:, :, 0] * hv[0] + bras[:, :, 1] * hv[1]  # (analyzer, port, phase, k)
    probs = np.empty((len(phases), len(ANALYZERS), len(q), 3, 1))
    np.multiply(camera_step, np.square(np.abs(amp)).transpose(2, 0, 3, 1), out=probs[..., :2, 0])
    np.maximum(1.0 - probs[..., 0, 0] - probs[..., 1, 0], 0.0, out=probs[..., 2, 0])
    return probs


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
    run = max(1, _PRODUCT_CELLS // math.prod(camera.shape[-2:]))
    for start in range(0, len(rows), run):
        for p, bras in zip(probs[:, start:start + run], _ANALYZER_BRAS):
            p[...] = step * np.abs(bras @ rows[start:start + run]) ** 2
    probs = probs.reshape((len(ANALYZERS),) + camera.shape)
    _require_unit_norm(np.max(np.abs(probs[0].sum(axis=(-2, -1)) - 1.0), initial=0.0), "photon")
    return probs


SEED_LIMIT = 2**63  # each Philox key word, and each shot count, lies in [0, 2^63)

def _clipped_rows(cells: np.ndarray) -> np.ndarray:
    """``cells`` clipped to [0, inf), as C-ordered (cell, outcome) rows."""
    return np.maximum(cells, 0, out=np.empty(cells.shape)).reshape(
        len(cells), math.prod(cells.shape[1:]))


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
    key, ``shots`` outside [0, 2^63), or a cell that is not a probability
    (negative or NaN) or sums to 0 is refused before any draw.

    The stack is read as one sequence of (block, cell) rows, cut into runs
    of about _PRODUCT_CELLS values that may span blocks; the check and the
    draw each clip a run once.  A call builds one generator, local to the
    call and seeded, so it reads no OS entropy.  Before block b's first cell
    it is re-keyed to the state ``Philox(key=keys[b])`` is built with
    (counter 0, empty buffer), a state write in place of a ``Philox`` build,
    and then draws the block's cells of each run.  No copy of the stack is
    built, unless its block and cell axes do not merge (a view that slices
    the cells).  A sweep's stacks, (4, n/2 + 1, 2, n) for a joint and
    (4, n/2 + 1, 3, 1) for a conditional-only run, are one run each at the
    benchmark's sizes.
    """
    keys = [_require_key(key) for key in keys]
    shots = require_index(shots, SEED_LIMIT, "shots")
    p = np.asarray(prob, dtype=float)
    if p.ndim < 3 or len(p) != len(keys):
        raise ValueError(
            f"prob needs a leading axis of {len(keys)} blocks of cells, got shape {p.shape}"
        )
    low = p.min(initial=0.0)
    if np.isnan(low):
        raise InvalidProbability("NaN probability encountered")
    if not low >= -1e-12:
        raise InvalidProbability("negative probability encountered")
    cells, outcomes = p.shape[1], math.prod(p.shape[2:])
    rows = p.reshape((len(p) * cells,) + p.shape[2:])  # (block, cell) rows
    run = max(1, _PRODUCT_CELLS // max(1, outcomes))
    starts = range(0, len(rows), run)
    totals = np.empty(len(rows))
    for start in starts:
        totals[start:start + run] = _clipped_rows(rows[start:start + run]).sum(axis=1)
    if not np.all(totals <= 1 + 1e-9):
        raise InvalidProbability(f"probabilities sum to {totals.max()}")
    if not np.all(totals > 0):
        raise InvalidProbability("a cell's probabilities sum to 0")
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    counts = np.empty((len(rows), outcomes), dtype=np.int64)
    for start in starts:
        stop = min(start + run, len(rows))
        pvals = _clipped_rows(rows[start:stop]) / totals[start:stop, None]
        for b in range(start // cells, (stop - 1) // cells + 1):  # the blocks the run spans
            lo, hi = max(start, b * cells), min(stop, (b + 1) * cells)
            if lo == b * cells:  # the block's first cell: Philox(key=keys[b]) as built
                bits.state = {"bit_generator": "Philox",
                              "state": {"counter": (0, 0, 0, 0), "key": keys[b]},
                              "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                              "has_uint32": 0, "uinteger": 0}
            counts[lo:hi] = gen.multinomial(shots, pvals[lo - start:hi - start])
    return counts.reshape(p.shape)


def _asymmetry(plus, minus, min_counts: int | None):
    """Elementwise (plus - minus)/(plus + minus), its variance, the total
    recorded, and a mask of entries too poorly recorded to use.

    ``min_counts=None`` marks Born probabilities: variance 0, unusable
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
        return asym, np.zeros(np.shape(total)), total, ~recorded
    var = np.square(asym, out=np.empty(np.shape(total)))  # then 1 - A^2, floored, over N
    np.subtract(1.0, var, out=var)
    np.maximum(var, 1e-12, out=var)
    np.divide(var, total, out=var, where=recorded)
    np.copyto(var, np.inf, where=~recorded)
    return asym, var, total, total < min_counts


def estimate_weak_char(asym, var_sum, epsilon: float):
    """Z = (A_0 - A_3 + i(A_1 + A_2)) / sin(2 eps) and its standard error,
    elementwise over (k, pixel), from the (block, k, pixel) stack of
    asymmetries (cos-diag, cos-circ, sin-diag, sin-circ) and their summed
    variance; ValueError for an epsilon that require_settings refuses, and
    for a variance that is negative or NaN (inf, no data, is taken)."""
    _require_epsilon(epsilon)
    ok = np.greater_equal(var_sum, 0.0)  # False for NaN
    if not ok.all():
        raise ValueError(
            f"summed variance must be at least 0, got {np.asarray(var_sum)[~ok].flat[0]}")
    norm = np.sin(2 * epsilon)
    z = (asym[0] - asym[3] + 1j * (asym[1] + asym[2])) / norm
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


def _kept(params: np.ndarray) -> np.ndarray:
    """The n/2 + 1 frequencies a sweep measures, in k order: q = -n/2 and
    q = 0, 1, ..., n/2 - 1 steps (the parity in the module docstring)."""
    return np.concatenate([params[:1], params[len(params) // 2:]])


def _unfold(rows: np.ndarray) -> np.ndarray:
    """The n rows in grid order, along axis -2, from the ``_kept`` rows there: row -q is row q."""
    return np.concatenate([rows[..., :1, :], rows[..., :1:-1, :], rows[..., 1:, :]], axis=-2)


def _sweep(w: WaveFunction, params: np.ndarray, epsilon: float, mode: str,
           shots: int | None, seed: int, min_counts: int, pixel: int | None):
    """Sweep every (k, quadrature, analyzer) cell of the ``_kept`` rows
    ``params``, batched over k and pixel, on the calling thread, in one pass:
    the Born stack of the four (quadrature, analyzer) blocks, then one
    ``sample_shots`` call that draws block b's cells in k order from the
    stream (seed, b), then one ``_asymmetry`` pass over the stack.  Without a
    ``pixel`` (a joint) the stack holds both quadratures' ``run_setting``
    probabilities over the whole camera; with a ``pixel``, ``_column`` gives
    both quadratures' marginals at that pixel, so every table is one (k, 1)
    column.

    Returns the (block, k, pixel) asymmetries of those rows, their summed
    variance, the mask of (k, pixel) entries lacking data, and per pixel two
    totals summed over the blocks in block order: the photons recorded over
    all n rows (a row q > 0 stands for its twin too), and those of the q = 0
    row, where the coupling moves no light.
    """
    phases = [_QUAD_PHASE[q] for q in QUADRATURES]
    if pixel is None:
        probs = np.stack([run_setting(w, params, phase, epsilon, mode) for phase in phases])
    else:
        probs = _column(w.grid, _slm_plane(w, mode), params, phases, epsilon, mode, pixel)
    probs = probs.reshape(-1, *probs.shape[2:])  # the (quadrature, analyzer) blocks
    if shots is not None:
        probs = sample_shots(probs, shots, [(seed, b) for b in range(len(probs))])
    asym, var, total, short = _asymmetry(probs[:, :, 0], probs[:, :, 1],
                                         None if shots is None else min_counts)
    recorded = (total[:, 0] + total[:, 1] + 2 * total[:, 2:].sum(axis=1)).sum(axis=0)
    return asym, var.sum(axis=0), short.any(axis=0), recorded, total[:, 1].sum(axis=0)


def _require_epsilon(epsilon) -> None:
    """ValueError unless the coupling epsilon lies in [1e-9, pi/2): a weaker
    coupling's rounding, about 3e-16/epsilon, passes its bias."""
    if not 1e-9 <= epsilon < np.pi / 2:
        raise ValueError(f"coupling epsilon must lie in [1e-9, pi/2), got {epsilon!r}")


def require_settings(grid: Grid, epsilon: float, mode: str, post_index: int | None = None,
                     shots: int | None = None, min_counts: int = 100):
    """ValueError unless ``run_reconstruction`` can run these settings: a known
    mode, epsilon in [1e-9, pi/2) (a weaker coupling's rounding, about
    3e-16/epsilon, passes its bias), a post_index on the grid, shots None or in
    [1, 2^63), min_counts in [1, 2^63) (TypeError for a bool or a non-integer,
    None for min_counts); SizeCap for a grid past the n x n cap when there is
    no post_index, as such a run reads the whole camera.  A conditional-only run
    takes any grid.  Returns post_index as an int, or None."""
    if post_index is None:
        require_grid_size(grid.n)
    if shots is not None and require_index(shots, SEED_LIMIT, "shots") == 0:
        raise ValueError("shots must be at least 1, got 0")
    if require_index(min_counts, SEED_LIMIT, "min_counts") == 0:
        raise ValueError("min_counts must be at least 1, got 0")
    if mode not in ORDERINGS:
        raise ValueError(f"unknown mode {mode!r}")
    _require_epsilon(epsilon)
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
    """Full k-sweep: one pass of the four stages over the stack of the four
    blocks (``_sweep``), then the inverse Fourier transform.

    ``shots=None`` selects the infinite-statistics shortcut (analytic Born
    probabilities, zero statistical error).  Only the n/2 + 1 rows q = -n/2,
    0, 1, ..., n/2 - 1 are measured; row -q, for 0 < q < n/2, is filled from
    row q, paired by its integer offset: if Z(q) = C + iS then Z(-q) =
    C - iS, and it takes row q's ``z_errors`` and mask of short rows.  The
    tables keep their n rows.  Each (quadrature qi, analyzer ai) block draws
    its measured cells in k order from the Philox stream keyed by (seed,
    2 qi + ai), as the module docstring says.  Without ``joint``, a run with
    a ``post_index`` reads only the post pixel, so the grid is not capped;
    its ``z_values``,
    ``z_errors`` and ``rates`` are (n_k, 1) and (1,), and each cell draws
    only its (plus, minus at the pixel; anywhere else) marginal.
    The settings are refused, before any work, as ``require_settings``
    says, and so is a seed outside [0, 2^63), with or without shots
    (``core.require_index``); a joint past the n x n cap is a SizeCap, and a
    post pixel whose k = 0 rate is at or below 1e-10 a PostSelectionTooWeak.
    A joint reports 0 in each camera column that lacks counts at some k or
    whose k = 0 rate is at or below that floor.
    """
    g = w.grid
    post_index = require_settings(g, epsilon, mode, post_index, shots, min_counts)
    seed = require_index(seed, SEED_LIMIT, "seed")
    if joint:
        require_grid_size(g.n)
    _, params, dparam, _, step = _order(g, mode)
    n = g.n
    pixel = None if joint else post_index
    asym, var_sum, short, recorded, at_rest = _sweep(w, _kept(params), epsilon, mode, shots,
                                                     seed, min_counts, pixel)
    per_cell = 4 * (1 if shots is None else shots)  # four blocks of one k
    rates = recorded / (n * per_cell)
    # row -q: row q's asymmetries, the sin blocks' (2 and 3) negated
    asym = _unfold(asym)
    np.negative(asym[2:, 1:n // 2], out=asym[2:, 1:n // 2])
    z_values, z_errors = estimate_weak_char(asym, _unfold(var_sum), epsilon)
    short = _unfold(short)
    z_values[short] = 0.0
    z_errors[short] = np.inf
    conditional = conditional_se = None
    if post_index is not None:
        column = post_index if pixel is None else 0
        if not np.all(np.isfinite(z_errors[:, column])):
            raise InsufficientCounts(
                f"post-selected pixel {post_index} lacks counts at some frequencies"
            )
        require_postselection(float(at_rest[column]) / per_cell,
                              f"pixel {post_index} post-selection")
        conditional = inverse_char_transform(z_values[:, column], dparam)
        # errors propagate in quadrature through the linear inverse transform,
        # as if independent per frequency.  Rows q and -q share their draws,
        # but C and S come from independent blocks: their pair's variance at y
        # is 4 (v_C cos^2 qy + v_S sin^2 qy), which is this 2 (v_C + v_S)
        # where v_C = v_S, and on average over y
        conditional_se = np.full(
            n, dparam / (2 * np.pi) * float(np.sqrt(np.sum(z_errors[:, column] ** 2)))
        )
    joint_est = None
    if joint:
        valid = np.all(np.isfinite(z_errors), axis=0) & (at_rest / per_cell > PS_FLOOR)
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
