"""Continuous-variable pipeline on a uniform grid.

Fourier convention: <x|p> = e^{i p x / hbar} / sqrt(2 pi hbar), hbar = 1 by
default.  The momentum grid has spacing dp = 2 pi hbar / L and covers
[-pi hbar / dx, pi hbar / dx); characteristic-function parameters k live on
the conjugate grid with spacing dk = 2 pi / L (so the momentum shift hbar*k
is an exact number of grid steps and reconstruction is an exact inverse DFT).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import require_grid_size, require_postselection
from .errors import DimensionMismatch, IncompleteSampling, NormViolation, OffGridParameter

EDGE_GUARD = 1e-8  # edge amplitude above which momentum shifts alias
TAIL_FLOOR = 1e-10  # edge amplitude above which x*p grid moments stop converging
# measurement orders: which of x and p is coupled weakly first
ORDERINGS = ("x-then-p", "p-then-x")


@dataclass(frozen=True)
class Grid:
    """Uniform position grid with its conjugate momentum grid."""

    n: int
    length: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError("grid size must be a power of two, at least 16")
        if not 0 < self.length < np.inf:
            raise ValueError("grid length must be positive and finite")
        if not 0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return -self.length / 2 + self.dx * np.arange(self.n)

    @property
    def dp(self) -> float:
        return 2 * np.pi * self.hbar / self.length

    @property
    def p(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dp

    @property
    def dk(self) -> float:
        return 2 * np.pi / self.length

    @property
    def k(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.dk


@dataclass(frozen=True)
class WaveFunction:
    grid: Grid
    samples: np.ndarray
    representation: str = "position"  # or "momentum"

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.size != self.grid.n:
            raise DimensionMismatch("sample count must equal grid size")
        step = self.grid.dx if self.representation == "position" else self.grid.dp
        norm = step * np.sum(np.abs(s) ** 2)
        if not abs(norm - 1.0) <= 1e-9:
            raise NormViolation(f"wavefunction norm deviates from 1 by {abs(norm - 1.0):.3e}")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @classmethod
    def normalized(cls, grid: Grid, samples, representation: str = "position") -> "WaveFunction":
        s = np.asarray(samples, dtype=complex)
        step = grid.dx if representation == "position" else grid.dp
        return cls(grid, s / np.sqrt(step * np.sum(np.abs(s) ** 2)), representation)


@dataclass(frozen=True)
class CharFnSample:
    """Characteristic-function values tabulated on conjugate-grid parameters."""

    grid: Grid
    parameters: np.ndarray
    values: np.ndarray
    conditioning: str | None = None

    def __post_init__(self):
        params = np.asarray(self.parameters, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        if params.size != vals.size:
            raise DimensionMismatch("parameter and value counts differ")
        params.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "values", vals)


def momentum_samples_raw(g: Grid, samples: np.ndarray) -> np.ndarray:
    """Forward transform of raw (not necessarily normalized) position samples.

    psi_tilde(p_m) = dx/sqrt(2 pi hbar) * sum_n e^{-i p_m x_n / hbar} psi(x_n);
    the kernel splits into e^{-i p_m x_0}, e^{-i p_0 (x_n - x_0)} and the bare
    DFT kernel e^{-2 pi i m n / N}.
    """
    phase_n = np.exp(-1j * g.p[0] * (g.x - g.x[0]) / g.hbar)
    pre = np.fft.fft(samples * phase_n)
    return g.dx / np.sqrt(2 * np.pi * g.hbar) * np.exp(-1j * g.p * g.x[0] / g.hbar) * pre


def position_samples_raw(g: Grid, samples: np.ndarray) -> np.ndarray:
    """Inverse of momentum_samples_raw."""
    phase_m = np.exp(1j * (g.p - g.p[0]) * g.x[0] / g.hbar)
    pre = np.fft.ifft(samples * phase_m) * g.n
    return g.dp / np.sqrt(2 * np.pi * g.hbar) * np.exp(1j * g.p[0] * g.x / g.hbar) * pre


def to_momentum(w: WaveFunction) -> WaveFunction:
    """Momentum representation of a position-space wavefunction."""
    if w.representation != "position":
        raise ValueError("input must be in position representation")
    return WaveFunction(w.grid, momentum_samples_raw(w.grid, w.samples), "momentum")


def to_position(w: WaveFunction) -> WaveFunction:
    """Inverse of to_momentum."""
    if w.representation != "momentum":
        raise ValueError("input must be in momentum representation")
    return WaveFunction(w.grid, position_samples_raw(w.grid, w.samples), "position")


def _momentum_samples(w: WaveFunction) -> np.ndarray:
    return w.samples if w.representation == "momentum" else to_momentum(w).samples


def _grid_offsets(g: Grid, targets, step: float, what: str) -> np.ndarray:
    """Offsets m, with -n/2 <= m < n/2, of targets = m * step on a centred grid."""
    t = np.asarray(targets, dtype=float)
    m = np.rint(t / step)
    on_grid = (m >= -(g.n // 2)) & (m < g.n - g.n // 2)
    m = np.where(on_grid, m, 0.0)
    on_grid &= np.abs(m * step - t) <= 1e-9 * step
    if not np.all(on_grid):
        raise OffGridParameter(f"{what} {t[~on_grid].flat[0]} is not on the grid (step {step})")
    return m.astype(int)


def weak_char_fn(w: WaveFunction, post_p: float, k_values=None) -> CharFnSample:
    """Z(k) = psi_tilde(post_p - hbar k) / psi_tilde(post_p).

    Momentum shifts wrap periodically at the grid edges (discretization
    artifact of the finite conjugate grid).
    """
    g = w.grid
    pt = _momentum_samples(w)
    if max(abs(pt[0]), abs(pt[-1])) > EDGE_GUARD:
        warnings.warn(
            "momentum amplitude at the grid edge exceeds 1e-8; periodic "
            "wraparound of shifts will alias",
            RuntimeWarning,
            stacklevel=2,
        )
    ip = int(_grid_offsets(g, post_p, g.dp, "post-selection momentum")) + g.n // 2
    denom = pt[ip]
    require_postselection(abs(denom) ** 2 * g.dp, f"p={post_p} post-selection")
    k_values = g.k if k_values is None else np.asarray(k_values, dtype=float)
    shifts = _grid_offsets(g, k_values, g.dk, "characteristic parameter k")
    z = pt[(ip - shifts) % g.n] / denom
    return CharFnSample(g, k_values, z, conditioning=f"p={g.p[ip]:.6g}")


def inverse_char_transform(params: np.ndarray, z: np.ndarray, out_values: np.ndarray) -> np.ndarray:
    """q(y_n) = dparam/(2 pi) * sum_m e^{-i param_m y_n} Z_m, by one FFT.

    ``params`` and ``out_values`` are uniform grids of the same length n whose
    steps satisfy dparam * dout = 2 pi / n.  The sum runs along axis 0 of ``z``;
    trailing axes are transformed independently.
    """
    # e^{-i p_m y_n} = e^{-i p_m y_0} e^{-i p_0 (y_n - y_0)} e^{-2 pi i m n / N}
    trailing = (1,) * (np.ndim(z) - 1)
    pre = np.fft.fft(z * np.exp(-1j * params * out_values[0]).reshape(-1, *trailing), axis=0)
    post = np.exp(-1j * params[0] * (out_values - out_values[0])).reshape(-1, *trailing)
    return (params[1] - params[0]) / (2 * np.pi) * post * pre


def conditional_pseudo_cv(z: CharFnSample) -> np.ndarray:
    """Inverse DFT of Z over the full conjugate grid -> q(x) with dx*sum(q) = 1.

    q(x_n) = dk/(2 pi) * sum_m e^{-i k_m x_n} Z(k_m); on the grid this equals
    the weak-valued position projector <p|x><x|psi>/<p|psi> exactly.
    """
    g = z.grid
    if z.parameters.size != g.n or not np.max(np.abs(z.parameters - g.k)) <= 1e-9 * g.dk:
        raise IncompleteSampling("characteristic function must cover the full conjugate grid")
    return inverse_char_transform(z.parameters, z.values, g.x)


def joint_kd_cv(w: WaveFunction, ordering: str = "x-then-p") -> np.ndarray:
    """Joint phase-space pseudo-distribution over the (x, p) grid.

    x-then-p: K(x, p) = <p|x><x|psi><psi|p>, with rows indexing x and columns
    indexing p; p-then-x gives the reversed-order distribution, the elementwise
    conjugate.  Grids past GRID_CAP points are refused (SizeCap).
    """
    g = w.grid
    require_grid_size(g.n)
    psi_x = w.samples if w.representation == "position" else to_position(w).samples
    psi_p = _momentum_samples(w)
    bra_p_x = np.exp(-1j * np.outer(g.x, g.p) / g.hbar) / np.sqrt(2 * np.pi * g.hbar)
    k = bra_p_x * psi_x[:, None] * psi_p.conj()[None, :]
    if ordering == "x-then-p":
        return k
    if ordering == "p-then-x":
        return k.conj()
    raise ValueError(f"unknown ordering {ordering!r}")


def ccr_witness(w: WaveFunction) -> complex:
    """<xp>_Ktilde - <xp>_K = i*hbar for every state (grid-converged).

    A warning is emitted when the state's spectral tails exceed TAIL_FLOOR,
    since grid moments then stop converging.
    """
    g = w.grid
    psi_p = _momentum_samples(w)
    psi_x = w.samples if w.representation == "position" else to_position(w).samples
    edge = max(np.max(np.abs(psi_p[[0, -1]])), np.max(np.abs(psi_x[[0, -1]])))
    if edge > TAIL_FLOOR:
        warnings.warn(
            f"state amplitude {edge:.2e} at grid edge exceeds {TAIL_FLOOR:.0e}; "
            "the witness may not be grid-converged",
            RuntimeWarning,
            stacklevel=2,
        )
    k = joint_kd_cv(w, "x-then-p")
    xp_k = g.dx * g.dp * np.sum(g.x[:, None] * g.p[None, :] * k)
    return complex(np.conj(xp_k) - xp_k)


# ---------------------------------------------------------------------------
# State builders used by the tests, the experiment simulator, and the CLI.

def gaussian_state(grid: Grid, center: float = 0.0, momentum: float = 0.0,
                   width: float = 1.0) -> WaveFunction:
    """Gaussian packet with <x> = center, <p> = momentum, position spread width/sqrt(2)."""
    x = grid.x
    psi = np.exp(-((x - center) ** 2) / (2 * width**2) + 1j * momentum * x / grid.hbar)
    return WaveFunction.normalized(grid, psi)


def hermite_state(grid: Grid, n: int, width: float = 1.0) -> WaveFunction:
    """n-th harmonic-oscillator eigenfunction (Hermite-Gaussian)."""
    x = grid.x / width
    h = np.polynomial.hermite.hermval(x, [0.0] * n + [1.0])
    return WaveFunction.normalized(grid, h * np.exp(-(x**2) / 2))


def two_peak_state(grid: Grid, separation: float = 4.0, width: float = 1.0,
                   phase: float = 0.0) -> WaveFunction:
    x = grid.x
    psi = np.exp(-((x - separation / 2) ** 2) / (2 * width**2)) + np.exp(
        1j * phase - ((x + separation / 2) ** 2) / (2 * width**2)
    )
    return WaveFunction.normalized(grid, psi)


def random_smooth_state(grid: Grid, seed, modes: int = 6) -> WaveFunction:
    """Random superposition of the lowest Hermite-Gaussian modes (seeded)."""
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=modes) + 1j * rng.normal(size=modes)
    x = grid.x
    psi = np.zeros(grid.n, dtype=complex)
    for n, c in enumerate(coeff):
        h = np.polynomial.hermite.hermval(x, [0.0] * n + [1.0])
        hn = h * np.exp(-(x**2) / 2)
        psi += c * hn / np.sqrt(grid.dx * np.sum(np.abs(hn) ** 2))
    return WaveFunction.normalized(grid, psi)
