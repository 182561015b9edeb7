"""Continuous-variable pipeline on a uniform grid.

Fourier convention: <x|p> = e^{i p x / hbar} / sqrt(2 pi hbar), hbar = 1 by
default.  The momentum grid has spacing dp = 2 pi hbar / L and covers
[-pi hbar / dx, pi hbar / dx); characteristic-function parameters k live on
the conjugate grid with spacing dk = 2 pi / L (so the momentum shift hbar*k
is an exact number of grid steps and reconstruction is an exact inverse DFT).

Every grid is centred, y_i = (i - n/2) dy, and every conjugate pair has step
product 2 pi / n: (x, p/hbar), (k, x) and (x/hbar, p).  Because n/2 is even,
each Fourier kernel is exactly e^{-i u_m y_i} = (-1)^{i+m} omega^{im} with
omega = e^{-2 pi i/n}, so every transform is one sign-modulated FFT
(_centred_fft) and no phase is evaluated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
            raise ValueError(f"grid n must be a power of two, at least 16, got {self.n}")
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
    """Position samples psi(x_i) on ``grid``, with dx * sum |psi|^2 = 1."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.size != self.grid.n:
            raise DimensionMismatch("sample count must equal grid size")
        norm = self.grid.dx * np.sum(np.abs(s) ** 2)
        if not abs(norm - 1.0) <= 1e-9:
            raise NormViolation(f"wavefunction norm deviates from 1 by {abs(norm - 1.0):.3e}")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @classmethod
    def normalized(cls, grid: Grid, samples) -> "WaveFunction":
        s = np.asarray(samples, dtype=complex)
        return cls(grid, s / np.sqrt(grid.dx * np.sum(np.abs(s) ** 2)))


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


def _centred_fft(a, scale: float, axis: int = -1, inverse: bool = False) -> np.ndarray:
    """scale * sum_m e^{-i u_m y_i} a_m along ``axis``, for centred conjugate
    grids u and y (see the module docstring), as (-1)^i fft((-1)^m a)_i;
    ``inverse`` takes the conjugate kernel and ifft's factor 1/n.

    The result is the only array of ``a``'s size that is built: the FFT and
    the output signs work on it in place.
    """
    n = np.shape(a)[axis]
    trailing = (1,) * (np.ndim(a) - 1 - axis % np.ndim(a))
    sign = np.resize([1.0, -1.0], n).reshape(n, *trailing)
    out = np.multiply(a, scale * sign, dtype=complex)
    (np.fft.ifft if inverse else np.fft.fft)(out, axis=axis, out=out)
    out *= sign
    return out


def momentum_samples_raw(g: Grid, samples: np.ndarray) -> np.ndarray:
    """Forward transform of raw (not necessarily normalized) position samples
    along the last axis:
    psi_tilde(p_m) = dx/sqrt(2 pi hbar) * sum_i e^{-i p_m x_i / hbar} psi(x_i).
    """
    return _centred_fft(samples, g.dx / np.sqrt(2 * np.pi * g.hbar))


def position_samples_raw(g: Grid, samples: np.ndarray) -> np.ndarray:
    """Inverse of momentum_samples_raw."""
    return _centred_fft(samples, g.dp * g.n / np.sqrt(2 * np.pi * g.hbar), inverse=True)


def to_momentum(w: WaveFunction) -> np.ndarray:
    """Momentum amplitudes psi_tilde(p) of ``w`` on the grid's p."""
    return momentum_samples_raw(w.grid, w.samples)


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
    pt = to_momentum(w)
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


def inverse_char_transform(z: np.ndarray, dparam: float) -> np.ndarray:
    """q(y_i) = dparam/(2 pi) * sum_m e^{-i u_m y_i} Z_m, by one FFT.

    The parameters u_m and the outputs y_i are centred grids with step product
    2 pi / n, as every conjugate pair on Grid is: (k, x) with dparam = dk,
    and (x/hbar, p) with dparam = dx/hbar.  The sum runs along axis 0 of
    ``z``; trailing axes are transformed independently, and the result is
    the only array of ``z``'s size that is built.
    """
    return _centred_fft(z, dparam / (2 * np.pi), axis=0)


def conditional_pseudo_cv(z: CharFnSample) -> np.ndarray:
    """Inverse DFT of Z over the full conjugate grid -> q(x) with dx*sum(q) = 1.

    q(x_n) = dk/(2 pi) * sum_m e^{-i k_m x_n} Z(k_m); on the grid this equals
    the weak-valued position projector <p|x><x|psi>/<p|psi> exactly.
    """
    g = z.grid
    if z.parameters.size != g.n or not np.max(np.abs(z.parameters - g.k)) <= 1e-9 * g.dk:
        raise IncompleteSampling("characteristic function must cover the full conjugate grid")
    return inverse_char_transform(z.values, g.dk)


def joint_kd_cv(w: WaveFunction, ordering: str = "x-then-p") -> np.ndarray:
    """Joint phase-space pseudo-distribution over the (x, p) grid.

    x-then-p: K(x, p) = <p|x><x|psi><psi|p>, with rows indexing x and columns
    indexing p; p-then-x gives the reversed-order distribution, the elementwise
    conjugate.  Grids past GRID_CAP points are refused (SizeCap).

    On the grid dx*dp/hbar = 2 pi/n, so <p_m|x_i> = omega^r/sqrt(2 pi hbar) with
    omega = e^{-2 pi i/n} and r = (i - n/2)(m - n/2) mod n: the kernel is gathered
    exactly from a table of n roots, and the states multiply it in place, so
    the result and one index array are the only n x n arrays built.
    """
    g = w.grid
    require_grid_size(g.n)
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    psi_x, psi_p = w.samples, to_momentum(w)
    roots = np.exp(-2j * np.pi * np.arange(g.n) / g.n) / np.sqrt(2 * np.pi * g.hbar)
    centred = np.arange(g.n) - g.n // 2
    r = np.multiply.outer(centred, centred)
    r &= g.n - 1  # n is a power of two: the residue mod n, negative products included
    k = roots[r]
    k *= psi_x[:, None]
    k *= psi_p.conj()
    if ordering == "p-then-x":
        np.conjugate(k, out=k)
    return k


def ccr_witness(w: WaveFunction) -> complex:
    """<xp>_Ktilde - <xp>_K = i*hbar for every state (grid-converged).

    <xp>_K = dx dp x.(K p) is two matrix-vector products, so K is the only
    n x n array held.  A warning is emitted when the state's spectral tails
    exceed TAIL_FLOOR, since grid moments then stop converging.
    """
    g = w.grid
    psi_x, psi_p = w.samples, to_momentum(w)
    edge = max(np.max(np.abs(psi_p[[0, -1]])), np.max(np.abs(psi_x[[0, -1]])))
    if edge > TAIL_FLOOR:
        warnings.warn(
            f"state amplitude {edge:.2e} at grid edge exceeds {TAIL_FLOOR:.0e}; "
            "the witness may not be grid-converged",
            RuntimeWarning,
            stacklevel=2,
        )
    xp_k = g.dx * g.dp * (g.x @ (joint_kd_cv(w, "x-then-p") @ g.p))
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
