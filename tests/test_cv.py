import cmath
import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from kdrecon.cv import (
    CharFnSample,
    Grid,
    WaveFunction,
    ccr_witness,
    conditional_pseudo_cv,
    gaussian_state,
    hermite_state,
    inverse_char_transform,
    joint_kd_cv,
    momentum_samples_raw,
    position_samples_raw,
    random_smooth_state,
    to_momentum,
    two_peak_state,
    weak_char_fn,
)
from kdrecon import cv
from kdrecon.core import GRID_CAP
from kdrecon.scenarios import _cv_joint_oracle
from kdrecon.errors import (
    DimensionMismatch,
    NormViolation,
    OffGridParameter,
    PostSelectionTooWeak,
)


def weak_char_fn_general(w: WaveFunction, phi: WaveFunction, k_values) -> np.ndarray:
    """Reference Z(k) = <phi|e^{i k x}|psi> / <phi|psi> for an arbitrary
    position-representation post-selection state, by direct sums on the grid."""
    g = w.grid
    overlap = g.dx * np.sum(phi.samples.conj() * w.samples)
    return np.array([
        g.dx * np.sum(phi.samples.conj() * np.exp(1j * k * g.x) * w.samples) / overlap
        for k in k_values
    ])


@pytest.fixture
def grid():
    return Grid(512, 40.0)


@pytest.fixture
def big_grid():
    return Grid(1024, 40.0)


class TestGrid:
    def test_spacings(self, grid):
        assert grid.dx == pytest.approx(40.0 / 512)
        assert grid.dp == pytest.approx(2 * np.pi / 40.0)
        assert grid.dk == pytest.approx(2 * np.pi / 40.0)

    def test_momentum_range(self, grid):
        assert grid.p[0] == pytest.approx(-np.pi / grid.dx)
        assert grid.p[-1] == pytest.approx(np.pi / grid.dx - grid.dp)

    @pytest.mark.parametrize("length, hbar", [
        (0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
        (40.0, 0.0), (40.0, np.nan), (40.0, np.inf),
    ])
    def test_length_and_hbar_must_be_positive_and_finite(self, length, hbar):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(64, length, hbar)

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            Grid(1000, 40.0)
        with pytest.raises(ValueError):
            Grid(8, 40.0)

    def test_hbar_scales_momentum(self):
        g = Grid(64, 10.0, hbar=2.0)
        assert g.dp == pytest.approx(2 * np.pi * 2.0 / 10.0)

    @pytest.mark.parametrize("n", [64.0, "64", True])
    def test_non_integer_n_is_a_type_error_that_names_it(self, n):
        with pytest.raises(TypeError, match="grid n must be an integer"):
            Grid(n, 16.0)

    def test_numpy_integer_n_is_read_as_int(self):
        g = Grid(np.int64(64), 16.0)
        assert type(g.n) is int
        assert g == Grid(64, 16.0)

    @pytest.mark.parametrize("n", [16, 1024])
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("name", ["x", "p", "k"])
    def test_coordinate_arrays_are_built_once_and_read_only(self, n, hbar, name):
        g = Grid(n, 16.0, hbar)
        expected = {  # the formulas the grid has always used
            "x": -g.length / 2 + g.dx * np.arange(n),
            "p": (np.arange(n) - n // 2) * g.dp,
            "k": (np.arange(n) - n // 2) * g.dk,
        }[name]
        a = getattr(g, name)
        assert getattr(g, name) is a
        assert a.tobytes() == expected.tobytes()
        # a copy or an unpickled grid does not carry a writable array
        for other in (g, copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert other == g
            assert getattr(other, name).tobytes() == expected.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                getattr(other, name)[0] = 1.0


class TestTransforms:
    def test_gaussian_self_fourier(self, grid):
        # width-1 Gaussian is its own Fourier transform (hbar = 1)
        w = gaussian_state(grid)
        pt = to_momentum(w)
        expected = np.pi ** (-0.25) * np.exp(-grid.p ** 2 / 2)
        assert np.max(np.abs(pt - expected)) < 1e-8

    def test_broad_state_peaks_at_zero_momentum(self, grid):
        w = gaussian_state(grid, width=6.0)
        pt = to_momentum(w)
        assert np.argmax(np.abs(pt)) == grid.n // 2

    def test_double_transform_is_parity(self):
        # self-dual grid (dx == dp) so position and momentum grids coincide
        n = 512
        g = Grid(n, float(np.sqrt(2 * np.pi * n)))
        w = random_smooth_state(g, seed=4)
        once = to_momentum(w)
        twice = to_momentum(WaveFunction(g, once))
        flipped = np.roll(w.samples[::-1], 1)  # x -> -x on the half-open grid
        assert np.max(np.abs(twice - flipped)) < 1e-8

    def test_roundtrip(self, grid):
        w = random_smooth_state(grid, seed=9)
        back = position_samples_raw(grid, to_momentum(w))
        assert np.max(np.abs(back - w.samples)) < 1e-12

    def test_norm_preserved(self, grid):
        w = two_peak_state(grid)
        pt = to_momentum(w)
        assert abs(grid.dp * np.sum(np.abs(pt) ** 2) - 1) < 1e-9

    def test_samples_are_copied_from_the_caller(self, grid):
        samples = gaussian_state(grid).samples.copy()
        w = WaveFunction(grid, samples)
        assert samples.flags.writeable  # the caller's own array is not frozen
        samples *= 200.0  # would take the checked norm from 1 to 40,000
        assert np.array_equal(w.samples, gaussian_state(grid).samples)
        assert abs(grid.dx * np.sum(np.abs(w.samples) ** 2) - 1) < 1e-9
        assert not w.samples.flags.writeable

    def test_norm_enforced(self, grid):
        with pytest.raises(NormViolation):
            WaveFunction(grid, np.ones(grid.n))
        with pytest.raises(NormViolation):
            WaveFunction(grid, np.full(grid.n, np.nan))
        with pytest.raises(NormViolation), np.errstate(divide="ignore", invalid="ignore"):
            gaussian_state(grid, width=0.0)

    def test_displaced_packet_momentum_shift(self, grid):
        k0 = 5 * grid.dp
        w = gaussian_state(grid, momentum=k0)
        pt = to_momentum(w)
        assert grid.p[np.argmax(np.abs(pt))] == pytest.approx(k0)

    @pytest.mark.parametrize("n", [16, 128])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("axis", [0, -1])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("kind", ["real", "complex", "zeros"])
    def test_centred_fft_has_the_bits_of_the_sign_modulated_fft(self, n, ndim, axis, inverse,
                                                                 kind):
        # scale * s * fft(s * a) with s = (1, -1, 1, ...) along ``axis``,
        # each product a complex one, the sign bit of an exact zero included:
        # a joint's columns short of counts transform all-zero tables
        shape = [3, 2][:ndim - 1]
        shape.insert(0 if axis == 0 else ndim - 1, n)
        rng = np.random.default_rng(n + ndim)
        a = rng.normal(size=shape)
        if kind == "complex":
            a = a + 1j * rng.normal(size=shape)
        elif kind == "zeros":
            a = np.zeros(shape, dtype=complex)
            a.real[..., ::3] = -0.0
            a.imag[..., 1::2] = -0.0
        scale = 0.37
        s = np.resize([1.0, -1.0], n).reshape((n,) + (1,) * (ndim - 1 - axis % ndim))
        ref = np.multiply(a, scale * s, dtype=complex)
        (np.fft.ifft if inverse else np.fft.fft)(ref, axis=axis, out=ref)
        ref *= s
        outputs = [cv._centred_fft(a, scale, axis=axis, inverse=inverse)]
        if kind != "real":  # a complex ``out`` may be ``a`` itself
            inplace = a.copy()
            assert cv._centred_fft(inplace, scale, axis=axis, inverse=inverse,
                                   out=inplace) is inplace
            outputs.append(inplace)
        for got in outputs:
            assert got.shape == ref.shape and got.dtype == complex
            assert got.tobytes() == ref.tobytes()


def gaussian_pair(g: Grid, center: float, momentum: float, width: float):
    """psi(x) and psi~(p) of a displaced, boosted Gaussian, in closed form."""
    norm = (np.pi * width**2) ** -0.25
    psi = norm * np.exp(-((g.x - center) ** 2) / (2 * width**2) + 1j * momentum * g.x / g.hbar)
    psi_p = norm * width / np.sqrt(g.hbar) * np.exp(
        -(width * (g.p - momentum) / g.hbar) ** 2 / 2 - 1j * (g.p - momentum) * center / g.hbar)
    return psi, psi_p


def hermite_pair(g: Grid, order: int, width: float):
    """psi(x) = phi_n(x/width)/sqrt(width) and psi~(p) =
    (-i)^n sqrt(width/hbar) phi_n(p width/hbar), phi_n the Hermite function."""
    def phi(u):
        h = np.polynomial.hermite.hermval(u, [0.0] * order + [1.0])
        return h * np.exp(-(u**2) / 2) / math.sqrt(2.0**order * math.factorial(order)
                                                    * math.sqrt(math.pi))

    return (phi(g.x / width) / math.sqrt(width),
            (-1j) ** order * math.sqrt(width / g.hbar) * phi(g.p * width / g.hbar))


class TestExactFourierPairs:
    """The transforms evaluate no phase, so no error grows with |x p|, which
    reaches about 3200 hbar at L = 200."""

    @pytest.mark.parametrize("length", [40.0, 200.0])
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("pair", [
        lambda g: gaussian_pair(g, 0.7, 1.3, 1.1), lambda g: hermite_pair(g, 3, 0.9),
    ], ids=["displaced-boosted-gaussian", "hermite-3"])
    def test_transforms_match_the_closed_form(self, length, hbar, pair):
        g = Grid(4096, length, hbar)
        psi, psi_p = pair(g)
        assert np.max(np.abs(momentum_samples_raw(g, psi) - psi_p)) <= 1e-15
        assert np.max(np.abs(position_samples_raw(g, psi_p) - psi)) <= 1e-15
        round_trip = position_samples_raw(g, momentum_samples_raw(g, psi))
        assert np.max(np.abs(round_trip - psi)) <= 1e-15

    @pytest.mark.parametrize("mode, hbar", [("x-then-p", 1.0), ("p-then-x", 2.5)])
    def test_inverse_char_transform_matches_the_exact_kernel(self, mode, hbar):
        """q(y_i) = du/(2 pi) sum_m omega^r Z_m, r = (i - n/2)(m - n/2) mod n,
        summed directly in long double at 64 rows, corners included."""
        g = Grid(2048, 200.0, hbar)
        du = g.dk if mode == "x-then-p" else g.dx / g.hbar
        rng = np.random.default_rng(23)
        z = rng.normal(size=(g.n, 2)) + 1j * rng.normal(size=(g.n, 2))
        q = inverse_char_transform(z, du)
        roots = np.array([cmath.exp(-2j * cmath.pi * r / g.n) for r in range(g.n)])
        rows = np.r_[0, g.n - 1, rng.integers(g.n, size=62)]
        centred = np.arange(g.n) - g.n // 2
        kernel = roots[np.multiply.outer(centred[rows], centred) % g.n]
        direct = du / (2 * math.pi) * (kernel.astype(np.clongdouble) @ z).astype(complex)
        assert np.max(np.abs(q[rows] - direct)) <= 1e-15 * np.max(np.abs(direct))


class TestWeakCharFn:
    def test_zero_shift(self, grid):
        z = weak_char_fn(gaussian_state(grid), 0.0)
        assert z.values[grid.n // 2] == pytest.approx(1)

    def test_gaussian_analytic(self, grid):
        # width 1/sqrt(2): momentum amplitude ~ e^{-p^2/4}, so Z(k) = e^{-k^2/4}
        w = gaussian_state(grid, width=1 / np.sqrt(2))
        z = weak_char_fn(w, 0.0)
        sel = np.abs(grid.k) < 8
        expected = np.exp(-grid.k[sel] ** 2 / 4)
        assert np.max(np.abs(z.values[sel] - expected)) < 1e-8

    def test_narrow_momentum_packet_decays_fast(self, grid):
        w = gaussian_state(grid, width=3.0)  # narrow in momentum
        z = weak_char_fn(w, 0.0)
        mags = np.abs(z.values[grid.n // 2:grid.n // 2 + 3])  # k = 0, dk, 2 dk
        assert mags[0] == pytest.approx(1)
        assert mags[1] < 1.0 and mags[2] < mags[1]

    def test_k_lookup_matches_explicit_shift(self, grid):
        w = random_smooth_state(grid, seed=3)
        pt = to_momentum(w)
        ip = grid.n // 2 + 2
        rng = np.random.default_rng(0)
        idx = rng.integers(0, grid.n, size=50)
        z = weak_char_fn(w, grid.p[ip])
        shifts = idx - grid.n // 2  # k = grid.k[idx] shifts p by this many steps
        assert np.array_equal(z.values[idx], pt[(ip - shifts) % grid.n] / pt[ip])

    @pytest.mark.parametrize("steps", [0.37, np.nan])
    def test_off_grid_post_p_rejected(self, grid, steps):
        with pytest.raises(OffGridParameter):
            weak_char_fn(gaussian_state(grid), steps * grid.dp)

    def test_weak_postselection_rejected(self, grid):
        w = gaussian_state(grid, width=0.5)
        with pytest.raises(PostSelectionTooWeak):
            weak_char_fn(w, grid.p[-1])

    def test_edge_aliasing_warning(self):
        # width 0.1 on a 32-point grid: the momentum amplitude at the edge is about 0.1
        w = gaussian_state(Grid(32, 6.0), width=0.1)
        with pytest.warns(RuntimeWarning, match="grid edge"):
            weak_char_fn(w, 0.0)

    def test_general_phi_matches_momentum_eigenstate_limit(self, grid):
        # plane-wave phi on the grid approximates momentum post-selection
        w = random_smooth_state(grid, seed=2)
        z_fast = weak_char_fn(w, 0.0).values[200:312]
        phi = WaveFunction.normalized(grid, np.ones(grid.n))
        z_gen = weak_char_fn_general(w, phi, grid.k[200:312])
        assert np.max(np.abs(z_fast - z_gen)) < 1e-7


class TestConditional:
    def test_matches_bracket_formula(self, grid):
        for builder in (
            lambda g: gaussian_state(g),
            lambda g: two_peak_state(g),
            lambda g: random_smooth_state(g, seed=5),
        ):
            w = builder(grid)
            z = weak_char_fn(w, 0.0)
            q = conditional_pseudo_cv(z)
            pt = to_momentum(w)
            ip = grid.n // 2
            # <p|x><x|psi>/<p|psi> with <p|x> = e^{-ipx}/sqrt(2 pi)
            oracle = (
                np.exp(-1j * grid.p[ip] * grid.x)
                / np.sqrt(2 * np.pi)
                * w.samples
                / pt[ip]
            )
            assert np.max(np.abs(q - oracle)) < 1e-7

    def test_narrow_packet_concentrates(self, grid):
        x0 = 1.25
        w = gaussian_state(grid, center=x0, width=0.25)
        q = conditional_pseudo_cv(weak_char_fn(w, 0.0))
        assert abs(grid.x[np.argmax(np.abs(q))] - x0) < 3 * grid.dx

    def test_normalization_sweep(self, grid):
        for seed in range(50):
            w = random_smooth_state(grid, seed=seed)
            q = conditional_pseudo_cv(weak_char_fn(w, 0.0))
            assert abs(grid.dx * np.sum(q) - 1.0) < 1e-8


class TestJoint:
    def test_gaussian_closed_form(self, grid):
        w = gaussian_state(grid)
        k = joint_kd_cv(w)
        xx, pp = np.meshgrid(grid.x, grid.p, indexing="ij")
        closed = (
            np.exp(-1j * pp * xx) / np.sqrt(2 * np.pi)
            * np.pi ** (-0.5)
            * np.exp(-(xx ** 2) / 2 - (pp ** 2) / 2)
        )
        assert np.max(np.abs(k - closed)) < 1e-7

    def test_marginal_is_position_density(self, grid):
        w = two_peak_state(grid)
        k = joint_kd_cv(w)
        marg = grid.dp * np.sum(k, axis=1)
        assert np.max(np.abs(marg - np.abs(w.samples) ** 2)) < 1e-7

    def test_normalization(self, grid):
        w = random_smooth_state(grid, seed=3)
        k = joint_kd_cv(w)
        assert abs(grid.dx * grid.dp * np.sum(k) - 1.0) < 1e-7

    def test_reversed_order_is_conjugate(self, grid):
        w = random_smooth_state(grid, seed=6)
        assert np.array_equal(joint_kd_cv(w, "p-then-x"), joint_kd_cv(w).conj())

    def test_moment_consistency(self, grid):
        w = random_smooth_state(grid, seed=7)
        k = joint_kd_cv(w)
        mean_x = grid.dx * grid.dp * np.sum(grid.x[:, None] * k)
        direct = grid.dx * np.sum(grid.x * np.abs(w.samples) ** 2)
        assert abs(mean_x.real - direct) < 1e-7
        assert abs(mean_x.imag) < 1e-9


    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("ordering", ["x-then-p", "p-then-x"])
    def test_kernel_is_exact_on_a_wide_grid(self, hbar, ordering):
        """<p_m|x_i> = e^{-2 pi i r/n}/sqrt(2 pi hbar), r = (i - n/2)(m - n/2) mod n:
        no phase error grows with |x p|, which reaches about 3200 hbar here."""
        g = Grid(2048, 200.0, hbar)
        rng = np.random.default_rng(17)
        # random samples fill both representations, so no entry is zero
        w = WaveFunction.normalized(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n))
        k = joint_kd_cv(w, ordering)
        psi_x, psi_p = w.samples.tolist(), to_momentum(w).tolist()
        last = g.n - 1
        cells = [(0, 0), (0, last), (last, 0), (last, last)]
        cells += [tuple(c) for c in rng.integers(g.n, size=(296, 2)).tolist()]
        worst = 0.0
        for i, m in cells:
            r = (i - g.n // 2) * (m - g.n // 2) % g.n
            ref = (psi_x[i] * psi_p[m].conjugate() * cmath.exp(-2j * cmath.pi * r / g.n)
                   / math.sqrt(2 * math.pi * hbar))
            ref = ref if ordering == "x-then-p" else ref.conjugate()
            worst = max(worst, abs(complex(k[i, m]) - ref) / abs(ref))
        assert worst <= 1e-15


def traced_peak(call) -> int:
    """Peak bytes traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDenseMemory:
    """The dense paths hold their result and one index array (or, for the
    oracle, the table and its transform), with no further n x n temporaries."""

    @pytest.mark.parametrize("call", [
        lambda w: joint_kd_cv(w), lambda w: joint_kd_cv(w, "p-then-x"),
    ], ids=["joint-x-then-p", "joint-p-then-x"])
    def test_joint_and_witness_at_n_2048(self, call):
        # the complex 2048 x 2048 result alone is 67 MB, its int64 index 34 MB
        w = gaussian_state(Grid(2048, 200.0))
        assert traced_peak(lambda: call(w)) < 110e6

    @pytest.mark.parametrize("ordering", ["x-then-p", "p-then-x"])
    def test_cv_joint_oracle_at_n_1024(self, ordering):
        # two complex 1024 x 1024 arrays are 33.6 MB
        g = Grid(1024, 40.0)
        w = gaussian_state(g)
        assert traced_peak(lambda: _cv_joint_oracle(g, w, ordering)) < 34e6


class TestCcrWitness:
    def test_gaussian(self, big_grid):
        assert abs(ccr_witness(gaussian_state(big_grid)) - 1j) < 1e-6

    def test_first_hermite(self, big_grid):
        assert abs(ccr_witness(hermite_state(big_grid, 1)) - 1j) < 1e-6

    def test_squeezed(self, big_grid):
        # squeeze 0.5: width e^{-0.5}
        w = gaussian_state(big_grid, width=np.exp(-0.5))
        assert abs(ccr_witness(w) - 1j) < 1e-5

    def test_state_independence(self, big_grid):
        vals = [
            ccr_witness(random_smooth_state(big_grid, seed=s)) for s in range(20)
        ]
        assert np.std(np.abs(np.array(vals) - 1j)) < 1e-5

    def test_edge_tail_warning(self):
        g = Grid(32, 6.0)
        with pytest.warns(RuntimeWarning, match="grid edge"):
            ccr_witness(gaussian_state(g))

    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("n, length", [(256, 20.0), (1024, 40.0)])
    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_the_dense_kd_sum(self, seed, n, length, hbar):
        g = Grid(n, length, hbar)
        w = random_smooth_state(g, seed=seed)
        xp_k = g.dx * g.dp * (g.x @ (joint_kd_cv(w) @ g.p))  # sum of x p K(x, p)
        # a few ulps of |i hbar|: the dense sum itself misses i hbar by up to
        # 1.3e-15 at hbar = 2.5
        assert abs(ccr_witness(w) - (np.conj(xp_k) - xp_k)) <= 1e-15 * hbar

    def test_holds_only_n_vectors(self):
        # one complex n-vector at n = 2048 is 33 kB; the n x n K was 67 MB
        w = gaussian_state(Grid(2048, 200.0))
        assert traced_peak(lambda: ccr_witness(w)) < 5e6


class TestGridCap:
    def test_dense_paths_one_grid_past_the_cap_build_nothing(self, size_cap_peak):
        # an n x n complex array at n = 8192 takes 1.07 GB
        w = gaussian_state(Grid(2 * GRID_CAP, 400.0))
        for call in (lambda: joint_kd_cv(w), lambda: joint_kd_cv(w, "p-then-x")):
            assert size_cap_peak(call) < 5 * 2**20

    def test_o_n_paths_take_grids_past_the_cap(self):
        w = gaussian_state(Grid(2 * GRID_CAP, 400.0))
        q = conditional_pseudo_cv(weak_char_fn(w, 0.0))
        assert abs(w.grid.dx * np.sum(q) - 1.0) < 1e-9
        assert abs(ccr_witness(w) - 1j) < 1e-9


@pytest.mark.parametrize("call, error, match", [
    (lambda: WaveFunction(Grid(16, 8.0), np.ones(8)), DimensionMismatch, "sample count"),
    (lambda: CharFnSample(Grid(16, 8.0), np.zeros(15)), DimensionMismatch,
     r"shaped \(16,\)"),
    (lambda: CharFnSample(Grid(16, 8.0), np.zeros((16, 1))), DimensionMismatch,
     r"shaped \(16,\)"),
    (lambda: joint_kd_cv(gaussian_state(Grid(16, 8.0)), "sideways"), ValueError,
     "unknown ordering"),
], ids=["samples", "char-fn-sample", "char-fn-sample-2d", "ordering"])
def test_typed_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
