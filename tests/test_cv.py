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
    joint_kd_cv,
    random_smooth_state,
    to_momentum,
    to_position,
    two_peak_state,
    weak_char_fn,
)
from kdrecon.core import GRID_CAP
from kdrecon.errors import (
    IncompleteSampling,
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


class TestTransforms:
    def test_gaussian_self_fourier(self, grid):
        # width-1 Gaussian is its own Fourier transform (hbar = 1)
        w = gaussian_state(grid)
        pt = to_momentum(w)
        expected = np.pi ** (-0.25) * np.exp(-grid.p ** 2 / 2)
        assert np.max(np.abs(pt.samples - expected)) < 1e-8

    def test_broad_state_peaks_at_zero_momentum(self, grid):
        w = gaussian_state(grid, width=6.0)
        pt = to_momentum(w)
        assert np.argmax(np.abs(pt.samples)) == grid.n // 2

    def test_double_transform_is_parity(self):
        # self-dual grid (dx == dp) so position and momentum grids coincide
        n = 512
        g = Grid(n, float(np.sqrt(2 * np.pi * n)))
        w = random_smooth_state(g, seed=4)
        once = to_momentum(w).samples
        twice = to_momentum(WaveFunction(g, once, "position")).samples
        flipped = np.roll(w.samples[::-1], 1)  # x -> -x on the half-open grid
        assert np.max(np.abs(twice - flipped)) < 1e-8

    def test_roundtrip(self, grid):
        w = random_smooth_state(grid, seed=9)
        back = to_position(to_momentum(w))
        assert np.max(np.abs(back.samples - w.samples)) < 1e-12

    def test_norm_preserved(self, grid):
        w = two_peak_state(grid)
        pt = to_momentum(w)
        assert abs(grid.dp * np.sum(np.abs(pt.samples) ** 2) - 1) < 1e-9

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
        assert grid.p[np.argmax(np.abs(pt.samples))] == pytest.approx(k0)


class TestWeakCharFn:
    def test_zero_shift(self, grid):
        z = weak_char_fn(gaussian_state(grid), 0.0)
        assert z.values[grid.n // 2] == pytest.approx(1)

    def test_gaussian_analytic(self, grid):
        # width 1/sqrt(2): momentum amplitude ~ e^{-p^2/4}, so Z(k) = e^{-k^2/4}
        w = gaussian_state(grid, width=1 / np.sqrt(2))
        z = weak_char_fn(w, 0.0)
        sel = np.abs(z.parameters) < 8
        expected = np.exp(-z.parameters[sel] ** 2 / 4)
        assert np.max(np.abs(z.values[sel] - expected)) < 1e-8

    def test_narrow_momentum_packet_decays_fast(self, grid):
        w = gaussian_state(grid, width=3.0)  # narrow in momentum
        z = weak_char_fn(w, 0.0, k_values=[0.0, grid.dk, 2 * grid.dk])
        mags = np.abs(z.values)
        assert mags[0] == pytest.approx(1)
        assert mags[1] < 1.0 and mags[2] < mags[1]

    def test_off_grid_k_rejected(self, grid):
        for steps in ([0.5], [0, 1, 2.5, 3]):
            with pytest.raises(OffGridParameter, match="characteristic parameter k"):
                weak_char_fn(gaussian_state(grid), 0.0, k_values=np.array(steps) * grid.dk)

    def test_k_one_step_past_the_grid_rejected(self, grid):
        ks = np.append(grid.k, grid.k[-1] + grid.dk)
        with pytest.raises(OffGridParameter, match="characteristic parameter k"):
            weak_char_fn(gaussian_state(grid), 0.0, k_values=ks)
        with pytest.raises(OffGridParameter):
            weak_char_fn(gaussian_state(grid), 0.0, k_values=[grid.k[0] - grid.dk])

    def test_nan_k_rejected(self, grid):
        with pytest.raises(OffGridParameter):
            weak_char_fn(gaussian_state(grid), 0.0, k_values=[0.0, np.nan])

    def test_k_lookup_matches_explicit_shift(self, grid):
        w = random_smooth_state(grid, seed=3)
        pt = to_momentum(w).samples
        ip = grid.n // 2 + 2
        rng = np.random.default_rng(0)
        idx = rng.integers(0, grid.n, size=50)
        z = weak_char_fn(w, grid.p[ip], k_values=grid.k[idx])
        shifts = idx - grid.n // 2
        assert np.array_equal(z.values, pt[(ip - shifts) % grid.n] / pt[ip])

    def test_off_grid_post_p_rejected(self, grid):
        with pytest.raises(OffGridParameter):
            weak_char_fn(gaussian_state(grid), 0.37 * grid.dp)

    def test_weak_postselection_rejected(self, grid):
        w = gaussian_state(grid, width=0.5)
        with pytest.raises(PostSelectionTooWeak):
            weak_char_fn(w, grid.p[-1])

    def test_general_phi_matches_momentum_eigenstate_limit(self, grid):
        # plane-wave phi on the grid approximates momentum post-selection
        w = random_smooth_state(grid, seed=2)
        z_fast = weak_char_fn(w, 0.0, k_values=grid.k[200:312])
        phi = WaveFunction.normalized(grid, np.ones(grid.n))
        z_gen = weak_char_fn_general(w, phi, grid.k[200:312])
        assert np.max(np.abs(z_fast.values - z_gen)) < 1e-7


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
            pt = to_momentum(w).samples
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

    def test_partial_sampling_rejected(self, grid):
        w = gaussian_state(grid)
        z = weak_char_fn(w, 0.0, k_values=grid.k[:100])
        with pytest.raises(IncompleteSampling):
            conditional_pseudo_cv(z)


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


class TestGridCap:
    def test_dense_paths_one_grid_past_the_cap_build_nothing(self, size_cap_peak):
        # an n x n complex array at n = 8192 takes 1.07 GB
        w = gaussian_state(Grid(2 * GRID_CAP, 400.0))
        for call in (lambda: joint_kd_cv(w), lambda: joint_kd_cv(w, "p-then-x"),
                     lambda: ccr_witness(w)):
            assert size_cap_peak(call) < 5 * 2**20

    def test_o_n_paths_take_grids_past_the_cap(self):
        w = gaussian_state(Grid(2 * GRID_CAP, 400.0))
        q = conditional_pseudo_cv(weak_char_fn(w, 0.0))
        assert abs(w.grid.dx * np.sum(q) - 1.0) < 1e-9
