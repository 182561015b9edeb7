import inspect
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from kdrecon.cv import (
    Grid,
    WaveFunction,
    conditional_pseudo_cv,
    gaussian_state,
    inverse_char_transform,
    joint_kd_cv,
    momentum_samples_raw,
    position_samples_raw,
    random_smooth_state,
    to_momentum,
    weak_char_fn,
)
from kdrecon import cv, photonics, scenarios
from kdrecon.core import GRID_CAP, PS_FLOOR
from kdrecon.errors import (
    InsufficientCounts,
    InvalidProbability,
    NormViolation,
    OffGridParameter,
    PostSelectionTooWeak,
    SizeCap,
)
from kdrecon.photonics import (
    ANALYZERS,
    QUADRATURES,
    _asymmetry,
    _order,
    estimate_weak_char,
    propagate_and_analyze,
    run_reconstruction,
    run_setting,
    require_settings,
    sample_shots,
)

WIDTH = 1 / np.sqrt(2)  # momentum amplitude e^{-p^2/4}, so Z(k) = e^{-k^2/4}
MODES = ["x-then-p", "p-then-x"]
FIELDS = ("z_values", "z_errors", "rates", "conditional", "conditional_se", "joint")
KETS = {  # columns: (plus outcome, minus outcome)
    "diag": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "circ": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
}


@pytest.fixture
def grid():
    return Grid(64, 16.0)


@pytest.fixture
def packet(grid):
    return gaussian_state(grid, width=WIDTH)


def slm_plane(w, mode):
    """SLM-plane amplitude of ``w`` and the coordinate its SLM modulates."""
    g = w.grid
    if mode == "x-then-p":
        return w.samples, g.x
    return momentum_samples_raw(g, w.samples), g.p


def h_photon(w, mode, pol=(1.0, 0.0)):
    """(component, pixel) amplitudes of ``w`` with polarization ``pol`` on the SLM."""
    return np.outer(np.asarray(pol, dtype=complex), slm_plane(w, mode)[0])


def populations(probs):
    """H and V populations per pixel of a pure polarization state, from its
    (analyzer, outcome, pixel) diagonal and circular probabilities.

    The analyzers give the total s = |h|^2 + |v|^2 and the coherence
    |h v*|^2 = |h|^2 |v|^2, so the populations are the roots of
    t^2 - s t + |h v*|^2; V is the smaller (the photon enters H), and 0 at
    a pixel the photon never reaches, where the root's denominator is 0."""
    (d_plus, d_minus), (c_plus, c_minus) = probs
    s = d_plus + d_minus
    coherence = ((d_plus - d_minus) ** 2 + (c_plus - c_minus) ** 2) / 4
    denom = s + np.sqrt(np.maximum(s**2 - 4 * coherence, 0.0))
    v = np.divide(2 * coherence, denom, out=np.zeros_like(denom), where=denom > 0)
    return s - v, v


def single_k_estimate(w, k, epsilon, pixel, shots=None, seed=None, mode="x-then-p"):
    """Z and its standard error at one camera pixel from single-k calls of the
    stages; with shots, cell (quadrature qi, analyzer ai) draws stream
    (seed, 2 qi + ai).  The estimate reads the 4-entry stack of the cells'
    asymmetries, entry 2 qi + ai."""
    asym, var_sum = [], 0.0
    for qi, quad in enumerate(QUADRATURES):
        probs = run_setting(w, k, np.pi / 2 if quad == "cos" else 0.0, epsilon, mode)
        if shots is not None:  # a stack of two one-cell blocks
            probs = sample_shots(probs[:, None], shots, [(seed, 2 * qi), (seed, 2 * qi + 1)])[:, 0]
        for rows in probs[:len(ANALYZERS)]:  # (outcome, pixel) of analyzer ai
            a, var, _, short = _asymmetry(rows[0, pixel], rows[1, pixel],
                                          None if shots is None else 100)
            assert not short
            asym.append(a)
            var_sum += var
    z, se = estimate_weak_char(np.stack(asym), var_sum, epsilon)
    return complex(z), float(se)


def philox(key):
    """A fresh generator of the Philox stream ``key``."""
    return np.random.Generator(np.random.Philox(key=key))


def fresh_cell(rng, cell, shots):
    """The documented draw of one cell from ``rng``: its values in C order,
    clipped to [0, inf) and normalised by their sum."""
    pvals = np.clip(cell, 0, None).ravel()
    return rng.multinomial(shots, pvals / max(pvals.sum(), 1e-300)).reshape(np.shape(cell))


def fresh_sample_shots(prob, shots, key):
    """The documented counts of one ``sample_shots`` block: the cells of
    ``prob`` drawn one at a time, in order, from a generator built for this
    call."""
    rng = philox(key)
    return np.stack([fresh_cell(rng, cell, shots) for cell in np.asarray(prob, dtype=float)])


def sample_block(prob, shots, key):
    """``sample_shots`` on the one-block stack of ``prob``, keyed by ``key``."""
    return sample_shots(np.asarray(prob)[None], shots, [key])[0]


def per_cell_reconstruction(w, epsilon, shots, seed, mode, min_counts, pixel=None):
    """Z estimates, errors and rates one (k, quadrature, analyzer) cell and one
    pixel at a time: the H photon is rotated, propagated and projected for
    each cell, and each pixel's four asymmetries are combined on their own.
    Only the rows q = -n/2, 0, 1, ..., n/2 - 1 are measured, in k order; row
    -q, for 0 < q < n/2, takes row q's asymmetries with the sin ones negated.
    With shots, (quadrature qi, analyzer ai) has a generator of its own, keyed
    (seed, 2 qi + ai), which draws each measured frequency's (outcome, pixel)
    cell in k order.  With a ``pixel`` (shots needed), each cell draws instead
    its three-outcome marginal (plus and minus at the pixel, anywhere else),
    and only that pixel's column is kept; the marginal is the Born column the
    conditional-only sweep computes, taken one frequency at a time.  Each
    block's counts are summed over the rows q = -n/2 and 0, and apart over the
    rows 0 < q < n/2, which count twice (once for the twin); then the blocks
    in order.  Also returns the q = 0 row's rate per pixel, where the
    coupling moves no light.  Beyond the transforms and that column it shares
    no code with the stages."""
    g = w.grid
    n = g.n
    width = n if pixel is None else 1
    rngs = [philox((seed, stream)) for stream in range(4)] if shots is not None else None
    slm, coords = slm_plane(w, mode)
    to_camera, step = (momentum_samples_raw, g.dp) if mode == "x-then-p" \
        else (position_samples_raw, g.dx)
    z_values = np.zeros((n, width), dtype=complex)
    z_errors = np.zeros((n, width))
    edges, twins, at_rest = np.zeros((4, width)), np.zeros((4, width)), np.zeros(width)
    params = _order(g, mode)[1]
    for m in [0] + list(range(n // 2, n)):
        kp = params[m]
        rows = {}
        for qi, quad in enumerate(QUADRATURES):
            phase = np.pi / 2 if quad == "cos" else 0.0
            if pixel is None:
                theta = epsilon * np.sin(kp * coords + phase)
                camera = to_camera(g, np.stack([np.cos(theta) * slm, np.sin(theta) * slm]))
            else:  # (analyzer, outcome) at this one frequency
                column = photonics._column(g, slm, [kp], [phase], epsilon, mode,
                                           pixel)[0, :, 0, :, 0]
            for ai, analyzer in enumerate(("diag", "circ")):
                if pixel is not None:
                    probs = fresh_cell(rngs[2 * qi + ai], column[ai], shots)[:2, None]
                else:
                    probs = step * np.abs(KETS[analyzer].conj().T @ camera) ** 2
                    if shots is not None:
                        probs = fresh_cell(rngs[2 * qi + ai], probs, shots)
                rows[quad, analyzer] = probs
                (twins if m > n // 2 else edges)[2 * qi + ai] += probs.sum(axis=0)
                if m == n // 2:
                    at_rest += probs.sum(axis=0)
        for pix in range(width):
            asym, var_sum = {}, 0.0
            for key, (plus, minus) in rows.items():
                total = plus[pix] + minus[pix]
                if total == 0 or (shots is not None and total < min_counts):
                    asym = None
                    break
                asym[key] = (plus[pix] - minus[pix]) / total
                if shots is not None:
                    var_sum += max(1.0 - asym[key] ** 2, 1e-12) / total
            for row, sign in [(m, 1)] + ([(n - m, -1)] if m > n // 2 else []):
                if asym is None:
                    z_values[row, pix], z_errors[row, pix] = 0.0, np.inf
                    continue
                norm = np.sin(2 * epsilon)
                sin_diag, sin_circ = sign * asym["sin", "diag"], sign * asym["sin", "circ"]
                z_values[row, pix] = (asym["cos", "diag"] - sin_circ + 1j * (
                    asym["cos", "circ"] + sin_diag)) / norm
                z_errors[row, pix] = np.sqrt(var_sum) / norm
    rates = np.zeros(width)
    for block in edges + 2 * twins:
        rates += block
    per_cell = 4 * (1 if shots is None else shots)
    return z_values, z_errors, rates / (n * per_cell), at_rest / per_cell


def per_cell_conditional(z_values, z_errors, column, dparam):
    """The conditional and its standard error from column ``column`` of the
    per-cell tables: the inverse transform and the errors summed in quadrature."""
    n = len(z_values)
    se = dparam / (2 * np.pi) * float(np.sqrt(np.sum(z_errors[:, column] ** 2)))
    return inverse_char_transform(z_values[:, column], dparam), np.full(n, se)


def refuse_draw(*args, **kwargs):
    raise AssertionError("a Philox generator was built for a refused call")


def same_results(a, b):
    """Whether two ReconstructionResults hold the same arrays, bit for bit."""
    return all(
        getattr(a, name) is None is getattr(b, name)
        or np.array_equal(getattr(a, name), getattr(b, name))
        for name in FIELDS
    )


def _reconstruct_into(queue, runs):
    """Body of a forked child: run each (args, kwargs) of ``runs`` and send the
    results back."""
    queue.put([run_reconstruction(*args, **kwargs) for args, kwargs in runs])


class TestPreparation:
    def test_product_state_norm(self, packet):
        # no rotation at k = 0, phase 0: the H product state reaches the camera
        for mode in MODES:
            probs = run_setting(packet, 0.0, 0.0, 0.3, mode)
            assert probs.shape == (2, 2, packet.grid.n)
            assert np.max(np.abs(probs.sum(axis=(1, 2)) - 1.0)) < 1e-12

    def test_diagonal_polarization(self, grid):
        from kdrecon.cv import two_peak_state

        w = two_peak_state(grid)
        probs = propagate_and_analyze(grid, h_photon(w, "x-then-p", np.array([1, 1]) / np.sqrt(2)),
                                      "x-then-p")
        density = grid.dp * np.abs(to_momentum(w)) ** 2
        assert np.max(np.abs(probs[0, 0] - density)) < 1e-12  # all in the diagonal port
        assert np.max(probs[0, 1]) < 1e-20
        assert np.max(np.abs(probs[1] - density / 2)) < 1e-12  # circular: even split

    def test_unnormalized_polarization_rejected(self, packet):
        g = packet.grid
        with pytest.raises(NormViolation):
            propagate_and_analyze(g, h_photon(packet, "x-then-p", (1.0, 1.0)), "x-then-p")
        with pytest.raises(NormViolation):
            propagate_and_analyze(g, h_photon(packet, "p-then-x", (np.nan, 0.0)), "p-then-x")
        with pytest.raises(NormViolation):
            propagate_and_analyze(g, np.full((3, 2, g.n), np.nan), "x-then-p")


class TestSlmRotation:
    def test_tiny_epsilon_barely_changes_state(self, packet):
        g = packet.grid
        out = run_setting(packet, g.dk, 0.0, 1e-12, "x-then-p")
        ref = propagate_and_analyze(g, h_photon(packet, "x-then-p"), "x-then-p")
        assert np.max(np.abs(out - ref)) < 1e-11

    def test_constant_modulation_is_global_rotation(self, grid):
        w = WaveFunction.normalized(grid, np.ones(grid.n))
        eps = 0.3
        for mode in MODES:
            out = run_setting(w, 0.0, np.pi / 2, eps, mode)
            rotated = h_photon(w, mode, [np.cos(eps), np.sin(eps)])
            assert np.max(np.abs(out - propagate_and_analyze(grid, rotated, mode))) < 1e-12
            # the diagonal port of the photon rotated by eps holds (1 + sin 2 eps) / 2
            assert out[0, 0].sum() == pytest.approx((1 + np.sin(2 * eps)) / 2, abs=1e-12)

    def test_pointwise_rotation_oracle(self, packet):
        g = packet.grid
        for mode in MODES:
            slm, coords = slm_plane(packet, mode)
            k = 2 * (g.dk if mode == "x-then-p" else g.dx / g.hbar)
            rotated = np.zeros((2, g.n), dtype=complex)
            for n in range(g.n):
                theta = 0.2 * np.sin(k * coords[n] + 0.7)
                rot = np.array(
                    [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
                )
                rotated[:, n] = rot @ [slm[n], 0.0]
            out = run_setting(packet, k, 0.7, 0.2, mode)
            assert np.max(np.abs(out - propagate_and_analyze(g, rotated, mode))) < 1e-12

    def test_norm_preserved(self, packet):
        for mode in MODES:
            params = _order(packet.grid, mode)[1]
            out = run_setting(packet, params, 0.3, 0.4, mode)  # (analyzer, k, outcome, pixel)
            assert np.max(np.abs(out.sum(axis=(2, 3)) - 1.0)) < 1e-12

    def test_unknown_mode_rejected(self, packet, monkeypatch):
        def fail(*args):
            raise AssertionError("photon propagated for an unknown mode")

        monkeypatch.setattr(photonics, "momentum_samples_raw", fail)
        monkeypatch.setattr(photonics, "position_samples_raw", fail)
        with pytest.raises(ValueError, match="sideways"):
            run_setting(packet, [0.0, 2.5], 0.0, 0.05, "sideways")
        with pytest.raises(ValueError, match="sideways"):
            propagate_and_analyze(packet.grid, h_photon(packet, "x-then-p"), "sideways")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_off_grid_frequency_rejected(self, packet, mode):
        step = packet.grid.dk if mode == "x-then-p" else packet.grid.dx / packet.grid.hbar
        h = photonics._slm_plane(packet, mode)
        n = packet.grid.n
        # a multiple of the step outside [-n/2, n/2) steps would alias to a grid frequency
        for bad in (2.5 * step, n // 2 * step, -(n // 2 + 1) * step, np.nan, np.inf):
            with pytest.raises(OffGridParameter, match="SLM frequency"):
                run_setting(packet, [step, bad], 0.0, 0.05, mode)
            with pytest.raises(OffGridParameter, match="SLM frequency"):  # the Born column's too
                photonics._column(packet.grid, h, [step, bad], [0.0], 0.05, mode, 0)


class TestPropagation:
    def test_no_coupling_aligned_analyzer(self, packet):
        g = packet.grid
        probs = run_setting(packet, g.dk, 0.0, 0.0, "x-then-p")
        h_pop, v_pop = populations(probs)
        density = g.dp * np.abs(to_momentum(packet)) ** 2
        assert np.max(np.abs(h_pop - density)) < 1e-10
        assert np.max(v_pop) < 1e-20
        assert np.max(np.abs(probs - density / 2)) < 1e-10  # every port half the density

    def test_probabilities_sum_to_one(self, packet):
        g = packet.grid
        for mode in MODES:
            probs = propagate_and_analyze(g, h_photon(packet, mode), mode)
            assert np.max(np.abs(probs.sum(axis=(1, 2)) - 1.0)) < 1e-10
            assert abs(sum(populations(probs)).sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_k_gives_an_empty_stack(self, packet, mode):
        n = packet.grid.n
        probs = run_setting(packet, [], 0.0, 0.05, mode)
        assert probs.shape == (2, 0, 2, n)
        assert propagate_and_analyze(packet.grid, np.zeros((0, 2, n), complex), mode).shape \
            == (2, 0, 2, n)
        assert sample_shots(probs, 10, [(0, 0), (0, 1)]).shape == (2, 0, 2, n)

    def test_crossed_signal_scales_quadratically(self, packet):
        g = packet.grid
        sig = []
        for eps in (0.01, 0.02, 0.04):
            sig.append(populations(run_setting(packet, g.dk, 0.0, eps, "x-then-p"))[1].sum())
        ratios = np.array([sig[1] / sig[0], sig[2] / sig[1]])
        assert np.allclose(ratios, 4.0, rtol=0.01)


class TestBornColumn:
    """The conditional-only sweep's Born stage: one camera pixel's
    three-outcome marginals from the Jacobi-Anger expansion."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("n", [64, 128, 1024])
    def test_column_matches_the_whole_cameras_marginal(self, mode, hbar, n):
        g = Grid(n, 16.0 if n < 1024 else 40.0, hbar)
        w = random_smooth_state(g, 3)
        h, params = photonics._slm_plane(w, mode), _order(g, mode)[1]
        for eps in (1e-3, 0.05, 0.8, 1.5):
            for phase in (np.pi / 2, 0.0):
                camera = run_setting(w, params, phase, eps, mode)  # (analyzer, k, outcome, pixel)
                for pixel in (n // 2, n // 2 + 3, 0):
                    column = photonics._column(g, h, params, [phase], eps, mode, pixel)[0]
                    assert column.shape == (2, n, 3, 1)
                    plus, minus = camera[..., 0, pixel], camera[..., 1, pixel]
                    rest = camera.sum(axis=(-2, -1)) - plus - minus
                    ref = np.stack([plus, minus, rest], axis=-1)
                    assert np.max(np.abs(column[..., 0] - ref)) <= 1e-14, (eps, phase, pixel)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    def test_both_phases_have_each_single_phases_bits(self, mode, hbar):
        # the conditional-only sweep computes both quadratures in one call
        g = Grid(128, 16.0, hbar)
        h, params = photonics._slm_plane(random_smooth_state(g, 9), mode), _order(g, mode)[1]
        for eps in (1e-3, 0.05, 1.5):
            both = photonics._column(g, h, params, (np.pi / 2, 0.0), eps, mode, g.n // 2 + 3)
            assert both.shape == (2, 2, g.n, 3, 1)
            for phase, column in zip((np.pi / 2, 0.0), both):
                single = photonics._column(g, h, params, [phase], eps, mode, g.n // 2 + 3)
                assert np.array_equal(column, single[0]), (eps, phase)

    def test_lens_output_off_unit_norm_is_a_norm_violation(self, packet):
        g = packet.grid
        for mode in MODES:
            h, params = photonics._slm_plane(packet, mode), _order(g, mode)[1]
            with pytest.raises(NormViolation, match="photon norm"):
                photonics._column(g, 1.001 * h, params, [0.0], 0.05, mode, g.n // 2)
            with pytest.raises(NormViolation, match="photon norm"):
                photonics._column(g, np.full(g.n, np.nan), params, [0.0], 0.05, mode, g.n // 2)

    def test_expansion_folded_past_its_window_is_a_norm_violation(self, packet, monkeypatch):
        # 8 samples per period hold the orders |m| < 4 only: at eps = 1.5 the
        # order-4 coefficient J_4(1.5) = 0.0098 would be folded, not dropped
        g = packet.grid
        photonics._column(g, packet.samples, g.k, [0.0], 1.5, "x-then-p", g.n // 2)
        monkeypatch.setattr(photonics, "_EXPANSION_POINTS", 8)
        with pytest.raises(NormViolation, match="expansion coefficients"):
            photonics._column(g, packet.samples, g.k, [0.0], 1.5, "x-then-p", g.n // 2)
        with pytest.raises(NormViolation, match="expansion coefficients"):
            run_reconstruction(packet, 1.5, None, 0, post_index=g.n // 2)

    @pytest.mark.parametrize("epsilon", [1e-3, 0.05, 0.8, 1.5])
    def test_expansion_drops_at_most_1e_15(self, epsilon):
        # the kept orders' coefficients are J_m(eps), times -i for odd m, and
        # the ones left out sum to at most 1e-15 (plus the reference's rounding)
        u = 2 * np.pi * np.arange(4096) / 4096
        orders, coeff = photonics._expansion(epsilon, photonics._EXPANSION_POINTS)
        assert not orders.flags.writeable and not coeff.flags.writeable  # cached, so shared
        assert np.array_equal(orders, np.arange(-orders[-1], orders[-1] + 1))
        full = np.fft.fft(np.exp(1j * epsilon * np.sin(u))) / 4096  # J_m(eps) at m mod 4096
        bessel = full[orders % 4096]
        assert np.max(np.abs(coeff - np.where(orders % 2, -1j, 1) * bessel)) < 1e-15
        assert np.sum(np.abs(full)) - np.sum(np.abs(bessel)) <= 1e-15 + 4096 * 1e-17


class TestTwinRows:
    """Z(k) = <cos kx>_w + i <sin kx>_w, and both weak values depend on |k|
    only: the sweep measures the rows q = -n/2, 0, 1, ..., n/2 - 1 and fills
    each row -q from row q."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("n", [64, 128])
    def test_minus_k_is_plus_k_with_the_sin_ports_swapped(self, mode, hbar, n):
        # the cos hologram at -k, eps sin(-kx + pi/2), is the one at +k; the sin
        # hologram, eps sin(-kx), is the +k rotation reversed, which swaps each
        # analyzer's plus and minus ports.  The benchmark's grid length, on
        # which x/hbar is not bitwise antisymmetric.
        g = Grid(n, 16 * np.sqrt(2), hbar)
        w = random_smooth_state(g, 3)
        h, params = photonics._slm_plane(w, mode), _order(g, mode)[1]
        plus_k, minus_k = params[n // 2 + 1:], params[n // 2 - 1:0:-1]
        for eps in (1e-3, 0.05, 1.5):
            for phase, ports in ((np.pi / 2, [0, 1, 2]), (0.0, [1, 0, 2])):
                camera = run_setting(w, plus_k, phase, eps, mode)  # (analyzer, k, outcome, pixel)
                twin = run_setting(w, minus_k, phase, eps, mode)[:, :, ports[:2]]
                # 3.3e-16 measured at eps = 1.5: kx + phase and -kx + phase round
                # apart, and eps scales the difference
                assert np.max(np.abs(camera - twin)) <= (1e-16 if eps < 1 else 4e-16), (eps, phase)
                if phase == 0.0 and mode == "x-then-p":  # k x is exactly -(-k) x
                    assert np.array_equal(camera, twin), eps
                for pixel in (n // 2, n // 2 + 3, 5):
                    column = photonics._column(g, h, plus_k, [phase], eps, mode, pixel)[0]
                    mirrored = photonics._column(g, h, minus_k, [phase], eps, mode, pixel)[0]
                    gap = np.abs(column - mirrored[:, :, ports])
                    assert np.max(gap[:, :, :2]) <= 1e-16, (eps, phase, pixel)
                    # the third outcome, 1 - plus - minus, lies near 1
                    assert np.max(gap[:, :, 2]) <= np.spacing(1.0), (eps, phase, pixel)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shots", [None, 10**4])
    @pytest.mark.parametrize("joint", [True, False])
    def test_row_minus_q_is_c_minus_i_s_of_row_q(self, mode, shots, joint, monkeypatch):
        g = Grid(32, 14.0)
        n, eps = g.n, 0.05
        w = gaussian_state(g, center=0.4, width=WIDTH)
        swept = []

        def sweep(*args, _sweep=photonics._sweep):
            swept.append(_sweep(*args))
            return swept[-1]

        monkeypatch.setattr(photonics, "_sweep", sweep)
        res = run_reconstruction(w, eps, shots, 5, mode=mode, post_index=n // 2, joint=joint)
        (asym, var_sum, short, _, _), = swept
        assert short.shape == (n // 2 + 1, n if joint else 1)  # the rows -n/2, 0, ..., n/2 - 1
        if shots is not None and joint:
            assert 0 < short.sum() < short.size  # the masks compared are not trivial
        # if Z(q) = C + iS, then Z(-q) = C - iS: row q's asymmetries, the sin
        # blocks' (2 qi + ai with qi = 1) negated
        assert asym.shape == (4,) + short.shape
        z, se = estimate_weak_char(asym, var_sum, eps)
        z_twin, _ = estimate_weak_char(np.concatenate([asym[:2], -asym[2:]]), var_sum, eps)
        for q in range(-(n // 2), n // 2):
            row = 1 + abs(q) if q > -(n // 2) else 0  # its measured row
            assert np.array_equal(np.isinf(res.z_errors[n // 2 + q]), short[row]), q
            assert np.array_equal(res.z_errors[n // 2 + q], np.where(short[row], np.inf, se[row]))
            measured = z_twin[row] if -(n // 2) < q < 0 else z[row]
            assert np.array_equal(res.z_values[n // 2 + q], np.where(short[row], 0.0, measured)), q


class TestSampling:
    def test_delta_distribution(self):
        prob = np.zeros((1, 4, 2))
        prob[0, 2, 0] = 1.0
        counts = sample_block(prob, 1000, (0, 1))
        assert counts[0, 2, 0] == 1000
        assert counts.sum() == 1000

    def test_uniform_binomial_band(self):
        prob = np.full((1, 2, 2), 0.25)
        counts = sample_block(prob, 10**6, (42, 0))
        sigma = np.sqrt(10**6 * 0.25 * 0.75)
        assert np.max(np.abs(counts - 250000)) < 5 * sigma

    def test_determinism(self):
        prob = np.full((1, 2, 2), 0.25)
        a = sample_block(prob, 5000, (7, 3))
        b = sample_block(prob, 5000, (7, 3))
        assert np.array_equal(a, b)
        for other in ((7, 4), (8, 3), (3, 7)):
            assert not np.array_equal(a, sample_block(prob, 5000, other)), other

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidProbability):
            sample_block(np.array([[-0.1, 0.5]]), 100, (0, 0))
        with pytest.raises(InvalidProbability):
            sample_block(np.array([[np.nan, 0.5]]), 100, (0, 0))

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "NaN probability encountered"),
        (-0.1, "negative probability encountered"),
    ])
    def test_refusal_names_a_nan_or_a_negative_cell(self, bad, message, monkeypatch):
        # a NaN cell is no negative probability; a stack holding both is
        # refused for its NaN.  Either way before any draw
        monkeypatch.setattr(np.random, "Philox", refuse_draw)
        with pytest.raises(InvalidProbability, match=f"^{message}$"):
            sample_shots(np.full((1, 2, 3), bad), 10, [(0, 0)])
        stack = np.full((2, 2, 3), 1 / 3)
        stack[0, 0, 0] = -0.2  # a negative cell in the block drawn first
        stack[1, 1, 2] = bad
        with pytest.raises(InvalidProbability, match=f"^{message}$"):
            sample_shots(stack, 10, [(0, 0), (0, 1)])

    def test_matches_fresh_generators_in_shuffled_key_order(self):
        rng = np.random.default_rng(5)
        pair = rng.random((16, 2))
        pair /= pair.sum()
        flat = rng.random((1, 8))
        flat /= flat.sum()
        # a transposed view and a strided slice: neither is C-contiguous
        wide = rng.random((2, 32))
        wide /= wide.sum()
        block = rng.random((6, 2, 5))
        block /= block.sum(axis=(1, 2), keepdims=True)
        probs = [pair, flat, wide.T, wide[:, ::2].T, block]
        seeds = [0, 1, 2**31, 2**63 - 1] + [int(v) for v in rng.integers(2**62, size=46)]
        streams = [0, 1, 4096, 2**63 - 1] + [int(v) for v in rng.integers(2**63, size=46)]
        keys = [(s, t) for s in seeds for t in rng.choice(streams, size=4).tolist()]
        assert len(keys) >= 200
        for i in rng.permutation(len(keys)):
            key = keys[i]
            p = probs[i % len(probs)]
            for shots in (0, 1, 10**6):
                counts = sample_block(p, shots, key)
                assert counts.shape == p.shape
                assert np.array_equal(counts, fresh_sample_shots(p, shots, key)), (key, shots)

    def test_threads_sampling_interleaved_keys_match_sequential(self):
        # four user threads run sweeps at once, each sweep on its own
        # calling thread, where a joint and a conditional-only run each draw
        # their four blocks in one pass
        g = Grid(32, 12.0)
        states = [gaussian_state(g, center=0.3, width=WIDTH), random_smooth_state(g, 3)]
        runs = [((states[m % 2], 0.05, (10**4, None, 10**6)[m % 3], 100 + m),
                 dict(mode=MODES[m // 2 % 2], post_index=g.n // 2, joint=m // 4 % 2 == 0,
                      min_counts=1))
                for m in range(24)]
        expected = [run_reconstruction(*args, **kwargs) for args, kwargs in runs]
        got = [None] * len(runs)
        workers = 4  # more threads than the cores of a small CI runner
        start = threading.Barrier(workers)

        def worker(first):
            start.wait()
            for i in range(first, len(runs), workers):
                args, kwargs = runs[i]
                got[i] = run_reconstruction(*args, **kwargs)

        threads = [threading.Thread(target=worker, args=(first,)) for first in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(same_results(a, b) for a, b in zip(got, expected))

    @pytest.mark.parametrize("mode", MODES)
    def test_layouts_of_equal_values_give_identical_counts(self, mode):
        # the sweep's own (k, outcome, pixel) blocks, as C-ordered arrays,
        # transposed views and strided slices
        g = Grid(64, 16.0)
        w = gaussian_state(g, center=0.4, width=WIDTH)
        for qi, phase in enumerate((np.pi / 2, 0.0)):
            probs = run_setting(w, _order(g, mode)[1], phase, 0.05, mode)
            for ai, rows in enumerate(probs):
                key = (3, 2 * qi + ai)
                counts = sample_block(rows, 10**6, key)
                transposed = np.ascontiguousarray(rows.transpose(0, 2, 1)).transpose(0, 2, 1)
                strided = np.zeros(rows.shape[:2] + (3 * g.n,))
                strided[..., ::3] = rows
                for view in (transposed, strided[..., ::3], np.asfortranarray(rows)):
                    assert np.array_equal(sample_block(view, 10**6, key), counts), key

    @pytest.mark.parametrize("blocks", [1, 2, 5])
    @pytest.mark.parametrize("layout", ["C", "transposed", "strided", "sliced"])
    def test_stack_matches_fresh_generators_per_block(self, blocks, layout):
        rng = np.random.default_rng(blocks)
        stack = rng.random((blocks, 7, 2, 6))
        stack /= stack.sum(axis=(2, 3), keepdims=True) * (1 + rng.random((blocks, 7, 1, 1)))
        if layout == "transposed":
            stack = np.ascontiguousarray(stack.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        elif layout == "strided":
            wide = np.zeros(stack.shape[:3] + (12,))
            wide[..., ::2] = stack
            stack = wide[..., ::2]
        elif layout == "sliced":  # block and cell axes that do not merge into one
            more = np.zeros((blocks, 9) + stack.shape[2:])
            more[:, :7] = stack
            stack = more[:, :7]
        keys = [(int(rng.integers(2**63)), int(rng.integers(2**63))) for _ in range(blocks)]
        for shots in (0, 1, 10**6):
            counts = sample_shots(stack, shots, keys)
            assert counts.shape == stack.shape
            for b, key in enumerate(keys):
                assert np.array_equal(counts[b], fresh_sample_shots(stack[b], shots, key)), (b, shots)

    @pytest.mark.parametrize("run", [None, 3, 5])
    def test_a_call_builds_one_philox_and_draws_each_blocks_fresh_counts(self, run,
                                                                       monkeypatch):
        # a call builds at most one Philox and re-keys it per block, with a
        # fresh generator's counts; one run spans all four blocks, and with
        # runs of 3 or 5 cells, runs span blocks and blocks span runs
        if run is not None:
            monkeypatch.setattr(photonics, "_PRODUCT_CELLS", run * 6)
        rng = np.random.default_rng(4)
        stack = rng.random((4, 7, 3, 2))
        stack /= stack.sum(axis=(2, 3), keepdims=True)
        keys = [(2**63 - 1, 0), (5, 3), (5, 2), (0, 2**62)]
        expected = {shots: [fresh_sample_shots(stack[b], shots, key) for b, key in enumerate(keys)]
                    for shots in (1, 10**6)}
        builds = []
        bit_generator = np.random.Philox

        def counting(*args, **kwargs):
            builds.append(args)
            return bit_generator(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        for shots, fresh in expected.items():
            builds.clear()
            counts = sample_shots(stack, shots, keys)
            assert len(builds) <= 1
            for b, block_counts in enumerate(fresh):
                assert np.array_equal(counts[b], block_counts), (b, shots)

    @pytest.mark.parametrize("layout", ["C", "transposed"])
    def test_blocks_of_wide_cells_are_drawn_in_runs_with_the_counts_of_one_call(self, layout):
        # 2^14 outcomes per cell: each block's 5 cells are drawn in runs of 2
        rng = np.random.default_rng(12)
        stack = rng.random((2, 5, 2**13, 2))
        stack /= stack.sum(axis=(2, 3), keepdims=True)
        if layout == "transposed":
            stack = np.ascontiguousarray(stack.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
        keys = [(7, 0), (7, 1)]
        counts = sample_shots(stack, 10**6, keys)
        for block, key, block_counts in zip(stack, keys, counts):
            pvals = np.ascontiguousarray(block).reshape(5, -1)
            whole = philox(key).multinomial(10**6, pvals / pvals.sum(axis=1)[:, None])
            assert np.array_equal(block_counts.reshape(5, -1), whole)

    @pytest.mark.parametrize("joint", [True, False])
    @pytest.mark.parametrize("failing", [0, 1, 2, 3])
    def test_error_in_a_block_draw_reaches_the_caller_after_every_draw(self, failing, joint,
                                                                         monkeypatch):
        # the draw of stream ``failing`` raises in a sweep; run_reconstruction
        # re-raises it, with its type.  Every draw is made on the calling
        # thread, in stream order: a joint and a conditional-only run each
        # draw their four blocks in one pass, so only the streams up to the
        # failing one.
        # Each block's cells are one run here, so one multinomial call; the
        # call's one generator is re-keyed per block, so each draw is
        # recorded by the Philox key its generator holds when it is made.
        class DrawFailed(RuntimeError):
            pass

        finished, threads = [], set()
        generator = np.random.Generator

        class Recording:
            """A generator that raises on the stream ``failing`` and records
            each draw by its Philox key."""

            def __init__(self, bit_generator):
                self.gen = generator(bit_generator)

            def multinomial(self, *args):
                threads.add(threading.get_ident())
                key = tuple(int(v) for v in self.gen.bit_generator.state["state"]["key"])
                try:
                    if key[1] == failing:
                        raise DrawFailed(key)
                    return self.gen.multinomial(*args)
                finally:
                    finished.append(key)

        monkeypatch.setattr(np.random, "Generator", Recording)
        w = gaussian_state(Grid(16, 12.0), width=WIDTH)
        with pytest.raises(DrawFailed) as raised:
            run_reconstruction(w, 0.05, 100, 4, post_index=w.grid.n // 2, joint=joint)
        assert raised.value.args == ((4, failing),)
        assert threads == {threading.get_ident()}
        assert finished == [(4, s) for s in range(failing + 1)]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_fork_child_draws_the_parents_counts(self):
        # the parent's joints start no thread, so it forks with one thread
        # and the child runs the same sweeps on its own
        w = gaussian_state(Grid(32, 12.0), center=0.3, width=WIDTH)
        runs = [((w, 0.05, shots, 11), dict(mode=mode, post_index=16, joint=True))
                for shots, mode in ((10**4, "x-then-p"), (None, "p-then-x"))]
        parent = [run_reconstruction(*args, **kwargs) for args, kwargs in runs]
        assert threading.active_count() == 1
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_reconstruct_into, args=(queue, runs))
        child.start()
        try:
            results = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert not child.is_alive()
        assert child.exitcode == 0
        assert all(same_results(a, b) for a, b in zip(results, parent))

    @pytest.mark.parametrize("layout", ["C", "transposed"])
    def test_block_rows_match_one_cell_calls(self, layout):
        # a block is drawn cell after cell along one stream: the whole block
        # equals two consecutive multinomial calls, or one call per cell, on
        # one generator of the same key
        rng = np.random.default_rng(9)
        block = rng.random((12, 8, 2))
        block /= block.sum(axis=(1, 2), keepdims=True) * (1 + rng.random((12, 1, 1)))
        if layout == "transposed":
            block = np.ascontiguousarray(block.transpose(0, 2, 1)).transpose(0, 2, 1)
        flat = block.reshape(12, -1)  # each cell's values in C order
        pvals = flat / flat.sum(axis=1)[:, None]
        key = (2**62 + 3, 2**63 - 1)
        for shots in (0, 1, 10**6):
            counts = sample_block(block, shots, key)
            assert counts.shape == block.shape
            for split in (0, 5, 12):
                gen = philox(key)
                runs = [gen.multinomial(shots, pvals[:split]),
                        gen.multinomial(shots, pvals[split:])]
                assert np.array_equal(counts.reshape(12, -1), np.concatenate(runs)), (split, shots)
            gen = philox(key)
            for j, cell in enumerate(block):
                assert np.array_equal(counts[j], fresh_cell(gen, cell, shots)), (j, shots)

    @pytest.mark.parametrize("bad", ["sum", "negative", "nan", "1-d"])
    def test_invalid_block_rejected_before_any_draw(self, bad, monkeypatch):
        monkeypatch.setattr(np.random, "Philox", refuse_draw)
        block, error = np.full((5, 4, 2), 1 / 8), InvalidProbability
        # only the last row is bad; a 1-D array has no axis of cells
        if bad == "1-d":
            block, error = block.ravel(), ValueError
        elif bad == "sum":
            block[-1] *= 1 + 2e-9
        else:
            block[-1, 3, 1] = -1e-6 if bad == "negative" else np.nan
        with pytest.raises(error):
            sample_block(block, 100, (0, 1))

    @pytest.mark.parametrize("bad, error", [
        ("zero", InvalidProbability), ("sum", InvalidProbability),
        ("negative", InvalidProbability), ("key", ValueError), ("blocks", ValueError),
        ("2-d", ValueError), ("no-outcomes", InvalidProbability),
    ])
    def test_invalid_stack_rejected_before_any_draw(self, bad, error, monkeypatch):
        # only block 1, or its key, is bad: block 0 is drawn on the calling
        # thread, so a check made block by block would draw it first
        monkeypatch.setattr(np.random, "Philox", refuse_draw)
        stack, keys = np.full((3, 5, 4, 2), 1 / 8), [(0, 0), (0, 1), (0, 2)]
        if bad == "zero":
            stack[1, 2] = 0.0
        elif bad == "sum":
            stack[1, 4] *= 1 + 2e-9
        elif bad == "negative":
            stack[1, 4, 3, 1] = -1e-6
        elif bad == "key":
            keys[1] = (0, 2**63)
        elif bad == "blocks":
            keys.pop()
        elif bad == "no-outcomes":  # every cell then sums to 0
            stack = stack[:, :, :0]
        else:  # a stack needs axes of blocks, cells and outcomes
            stack = stack[:, :, 0, 0]
        with pytest.raises(error):
            sample_shots(stack, 100, keys)

    @pytest.mark.parametrize("shots, error", [
        (-1, ValueError), (2**63, ValueError), (10**19, ValueError),
        (1.5, TypeError), (1.0, TypeError), (True, TypeError), (None, TypeError),
        (np.float64(3.0), TypeError),
    ])
    def test_out_of_range_shots_rejected_before_any_draw(self, shots, error, monkeypatch):
        monkeypatch.setattr(np.random, "Philox", refuse_draw)
        with pytest.raises(error):
            sample_shots(np.full((2, 3, 2, 2), 0.25), shots, [(0, 0), (0, 1)])

    @pytest.mark.parametrize("seed, error", [
        ((0, 2**63), ValueError), ((0, -1), ValueError),
        ((5, 0, 1), ValueError),  # the key (5, 1) under an old base-4096 fold
        ((0, 2**64), ValueError), ((0,), ValueError), ((0, 1, 2, 3), ValueError),
        (np.array([0, 1]), ValueError), ((2**63, 0), ValueError), ((-1, 0), ValueError),
        ((np.uint64(2**63), 1), ValueError),
        ((0, np.arange(5)), TypeError),  # one index per cell is not a key
        ((0, 1.0), TypeError), (("0", 1), TypeError),
        ((0, True), TypeError), ((False, 1), TypeError),  # numpy would read a bool as a mask
    ])
    def test_out_of_range_stream_index_in_block_rejected(self, seed, error, monkeypatch):
        monkeypatch.setattr(np.random, "Philox", refuse_draw)
        with pytest.raises(error):
            sample_block(np.full((5, 2, 2), 0.25), 10, seed)

    @pytest.mark.parametrize("seed", [
        (2**63,), (2**64 - 1,), (-1,), 2**63, -5, (0, 2**63), (0, -1), (0, 1, 4096),
        (0, 4095, 4095, 4095, 4095, 4095, 4095), 9,
    ])
    def test_out_of_range_seed_rejected(self, seed, monkeypatch):
        # a key is a (seed, stream) pair: no bare integer, no other length
        monkeypatch.setattr(np.random, "Philox", refuse_draw)
        with pytest.raises(ValueError):
            sample_block(np.full((2, 2), 0.25), 10, seed)


class TestEstimator:
    @pytest.mark.parametrize("epsilon", [0.0, -0.1, np.pi / 2, np.nan])
    def test_epsilon_outside_its_range_rejected(self, epsilon):
        # at 0 the division by sin(2 eps) returned nan+infj with only numpy
        # warnings; the refusal is require_settings', message and all
        asym, var_sum = np.full((4, 3, 2), 0.1), np.full((3, 2), 1e-4)
        with pytest.raises(ValueError) as raised:
            estimate_weak_char(asym, var_sum, epsilon)
        with pytest.raises(ValueError) as settings:
            require_settings(Grid(64, 16.0), epsilon, "x-then-p")
        expected = f"coupling epsilon must lie in [1e-9, pi/2), got {epsilon!r}"
        assert str(raised.value) == str(settings.value) == expected

    @pytest.mark.parametrize("bad", [np.nan, -1e-6])
    def test_negative_or_nan_variance_rejected(self, bad):
        # a NaN gave a NaN standard error with no warning, a negative one
        # numpy's "invalid value in sqrt"
        asym, var_sum = np.full((4, 3, 2), 0.1), np.full((3, 2), 1e-4)
        var_sum[1, 0] = bad
        with pytest.raises(ValueError, match=f"summed variance must be at least 0, got {bad}"):
            estimate_weak_char(asym, var_sum, 0.05)

    def test_infinite_variance_marks_no_data(self):
        asym, var_sum = np.full((4, 3, 2), 0.1), np.full((3, 2), 1e-4)
        var_sum[1, 0] = np.inf
        _, se = estimate_weak_char(asym, var_sum, 0.05)
        assert np.isinf(se[1, 0])
        assert np.sum(np.isfinite(se)) == 5

    def test_stack_entries_combine_as_cos_and_sin_analyzers(self):
        # entry 2 qi + ai: Z = (A_0 - A_3 + i(A_1 + A_2)) / sin(2 eps)
        eps = 0.05
        asym = np.array([0.4, 0.3, 0.2, 0.1]).reshape(4, 1, 1)
        z, se = estimate_weak_char(asym, np.full((1, 1), 4e-6), eps)
        assert z.shape == se.shape == (1, 1)
        assert z[0, 0] == (0.4 - 0.1 + 1j * (0.3 + 0.2)) / np.sin(2 * eps)
        assert se[0, 0] == 2e-3 / np.sin(2 * eps)

    def test_zero_frequency_calibration(self, packet):
        z, se = single_k_estimate(packet, 0.0, 0.01, packet.grid.n // 2)
        assert abs(z - 1.0) < 1e-12
        assert se == 0.0

    def test_converges_to_oracle(self, packet):
        g = packet.grid
        oracle = weak_char_fn(packet, 0.0)
        for m in (g.n // 2 + 1, g.n // 2 + 4):
            z, _ = single_k_estimate(packet, g.k[m], 1e-3, g.n // 2)
            assert abs(z - oracle.values[m]) < 1e-6

    def test_monte_carlo_within_5_sigma(self, packet):
        g = packet.grid
        k = g.k[g.n // 2 + 2]
        eps = 0.05
        z, se = single_k_estimate(packet, k, eps, g.n // 2, shots=10**7, seed=11)
        oracle = np.exp(-k ** 2 / 4)
        assert abs(z - oracle) < 5 * se + 2 * eps ** 2  # noise band + weak-limit bias

    def test_halving_epsilon_halves_bias(self, packet):
        g = packet.grid
        m = g.n // 2 + 3
        oracle = weak_char_fn(packet, 0.0).values[m]
        biases = [abs(single_k_estimate(packet, g.k[m], eps, g.n // 2)[0] - oracle)
                  for eps in (0.1, 0.05)]
        assert biases[1] < biases[0]


class TestReconstruction:
    @pytest.mark.parametrize("mode", ["x-then-p", "p-then-x"])
    @pytest.mark.parametrize("n, hbar", [(16, 1.0), (64, 2.5), (128, 0.37)])
    def test_inverse_transform_matches_direct_sum(self, mode, n, hbar):
        g = Grid(n, 16.0, hbar)
        _, params, dparam, *_ = _order(g, mode)
        out_values = g.x if mode == "x-then-p" else g.p
        rng = np.random.default_rng(n)
        z = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        direct = dparam / (2 * np.pi) * np.exp(-1j * np.outer(out_values, params)) @ z
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(inverse_char_transform(z, dparam) - direct)) < 1e-12 * scale
        column = inverse_char_transform(z[:, 1], dparam)
        assert np.max(np.abs(column - direct[:, 1])) < 1e-12 * scale

    @pytest.mark.parametrize("mode", ["x-then-p", "p-then-x"])
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("shots", [None, 10**4])
    def test_batched_sweep_matches_per_cell_path(self, mode, hbar, shots):
        # a joint run draws the whole camera: every output, the conditional
        # read from its post pixel included, has the per-cell path's bits
        g = Grid(32, 14.0, hbar)
        w = gaussian_state(g, center=0.4, width=WIDTH)
        eps, seed, post = 0.05, 17, g.n // 2
        z_ref, se_ref, rates_ref, rest_ref = per_cell_reconstruction(w, eps, shots, seed, mode,
                                                                     100)
        res = run_reconstruction(w, eps, shots, seed, mode=mode, post_index=post, joint=True,
                                 min_counts=100)
        masked = np.isinf(se_ref)
        if shots is not None:
            assert 0 < masked.sum() < masked.size  # the masks compared are not trivial
        assert np.array_equal(res.z_values, z_ref)
        assert np.array_equal(res.z_errors, se_ref)
        assert np.array_equal(res.rates, rates_ref)
        _, params, dparam, *_ = _order(g, mode)
        step = g.dp if mode == "x-then-p" else g.dx
        valid = ~masked.any(axis=0) & (rest_ref > PS_FLOOR)
        joint = inverse_char_transform(z_ref, dparam) * np.where(valid, rates_ref / step, 0.0)
        assert np.array_equal(res.joint, joint if mode == "x-then-p" else joint.T)
        conditional, conditional_se = per_cell_conditional(z_ref, se_ref, post, dparam)
        assert np.array_equal(res.conditional, conditional)
        assert np.array_equal(res.conditional_se, conditional_se)
        if shots is not None:
            # a pixel whose Born probabilities give some cell an expected
            # count below a tenth of min_counts: its refusal hangs on no draw
            expected = np.stack([run_setting(w, params, phase, eps, mode)
                                 for phase in (np.pi / 2, 0.0)]).sum(axis=3) * shots
            dim_pixel = int(np.flatnonzero((expected < 100 / 10).any(axis=(0, 1, 2)))[0])
            with pytest.raises(InsufficientCounts):
                run_reconstruction(w, eps, shots, seed, mode=mode, post_index=dim_pixel,
                                   min_counts=100)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("shots", [10**4, 10**6])
    def test_conditional_draws_the_post_pixels_marginal_per_cell(self, mode, hbar, shots):
        # each (quadrature, analyzer) block draws, from a fresh generator of
        # its key, one (plus, minus, elsewhere) multinomial per k cell in k order
        g = Grid(32, 14.0, hbar)
        w = gaussian_state(g, center=0.4, width=WIDTH)
        self.check_marginal_draw(w, mode, shots, g.n // 2, seed=31)

    @pytest.mark.parametrize("mode", MODES)
    def test_conditional_draws_the_post_pixels_marginal_at_benchmark_scale(self, mode):
        w = random_smooth_state(Grid(128, 16 * np.sqrt(2)), 3, modes=6)
        density = run_setting(w, 0.0, 0.0, 0.05, mode)[0].sum(axis=0)
        self.check_marginal_draw(w, mode, 10**6, int(np.argmax(density)), seed=902)

    @staticmethod
    def check_marginal_draw(w, mode, shots, post, seed):
        z_ref, se_ref, rates_ref, _ = per_cell_reconstruction(w, 0.05, shots, seed, mode, 100,
                                                              pixel=post)
        res = run_reconstruction(w, 0.05, shots, seed, mode=mode, post_index=post)
        assert res.z_values.shape == res.z_errors.shape == (w.grid.n, 1)
        assert res.rates.shape == (1,) and res.joint is None
        assert np.array_equal(res.z_values, z_ref)
        assert np.array_equal(res.z_errors, se_ref)
        assert np.array_equal(res.rates, rates_ref)
        conditional, conditional_se = per_cell_conditional(z_ref, se_ref, 0,
                                                           _order(w.grid, mode)[2])
        assert np.array_equal(res.conditional, conditional)
        assert np.array_equal(res.conditional_se, conditional_se)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("n", [32, 128])
    def test_born_column_matches_the_joint_runs_column(self, mode, hbar, n):
        g = Grid(n, 16.0, hbar)
        for w in (gaussian_state(g, center=0.3, width=WIDTH), random_smooth_state(g, 5)):
            post = n // 2 + 1
            column = run_reconstruction(w, 0.05, None, 0, mode=mode, post_index=post)
            joint = run_reconstruction(w, 0.05, None, 0, mode=mode, post_index=post, joint=True)
            # the column and the whole camera are two Born routes, equal to rounding
            for got, ref in ((column.conditional, joint.conditional),
                             (column.z_values[:, 0], joint.z_values[:, post])):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(column.conditional_se, joint.conditional_se)  # 0 with no shots
            assert np.array_equal(column.z_errors[:, 0], joint.z_errors[:, post])
            # the (k, 1) column may be summed in another order than the joint's rows
            assert column.rates[0] == pytest.approx(joint.rates[post], rel=1e-15, abs=0)

    @pytest.mark.parametrize("mode", ["x-then-p", "p-then-x"])
    def test_sweep_draws_the_streams_of_fresh_generators(self, mode, monkeypatch):
        # the second case is at the benchmark's scale
        for n, length, center, shots, seed in [(16, 12.0, 0.3, 10**4, 23),
                                               (64, 16.0, 0.4, 10**6, 3)]:
            w = gaussian_state(Grid(n, length), center=center, width=WIDTH)
            res = run_reconstruction(w, 0.05, shots, seed, mode=mode, joint=True)
            calls = []

            def fresh(prob, shots, keys, n=n, _stack=photonics.sample_shots):
                # one call on the (quadrature-analyzer block, k, outcome, pixel)
                # stack over the n/2 + 1 measured rows, each block's cells
                # drawn here one at a time from a generator of the block's key
                calls.append(keys)
                assert prob.shape == (4, n // 2 + 1, 2, n)
                rows = np.stack([fresh_sample_shots(block, shots, key)
                                 for block, key in zip(prob, keys)])
                assert np.array_equal(_stack(prob, shots, keys), rows)
                return rows

            monkeypatch.setattr(photonics, "sample_shots", fresh)
            ref = run_reconstruction(w, 0.05, shots, seed, mode=mode, joint=True)
            monkeypatch.undo()
            assert calls == [[(seed, b) for b in range(4)]]
            for name in ("z_values", "z_errors", "rates", "joint"):
                assert np.array_equal(getattr(res, name), getattr(ref, name)), (n, name)

    @pytest.mark.parametrize("mode", MODES)
    def test_block_draw_matches_per_cell_path_at_benchmark_scale(self, mode):
        g = Grid(64, 16.0)
        w = gaussian_state(g, center=0.4, width=WIDTH)
        z_ref, se_ref, rates_ref, _ = per_cell_reconstruction(w, 0.05, 10**6, 29, mode, 100)
        res = run_reconstruction(w, 0.05, 10**6, 29, mode=mode, joint=True)
        assert 0 < np.isinf(se_ref).sum() < se_ref.size
        assert np.array_equal(res.z_values, z_ref)
        assert np.array_equal(res.z_errors, se_ref)
        assert np.array_equal(res.rates, rates_ref)

    @pytest.mark.parametrize("joint", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shots", [None, 10**4])
    def test_sweep_runs_the_public_stages(self, mode, shots, joint, monkeypatch):
        # a recorder replaces every public function of photonics and cv in
        # every kdrecon namespace that binds it, as the benchmark's tracer
        # does; each call it records is made on the calling thread
        n = 16
        w = gaussian_state(Grid(n, 12.0), center=0.3, width=WIDTH)
        calls = []
        for module in (photonics, cv):
            for name, fn in vars(module).copy().items():
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue

                def recorded(*args, _name=f"{module.__name__}.{name}", _fn=fn, **kwargs):
                    calls.append((_name, threading.get_ident(), args))
                    return _fn(*args, **kwargs)

                namespaces = [m for key, m in sys.modules.items() if key.startswith("kdrecon")]
                for namespace in namespaces:
                    for attr, value in vars(namespace).copy().items():
                        if value is fn:
                            monkeypatch.setattr(namespace, attr, recorded)
        run_reconstruction(w, 0.05, shots, 3, mode=mode, post_index=n // 2, joint=joint)
        assert {thread for _, thread, _ in calls} == {threading.get_ident()}
        stages = {f"kdrecon.photonics.{name}": 0 for name in (
            "run_setting", "propagate_and_analyze", "sample_shots", "estimate_weak_char")}
        for name, _, _ in calls:
            if name in stages:
                stages[name] += 1
        # each of a joint's quadratures makes one setting over all measured
        # frequencies; a conditional-only run's Born column is private.
        # Either way one call draws the four blocks, and one batched estimate
        assert stages == {"kdrecon.photonics.run_setting": 2 if joint else 0,
                          "kdrecon.photonics.propagate_and_analyze": 0,
                          "kdrecon.photonics.sample_shots": 0 if shots is None else 1,
                          "kdrecon.photonics.estimate_weak_char": 1}
        if shots is not None:
            (prob, _, keys), = [args for name, _, args in calls
                                if name == "kdrecon.photonics.sample_shots"]
            # the rows q = -n/2, 0, ..., n/2 - 1
            assert prob.shape == (4, n // 2 + 1) + ((2, n) if joint else (3, 1))
            assert keys == [(3, stream) for stream in range(4)]

    def test_sweeps_start_no_thread(self):
        # joints and conditional-only runs, in a fresh interpreter
        code = "\n".join([
            "import threading",
            "from kdrecon import photonics",
            "from kdrecon.cv import Grid, gaussian_state",
            "w = gaussian_state(Grid(32, 12.0), width=0.7071067811865476)",
            "for mode in ('x-then-p', 'p-then-x'):",
            "    for shots in (None, 10**4):",
            "        for joint in (False, True):",
            "            photonics.run_reconstruction(w, 0.05, shots, 1, mode=mode, post_index=16,",
            "                                         joint=joint)",
            "print(threading.active_count())",
        ])
        src = os.path.dirname(os.path.dirname(photonics.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1"]

    @pytest.mark.parametrize("shots", [None, 10**4])
    def test_joint_peaks_below_170_mb_at_n_1024(self, shots):
        # each quadrature's setting transforms its photon in place and
        # projects it on the analyzers a run of cells at a time, and the
        # four blocks' counts are drawn a run of cells at a time; the peak
        # lies downstream, in the unfold and the estimate, at 98 MB with and
        # without shots
        w = random_smooth_state(Grid(1024, 40.0), 3)
        tracemalloc.start()
        try:
            run_reconstruction(w, 0.05, shots, 0, joint=True, min_counts=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 170e6

    def test_grid_past_the_cap_builds_nothing(self, size_cap_peak):
        w = gaussian_state(Grid(2 * GRID_CAP, 400.0), width=WIDTH)
        # the joint's (k, pixel) tables alone would take 0.5 GB each
        assert size_cap_peak(lambda: run_reconstruction(w, 0.05, shots=None, seed=0,
                                                        post_index=0, joint=True)) < 5 * 2**20

    @pytest.mark.parametrize("mode", MODES)
    def test_conditional_past_the_grid_cap_within_5_sigma(self, mode):
        # the Born column holds n-vectors only, so the cap does not apply
        g = Grid(2 * GRID_CAP, 400.0)
        w = gaussian_state(g, center=0.3, width=WIDTH)
        post = g.n // 2
        tracemalloc.start()
        try:
            res = run_reconstruction(w, 0.05, shots=10**6, seed=7, mode=mode, post_index=post)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        if mode == "x-then-p":
            oracle = conditional_pseudo_cv(weak_char_fn(w, g.p[post]))
        else:  # <x|p><p|psi>/<x|psi> at the post pixel x
            bra = np.exp(1j * g.x[post] * g.p / g.hbar) / np.sqrt(2 * np.pi * g.hbar)
            oracle = bra * to_momentum(w) / w.samples[post]
        informative = np.abs(oracle) > 0.01 * np.max(np.abs(oracle))
        resid = np.abs(res.conditional - oracle)[informative]
        assert np.all(resid < 5 * res.conditional_se[informative])

    @pytest.mark.parametrize("n", [2**40, 2**62])
    def test_grid_no_array_can_hold_is_a_size_cap(self, n):
        # the cap comes before any axis of the grid is built: a MemoryError
        # at 2^40, numpy's ValueError at 2^62
        with pytest.raises(SizeCap, match=str(GRID_CAP)):
            require_settings(Grid(n, 400.0), 0.05, "x-then-p", shots=1000)

    @pytest.mark.parametrize("mode", MODES)
    def test_settings_check_builds_no_axis(self, mode):
        g = Grid(GRID_CAP, 400.0)  # each of its axes takes 32 kB
        tracemalloc.start()
        try:
            require_settings(g, 0.05, mode, post_index=0, shots=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096

    # below 1e-9 the conditional's rounding error, about 3e-16/epsilon, passes
    # the coupling's bias: 3e-6 at 1e-10, and 1e-300 gave all zeros
    @pytest.mark.parametrize("epsilon", [0.0, -0.05, np.pi / 2, 2.0, np.nan, np.inf,
                                         1e-10, 1e-15, 1e-300])
    @pytest.mark.parametrize("shots, joint", [(1000, True), (None, False)])
    def test_epsilon_outside_its_range_rejected_before_any_work(self, packet, monkeypatch,
                                                                 epsilon, shots, joint):
        def fail(*args, **kwargs):
            raise AssertionError("sweep run for a coupling outside [1e-9, pi/2)")

        monkeypatch.setattr(photonics, "_sweep", fail)
        with pytest.raises(ValueError, match="epsilon"):
            run_reconstruction(packet, epsilon, shots=shots, seed=0, post_index=32, joint=joint)

    def test_epsilon_at_its_floor_matches_the_cv_oracle(self, packet):
        res = run_reconstruction(packet, 1e-9, shots=None, seed=0, post_index=32)
        oracle = conditional_pseudo_cv(weak_char_fn(packet, 0.0))
        assert np.max(np.abs(res.conditional - oracle)) < 1e-6 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("joint", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_dark_post_pixel_rejected(self, mode, joint):
        # pixel 2's post-selection probability is 2e-31 (x-then-p) or 5e-26
        # (p-then-x), while its rate averaged over k reads 7.8e-9, the O(eps^2)
        # light the coupling moves there: the k = 0 cells, which move none,
        # measure the floor; the conditional was 4e14 off its oracle
        w = gaussian_state(Grid(64, 16.0))
        with pytest.raises(PostSelectionTooWeak, match="pixel 2"):
            run_reconstruction(w, 1e-3, None, 0, mode=mode, post_index=2, joint=joint)
        assert run_reconstruction(w, 1e-3, None, 0, mode=mode, joint=True).rates[2] > PS_FLOOR

    def test_joint_column_below_the_post_selection_floor_is_zero(self):
        # in p-then-x the camera images x, so a column's k = 0 rate is
        # |psi(x)|^2 dx: 3.2e-37 at pixel 120, whose inverse transform
        # reaches 3.7e-4 where the KD distribution is at most 3.2e-19
        g = Grid(128, 16 * np.sqrt(2))
        w = random_smooth_state(g, 3, modes=6)
        res = run_reconstruction(w, 0.05, None, 0, mode="p-then-x", joint=True)
        dim = np.abs(w.samples) ** 2 * g.dx <= PS_FLOOR
        assert dim[120] and not dim.all()
        assert np.max(np.abs(joint_kd_cv(w, "p-then-x")[120])) < 1e-18
        assert np.all(res.joint[dim] == 0)
        assert np.all(np.any(res.joint[~dim] != 0, axis=1))

    def test_shot_sweep_past_the_grid_cap_rejected(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sweep run past the grid cap")

        monkeypatch.setattr(photonics, "_sweep", fail)
        w = gaussian_state(Grid(2 * GRID_CAP, 200.0), width=WIDTH)
        with pytest.raises(SizeCap, match=str(GRID_CAP)):
            run_reconstruction(w, 0.05, shots=1000, seed=0, joint=True)

    @pytest.mark.parametrize("post_index", [-1, 64])
    def test_out_of_range_post_index_rejected_before_any_work(self, packet, monkeypatch,
                                                              post_index):
        def fail(*args, **kwargs):
            raise AssertionError("sweep run for an out-of-range post_index")

        monkeypatch.setattr(photonics, "_sweep", fail)
        assert packet.grid.n == 64
        with pytest.raises(ValueError, match=r"post_index .* outside \[0, 64\)"):
            run_reconstruction(packet, 0.05, shots=None, seed=0, post_index=post_index)

    @pytest.mark.parametrize("post_index", [True, False])
    def test_bool_post_index_rejected_before_any_work(self, packet, monkeypatch, post_index):
        def fail(*args, **kwargs):
            raise AssertionError("sweep run for a bool post_index")

        monkeypatch.setattr(photonics, "_sweep", fail)
        with pytest.raises(TypeError, match="post_index must be an integer"):
            run_reconstruction(packet, 0.05, shots=None, seed=0, post_index=post_index)

    def test_integer_post_index_types_give_one_conditional(self):
        w = gaussian_state(Grid(16, 12.0), center=0.3, width=WIDTH)
        ref = run_reconstruction(w, 0.05, shots=None, seed=0, post_index=9)
        assert ref.conditional.shape == ref.conditional_se.shape == (16,)
        for post_index in (np.int64(9), np.uint8(9)):
            res = run_reconstruction(w, 0.05, shots=None, seed=0, post_index=post_index)
            assert np.array_equal(res.conditional, ref.conditional)
            assert np.array_equal(res.conditional_se, ref.conditional_se)

    @pytest.mark.parametrize("shots, error", [
        (0, ValueError), (-5, ValueError), (10**19, ValueError), (2**63, ValueError),
        (1.5, TypeError), (1e4, TypeError), (True, TypeError), (np.float64(1e4), TypeError),
    ])
    def test_bad_shots_rejected_before_any_work(self, packet, monkeypatch, shots, error):
        def fail(*args, **kwargs):
            raise AssertionError("sweep run for a bad shot count")

        monkeypatch.setattr(photonics, "_sweep", fail)
        with pytest.raises(error, match="shots|integer"):
            run_reconstruction(packet, 0.05, shots=shots, seed=0, joint=True)

    @pytest.mark.parametrize("min_counts, error", [
        (0, ValueError), (-1, ValueError), (None, TypeError), (True, TypeError),
        (2.5, TypeError), ("100", TypeError),
    ])
    def test_bad_min_counts_rejected_before_any_work(self, packet, monkeypatch, min_counts,
                                                      error):
        # None made the counts pass for Born probabilities: a standard error of 0
        def fail(*args, **kwargs):
            raise AssertionError("sweep run for a bad count floor")

        monkeypatch.setattr(photonics, "_sweep", fail)
        with pytest.raises(error, match="min_counts"):
            run_reconstruction(packet, 0.05, shots=10**4, seed=0, post_index=32,
                               min_counts=min_counts)

    @pytest.mark.parametrize("shots", [None, 10**4])
    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), (2**63, ValueError), ("not a seed", TypeError), (1.5, TypeError),
        (True, TypeError), (None, TypeError),
    ])
    def test_bad_seed_rejected_before_any_work(self, packet, monkeypatch, shots, seed, error):
        # without shots no draw reads the seed, so only this check refuses it
        def fail(*args, **kwargs):
            raise AssertionError("sweep run for a bad seed")

        monkeypatch.setattr(photonics, "_sweep", fail)
        with pytest.raises(error, match="seed"):
            run_reconstruction(packet, 0.05, shots=shots, seed=seed, post_index=32)

    def test_numpy_integer_shots_match_python_int(self):
        w = gaussian_state(Grid(16, 12.0), center=0.3, width=WIDTH)
        a = run_reconstruction(w, 0.05, shots=np.int64(10**4), seed=3, joint=True)
        b = run_reconstruction(w, 0.05, shots=10**4, seed=3, joint=True)
        assert np.array_equal(a.z_values, b.z_values)
        assert np.array_equal(a.rates, b.rates)

    def test_unknown_mode_rejected_before_any_work(self, packet, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sweep run for an unknown mode")

        monkeypatch.setattr(photonics, "_sweep", fail)
        with pytest.raises(ValueError, match="sideways"):
            run_reconstruction(packet, 0.05, shots=None, seed=0, mode="sideways")

    def test_noiseless_matches_cv_oracle(self, packet):
        g = packet.grid
        res = run_reconstruction(packet, 1e-3, shots=None, seed=0,
                                 post_index=g.n // 2)
        oracle = conditional_pseudo_cv(weak_char_fn(packet, 0.0))
        assert np.max(np.abs(res.conditional - oracle)) < 1e-6

    def test_monte_carlo_5_sigma_bands(self, packet):
        g = packet.grid
        oracle = conditional_pseudo_cv(weak_char_fn(packet, 0.0))
        res = run_reconstruction(packet, 0.05, shots=10**6, seed=5,
                                 post_index=g.n // 2)
        resid = np.abs(res.conditional - oracle)
        informative = np.abs(oracle) > 0.01 * np.max(np.abs(oracle))
        assert np.all(resid[informative] < 5 * res.conditional_se[informative])

    def test_joint_normalization_under_measured_weights(self, packet):
        g = packet.grid
        res = run_reconstruction(packet, 0.05, shots=10**6, seed=9, joint=True)
        total = g.dx * g.dp * np.sum(res.joint)
        assert abs(total - 1.0) < 0.05

    def test_mode_duality(self, packet):
        # on a self-dual grid, the p-then-x pipeline on psi equals the
        # x-then-p pipeline on the Fourier transform, up to index parity
        n = 64
        g = Grid(n, float(np.sqrt(2 * np.pi * n)))
        w = gaussian_state(g, center=0.8, width=WIDTH)
        wt = WaveFunction(g, to_momentum(w))
        probs_ptx = run_setting(w, 2 * g.dk, 0.4, 0.05, "p-then-x")
        probs_xtp = run_setting(wt, 2 * g.dk, 0.4, 0.05, "x-then-p")
        # second Fourier transform flips parity: pixel m <-> (N - m) mod N
        flipped = np.roll(probs_xtp[..., ::-1], 1, axis=-1)
        assert np.max(np.abs(probs_ptx - flipped)) < 1e-9

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("state", ["gaussian", "random-smooth"])
    def test_statistical_soundness(self, packet, mode, state):
        # the conditional-only run draws the post pixel's marginal
        self.check_calibrated(packet, mode, state, joint=False)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("state", ["gaussian", "random-smooth"])
    def test_statistical_soundness_of_the_joint_runs_conditional(self, packet, mode, state):
        # the same statistic, read from the post pixel of the whole camera
        self.check_calibrated(packet, mode, state, joint=True)

    @staticmethod
    def check_calibrated(packet, mode, state, joint):
        # conditional_se is the standard error of the complex value, so the
        # calibrated statistic is E|r|^2 / se^2 = 1; each part alone has 1/2.
        # Rows k and -k share their draws: the pair's variance at y is
        # 4 (v_C cos^2 ky + v_S sin^2 ky), against 2 (v_C + v_S) for two
        # independent rows, so the mean over y stays calibrated.  The post
        # pixel is the brightest; the statistic read 0.96-1.05 over these cases.
        g = packet.grid
        w = packet if state == "gaussian" else random_smooth_state(g, 3)
        post = int(np.argmax(run_setting(w, 0.0, 0.0, 0.05, mode)[0].sum(axis=0)))
        oracle = scenarios._cv_conditional_oracle(g, w, post,
                                                  "x" if mode == "x-then-p" else "p").values
        informative = np.abs(oracle) > 0.05 * np.max(np.abs(oracle))
        residuals = []
        for seed in range(30):
            res = run_reconstruction(w, 0.05, shots=10**5, seed=seed, mode=mode,
                                     post_index=post, joint=joint)
            r = (res.conditional - oracle)[informative]
            residuals.extend((r / res.conditional_se[informative]).tolist())
        residuals = np.array(residuals)
        assert abs(np.concatenate([residuals.real, residuals.imag]).mean()) < 0.2
        assert 0.8 < np.mean(np.abs(residuals) ** 2) < 1.25

    def test_end_to_end_ccr(self, packet):
        g = packet.grid
        res_x = run_reconstruction(packet, 1e-3, shots=None, seed=0, joint=True)
        res_p = run_reconstruction(packet, 1e-3, shots=None, seed=0,
                                   mode="p-then-x", joint=True)
        xp = np.outer(g.x, g.p)
        m_x = g.dx * g.dp * np.sum(xp * res_x.joint)
        m_p = g.dx * g.dp * np.sum(xp * res_p.joint)
        witness = m_p - m_x
        assert abs(witness - 1j) < 1e-3  # O(eps^2) bias at eps = 1e-3
