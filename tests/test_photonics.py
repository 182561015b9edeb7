import sys
import threading

import numpy as np
import pytest

from kdrecon.cv import (
    Grid,
    WaveFunction,
    conditional_pseudo_cv,
    gaussian_state,
    inverse_char_transform,
    to_momentum,
    weak_char_fn,
)
from kdrecon import photonics
from kdrecon.errors import (
    InsufficientCounts,
    InvalidProbability,
    MissingSetting,
    NormViolation,
    PostSelectionTooWeak,
)
from kdrecon.photonics import (
    QUADRATURES,
    PhotonState,
    ShotHistogram,
    SlmSetting,
    _conjugate_params,
    estimate_weak_char,
    photon_to_momentum,
    prepare_photon,
    propagate_and_analyze,
    run_reconstruction,
    run_setting,
    sample_shots,
    slm_weak_rotation,
)

WIDTH = 1 / np.sqrt(2)  # momentum amplitude e^{-p^2/4}, so Z(k) = e^{-k^2/4}


@pytest.fixture
def grid():
    return Grid(64, 16.0)


@pytest.fixture
def packet(grid):
    return gaussian_state(grid, width=WIDTH)


def analytic_histograms(w, k, epsilon, mode="x-then-p"):
    return {
        (quad, analyzer): run_setting(
            w, SlmSetting(k, np.pi / 2 if quad == "cos" else 0.0, epsilon),
            mode, analyzer,
        )
        for quad in ("cos", "sin")
        for analyzer in ("diag", "circ")
    }


def fresh_sample_shots(prob, shots, seed):
    """The documented ``sample_shots`` stream, drawn from a Philox generator
    built for this call: key (seed, stream indices folded in base 4096)."""
    base, *indices = seed
    stream = 0
    for v in indices:
        stream = stream * 4096 + v
    p = np.asarray(prob, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=(base, stream)))
    counts = rng.multinomial(shots, np.clip(p, 0, None).ravel() / max(p.sum(), 1e-300))
    return ShotHistogram(counts.reshape(p.shape), shots, (base, stream))


def per_cell_reconstruction(w, epsilon, shots, seed, mode, min_counts):
    """Z estimates, errors and rates one (k, quadrature, analyzer) cell and one
    pixel at a time, from the public per-cell functions."""
    g = w.grid
    n = g.n
    z_values = np.zeros((n, n), dtype=complex)
    z_errors = np.zeros((n, n))
    rates = np.zeros(n)
    for m, kp in enumerate(_conjugate_params(g, mode)):
        hists = {}
        for qi, quad in enumerate(QUADRATURES):
            for ai, analyzer in enumerate(("diag", "circ")):
                probs = run_setting(
                    w, SlmSetting(kp, np.pi / 2 if quad == "cos" else 0.0, epsilon),
                    mode, analyzer,
                )
                if shots is None:
                    hists[(quad, analyzer)] = probs
                    rates += probs.sum(axis=1) / (4 * n)
                else:
                    h = sample_shots(probs, shots, (seed, m, qi, ai))
                    hists[(quad, analyzer)] = h
                    rates += h.counts.sum(axis=1) / (4 * n * shots)
        for pix in range(n):
            try:
                z_values[m, pix], z_errors[m, pix] = estimate_weak_char(
                    hists, SlmSetting(kp, 0.0, epsilon), pix, min_counts)
            except (InsufficientCounts, PostSelectionTooWeak):
                z_values[m, pix], z_errors[m, pix] = 0.0, np.inf
    return z_values, z_errors, rates


class TestPreparation:
    def test_product_state_norm(self, packet):
        s = prepare_photon(packet, (1.0, 0.0))
        norm = s.grid.dx * np.sum(np.abs(s.amplitudes) ** 2)
        assert norm == pytest.approx(1)

    def test_diagonal_polarization(self, grid):
        from kdrecon.cv import two_peak_state

        s = prepare_photon(two_peak_state(grid), np.array([1, 1]) / np.sqrt(2))
        assert s.amplitudes.shape == (grid.n, 2)

    def test_unnormalized_polarization_rejected(self, packet):
        with pytest.raises(NormViolation):
            prepare_photon(packet, (1.0, 1.0))
        with pytest.raises(NormViolation):
            prepare_photon(packet, (np.nan, 0.0))
        with pytest.raises(NormViolation):
            PhotonState(packet.grid, np.full((packet.grid.n, 2), np.nan))


class TestSlmRotation:
    def test_tiny_epsilon_barely_changes_state(self, packet):
        s = prepare_photon(packet, (1.0, 0.0))
        out = slm_weak_rotation(s, SlmSetting(packet.grid.dk, 0.0, 1e-12))
        assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-11

    def test_constant_modulation_is_global_rotation(self, grid):
        w = WaveFunction.normalized(grid, np.ones(grid.n))
        s = prepare_photon(w, (1.0, 0.0))
        eps = 0.3
        out = slm_weak_rotation(s, SlmSetting(0.0, np.pi / 2, eps))
        expected = np.outer(w.samples, [np.cos(eps), np.sin(eps)])
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_pointwise_rotation_oracle(self, packet):
        g = packet.grid
        setting = SlmSetting(2 * g.dk, 0.7, 0.2)
        s = prepare_photon(packet, np.array([0.6, 0.8j]))
        out = slm_weak_rotation(s, setting)
        for n in [0, 5, 31, 63]:
            theta = 0.2 * np.sin(2 * g.dk * g.x[n] + 0.7)
            rot = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            )
            assert np.max(np.abs(out.amplitudes[n] - rot @ s.amplitudes[n])) < 1e-12

    def test_norm_preserved(self, packet):
        s = prepare_photon(packet, (1.0, 0.0))
        out = slm_weak_rotation(s, SlmSetting(packet.grid.dk, 0.3, 0.4))
        norm = out.grid.dx * np.sum(np.abs(out.amplitudes) ** 2)
        assert abs(norm - 1.0) < 1e-12


class TestPropagation:
    def test_no_coupling_aligned_analyzer(self, packet):
        g = packet.grid
        s = prepare_photon(packet, (1.0, 0.0))
        probs = propagate_and_analyze(s, "x-then-p", "hv")
        pt = to_momentum(packet).samples
        assert np.max(np.abs(probs[:, 0] - g.dp * np.abs(pt) ** 2)) < 1e-10
        assert np.max(probs[:, 1]) < 1e-20

    def test_probabilities_sum_to_one(self, packet):
        s = prepare_photon(packet, (1.0, 0.0))
        for analyzer in ("hv", "diag", "circ"):
            probs = propagate_and_analyze(s, "x-then-p", analyzer)
            assert abs(probs.sum() - 1.0) < 1e-10

    def test_crossed_signal_scales_quadratically(self, packet):
        g = packet.grid
        sig = []
        for eps in (0.01, 0.02, 0.04):
            s = slm_weak_rotation(
                prepare_photon(packet, (1.0, 0.0)), SlmSetting(g.dk, 0.0, eps)
            )
            probs = propagate_and_analyze(s, "x-then-p", "hv")
            sig.append(probs[:, 1].sum())
        ratios = np.array([sig[1] / sig[0], sig[2] / sig[1]])
        assert np.allclose(ratios, 4.0, rtol=0.01)


class TestSampling:
    def test_delta_distribution(self):
        prob = np.zeros((4, 2))
        prob[2, 0] = 1.0
        h = sample_shots(prob, 1000, (0, 1))
        assert h.counts[2, 0] == 1000
        assert h.counts.sum() == 1000

    def test_uniform_binomial_band(self):
        prob = np.full((2, 2), 0.25)
        h = sample_shots(prob, 10**6, (42, 0))
        sigma = np.sqrt(10**6 * 0.25 * 0.75)
        assert np.max(np.abs(h.counts - 250000)) < 5 * sigma

    def test_determinism(self):
        prob = np.full((2, 2), 0.25)
        a = sample_shots(prob, 5000, (7, 3, 1))
        b = sample_shots(prob, 5000, (7, 3, 1))
        assert np.array_equal(a.counts, b.counts)
        c = sample_shots(prob, 5000, (7, 3, 2))
        assert not np.array_equal(a.counts, c.counts)

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidProbability):
            sample_shots(np.array([[-0.1, 0.5]]), 100, (0,))
        with pytest.raises(InvalidProbability):
            sample_shots(np.array([[np.nan, 0.5]]), 100, (0,))

    def test_matches_fresh_generators_in_shuffled_key_order(self):
        rng = np.random.default_rng(5)
        pair = rng.random((16, 2))
        pair /= pair.sum()
        flat = rng.random(8)
        flat /= flat.sum()
        # a transposed view and a strided slice: neither is C-contiguous
        wide = rng.random((2, 32))
        wide /= wide.sum()
        probs = [pair, flat, wide.T, wide[:, ::2].T]
        seeds = [0, 1, 2**31, 2**63 - 1] + [int(v) for v in rng.integers(2**62, size=46)]
        keys = [(s,) for s in seeds] + [
            (s, *(int(v) for v in rng.integers(4096, size=int(rng.integers(1, 4)))))
            for s in seeds for _ in range(3)
        ] + [(7, 4095, 4095, 4095, 4095, 4095)]
        assert len(keys) >= 200
        for i in rng.permutation(len(keys)):
            key = keys[i]
            p = probs[i % len(probs)]
            for shots in (0, 1, 10**6):
                ref = fresh_sample_shots(p, shots, key)
                h = sample_shots(p, shots, key)
                assert h.counts.shape == p.shape
                assert np.array_equal(h.counts, ref.counts), (key, shots)
                assert h.seed == ref.seed and h.shots == shots

    def test_integer_seed_is_a_one_part_key(self):
        p = np.full((4, 2), 0.125)
        assert np.array_equal(sample_shots(p, 1000, 9).counts,
                              fresh_sample_shots(p, 1000, (9,)).counts)

    def test_threads_sampling_interleaved_keys_match_sequential(self):
        rng = np.random.default_rng(6)
        p = rng.random((32, 2))
        p /= p.sum()
        keys = [(int(s), m, 1, 0) for m, s in enumerate(rng.integers(2**40, size=400))]
        expected = [sample_shots(p, 10**5, key).counts for key in keys]
        got = [None] * len(keys)
        workers = 4  # more threads than the cores of a small CI runner
        start = threading.Barrier(workers)

        def worker(first):
            start.wait()
            for i in range(first, len(keys), workers):
                got[i] = sample_shots(p, 10**5, keys[i]).counts

        threads = [threading.Thread(target=worker, args=(first,)) for first in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.parametrize("seed", [
        (2**63,), (2**64 - 1,), (-1,), 2**63, -5, (0, 4096), (0, -1), (0, 1, 4096),
        (0, 4095, 4095, 4095, 4095, 4095, 4095),
    ])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            sample_shots(np.full((2, 2), 0.25), 10, seed)


class TestEstimator:
    def test_missing_setting(self, packet):
        g = packet.grid
        hists = analytic_histograms(packet, g.dk, 0.01)
        del hists[("sin", "circ")]
        with pytest.raises(MissingSetting):
            estimate_weak_char(hists, SlmSetting(g.dk, 0.0, 0.01), g.n // 2)

    def test_zero_frequency_calibration(self, packet):
        g = packet.grid
        hists = analytic_histograms(packet, 0.0, 0.01)
        z, se = estimate_weak_char(hists, SlmSetting(0.0, 0.0, 0.01), g.n // 2)
        assert abs(z - 1.0) < 1e-12
        assert se == 0.0

    def test_converges_to_oracle(self, packet):
        g = packet.grid
        oracle = weak_char_fn(packet, 0.0)
        for m in (g.n // 2 + 1, g.n // 2 + 4):
            k = g.k[m]
            hists = analytic_histograms(packet, k, 1e-3)
            z, _ = estimate_weak_char(hists, SlmSetting(k, 0.0, 1e-3), g.n // 2)
            assert abs(z - oracle.values[m]) < 1e-6

    def test_monte_carlo_within_5_sigma(self, packet):
        g = packet.grid
        m = g.n // 2 + 2
        k = g.k[m]
        eps = 0.05
        hists = {
            key: sample_shots(probs, 10**7, (11, i))
            for i, (key, probs) in enumerate(
                analytic_histograms(packet, k, eps).items()
            )
        }
        z, se = estimate_weak_char(hists, SlmSetting(k, 0.0, eps), g.n // 2)
        oracle = np.exp(-k ** 2 / 4)
        assert abs(z - oracle) < 5 * se + 2 * eps ** 2  # noise band + weak-limit bias

    def test_halving_epsilon_halves_bias(self, packet):
        g = packet.grid
        m = g.n // 2 + 3
        k = g.k[m]
        oracle = weak_char_fn(packet, 0.0).values[m]
        biases = []
        for eps in (0.1, 0.05):
            hists = analytic_histograms(packet, k, eps)
            z, _ = estimate_weak_char(hists, SlmSetting(k, 0.0, eps), g.n // 2)
            biases.append(abs(z - oracle))
        assert biases[1] < biases[0]


class TestReconstruction:
    @pytest.mark.parametrize("mode", ["x-then-p", "p-then-x"])
    @pytest.mark.parametrize("n, hbar", [(16, 1.0), (64, 2.5), (128, 0.37)])
    def test_inverse_transform_matches_direct_sum(self, mode, n, hbar):
        g = Grid(n, 16.0, hbar)
        params = _conjugate_params(g, mode)
        out_values = g.x if mode == "x-then-p" else g.p
        rng = np.random.default_rng(n)
        z = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        dparam = params[1] - params[0]
        direct = dparam / (2 * np.pi) * np.exp(-1j * np.outer(out_values, params)) @ z
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(inverse_char_transform(params, z, out_values) - direct)) < 1e-12 * scale
        column = inverse_char_transform(params, z[:, 1], out_values)
        assert np.max(np.abs(column - direct[:, 1])) < 1e-12 * scale

    @pytest.mark.parametrize("mode", ["x-then-p", "p-then-x"])
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    @pytest.mark.parametrize("shots", [None, 10**4])
    def test_batched_sweep_matches_per_cell_path(self, mode, hbar, shots):
        g = Grid(32, 14.0, hbar)
        w = gaussian_state(g, center=0.4, width=WIDTH)
        eps, seed = 0.05, 17
        z_ref, se_ref, rates_ref = per_cell_reconstruction(w, eps, shots, seed, mode, 100)
        res = run_reconstruction(w, eps, shots, seed, mode=mode, joint=True, min_counts=100)
        masked = np.isinf(se_ref)
        if shots is not None:
            assert 0 < masked.sum() < masked.size  # the masks compared are not trivial
        assert np.array_equal(np.isinf(res.z_errors), masked)
        assert np.max(np.abs(res.z_values - z_ref)) <= 1e-12
        assert np.max(np.abs(res.z_errors[~masked] - se_ref[~masked]), initial=0.0) <= 1e-12
        assert np.allclose(res.rates, rates_ref, rtol=1e-12, atol=0)
        params = _conjugate_params(g, mode)
        step = g.dp if mode == "x-then-p" else g.dx
        valid = ~masked.any(axis=0) & (rates_ref > 0)
        joint = inverse_char_transform(params, z_ref, g.x if mode == "x-then-p" else g.p) \
            * np.where(valid, rates_ref / step, 0.0)
        joint = joint if mode == "x-then-p" else joint.T
        assert np.max(np.abs(res.joint - joint)) <= 1e-12 * np.max(np.abs(joint))
        if shots is not None:
            short_pixel = int(np.flatnonzero(masked.any(axis=0))[0])
            with pytest.raises(InsufficientCounts):
                run_reconstruction(w, eps, shots, seed, mode=mode, post_index=short_pixel,
                                   min_counts=100)

    @pytest.mark.parametrize("mode", ["x-then-p", "p-then-x"])
    def test_sweep_draws_the_streams_of_fresh_generators(self, mode, monkeypatch):
        w = gaussian_state(Grid(16, 12.0), center=0.3, width=WIDTH)
        res = run_reconstruction(w, 0.05, 10**4, 23, mode=mode, joint=True)
        calls = []

        def fresh(prob, shots, seed):
            calls.append(seed)
            return fresh_sample_shots(prob, shots, seed)

        monkeypatch.setattr(photonics, "sample_shots", fresh)
        ref = run_reconstruction(w, 0.05, 10**4, 23, mode=mode, joint=True)
        assert sorted(calls) == [(23, m, qi, ai) for m in range(16)
                                 for qi in range(2) for ai in range(2)]
        for name in ("z_values", "z_errors", "rates"):
            assert np.array_equal(getattr(res, name), getattr(ref, name)), name

    @pytest.mark.parametrize("epsilon", [0.0, -0.05, np.pi / 2, 2.0, np.nan, np.inf])
    def test_epsilon_outside_the_open_quarter_turn_rejected(self, packet, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            run_reconstruction(packet, epsilon, shots=1000, seed=0, joint=True)

    def test_shot_sweep_past_the_stream_index_range_rejected(self, monkeypatch):
        def fail(*args):
            raise AssertionError("photon prepared past the stream index range")

        monkeypatch.setattr(photonics, "prepare_photon", fail)
        w = gaussian_state(Grid(8192, 200.0), width=WIDTH)
        with pytest.raises(ValueError, match="4096"):
            run_reconstruction(w, 0.05, shots=1000, seed=0, joint=True)

    @pytest.mark.parametrize("post_index", [-1, 64])
    def test_out_of_range_post_index_rejected_before_any_work(self, packet, monkeypatch,
                                                              post_index):
        def fail(*args):
            raise AssertionError("photon prepared for an out-of-range post_index")

        monkeypatch.setattr(photonics, "prepare_photon", fail)
        assert packet.grid.n == 64
        with pytest.raises(ValueError, match=r"post_index .* outside \[0, 64\)"):
            run_reconstruction(packet, 0.05, shots=None, seed=0, post_index=post_index)

    def test_unknown_mode_rejected_before_any_work(self, packet, monkeypatch):
        def fail(*args):
            raise AssertionError("photon prepared for an unknown mode")

        monkeypatch.setattr(photonics, "prepare_photon", fail)
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
        wt_samples = to_momentum(w).samples
        wt = WaveFunction(g, wt_samples, "position")
        setting = SlmSetting(2 * g.dk, 0.4, 0.05)
        probs_ptx = run_setting(w, setting, "p-then-x", "diag")
        probs_xtp = run_setting(wt, setting, "x-then-p", "diag")
        # second Fourier transform flips parity: pixel m <-> (N - m) mod N
        flipped = np.roll(probs_xtp[::-1], 1, axis=0)
        assert np.max(np.abs(probs_ptx - flipped)) < 1e-9

    def test_statistical_soundness(self, packet):
        g = packet.grid
        oracle = conditional_pseudo_cv(weak_char_fn(packet, 0.0))
        informative = np.abs(oracle) > 0.05 * np.max(np.abs(oracle))
        residuals = []
        for seed in range(30):
            res = run_reconstruction(packet, 0.05, shots=10**5, seed=seed,
                                     post_index=g.n // 2)
            r = (res.conditional - oracle)[informative]
            se = res.conditional_se[informative]
            residuals.extend((r.real / se).tolist())
            residuals.extend((r.imag / se).tolist())
        residuals = np.array(residuals)
        assert abs(residuals.mean()) < 0.2
        assert 0.5 < residuals.var() < 2.0

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
