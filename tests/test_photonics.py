import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from kdrecon.cv import (
    Grid,
    WaveFunction,
    conditional_pseudo_cv,
    gaussian_state,
    inverse_char_transform,
    momentum_samples_raw,
    position_samples_raw,
    to_momentum,
    weak_char_fn,
)
from kdrecon import photonics
from kdrecon.core import GRID_CAP
from kdrecon.errors import (
    InsufficientCounts,
    InvalidProbability,
    NormViolation,
    OffGridParameter,
    SizeCap,
)
from kdrecon.photonics import (
    ANALYZERS,
    QUADRATURES,
    _asymmetry,
    _conjugate_params,
    estimate_weak_char,
    propagate_and_analyze,
    run_reconstruction,
    run_setting,
    sample_shots,
)

WIDTH = 1 / np.sqrt(2)  # momentum amplitude e^{-p^2/4}, so Z(k) = e^{-k^2/4}
MODES = ["x-then-p", "p-then-x"]
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
    (seed, 2 qi + ai)."""
    asym, var_sum = {}, 0.0
    for qi, quad in enumerate(QUADRATURES):
        probs = run_setting(w, k, np.pi / 2 if quad == "cos" else 0.0, epsilon, mode)
        if shots is not None:  # a stack of two one-cell blocks
            probs = sample_shots(probs[:, None], shots, [(seed, 2 * qi), (seed, 2 * qi + 1)])[:, 0]
        for ai, analyzer in enumerate(ANALYZERS):
            rows = probs[ai]  # (outcome, pixel)
            asym[quad, analyzer], var, _, short = _asymmetry(
                rows[0, pixel], rows[1, pixel], None if shots is None else 100)
            assert not short
            var_sum += var
    z, se = estimate_weak_char(asym, var_sum, epsilon)
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


def per_cell_reconstruction(w, epsilon, shots, seed, mode, min_counts):
    """Z estimates, errors and rates one (k, quadrature, analyzer) cell and one
    pixel at a time: the H photon is rotated, propagated and projected for
    each cell, and each pixel's four asymmetries are combined on their own.
    With shots, (quadrature qi, analyzer ai) has a generator of its own, keyed
    (seed, 2 qi + ai), which draws each frequency's (outcome, pixel) cell in
    k order.  It shares no code with the stages beyond the transforms."""
    g = w.grid
    n = g.n
    rngs = [philox((seed, stream)) for stream in range(4)] if shots is not None else None
    slm, coords = slm_plane(w, mode)
    to_camera, step = (momentum_samples_raw, g.dp) if mode == "x-then-p" \
        else (position_samples_raw, g.dx)
    z_values = np.zeros((n, n), dtype=complex)
    z_errors = np.zeros((n, n))
    recorded = np.zeros(n)
    for m, kp in enumerate(_conjugate_params(g, mode)):
        rows = {}
        for qi, quad in enumerate(QUADRATURES):
            theta = epsilon * np.sin(kp * coords + (np.pi / 2 if quad == "cos" else 0.0))
            camera = to_camera(g, np.stack([np.cos(theta) * slm, np.sin(theta) * slm]))
            for ai, analyzer in enumerate(("diag", "circ")):
                probs = step * np.abs(KETS[analyzer].conj().T @ camera) ** 2
                if shots is not None:
                    probs = fresh_cell(rngs[2 * qi + ai], probs, shots)
                rows[quad, analyzer] = probs
                recorded += probs.sum(axis=0)
        for pix in range(n):
            asym, var_sum = {}, 0.0
            for key, (plus, minus) in rows.items():
                total = plus[pix] + minus[pix]
                if total == 0 or (shots is not None and total < min_counts):
                    z_values[m, pix], z_errors[m, pix] = 0.0, np.inf
                    break
                asym[key] = (plus[pix] - minus[pix]) / total
                if shots is not None:
                    var_sum += max(1.0 - asym[key] ** 2, 1e-12) / total
            else:
                norm = np.sin(2 * epsilon)
                z_values[m, pix] = (asym["cos", "diag"] - asym["sin", "circ"] + 1j * (
                    asym["cos", "circ"] + asym["sin", "diag"])) / norm
                z_errors[m, pix] = np.sqrt(var_sum) / norm
    return z_values, z_errors, recorded / (4 * n * (1 if shots is None else shots))


def refuse_draw(*args, **kwargs):
    raise AssertionError("a Philox generator was built for a refused call")


def _draw_into(queue, stack, shots, keys):
    """Body of a forked child: draw the stack and send the counts back."""
    queue.put(sample_shots(stack, shots, keys))


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
            params = _conjugate_params(packet.grid, mode)
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
        for bad in (2.5 * step, np.nan, np.inf):
            with pytest.raises(OffGridParameter, match="SLM frequency"):
                run_setting(packet, [step, bad], 0.0, 0.05, mode)


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

    def test_crossed_signal_scales_quadratically(self, packet):
        g = packet.grid
        sig = []
        for eps in (0.01, 0.02, 0.04):
            sig.append(populations(run_setting(packet, g.dk, 0.0, eps, "x-then-p"))[1].sum())
        ratios = np.array([sig[1] / sig[0], sig[2] / sig[1]])
        assert np.allclose(ratios, 4.0, rtol=0.01)


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
        # every caller shares the one worker thread that draws block 1
        rng = np.random.default_rng(6)
        p = rng.random((2, 32, 2))
        p /= p.sum(axis=(1, 2), keepdims=True)
        keys = [[(int(s), m % 4), (int(s), m % 4 + 4)]
                for m, s in enumerate(rng.integers(2**40, size=400))]
        expected = [sample_shots(p, 10**5, pair) for pair in keys]
        for pair, counts in zip(keys[:20], expected):
            for block, key, block_counts in zip(p, pair, counts):
                assert np.array_equal(block_counts, fresh_sample_shots(block, 10**5, key)), key
        got = [None] * len(keys)
        workers = 4  # more threads than the cores of a small CI runner
        start = threading.Barrier(workers)

        def worker(first):
            start.wait()
            for i in range(first, len(keys), workers):
                got[i] = sample_shots(p, 10**5, keys[i])

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

    @pytest.mark.parametrize("mode", MODES)
    def test_layouts_of_equal_values_give_identical_counts(self, mode):
        # the sweep's own (k, outcome, pixel) blocks, as C-ordered arrays,
        # transposed views and strided slices
        g = Grid(64, 16.0)
        w = gaussian_state(g, center=0.4, width=WIDTH)
        for qi, phase in enumerate((np.pi / 2, 0.0)):
            probs = run_setting(w, _conjugate_params(g, mode), phase, 0.05, mode)
            for ai, rows in enumerate(probs):
                key = (3, 2 * qi + ai)
                counts = sample_block(rows, 10**6, key)
                transposed = np.ascontiguousarray(rows.transpose(0, 2, 1)).transpose(0, 2, 1)
                strided = np.zeros(rows.shape[:2] + (3 * g.n,))
                strided[..., ::3] = rows
                for view in (transposed, strided[..., ::3], np.asfortranarray(rows)):
                    assert np.array_equal(sample_block(view, 10**6, key), counts), key

    @pytest.mark.parametrize("blocks", [1, 2, 5])
    @pytest.mark.parametrize("layout", ["C", "transposed", "strided"])
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
        keys = [(int(rng.integers(2**63)), int(rng.integers(2**63))) for _ in range(blocks)]
        for shots in (0, 1, 10**6):
            counts = sample_shots(stack, shots, keys)
            assert counts.shape == stack.shape
            for b, key in enumerate(keys):
                assert np.array_equal(counts[b], fresh_sample_shots(stack[b], shots, key)), (b, shots)

    @pytest.mark.parametrize("failing", [0, 1, 3])
    def test_error_in_a_block_draw_reaches_the_caller_after_every_draw(self, failing,
                                                                         monkeypatch):
        # one block's draw raises; sample_shots re-raises it, with its type,
        # only once no draw it started is still running
        class DrawFailed(RuntimeError):
            pass

        lock = threading.Lock()
        running, finished = set(), []

        def draw(pvals, shots, key, _draw=photonics._draw):
            with lock:
                running.add(key)
            try:
                if key[1] == failing:
                    raise DrawFailed(key)
                time.sleep(0.05)
                return _draw(pvals, shots, key)
            finally:
                with lock:
                    running.discard(key)
                    finished.append(key)

        monkeypatch.setattr(photonics, "_draw", draw)
        keys = [(4, b) for b in range(5)]
        with pytest.raises(DrawFailed) as raised:
            sample_shots(np.full((5, 3, 2, 2), 0.25), 100, keys)
        assert raised.value.args == ((4, failing),)
        assert not running
        assert sorted(finished) == keys

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_fork_child_draws_the_parents_counts(self):
        # the child inherits the parent's pool but not its worker thread
        stack = np.full((3, 4, 2, 8), 1 / 16)
        keys = [(11, 0), (11, 1), (11, 2)]
        parent = sample_shots(stack, 10**4, keys)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_draw_into, args=(queue, stack, 10**4, keys))
        child.start()
        try:
            counts = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert not child.is_alive()
        assert child.exitcode == 0
        assert np.array_equal(counts, parent)

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
        ("2-d", ValueError),
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
        params = _conjugate_params(g, mode)
        out_values = g.x if mode == "x-then-p" else g.p
        rng = np.random.default_rng(n)
        z = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        dparam = params[1] - params[0]
        direct = dparam / (2 * np.pi) * np.exp(-1j * np.outer(out_values, params)) @ z
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(inverse_char_transform(z, dparam) - direct)) < 1e-12 * scale
        column = inverse_char_transform(z[:, 1], dparam)
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
        joint = inverse_char_transform(z_ref, params[1] - params[0]) \
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
        # the second case is at the benchmark's scale
        for n, length, center, shots, seed in [(16, 12.0, 0.3, 10**4, 23),
                                               (64, 16.0, 0.4, 10**6, 3)]:
            w = gaussian_state(Grid(n, length), center=center, width=WIDTH)
            res = run_reconstruction(w, 0.05, shots, seed, mode=mode, joint=True)
            calls = []

            def fresh(prob, shots, keys, n=n, _stack=sample_shots):
                # one call per quadrature on its (analyzer, k, outcome, pixel)
                # stack, each analyzer block's cells drawn here one at a time
                # from a generator of the block's key
                calls.append(keys)
                assert prob.shape == (2, n, 2, n)
                rows = np.stack([fresh_sample_shots(block, shots, key)
                                 for block, key in zip(prob, keys)])
                assert np.array_equal(_stack(prob, shots, keys), rows)
                return rows

            monkeypatch.setattr(photonics, "sample_shots", fresh)
            ref = run_reconstruction(w, 0.05, shots, seed, mode=mode, joint=True)
            monkeypatch.undo()
            assert calls == [[(seed, 0), (seed, 1)], [(seed, 2), (seed, 3)]]
            for name in ("z_values", "z_errors", "rates", "joint"):
                assert np.array_equal(getattr(res, name), getattr(ref, name)), (n, name)

    @pytest.mark.parametrize("mode", MODES)
    def test_block_draw_matches_per_cell_path_at_benchmark_scale(self, mode):
        g = Grid(64, 16.0)
        w = gaussian_state(g, center=0.4, width=WIDTH)
        z_ref, se_ref, rates_ref = per_cell_reconstruction(w, 0.05, 10**6, 29, mode, 100)
        res = run_reconstruction(w, 0.05, 10**6, 29, mode=mode, joint=True)
        assert 0 < np.isinf(se_ref).sum() < se_ref.size
        assert np.array_equal(res.z_values, z_ref)
        assert np.array_equal(res.z_errors, se_ref)
        assert np.array_equal(res.rates, rates_ref)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shots", [None, 10**4])
    def test_sweep_runs_the_public_stages(self, mode, shots, monkeypatch):
        n = 16
        w = gaussian_state(Grid(n, 12.0), center=0.3, width=WIDTH)
        stages = ("run_setting", "propagate_and_analyze", "sample_shots", "estimate_weak_char")
        calls = dict.fromkeys(stages, 0)
        for name in stages:
            def counted(*args, _name=name, _stage=getattr(photonics, name), **kwargs):
                calls[_name] += 1
                return _stage(*args, **kwargs)

            monkeypatch.setattr(photonics, name, counted)
        run_reconstruction(w, 0.05, shots, 3, mode=mode, post_index=n // 2, joint=True)
        # one setting, one propagation and one draw of both analyzer blocks
        # per quadrature, each over all frequencies; one batched estimate
        assert calls == {"run_setting": 2, "propagate_and_analyze": 2,
                         "sample_shots": 0 if shots is None else 2,
                         "estimate_weak_char": 1}

    def test_grid_past_the_cap_builds_nothing(self, size_cap_peak):
        w = gaussian_state(Grid(2 * GRID_CAP, 400.0), width=WIDTH)
        # the (k, pixel) tables alone would take 0.5 GB each
        assert size_cap_peak(lambda: run_reconstruction(w, 0.05, shots=None, seed=0,
                                                        post_index=0)) < 5 * 2**20

    @pytest.mark.parametrize("epsilon", [0.0, -0.05, np.pi / 2, 2.0, np.nan, np.inf])
    def test_epsilon_outside_the_open_quarter_turn_rejected(self, packet, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            run_reconstruction(packet, epsilon, shots=1000, seed=0, joint=True)

    def test_shot_sweep_past_the_grid_cap_rejected(self, monkeypatch):
        def fail(*args):
            raise AssertionError("SLM setting run past the grid cap")

        monkeypatch.setattr(photonics, "run_setting", fail)
        w = gaussian_state(Grid(2 * GRID_CAP, 200.0), width=WIDTH)
        with pytest.raises(SizeCap, match=str(GRID_CAP)):
            run_reconstruction(w, 0.05, shots=1000, seed=0, joint=True)

    @pytest.mark.parametrize("post_index", [-1, 64])
    def test_out_of_range_post_index_rejected_before_any_work(self, packet, monkeypatch,
                                                              post_index):
        def fail(*args):
            raise AssertionError("SLM setting run for an out-of-range post_index")

        monkeypatch.setattr(photonics, "run_setting", fail)
        assert packet.grid.n == 64
        with pytest.raises(ValueError, match=r"post_index .* outside \[0, 64\)"):
            run_reconstruction(packet, 0.05, shots=None, seed=0, post_index=post_index)

    @pytest.mark.parametrize("shots, error", [
        (0, ValueError), (-5, ValueError), (10**19, ValueError), (2**63, ValueError),
        (1.5, TypeError), (1e4, TypeError), (True, TypeError), (np.float64(1e4), TypeError),
    ])
    def test_bad_shots_rejected_before_any_work(self, packet, monkeypatch, shots, error):
        def fail(*args):
            raise AssertionError("SLM setting run for a bad shot count")

        monkeypatch.setattr(photonics, "run_setting", fail)
        with pytest.raises(error, match="shots|integer"):
            run_reconstruction(packet, 0.05, shots=shots, seed=0, joint=True)

    def test_numpy_integer_shots_match_python_int(self):
        w = gaussian_state(Grid(16, 12.0), center=0.3, width=WIDTH)
        a = run_reconstruction(w, 0.05, shots=np.int64(10**4), seed=3, joint=True)
        b = run_reconstruction(w, 0.05, shots=10**4, seed=3, joint=True)
        assert np.array_equal(a.z_values, b.z_values)
        assert np.array_equal(a.rates, b.rates)

    def test_unknown_mode_rejected_before_any_work(self, packet, monkeypatch):
        def fail(*args):
            raise AssertionError("SLM setting run for an unknown mode")

        monkeypatch.setattr(photonics, "run_setting", fail)
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

    def test_statistical_soundness(self, packet):
        # conditional_se is the standard error of the complex value, so the
        # calibrated statistic is E|r|^2 / se^2 = 1; each part alone has 1/2
        g = packet.grid
        oracle = conditional_pseudo_cv(weak_char_fn(packet, 0.0))
        informative = np.abs(oracle) > 0.05 * np.max(np.abs(oracle))
        residuals = []
        for seed in range(30):
            res = run_reconstruction(packet, 0.05, shots=10**5, seed=seed,
                                     post_index=g.n // 2)
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
