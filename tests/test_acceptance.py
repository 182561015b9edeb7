"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import time
import warnings

import numpy as np
import pytest

from kdrecon.core import (
    QuantumState,
    pauli_spec,
    random_density,
    random_observable,
    random_state,
)
from kdrecon.cv import (
    Grid,
    ccr_witness,
    conditional_pseudo_cv,
    gaussian_state,
    random_smooth_state,
    to_momentum,
    two_peak_state,
    weak_char_fn,
)
from kdrecon.moments import (
    correlation_matrix,
    correlation_tensor,
    moment_vector,
    weak_value,
)
from kdrecon.oracle import (
    kd_conditional,
    kd_joint,
    kd_marginals,
    kd_npoint,
    reconstruct_state,
)
from kdrecon.photonics import run_reconstruction
from kdrecon.reconstruct import (
    conditional_from_moments,
    joint_from_correlations,
    npoint_from_correlations,
)
from kdrecon.vandermonde import invert_vandermonde

SZ = pauli_spec("z")


def report(num, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{verdict} criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _postselect_state(b, j):
    return QuantumState(b.eigenvector(j))


def test_criterion_1_qubit_identity():
    start = time.perf_counter()
    worst = 0.0
    sz1 = SZ.matrix()
    for seed in range(1000):
        psi = random_state(2, seed)
        b = random_observable(2, 10_000 + seed)
        j = seed % 2
        phi = _postselect_state(b, j)
        w = weak_value(sz1, psi, phi)
        q = conditional_from_moments(SZ, moment_vector(SZ, psi, phi)).values
        closed_form = np.array([(1 + w) / 2, (1 - w) / 2])
        oracle = kd_conditional(psi, SZ, b, j).values
        worst = max(worst, np.max(np.abs(q - closed_form)), np.max(np.abs(q - oracle)))
    elapsed = time.perf_counter() - start
    report(
        1,
        "qubit conditional identity, 1000 instances",
        worst <= 1e-10 and elapsed < 1.0,
        f"max error {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_discrete_uniqueness():
    start = time.perf_counter()
    worst = 0.0
    for d in range(2, 7):
        for trial in range(200):
            seed = 1000 * d + trial
            psi = random_state(d, seed)
            a = random_observable(d, seed + 100_000)
            b = random_observable(d, seed + 200_000)
            j = trial % d
            phi = _postselect_state(b, j)
            q = conditional_from_moments(a, moment_vector(a, psi, phi)).values
            oracle = kd_conditional(psi, a, b, j).values
            worst = max(worst, np.max(np.abs(q - oracle)))
    elapsed = time.perf_counter() - start
    report(
        2,
        "discrete conditional uniqueness, d=2..6, 200 instances each",
        worst <= 1e-8 and elapsed < 10.0,
        f"max error {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_joint_identification():
    worst = 0.0
    for d in range(2, 7):
        for trial in range(200):
            seed = 3000 * d + trial
            psi = random_state(d, seed)
            a = random_observable(d, seed + 300_000)
            b = random_observable(d, seed + 400_000)
            q = joint_from_correlations(a, b, correlation_matrix(a, b, psi)).values
            oracle = kd_joint(psi, a, b).values.conj()
            worst = max(worst, np.max(np.abs(q - oracle)))
    report(
        3,
        "joint reconstruction equals conj(kd_joint), d=2..6, 200 instances each",
        worst <= 1e-8,
        f"max error {worst:.2e}",
    )


def test_criterion_4_npoint():
    worst = 0.0
    for d, n in [(2, 3), (3, 3), (2, 4)]:
        for trial in range(50):
            seed = 10_000 * d + 100 * n + trial
            psi = random_state(d, seed)
            obs = [
                random_observable(d, seed + 50_000 * (ax + 1), label=f"O{ax}")
                for ax in range(n)
            ]
            t = correlation_tensor(obs, psi)
            q = npoint_from_correlations(obs, t).values
            oracle = kd_npoint(psi, obs).values
            worst = max(worst, np.max(np.abs(q - oracle)))
    report(
        4,
        "N-point reconstruction, (d,N) in {(2,3),(3,3),(2,4)}, 50 instances each",
        worst <= 1e-7,
        f"max error {worst:.2e}",
    )


def test_criterion_5_informational_completeness():
    worst = 0.0
    trials = [(2, 34), (3, 33), (4, 33)]
    for d, count in trials:
        for trial in range(count):
            seed = 7000 * d + trial
            rho = random_density(d, seed)
            a = random_observable(d, seed + 600_000)
            b = random_observable(d, seed + 700_000)
            back = reconstruct_state(kd_joint(rho, a, b), a, b)
            worst = max(worst, np.max(np.abs(back.matrix - rho.matrix)))
    report(
        5,
        "KD round-trip state reconstruction, 100 mixed states, d<=4",
        worst <= 1e-9,
        f"max error {worst:.2e}",
    )


def test_criterion_6_marginals_normalization():
    worst_sum = 0.0
    worst_marg = 0.0
    for trial in range(60):
        d = 2 + trial % 5
        seed = 20_000 + trial
        rho = random_density(d, seed)
        psi = random_state(d, seed)
        a = random_observable(d, seed + 800_000)
        b = random_observable(d, seed + 900_000)
        k = kd_joint(rho, a, b)
        worst_sum = max(worst_sum, abs(k.total - 1.0))
        pa, pb = kd_marginals(k)
        born_a = np.real(np.diag(a.eigenvectors.conj().T @ rho.matrix @ a.eigenvectors))
        born_b = np.real(np.diag(b.eigenvectors.conj().T @ rho.matrix @ b.eigenvectors))
        worst_marg = max(
            worst_marg, np.max(np.abs(pa - born_a)), np.max(np.abs(pb - born_b))
        )
        j = trial % d
        cond = kd_conditional(psi, a, b, j)
        worst_sum = max(worst_sum, abs(np.sum(cond.values) - 1.0))
        npt = kd_npoint(psi, [a, b, random_observable(d, seed + 950_000)])
        worst_sum = max(worst_sum, abs(np.sum(npt.values) - 1.0))
    ok = worst_sum <= 1e-10 and worst_marg <= 1e-10
    report(
        6,
        "sum-to-one and Born marginals at 1e-10",
        ok,
        f"max sum deviation {worst_sum:.2e}, max marginal error {worst_marg:.2e}",
    )


def test_criterion_7_cv_conditional():
    start = time.perf_counter()
    g = Grid(1024, 40.0)
    states = {
        "gaussian": gaussian_state(g),
        "squeezed": gaussian_state(g, width=np.exp(-0.5)),
        "two-peak": two_peak_state(g),
    }
    worst = 0.0
    for w in states.values():
        q = conditional_pseudo_cv(weak_char_fn(w, 0.0))
        pt = to_momentum(w)
        oracle = (
            np.exp(-1j * 0.0 * g.x) / np.sqrt(2 * np.pi) * w.samples / pt[g.n // 2]
        )
        worst = max(worst, np.max(np.abs(q - oracle)))
    elapsed = time.perf_counter() - start
    report(
        7,
        "CV conditional equals weak-valued projector, N=1024, L=40",
        worst <= 1e-7 and elapsed < 5.0,
        f"max error {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_8_ccr_witness():
    start = time.perf_counter()
    g = Grid(1024, 40.0)
    worst = 0.0
    for seed in range(20):
        witness = ccr_witness(random_smooth_state(g, seed=seed))
        worst = max(worst, abs(witness - 1j * g.hbar))
    elapsed = time.perf_counter() - start
    report(
        8,
        "CCR witness equals i*hbar for 20 random smooth states",
        worst <= 1e-6 and elapsed < 30.0,
        f"max deviation {worst:.2e}, {elapsed:.2f} s",
    )


def _experiment_state(g):
    # width 1/sqrt(2): Z(k) = e^{-k^2/4} under momentum post-selection at 0
    return gaussian_state(g, width=1 / np.sqrt(2))


def test_criterion_9_experiment_noiseless():
    g = Grid(64, 16.0)
    w = _experiment_state(g)
    res = run_reconstruction(w, 1e-3, shots=None, seed=0, post_index=g.n // 2)
    oracle = conditional_pseudo_cv(weak_char_fn(w, 0.0))
    worst = np.max(np.abs(res.conditional - oracle))
    report(
        9,
        "noiseless experiment pipeline matches CV oracle at eps=1e-3",
        worst <= 1e-6,
        f"max error {worst:.2e}",
    )


def test_criterion_10_experiment_monte_carlo():
    g = Grid(64, 16.0)
    w = _experiment_state(g)
    oracle = conditional_pseudo_cv(weak_char_fn(w, 0.0))
    informative = np.abs(oracle) > 0.01 * np.max(np.abs(oracle))
    within = 0
    total = 0
    for seed in range(20):
        res = run_reconstruction(w, 0.05, shots=10**6, seed=seed,
                                 post_index=g.n // 2)
        resid = np.abs(res.conditional - oracle)[informative]
        se = res.conditional_se[informative]
        within += int(np.sum(resid <= 5 * se))
        total += int(informative.sum())
    coverage = within / total
    biases = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        res = run_reconstruction(w, eps, shots=None, seed=0, post_index=g.n // 2)
        biases.append(float(np.max(np.abs(res.conditional - oracle))))
    monotone = all(b1 > b2 for b1, b2 in zip(biases, biases[1:]))
    ok = coverage >= 0.99 and monotone
    report(
        10,
        "Monte-Carlo experiment: 5-sigma coverage and eps-monotone bias",
        ok,
        f"coverage {coverage:.4f}, biases {['%.2e' % b for b in biases]}",
    )


def test_criterion_11_vandermonde_solver():
    worst_identity = 0.0
    for d in range(1, 11):
        nodes = np.arange(d, dtype=float)
        v = np.vander(nodes, increasing=True).T
        worst_identity = max(
            worst_identity, np.max(np.abs(invert_vandermonde(nodes) @ v - np.eye(d)))
        )
    worst_dense = 0.0
    for d in range(2, 9):
        nodes = np.linspace(-1, 1, d)
        v = np.vander(nodes, increasing=True).T
        worst_dense = max(
            worst_dense, np.max(np.abs(invert_vandermonde(nodes) - np.linalg.inv(v)))
        )
    # timing slope over d in {8, 16, 32}; an O(d^2) algorithm must stay well
    # under the cubic slope of generic elimination
    dims = [8, 16, 32]
    times = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for d in dims:
            nodes = np.linspace(-1, 1, d)
            reps = 400
            invert_vandermonde(nodes)  # warm up
            best = min(
                _time_inversions(nodes, reps) for _ in range(5)
            )
            times.append(best / reps)
    slope = np.polyfit(np.log(dims), np.log(times), 1)[0]
    ok = worst_identity <= 1e-8 and worst_dense <= 1e-8 and slope < 2.5
    report(
        11,
        "Vandermonde inverse: identity d<=10, dense match d<=8, O(d^2) timing",
        ok,
        f"identity {worst_identity:.2e}, dense {worst_dense:.2e}, slope {slope:.2f}",
    )


def _time_inversions(nodes, reps):
    start = time.perf_counter()
    for _ in range(reps):
        invert_vandermonde(nodes)
    return time.perf_counter() - start
