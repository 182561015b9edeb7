"""The four workloads: inputs made from a seed, one round of cases, and a
check of every case against a reference that does not come from the path
under test.

A round holds one case of each type; the closed loop in ``run.py`` repeats
whole rounds, so every run sees the same mix.  Case runners look kdrecon
functions up on their modules at call time, so the tracer's substitutions
are seen.  Tolerances are the ones the repository's acceptance criteria use.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from kdrecon import cli, core, cv, moments, oracle, photonics, reconstruct, scenarios

TOL_DISCRETE = 1e-8      # criteria 2 and 3: discrete conditional and joint
TOL_NPOINT = 1e-7        # criterion 4
TOL_CV = 1e-7            # criterion 7: CV conditional (used for the CV joint too)
TOL_CCR = 1e-6           # criterion 8: |witness - i hbar|
TOL_NOISELESS = 1e-6     # criterion 9: shots=None experiment at eps=1e-3
TOL_ORACLE = 1e-10       # the oracle module against the benchmark's own brackets
SHOT_SIGMAS = 5.0        # criterion 10: residual within 5 standard errors
INFORMATIVE = 0.01       # ... on points above 1% of the reference's peak

# ``round_s`` is a nominal round length, with one BLAS thread.  A run is
# round(seconds / round_s) whole rounds, so every commit runs the same cases
# and reports the same tail percentile; only a run about to pass 3 x seconds
# of wall time stops early.  In a 30 s run, the length BENCHMARK.json sets,
# the tail (the eleventh slowest case) falls among many cases of one type, or
# of types within about 20% of each other, and not on the minimum of the
# slowest type: in 40 s runs that minimum (cli-artifacts' cv-joint) spread
# twice as much from run to run.  photonic-shots runs one state set of its
# pool per round, and a 30 s run sweeps the whole pool once.
SIZES = {
    "photonic-shots": {
        "full": dict(round_s=2.8, pool=11, n=128, length=16 * math.sqrt(2), joint_n=64,
                     joint_length=16.0, shots=10**6, eps=0.05, joint_eps=0.025, noiseless_eps=1e-3),
        "smoke": dict(round_s=0.25, pool=2, n=32, length=14.0, joint_n=32, joint_length=14.0,
                      shots=10**5, eps=0.05, joint_eps=0.025, noiseless_eps=1e-3),
    },
    "cv-dense": {
        "full": dict(round_s=3.0, ns=(1024, 2048, 4096), length=40.0, sampled_columns=16),
        "smoke": dict(round_s=0.25, ns=(64, 128, 256), length=16.0, sampled_columns=4),
    },
    "discrete-sweep": {
        "full": dict(round_s=0.18, dims=(4, 8, 16, 32), pool=8),
        "smoke": dict(round_s=0.25, dims=(2, 3, 4), pool=2),
    },
    "cli-artifacts": {
        "full": dict(round_s=3.75, cv_joint_n=256, cv_joint_length=20.0, experiment_n=64,
                     experiment_length=16.0, shots=10**6, eps=0.025, discrete_d=8,
                     ccr_n=1024, ccr_length=40.0),
        "smoke": dict(round_s=0.25, cv_joint_n=32, cv_joint_length=12.0, experiment_n=32,
                      experiment_length=14.0, shots=10**5, eps=0.025, discrete_d=3,
                      ccr_n=64, ccr_length=16.0),
    },
}
WORKLOADS = tuple(SIZES)
# Smallest d at which each monomial Vandermonde path misses its tolerance at
# the seed commit (ROADMAP item 2).  The conditional holds at d=8 with a wide
# margin on every instance tried; the joint and n-point do not.
DEFECT_DIM = {"conditional": 16, "joint": 8, "npoint": 8}


@dataclass
class Case:
    """One call sequence into kdrecon and its check.

    ``check(output)`` returns ``[(what, abs_err, ratio)]`` where ``ratio`` is
    the error over what the tolerance allows; the case passes when every
    ratio is at most 1.  ``defect_region`` marks the discrete monomial paths
    at the sizes of ``DEFECT_DIM``, whose misses (and typed refusals) are
    counted as failures but are the known defect, not a broken benchmark.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    defect_region: bool = False


class Digest:
    """SHA-256 over the generated case list: specs and input arrays."""

    def __init__(self):
        self._h = hashlib.sha256()

    def spec(self, obj):
        self._h.update(json.dumps(obj, sort_keys=True, default=float).encode())

    def array(self, a):
        self._h.update(np.ascontiguousarray(a).tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# -- references computed here, from the inputs alone ------------------------

def axes(n: int, length: float, hbar: float = 1.0):
    dx = length / n
    x = -length / 2 + dx * np.arange(n)
    p = (np.arange(n) - n // 2) * 2 * np.pi * hbar / length
    return x, p, dx


def momentum_direct(psi_x, x, p_values, dx, hbar=1.0):
    """<p|psi> by the direct sum dx * sum_x e^{-ipx/hbar} psi(x) / sqrt(2 pi hbar)."""
    kernel = np.exp(-1j * np.outer(p_values, x) / hbar) / np.sqrt(2 * np.pi * hbar)
    return dx * kernel @ psi_x


def joint_bracket(psi_x, x, p, dx, hbar=1.0):
    """K[x, p] = <p|x><x|psi><psi|p> by direct sums."""
    bra_p_x = np.exp(-1j * np.outer(x, p) / hbar) / np.sqrt(2 * np.pi * hbar)
    psi_p = dx * bra_p_x.T @ psi_x
    return bra_p_x * psi_x[:, None] * np.conj(psi_p)[None, :]


def momentum_magnitude(psi_x):
    """|<p_m|psi>| up to a constant, p_m on the centred conjugate grid."""
    return np.abs(np.fft.fftshift(np.fft.fft(psi_x)))


def kd_bracket(psi, a, b):
    """K[i, j] = <b_j|a_i><a_i|psi><psi|b_j> from eigenvector columns."""
    va, vb = np.asarray(a.eigenvectors), np.asarray(b.eigenvectors)
    amp = np.asarray(psi.amplitudes)
    return np.conj(va.conj().T @ vb) * (va.conj().T @ amp)[:, None] \
        * np.conj(vb.conj().T @ amp)[None, :]


def npoint_bracket(psi, obs):
    """<psi|o1_i><o1_i|o2_k>...<oN_l|psi> from eigenvector columns."""
    amp = np.asarray(psi.amplitudes)
    vecs = [np.asarray(o.eigenvectors) for o in obs]
    t = np.conj(vecs[0].conj().T @ amp)
    for prev, nxt in zip(vecs, vecs[1:]):
        t = t[..., :, None] * (prev.conj().T @ nxt)
    return t * (vecs[-1].conj().T @ amp)


def _abs_check(what, value, reference, tol):
    err = float(np.max(np.abs(np.asarray(value) - np.asarray(reference))))
    return (what, err, err / tol if np.isfinite(err) else math.inf)


def _sigma_check(what, value, reference, se):
    """Residual within SHOT_SIGMAS standard errors on informative points.

    Pixels the simulator could not estimate (too few counts) carry an
    infinite standard error, so their band is unbounded, as the criterion
    reads; their residual still enters the reported error.
    """
    ref = np.asarray(reference)
    resid = np.abs(np.asarray(value) - ref)
    informative = np.abs(ref) > INFORMATIVE * np.max(np.abs(ref))
    se = np.broadcast_to(se, ref.shape)[informative]
    z = resid[informative] / (SHOT_SIGMAS * se)
    return (what, float(np.max(resid[informative])), float(np.max(z)))


# -- photonic-shots ---------------------------------------------------------

def _photonic_inputs(rng, sz, digest):
    """A pool of state sets; round r runs set r % pool.  The simulator's cost
    depends on the state (pixels short of counts take an exception path), so
    a run that sweeps the pool costs about the same whatever the seed."""
    g = cv.Grid(sz["n"], sz["length"])
    gj = cv.Grid(sz["joint_n"], sz["joint_length"])

    def gauss(grid):
        return cv.gaussian_state(grid, center=rng.uniform(-0.5, 0.5),
                                 momentum=rng.uniform(-0.5, 0.5), width=rng.uniform(0.6, 0.85))

    def smooth(grid):
        return cv.random_smooth_state(grid, int(rng.integers(2**31)), modes=6)

    pool = []
    for _ in range(sz["pool"]):
        entry = {
            "cond": {"gauss": gauss(g), "smooth": smooth(g)},
            "joint": {"gauss": gauss(gj), "smooth": smooth(gj)},
            "shot_seeds": [int(s) for s in rng.integers(2**31, size=7)],
        }
        for group in ("cond", "joint"):
            for w in entry[group].values():
                digest.array(w.samples)
        digest.spec(entry["shot_seeds"])
        pool.append(entry)
    return {"pool": pool}


def _photonic_round(inp, sz, r):
    inp = inp["pool"][r % len(inp["pool"])]
    cases = []
    seeds = iter(inp["shot_seeds"])
    for label, w in inp["cond"].items():
        x, p, dx = axes(w.grid.n, w.grid.length)
        psi_p = momentum_direct(w.samples, x, p, dx)
        bra = np.exp(-1j * np.outer(p, x)) / np.sqrt(2 * np.pi)  # <p|x>
        ip = int(np.argmax(np.abs(psi_p)))
        ix = int(np.argmax(np.abs(w.samples)))
        q_x = bra[ip] * w.samples / psi_p[ip]                 # <p|x><x|psi>/<p|psi>
        q_p = np.conj(bra[:, ix]) * psi_p / w.samples[ix]     # <x|p><p|psi>/<x|psi>
        if label == "smooth":
            noiseless = (w, ip, q_x)
        for mode, post, ref in (("x-then-p", ip, q_x), ("p-then-x", ix, q_p)):
            seed = next(seeds)
            cases.append(Case(
                f"{mode}-{label}",
                lambda w=w, mode=mode, post=post, seed=seed: photonics.run_reconstruction(
                    w, sz["eps"], shots=sz["shots"], seed=seed, mode=mode, post_index=post),
                lambda res, ref=ref, mode=mode: [_sigma_check(
                    f"{mode} conditional", res.conditional, ref, res.conditional_se)],
            ))
    for label, w in inp["joint"].items():
        g = w.grid
        x, p, dx = axes(g.n, g.length)
        ref = joint_bracket(w.samples, x, p, dx)
        seed = next(seeds)

        def joint_check(res, ref=ref, g=g):
            # each column is an inverse transform of independent estimates,
            # scaled by the measured post-selection rate
            se = g.dk / (2 * np.pi) * np.sqrt(np.sum(res.z_errors**2, axis=0)) * res.rates / g.dp
            return [_sigma_check("x-then-p joint", res.joint, ref, se[None, :])]

        cases.append(Case(
            f"joint-{label}",
            lambda w=w, seed=seed: photonics.run_reconstruction(
                w, sz["joint_eps"], shots=sz["shots"], seed=seed, joint=True),
            joint_check,
        ))
    w, ip, ref = noiseless
    seed = next(seeds)
    cases.append(Case(
        "noiseless-smooth",
        lambda: photonics.run_reconstruction(
            w, sz["noiseless_eps"], shots=None, seed=seed, post_index=ip),
        lambda res: [_abs_check("noiseless conditional", res.conditional, ref, TOL_NOISELESS)],
    ))
    return cases


# -- cv-dense ---------------------------------------------------------------

def _cv_inputs(rng, sz, digest):
    states = []
    for n in sz["ns"]:
        w = cv.random_smooth_state(cv.Grid(n, sz["length"]), int(rng.integers(2**31)), modes=6)
        mag = momentum_magnitude(w.samples)
        strong = np.flatnonzero(mag >= 0.5 * mag.max())
        posts = [int(np.argmax(mag)), int(rng.choice(strong))]
        columns = rng.choice(n, size=sz["sampled_columns"], replace=False)
        states.append((w, posts, columns))
        digest.array(w.samples)
        digest.spec([n, posts, columns.tolist()])
    return {"states": states}


DENSE_CALLS = 3  # ccr_witness and joint_kd_cv in both orderings


def _cv_round(inp, sz, r):
    """At the largest n one dense call runs per round, in rotation: a run then
    holds fewer than ten of the slowest cases, so the tail percentile stays on
    the next size's dense calls instead of jumping with the round count."""
    cases = []
    largest = max(sz["ns"])
    for w, posts, columns in inp["states"]:
        g = w.grid
        n = g.n
        x, p, dx = axes(n, g.length)
        psi_cols = momentum_direct(w.samples, x, p[columns], dx)
        ref_cols = np.exp(-1j * np.outer(x, p[columns])) / np.sqrt(2 * np.pi) \
            * w.samples[:, None] * np.conj(psi_cols)[None, :]
        density = np.abs(w.samples) ** 2

        def joint_check(k, ordering, ref_cols=ref_cols, columns=columns, density=density, dp=g.dp):
            cols, marginal = k[:, columns], dp * k.sum(axis=1)  # no n x n temporaries
            if ordering == "p-then-x":
                cols, marginal = np.conj(cols), np.conj(marginal)
            return [
                _abs_check("sampled columns", cols, ref_cols, TOL_CV),
                _abs_check("x marginal", marginal, density, TOL_CV),
            ]

        dense = [Case(
            f"ccr-{n}",
            lambda w=w: cv.ccr_witness(w),
            lambda z, hbar=g.hbar: [_abs_check("witness", z, 1j * hbar, TOL_CCR)],
        )] + [Case(
            f"joint-{ordering}-{n}",
            lambda w=w, o=ordering: cv.joint_kd_cv(w, o),
            lambda k, o=ordering, check=joint_check: check(k, o),
        ) for ordering in ("x-then-p", "p-then-x")]
        cases += [dense[r % DENSE_CALLS]] if n == largest else dense
        for tag, ip in zip("ab", posts):
            psi_post = momentum_direct(w.samples, x, p[ip:ip + 1], dx)[0]
            ref = np.exp(-1j * p[ip] * x) / np.sqrt(2 * np.pi) * w.samples / psi_post
            cases.append(Case(
                f"conditional-{tag}-{n}",
                lambda w=w, post=p[ip]: cv.conditional_pseudo_cv(cv.weak_char_fn(w, post)),
                lambda q, ref=ref: [_abs_check("conditional", q, ref, TOL_CV)],
            ))
    return cases


# -- discrete-sweep ---------------------------------------------------------

def _discrete_inputs(rng, sz, digest):
    pools = {}
    for d in sz["dims"]:
        pool = []
        for _ in range(sz["pool"]):
            s = [int(v) for v in rng.integers(2**62, size=4)]
            psi = core.random_state(d, s[0])
            a = core.random_observable(d, s[1], label="A")
            b = core.random_observable(d, s[2], label="B")
            c = core.random_observable(d, s[3], label="C")
            j = int(rng.integers(d))
            pool.append((psi, a, b, c, j, core.QuantumState(b.eigenvector(j))))
            digest.spec([d, s, j])
        pools[d] = pool
    return {"pools": pools}


def _discrete_round(inp, sz, r):
    cases = []
    for d, pool in inp["pools"].items():
        psi, a, b, c, j, phi = pool[r % len(pool)]
        k_ref = kd_bracket(psi, a, b)
        cond_ref = k_ref[:, j] / np.abs(np.vdot(b.eigenvector(j), psi.amplitudes)) ** 2
        obs = [a, b, c]

        def pair_check(out, ref, tol, conj=False):
            recon, orc = out
            return [
                _abs_check("oracle", orc, ref, TOL_ORACLE),
                _abs_check("reconstruction", recon, np.conj(orc) if conj else orc, tol),
            ]

        def conditional(orders=None, a=a, b=b, psi=psi, phi=phi, j=j):
            q = reconstruct.conditional_from_moments(
                a, moments.moment_vector(a, psi, phi, orders=orders))
            return q.values, oracle.kd_conditional(psi, a, b, j).values

        def joint(a=a, b=b, psi=psi):
            q = reconstruct.joint_from_correlations(a, b, moments.correlation_matrix(a, b, psi))
            return q.values, oracle.kd_joint(psi, a, b).values

        def npoint(obs=obs, psi=psi):
            q = reconstruct.npoint_from_correlations(obs, moments.correlation_tensor(obs, psi))
            return q.values, oracle.kd_npoint(psi, obs).values

        cases.append(Case(f"conditional-{d}", conditional,
                          lambda out, ref=cond_ref: pair_check(out, ref, TOL_DISCRETE),
                          d >= DEFECT_DIM["conditional"]))
        # least squares at every size but the largest: an odd number of case
        # types puts the median on one type rather than between two
        if d != max(inp["pools"]):
            cases.append(Case(f"conditional-lsq-{d}", lambda f=conditional, d=d: f(orders=d + 2),
                              lambda out, ref=cond_ref: pair_check(out, ref, TOL_DISCRETE),
                              d >= DEFECT_DIM["conditional"]))
        cases += [
            Case(f"joint-{d}", joint,
                 lambda out, ref=k_ref: pair_check(out, ref, TOL_DISCRETE, conj=True),
                 d >= DEFECT_DIM["joint"]),
            Case(f"npoint-{d}", npoint,
                 lambda out, ref=npoint_bracket(psi, obs): pair_check(out, ref, TOL_NPOINT),
                 d >= DEFECT_DIM["npoint"]),
        ]
    return cases


# -- cli-artifacts ----------------------------------------------------------

def _cli_inputs(rng, sz, digest, workdir: Path):
    seeds = [int(s) for s in rng.integers(2**31, size=9)]
    smooth = {"type": "random-smooth", "modes": 6}
    gauss = {"type": "gaussian", "center": rng.uniform(-0.5, 0.5),
             "momentum": rng.uniform(-0.5, 0.5), "width": rng.uniform(0.6, 0.85)}
    experiment = {"kind": "experiment", "joint": True, "epsilon": sz["eps"],
                  "shots": sz["shots"],
                  "grid": {"n": sz["experiment_n"], "length": sz["experiment_length"]}}
    d = sz["discrete_d"]
    specs = {
        "cv-joint": {"kind": "cv-joint", "ordering": "x-then-p",
                     "grid": {"n": sz["cv_joint_n"], "length": sz["cv_joint_length"]},
                     "state": dict(smooth, seed=seeds[0])},
        "experiment-smooth": dict(experiment, seed=seeds[1], state=dict(smooth, seed=seeds[2])),
        "experiment-gauss": dict(experiment, seed=seeds[7], state=gauss),
        "discrete-joint": {"kind": "discrete-joint",
                           "state": {"random": {"dim": d, "seed": seeds[3]}},
                           "observable_a": {"random": {"dim": d, "seed": seeds[4]}},
                           "observable_b": {"random": {"dim": d, "seed": seeds[5]}}},
        "ccr": {"kind": "ccr", "grid": {"n": sz["ccr_n"], "length": sz["ccr_length"]},
                "state": dict(smooth, seed=seeds[6])},
    }
    scen_dir = workdir / "scenarios"
    scen_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, spec in specs.items():
        paths[name] = scen_dir / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
        scenarios.load_scenario(paths[name])  # schema validation and object building
    digest.spec(specs)
    return {"specs": specs, "paths": paths}


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _load_values(path):
    d = json.loads(Path(path).read_text())
    flat = np.array([complex(e["re"], e["im"]) for e in d["values"]])
    return flat.reshape(d["shape"]), d["ordering_tag"]


def _exit_check(code, expected=0):
    return ("exit code", 0.0, 0.0 if code == expected else math.inf)


def _cli_round(inp, sz, out_dir: Path):
    specs, paths = inp["specs"], inp["paths"]
    cases = []

    def cv_state(spec):
        g = cv.Grid(spec["grid"]["n"], spec["grid"]["length"])
        st = spec["state"]
        if st["type"] == "gaussian":
            return cv.gaussian_state(g, center=st["center"], momentum=st["momentum"],
                                     width=st["width"])
        return cv.random_smooth_state(g, st["seed"], modes=st["modes"])

    # cv-joint: an explicit bracket by direct sums, not the emitted oracle.json
    spec = specs["cv-joint"]
    w = cv_state(spec)
    cv_ref = joint_bracket(w.samples, *axes(w.grid.n, w.grid.length))
    cv_out = out_dir / "cv-joint"

    def cv_joint_check(result):
        values, tag = _load_values(cv_out / "distribution.json")
        return [_exit_check(result[0]),
                ("ordering tag", 0.0, 0.0 if tag == "cv-x-then-p" else math.inf),
                _abs_check("cv-joint vs bracket", values, cv_ref, TOL_CV)]

    cases.append(Case("reconstruct-cv-joint",
                      lambda: _invoke(["reconstruct", "--scenario", paths["cv-joint"],
                                       "--out", cv_out, "--emit-oracle"]),
                      cv_joint_check))
    cases.append(_compare_case("compare-cv-joint", cv_out, TOL_CV))

    # experiments: 5 standard errors from the same simulation run through the
    # library once here (the pipeline is deterministic for a fixed seed)
    for label in ("smooth", "gauss"):
        spec = specs[f"experiment-{label}"]
        w = cv_state(spec)
        g = w.grid
        res = photonics.run_reconstruction(w, spec["epsilon"], shots=spec["shots"],
                                           seed=spec["seed"], joint=True)
        se = g.dk / (2 * np.pi) * np.sqrt(np.sum(res.z_errors**2, axis=0)) * res.rates / g.dp
        ref = joint_bracket(w.samples, *axes(g.n, g.length))
        out = out_dir / f"experiment-{label}"

        def experiment_check(result, out=out, ref=ref, se=se):
            values, _ = _load_values(out / "distribution.json")
            return [_exit_check(result[0]),
                    _sigma_check("experiment joint", values, ref, se[None, :])]

        cases.append(Case(f"experiment-{label}",
                          lambda path=paths[f"experiment-{label}"], out=out: _invoke(
                              ["experiment", "--scenario", path, "--out", out, "--emit-oracle"]),
                          experiment_check))
    # the shot-level result against the grid oracle: compare reports the miss
    cases.append(_compare_case("compare-experiment", out_dir / "experiment-smooth", TOL_CV))

    spec = specs["discrete-joint"]
    d = sz["discrete_d"]
    psi = core.random_state(d, spec["state"]["random"]["seed"])
    a = core.random_observable(d, spec["observable_a"]["random"]["seed"])
    b = core.random_observable(d, spec["observable_b"]["random"]["seed"])
    dj_ref = np.conj(kd_bracket(psi, a, b))

    def discrete_check(result, out):
        values, _ = _load_values(out / "distribution.json")
        orc, _ = _load_values(out / "oracle.json")
        return [_exit_check(result[0]),
                _abs_check("oracle", orc, dj_ref, TOL_ORACLE),
                _abs_check("reconstruction", values, dj_ref, TOL_DISCRETE)]

    # `oracle` also writes the reconstruction, so the check is the same
    for command, extra in (("reconstruct", ["--emit-oracle"]), ("oracle", [])):
        out = out_dir / f"{command}-discrete-joint"
        cases.append(Case(f"{command}-discrete-joint",
                          lambda c=command, o=out, e=extra: _invoke(
                              [c, "--scenario", paths["discrete-joint"], "--out", o, *e]),
                          lambda res, o=out: discrete_check(res, o), d >= DEFECT_DIM["joint"]))
    cases.append(_compare_case("compare-discrete-joint", out_dir / "reconstruct-discrete-joint",
                               TOL_DISCRETE))

    ccr_out = out_dir / "ccr"

    def ccr_check(result):
        diag = json.loads((ccr_out / "diagnostics.json").read_text())
        witness = complex(diag["witness"]["re"], diag["witness"]["im"])
        return [_exit_check(result[0]), _abs_check("witness", witness, 1j, TOL_CCR)]

    cases.append(Case("ccr",
                      lambda: _invoke(["ccr", "--scenario", paths["ccr"], "--out", ccr_out]),
                      ccr_check))
    return cases


def _compare_case(name, out, tol):
    """`kdrecon compare` on the emitted pair; its report must match our own diff."""
    dist, orc = out / "distribution.json", out / "oracle.json"

    def check(result):
        code, stdout = result
        report = json.loads(stdout)
        delta = float(np.max(np.abs(_load_values(dist)[0] - _load_values(orc)[0])))
        passed = delta <= tol
        return [_exit_check(code, 0 if passed else 2),
                ("verdict", 0.0, 0.0 if report["pass"] == passed else math.inf),
                _abs_check("reported max_delta", report["max_delta"], delta, 1e-12)]

    return Case(name, lambda: _invoke(["compare", dist, orc, "--tol", tol]), check)


# -- entry points -----------------------------------------------------------

def build_inputs(name: str, seed: int, smoke: bool, workdir: Path):
    """What a user builds before the first call: the set-up the benchmark
    times in a fresh interpreter.  Returns (inputs, case-list digest)."""
    sz = SIZES[name]["smoke" if smoke else "full"]
    rng = np.random.default_rng(seed)
    digest = Digest()
    digest.spec({"workload": name, "seed": seed, "sizes": sz})
    if name == "photonic-shots":
        inp = _photonic_inputs(rng, sz, digest)
    elif name == "cv-dense":
        inp = _cv_inputs(rng, sz, digest)
    elif name == "discrete-sweep":
        inp = _discrete_inputs(rng, sz, digest)
    else:
        inp = _cli_inputs(rng, sz, digest, workdir)
    return inp, digest.hexdigest()


class Workload:
    """Cases of round ``r``; references are computed once per distinct round."""

    def __init__(self, name: str, inputs, smoke: bool, workdir: Path):
        self.name = name
        self.sizes = SIZES[name]["smoke" if smoke else "full"]
        self.out_dir = workdir / "out"
        self._inputs = inputs
        self._rounds = {}

    def round(self, r: int):
        if self.name in ("discrete-sweep", "photonic-shots"):
            key = r % self.sizes["pool"]
        elif self.name == "cv-dense":
            key = r % DENSE_CALLS
        else:
            key = 0
        if key not in self._rounds:
            if self.name == "photonic-shots":
                self._rounds[key] = _photonic_round(self._inputs, self.sizes, key)
            elif self.name == "cv-dense":
                self._rounds[key] = _cv_round(self._inputs, self.sizes, key)
            elif self.name == "discrete-sweep":
                self._rounds[key] = _discrete_round(self._inputs, self.sizes, key)
            else:
                self._rounds[key] = _cli_round(self._inputs, self.sizes, self.out_dir)
        return self._rounds[key]

    def artifact_bytes(self) -> int:
        if not self.out_dir.exists():
            return 0
        return sum(f.stat().st_size for f in self.out_dir.rglob("*") if f.is_file())
