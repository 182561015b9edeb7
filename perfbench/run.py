"""kdrecon benchmark: one workload, closed loop, one caller in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: photonic-shots, cv-dense, discrete-sweep, cli-artifacts (see
README.md beside this file).  Run from the root of a source checkout; the
package is imported from ``src/``.  Every case is checked against a reference
that does not come from the path under test.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
rounds untraced and then traced, and prints per-layer calls and self time
(per round), the tracing overhead, and check figures.  The last stdout line
is the result object; the line before it is a summary with provenance, also
written to ``.perfbench_out/``.  ``--smoke`` uses tiny sizes, to check the
benchmark itself in seconds.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

import stats
from tracing import COUNTER_NAMES, TRACED, Tracer, span_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = {"full": 15, "smoke": 2}  # timed starts, after one untimed one
SETUP_TIMEOUT_S = 60.0
WALL_LIMIT_S = 120.0  # keeps a run well inside its 180 s whatever the code's speed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS/OpenMP thread, below nproc.  The cases' matrices are small (n <= 256
# on the gated workloads, the n=1024 CCR aside), so a second thread mostly
# waits at the pool's barriers, and on a shared 2-vCPU host that wait made
# the case times spread past their bounds from run to run.
THREAD_CAP = 1
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h>
MMAP_THRESHOLD_MAX = 32 * 2**20  # glibc's ceiling for its dynamic mmap threshold (64-bit)
E2E_UNITS = {"setup_s": "s", "cases_per_s": "1/s", "case_p50_s": "s",
             "case_tail_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    return ap.parse_args(argv)


class Loop:
    """Runs rounds of cases, timing each case and checking its output."""

    def __init__(self, workload, error_type, tracer=None):
        self.workload = workload
        self.error_type = error_type
        self.tracer = tracer
        self.times = []
        self.by_case = {}
        self.attempted = 0
        self.failures = []      # (case, what, detail, known_defect)
        self.err_max = 0.0

    def round(self, r: int, record: bool = True) -> float:
        spent = 0.0
        for case in self.workload.round(r):
            if self.tracer is not None:
                self.tracer.case_id = f"{r}:{case.name}"
            exc = None
            t0 = perf_counter()
            try:
                out = case.run()
            except Exception as e:  # a raising case is a failed case, not a crashed run
                exc = e
            dt = perf_counter() - t0
            spent += dt
            if record:
                self.times.append(dt)
                self.attempted += 1
                self.by_case.setdefault(case.name, []).append(dt)
                self._judge(case, out if exc is None else None, exc)
            out = None  # release the output before the next case runs
        return spent

    def _judge(self, case, out, exc):
        if exc is not None:
            known = case.defect_region and isinstance(exc, self.error_type)
            self.failures.append((case.name, "raised", f"{type(exc).__name__}: {exc}", known))
            return
        try:
            items = case.check(out)
        except Exception as e:  # noqa: BLE001  (a malformed output fails its case)
            self.failures.append((case.name, "check raised", f"{type(e).__name__}: {e}", False))
            return
        self.err_max = max([self.err_max] + [err for _, err, _ in items])
        bad = [(what, err) for what, err, ratio in items if not ratio <= 1.0]
        if bad:
            known = case.defect_region and all(what == "reconstruction" for what, _ in bad)
            self.failures.append((case.name, ", ".join(w for w, _ in bad),
                                  max(err for _, err in bad), known))


def fix_malloc_thresholds() -> bool:
    """Start glibc malloc in the state its dynamic thresholds reach after a
    large free (mmap threshold at its ceiling, trim threshold twice that).

    Left dynamic, the thresholds put each process into one of two modes
    that depend on the order of earlier frees, not on the code under test:
    the CLI experiment cases took 0.30 s in one and 0.55 s in the other,
    from run to run of the same commit.  Returns False where there is no
    glibc ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX) == 1
            and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX) == 1)


def measure(loop, rounds: int, wall_cap: float = WALL_LIMIT_S) -> tuple[int, float]:
    """Rounds 0..rounds-1, stopping early rather than pass ``wall_cap``
    seconds (checks included); returns (rounds run, case time)."""
    start = last = perf_counter()
    spent, r = 0.0, 0
    while r < rounds:
        spent += loop.round(r)
        r += 1
        now = perf_counter()
        if now - start + (now - last) > wall_cap:
            break
        last = now
    return r, spent


def measure_setup(name, seed, smoke, env) -> list:
    """Wall time of fresh interpreters doing the workload's set-up.

    The first start is not timed: it warms the file cache, which a user's
    repeated CLI runs find warm.  A blocking wait, with a timer thread as the
    hang guard: ``wait(timeout)`` polls in steps of up to 50 ms, which would
    quantize the figure.
    """
    times = []
    for _ in range(1 + SETUP_REPEATS["smoke" if smoke else "full"]):
        with tempfile.TemporaryDirectory(dir=OUT) as wd:
            cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), wd]
            t0 = perf_counter()
            proc = subprocess.Popen(cmd + (["--smoke"] if smoke else []), env=env,
                                    stdout=subprocess.DEVNULL)
            guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            guard.start()
            try:
                code = proc.wait()
            finally:
                guard.cancel()
            times.append(perf_counter() - t0)
            if code != 0:
                raise subprocess.CalledProcessError(code, cmd)
    return times[1:]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # the benchmark may run from an export without history
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def provenance(seed, cap, digest, malloc_fixed):
    import numpy

    src_hash = hashlib.sha256()
    for f in sorted((SRC / "kdrecon").glob("*.py")):
        src_hash.update(f.name.encode() + f.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": _nproc(),
        "thread_cap": cap,
        "malloc_thresholds_fixed": malloc_fixed,
        "cpu_model": _cpu_model(),
        "seed": seed,
        "case_list_sha256": digest,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kdrecon" / "__init__.py").is_file():
        print(f"error: kdrecon sources not found under {SRC}", file=sys.stderr)
        return 2
    cap = THREAD_CAP
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(cap)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    malloc_fixed = fix_malloc_thresholds()  # this process only: set-up keeps the default

    import kdrecon
    import workloads
    from kdrecon.errors import KdreconError

    if Path(kdrecon.__file__).resolve().parent != (SRC / "kdrecon").resolve():
        print(f"error: imported kdrecon from {kdrecon.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # conditioning and sum-deviation warnings would flood stderr on the
    # large-d discrete cases; the checks below judge accuracy instead
    warnings.simplefilter("ignore", RuntimeWarning)

    OUT.mkdir(exist_ok=True)
    setup_times = measure_setup(args.workload, args.seed, args.smoke, env)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "smoke": args.smoke, "seconds": args.seconds}
    try:
        inputs, digest = workloads.build_inputs(args.workload, args.seed, args.smoke, workdir)
        wl = workloads.Workload(args.workload, inputs, args.smoke, workdir)
        loop = Loop(wl, KdreconError)
        loop.round(0, record=False)  # warm-up: FFT plans, first-touch pages, files
        planned = max(1, round(args.seconds / wl.sizes["round_s"]))
        if args.trace:
            # the same rounds untraced, then traced: the gap is the overhead
            rounds, untraced = measure(loop, max(1, planned // 2), 1.5 * args.seconds)
            tracer = Tracer()
            traced_loop = Loop(wl, KdreconError, tracer)
            tracer.install()
            try:
                tracer.enabled = True
                traced_rounds, traced = measure(traced_loop, rounds)
            finally:
                tracer.enabled = False
                tracer.restore()
            loops = [loop, traced_loop]
        else:
            rounds, _ = measure(loop, planned, 3 * args.seconds)
            loops = [loop]
        artifact_bytes = wl.artifact_bytes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    unexpected = [f for f in failures if not f[3]]
    err_max = max(lp.err_max for lp in loops)
    tail, tail_pct, n = stats.tail_percentile(loop.times)
    summary.update({
        "rounds": rounds,
        "case_types": len(wl.round(0)),
        "case_tail": {"percentile": tail_pct, "samples": n},
        "case_p50_s_by_type": {k: stats.median(v) for k, v in loop.by_case.items()},
        "fail_ratio": {"value": stats.fail_ratio(len(failures), attempted),
                       "base": "cases attempted", "failed": len(failures),
                       "attempted": attempted, "known_defect": len(failures) - len(unexpected)},
        "failures_by_case": dict(Counter(f[0] for f in failures)),
        "unexpected_failures": [list(f[:3]) for f in unexpected[:20]],
        "oracle_err_max": err_max,
        "artifact_mb": artifact_bytes / 1e6,
        "setup_samples_s": setup_times,
        "provenance": provenance(args.seed, cap, digest, malloc_fixed),
    })
    if args.trace:
        # each pass per its own round count: the traced one may stop early
        summary["traced_rounds"] = traced_rounds
        per_layer = tracer.summary(per=traced_rounds)
        case_s, traced_s = untraced / rounds, traced / traced_rounds
        self_sum = sum(per_layer[f"{layer}.self_s"] for layer in TRACED)
        per_layer.update({
            "trace.case_s": case_s,
            "trace.traced_case_s": traced_s,
            "trace.self_sum_s": self_sum,
            "trace.overhead_s": traced_s - case_s,
            "trace.overhead_ratio": (traced_s - case_s) / case_s,
            "trace.spans": len(tracer.spans) / traced_rounds,
            "check.fail_ratio": summary["fail_ratio"]["value"],
            "check.oracle_err_max": err_max,
            "artifact_mb": artifact_bytes / 1e6,
        })
        # self time covers the traced case time, less the benchmark's own glue
        # between spans (allowed 1%); it should match the untraced case time
        # to within the overhead.  The passes run at different times, so host
        # noise can make the overhead negative; the allowances then add up.
        summary["self_time_accounts_for_case_time"] = bool(
            abs(self_sum - case_s) <= abs(traced_s - case_s) + 0.01 * case_s)
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
        _write_spans(args, tracer.spans)
    else:
        values = {
            "setup_s": stats.median(setup_times),
            "cases_per_s": len(loop.times) / sum(loop.times),
            "case_p50_s": stats.median(loop.times),
            "case_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    summary["metrics"] = metrics
    result = {"correct": not unexpected, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


def per_layer_units():
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in TRACED:
        units[f"{layer}.self_s"] = "s"
    for key in COUNTER_NAMES:
        units[key] = "count" if key.endswith(".shots") else "bytes"
    units.update({
        "trace.case_s": "s", "trace.traced_case_s": "s", "trace.self_sum_s": "s",
        "trace.overhead_s": "s", "trace.overhead_ratio": "ratio", "trace.spans": "count",
        "check.fail_ratio": "ratio", "check.oracle_err_max": "abs", "artifact_mb": "MB",
    })
    return units


def _write_spans(args, spans):
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "case"], "spans": spans},
                  fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
