"""rlansatz benchmark: one workload, one seed, timed for a fixed number of seconds.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_cycle6 --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (each metric with its unit). With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run gives the per-layer ones. The exit code is 0 when every
check passed, 1 when a check failed and 2 when the package cannot be found.

Load model: a closed loop with one client in one process. Each call starts
after the previous one returns; training uses ``workers=1`` and there are no
pools. BLAS is pinned to one thread (at most ``nproc``): the loop is serial,
and with more threads the first ``ppo_update`` paid about 1.1 s of thread-pool
start-up that later calls did not.

Timed phase: reps (see ``workloads.py``) run back to back; a new rep starts
while at least half of the median rep so far fits in ``--seconds``, so the
timed phase lasts ``--seconds`` of wall time on average. Rep ``r`` of
workload seed ``s`` uses seed ``1000*s + r``, so a run averages several
seeded units of work, and runs with the same seed repeat the same sequence.

Times are reference seconds from ``hostclock.py``: wall time with the host's
speed, probed every 0.1 s, divided out, because the host's speed swings by
up to 1.9x within seconds. The ``info`` line also gives the wall figures.

Set-up accounting: ``setup_s`` is the median time, over five fresh
interpreters, to import the package and build the workload's inputs (the
instance with its brute-force spectrum, the baseline circuit, the matrix
config). These costs are paid once per command by a user, so the timed phase
excludes them -- except on matrix_n8, where ``rlansatz matrix`` pays the
per-cell instance, penalty Hamiltonian, transpile and file costs itself and
they stay in the timed phase. Model build and reset are inside each
``agent.train`` call and stay timed. There is no BLAS warm-up to account for
with one thread.

End-to-end metrics (``--trace 0``):

* ``setup_s``: see above.
* ``ops_per_s``: ops per second over the timed reps; env steps including the
  epoch's ``ppo_update`` on train_cycle6, protocol runs elsewhere.
* ``op_ms_p50``: median ms per op; per env step on train_cycle6 (time between
  consecutive completed steps), per protocol run (rep time / runs) elsewhere.
* ``approx_ratio``: mean approximation ratio of the shot estimates; per
  protocol run on the baselines, per env step (the optimized circuit's
  reward estimate) on train_cycle6. It guards against speed bought with
  quality, such as fewer optimizer evaluations.
* ``peak_rss_mb``: peak resident memory of the process.

Failed checks are counted by op in ``failed`` out of ``attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from hostclock import PERIOD_S, REF_PROBE_S, HostClock  # noqa: E402 - after the BLAS pin

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
SETUP_PROBES = 5
TRACE_REPS = 1


def rep_seed(seed: int, rep: int) -> int:
    return 1000 * seed + rep


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="rlansatz benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out", help="fingerprints, spans, scratch files")
    return parser.parse_args(argv)


# -- provenance ----------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git(*args: str) -> str | None:
    if not (REPO / ".git").exists():  # a plain checkout; do not find an enclosing repository
        return None
    try:
        done = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_hash() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source_hash(),
        "host_clock": {"period_s": PERIOD_S, "ref_probe_s": REF_PROBE_S},
    }


# -- measurement ---------------------------------------------------------------


def measure_setup(workload: str, toy: bool, probes: int) -> tuple[list[float], list[float]]:
    """Reference and wall seconds for fresh interpreters to import the package and build inputs.

    Each wall time, less the set-up probe's own speed measurement, is scaled
    by the host's speed that the measurement found right after the work.
    """
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), workload] + (["--toy"] if toy else [])
    refs, walls = [], []
    for _ in range(probes):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        inner = json.loads(done.stdout.strip().splitlines()[-1])
        wall = time.perf_counter() - start - inner["probe_s"]
        refs.append(wall * inner["speed"])
        walls.append(wall)
    return refs, walls


def run_reps(workload, inputs: dict, seed: int, seconds: float) -> list:
    reps = []
    deadline = time.perf_counter() + seconds
    while True:
        reps.append(workload.rep(inputs, rep_seed(seed, len(reps)), nullcontext))
        last = reps[-1]
        print(f"rep {len(reps) - 1}: {last.ops} ops in {last.wall_s:.3f} s", file=sys.stderr, flush=True)
        # start another rep while at least half of a typical one fits
        typical = statistics.median(r.wall_s for r in reps)
        if time.perf_counter() + typical / 2 > deadline:
            return reps


def check_fingerprint(out: Path, workload: str, seed: int, fp: str, src: str) -> str | None:
    """Store the fingerprint of rep 0; a different one for the same code is a failure."""
    path = out / "fingerprints.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}/seed={seed}/src={src}"
    known = store.setdefault(key, fp)
    if known != fp:
        return f"fingerprint {fp} differs from {known} recorded for {key}"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    return None


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(workload, reps: list, clock, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    ops = sum(r.ops for r in reps)
    ref_s = sum(clock.span(r.marks[0], r.marks[-1]) for r in reps)
    wall_s = sum(r.wall_s for r in reps)
    op_ms = [t * 1e3 for r in reps for t in r.op_samples(clock.span)]
    ratios = [x for r in reps for x in r.ratios]
    setup_ref, setup_wall = setup
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "ops_per_s": (ops / ref_s, "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "approx_ratio": (statistics.fmean(ratios), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    probes = clock.probe_s()
    info = {
        "op": workload.op,
        "reps": len(reps),
        "ops": ops,
        "timed_ref_s": ref_s,
        "timed_wall_s": wall_s,
        "wall_ops_per_s": ops / wall_s,
        "probes": len(probes),
        "probe_ms_p50": statistics.median(probes) * 1e3,
        "op_samples": len(op_ms),
        "setup_ref_s": setup_ref,
        "setup_wall_s": setup_wall,
    }
    if len(op_ms) >= 100:
        info["op_ms_p90"] = statistics.quantiles(op_ms, n=10)[-1]
    extra = [r.info for r in reps if r.info]
    if extra:
        info["per_rep"] = extra
    return metrics, info


def traced(args, workload, out: Path) -> tuple[dict, dict, list]:
    """Set up and run TRACE_REPS reps untraced, then the same reps traced."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with HostClock() as clock:
            start = time.perf_counter()
            with tracer.recording():
                inputs = workload.setup(args.toy, out)
            setup_end = time.perf_counter()
            plain = [workload.rep(inputs, rep_seed(args.seed, r), nullcontext) for r in range(TRACE_REPS)]
            reps = [workload.rep(inputs, rep_seed(args.seed, r), tracer.recording) for r in range(TRACE_REPS)]
    finally:
        tracer.uninstall()
    tracer.rescale(clock.ref)
    setup_s = clock.span(start, setup_end)
    untraced_s = sum(clock.span(r.marks[0], r.marks[-1]) for r in plain)
    traced_s = sum(clock.span(r.marks[0], r.marks[-1]) for r in reps)
    metrics, detail = tracer.layer_metrics(setup_s + traced_s, untraced_s, traced_s)
    for a, b in zip(plain, reps):
        if a.fingerprint != b.fingerprint:
            b.failures.append(f"traced rep fingerprint {b.fingerprint} != untraced {a.fingerprint}")
    zero = tracer.zero_bindings(workload.expected_bindings)
    if zero:
        reps[0].failures.append(f"coverage guard: no calls recorded at {', '.join(zero)}")
    detail["zero_bindings"] = zero
    stem = f"{workload.name}-seed{args.seed}"
    tracer.write_spans(out / f"spans-{stem}.jsonl")
    (out / f"trace-{stem}.json").write_text(json.dumps({**detail, "metrics": metrics}, indent=1) + "\n")
    return metrics, detail, plain + reps


def main(argv=None) -> int:
    if not (SRC / "rlansatz" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'rlansatz'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    prov = provenance()
    print("provenance " + json.dumps(prov), flush=True)

    if args.trace:
        metrics, info, reps = traced(args, workload, args.out)
    else:
        setup = measure_setup(workload.name, args.toy, 1 if args.toy else SETUP_PROBES)
        inputs = workload.setup(args.toy, args.out)
        with HostClock() as clock:
            reps = run_reps(workload, inputs, args.seed, args.seconds)
        metrics, info = end_to_end(workload, reps, clock, setup)
    # reps[0] ran with rep seed 1000*seed in either mode
    failure = check_fingerprint(args.out, workload.name, args.seed, reps[0].fingerprint, prov["src_sha256"])
    if failure:
        reps[0].failures.append(failure)

    failures = [f for r in reps for f in r.failures]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed_ops for r in reps)
    info["fingerprint"] = reps[0].fingerprint
    print("info " + json.dumps(info), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
