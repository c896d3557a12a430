"""Record the optimizer's evaluations on the benchmark's work and replay them on two trees.

Usage (from the repository root):

    python3 tools/cobyla_replay.py --parent HEAD~1 --rounds 5

Recording runs the parent's package on two trace sets and keeps, for every
``cobyla_minimize`` call, its start point, settings, the points it
evaluated with their values, and its result:

* ``train_cycle6``: one seed-0 ``agent.train`` epoch of 128 steps on maxcut
  over a 6-cycle, as ``perfbench/workloads.py`` runs it (128 optimizations
  at 1-12 parameters).
* ``matrix_n8``: ``rlansatz matrix`` with seed 0 on grid2d n=8,
  {maxcut, minvertexcover} x {qaoa1, maqaoa}, 5 runs a cell (20
  optimizations at 2, 18 and 26 parameters).

Replay calls ``cobyla_minimize`` of the parent tree (its committed files,
exported with ``git archive``) and of the working tree on each recorded
optimization, with an objective that returns the recorded values in order.
It stops with exit code 1 at the first point, evaluation count or result
that differs from the recording in any bit. Each round replays every
optimization on both sides, alternating which side goes first; the
output gives each side's median microseconds per evaluation over the
rounds (replay objective included) and the median of the per-round
ratios, change over parent. BLAS is pinned to one thread, as in
``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the BLAS pin
from bench_pairs import export  # noqa: E402 - a sibling script in tools/

REPO = Path(__file__).resolve().parent.parent
MATRIX_INI = (
    "[problem]\ntopology = grid2d\nseed = 0\n\n"
    "[run]\nshots = 1000\neval_runs = 5\n\n"
    "[matrix]\nproblems = maxcut, minvertexcover\ntopologies = grid2d\nsizes = 8\nalgorithms = qaoa1, maqaoa\n"
)


@dataclass
class Trace:
    x0: np.ndarray
    settings: tuple[int, float, float]  # max_iterations, rho_begin, rho_end
    points: list[bytes]
    values: list[float]
    result: tuple  # best_params bytes, best_value, evaluations, converged


class Mismatch(Exception):
    pass


def load_package(src: Path, alias: str):
    """Import the ``rlansatz`` package under ``src`` as module ``alias``."""
    spec = importlib.util.spec_from_file_location(
        alias, src / "rlansatz" / "__init__.py", submodule_search_locations=[str(src / "rlansatz")]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    for sub in ("agent", "cli"):
        importlib.import_module(f"{alias}.{sub}")
    return module


def result_key(result) -> tuple:
    return (result.best_params.tobytes(), result.best_value, result.evaluations, result.converged)


def record(pkg, workdir: Path) -> dict[str, list[Trace]]:
    """Every optimization of the two trace sets, run by ``pkg``."""
    optimize = pkg.optimize
    original = optimize.cobyla_minimize
    traces: list[Trace] = []

    def recording(objective, x0, config=None):
        points, values = [], []

        def wrapped(x):
            value = objective(x)
            points.append(x.tobytes())
            values.append(value)
            return value

        settings = (config.max_iterations, config.rho_begin, config.rho_end)
        result = original(wrapped, x0, config)
        traces.append(Trace(np.array(x0, dtype=float), settings, points, values, result_key(result)))
        return result

    sets = {}
    optimize.cobyla_minimize = recording
    try:
        inst = pkg.make_instance("cycle", 6, 0, "maxcut")
        pkg.agent.train(inst, pkg.agent.TrainConfig(epochs=1, steps_per_epoch=128, workers=1, shots=1000), 0)
        sets["train_cycle6"], traces = traces, []
        ini = workdir / "grid.ini"
        ini.write_text(MATRIX_INI)
        with contextlib.redirect_stdout(io.StringIO()):
            code = pkg.cli.main(["matrix", "--config", str(ini), "--out", str(workdir / "matrix"), "--seed", "0"])
        if code != 0:
            raise RuntimeError(f"rlansatz matrix exited with {code}")
        sets["matrix_n8"] = traces
    finally:
        optimize.cobyla_minimize = original
    return sets


def replay(pkg, trace: Trace) -> float:
    """Seconds that ``pkg``'s ``cobyla_minimize`` takes on ``trace``; raises Mismatch on any difference."""
    points, values = trace.points, trace.values
    k = 0

    def objective(x):
        nonlocal k
        if k == len(points) or x.tobytes() != points[k]:
            raise Mismatch(f"evaluation {k} of {len(points)} differs")
        k += 1
        return values[k - 1]

    config = pkg.optimize.OptimizerConfig(*trace.settings)
    start = time.perf_counter()
    result = pkg.optimize.cobyla_minimize(objective, trace.x0, config)
    elapsed = time.perf_counter() - start
    if k != len(points):
        raise Mismatch(f"{k} evaluations, recorded {len(points)}")
    if result_key(result) != trace.result:
        raise Mismatch("the result differs")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision whose optimizer is recorded and replayed")
    parser.add_argument("--rounds", type=int, default=5, help="replays of every optimization on each side")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cobyla-replay-") as tmp:
        export(args.parent, Path(tmp) / "parent")
        sides = {
            "parent": load_package(Path(tmp) / "parent" / "src", "parent_rlansatz"),
            "change": load_package(REPO / "src", "change_rlansatz"),
        }
        sets = record(sides["parent"], Path(tmp))
    for name, traces in sets.items():
        evals = sum(len(t.points) for t in traces)
        sizes = sorted({t.x0.size for t in traces})
        print(f"{name}: {len(traces)} optimizations, {evals} evaluations, "
              f"{sizes[0]}-{sizes[-1]} parameters (mean {statistics.fmean(t.x0.size for t in traces):.1f})")
        per_eval = {side: [] for side in sides}
        for r in range(args.rounds):
            totals = dict.fromkeys(sides, 0.0)
            for i, trace in enumerate(traces):
                order = ("parent", "change") if (r + i) % 2 == 0 else ("change", "parent")
                for side in order:
                    try:
                        totals[side] += replay(sides[side], trace)
                    except Mismatch as exc:
                        print(f"  {side}: optimization {i} (n={trace.x0.size}): {exc}")
                        return 1
            for side, total in totals.items():
                per_eval[side].append(1e6 * total / evals)
        ratios = [c / p for p, c in zip(per_eval["parent"], per_eval["change"])]
        print(f"  every point identical on both sides over {args.rounds} rounds")
        print("  us per evaluation (median of rounds): "
              + ", ".join(f"{side} {statistics.median(v):.1f}" for side, v in per_eval.items())
              + f"; change/parent median ratio {statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
