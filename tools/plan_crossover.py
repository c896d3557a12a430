"""Where the compiled plan stops beating the view kernels: the data behind ``qsim.PLAN_MAX_QUBITS``.

Usage (from the repository root):

    python3 tools/plan_crossover.py [--sizes 10-16] [--rounds 60]

For each qubit count n it times ``qsim._run_kernels`` and ``_Plan.run``
back to back, alternating which runs first, on the two circuit families
the benchmark sends through ``qsim``:

* ``qaoa2``: the qaoa2 circuit of a 3-regular maxcut instance (graph
  seed 1), as in ``baseline_qaoa2_n14``. A 3-regular graph needs an even n,
  so odd n print ``-``.
* ``agent``: what the agent builds in ``train_cycle6``: an H layer plus 2n
  actions drawn uniformly from the action set, with random angles. Each
  round takes the next of four such circuits.

A plan is built once per optimization and then run dozens of times, so its
build is not timed. Per family and n the line shows the median kernel and
plan times and the median over rounds of their ratio; a ratio above 1
means the plan is faster.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rlansatz import qsim  # noqa: E402
from rlansatz.ansatz import build_baseline  # noqa: E402
from rlansatz.circuits import action_space, h_layer  # noqa: E402
from rlansatz.problems import make_instance  # noqa: E402


def qaoa2_circuits(n: int) -> list:
    if n % 2:
        return []
    circuit = build_baseline("qaoa2", make_instance("three_regular", n, 1, "maxcut"))
    circuit.params[:] = np.random.default_rng(n).uniform(-np.pi, np.pi, circuit.n_params)
    return [circuit]


def agent_circuits(n: int, count: int = 4) -> list:
    space = action_space(n)
    circuits = []
    for seed in range(count):
        rng = np.random.default_rng([n, seed])
        circuit = h_layer(n)
        for action in rng.integers(space.size, size=2 * n):
            circuit = space.apply(circuit, int(action))
        circuit.params[:] = rng.uniform(-np.pi, np.pi, circuit.n_params)
        circuits.append(circuit)
    return circuits


def seconds(run, theta) -> float:
    start = time.perf_counter()
    run(theta)
    return time.perf_counter() - start


def measure(circuits: list, rounds: int) -> tuple[float, float, float]:
    """Median kernel seconds, median plan seconds, median kernel/plan ratio."""
    runs = []
    for c in circuits:
        plan = qsim._Plan(c.n_qubits, c.gates)
        runs.append((lambda theta, c=c: qsim._run_kernels(c.n_qubits, c.gates, theta), plan.run, c.params))
    kernels, plans, ratios = [], [], []
    for r in range(rounds):
        kernel_run, plan_run, theta = runs[r % len(runs)]
        if r % 2:
            p = seconds(plan_run, theta)
            k = seconds(kernel_run, theta)
        else:
            k = seconds(kernel_run, theta)
            p = seconds(plan_run, theta)
        kernels.append(k)
        plans.append(p)
        ratios.append(k / p)
    return statistics.median(kernels), statistics.median(plans), statistics.median(ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10-16", help="qubit counts, as LO-HI")
    parser.add_argument("--rounds", type=int, default=60, help="timed runs per family and n")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.sizes.split("-"))
    print(f"PLAN_MAX_QUBITS = {qsim.PLAN_MAX_QUBITS}; numpy {np.__version__}; kernel/plan > 1: the plan is faster")
    print(f"{'n':>3} {'family':>6} {'kernels ms':>11} {'plan ms':>9} {'kernel/plan':>12}")
    for n in range(lo, hi + 1):
        for family, build in (("qaoa2", qaoa2_circuits), ("agent", agent_circuits)):
            circuits = build(n)
            if not circuits:
                print(f"{n:>3} {family:>6} {'-':>11} {'-':>9} {'-':>12}", flush=True)
                continue
            kernel, plan, ratio = measure(circuits, args.rounds)
            print(f"{n:>3} {family:>6} {kernel * 1e3:>11.3f} {plan * 1e3:>9.3f} {ratio:>12.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
