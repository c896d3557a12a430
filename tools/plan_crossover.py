"""Where the compiled plan stops beating the view kernels: the data behind ``qsim.PLAN_MAX_QUBITS``.

Usage (from the repository root):

    python3 tools/plan_crossover.py [--sizes 10-16] [--rounds 60] [--runs 42]

For each qubit count n it builds a ``qsim._Plan`` and times the build,
then times ``qsim._run_kernels`` and ``_Plan.run`` back to back,
alternating which runs first, on the circuit families the benchmark and
the protocols send through ``qsim``:

* ``qaoa2`` and ``maqaoa``: the baseline circuits of a 3-regular maxcut
  instance (graph seed 1), qaoa2 as in ``baseline_qaoa2_n14``. A 3-regular
  graph needs an even n, so odd n print ``-``.
* ``linear``: the paper's Ryz chain (``build_linear_ryz``), on any n. It
  is flip-symmetric, so its plan runs on half the amplitudes from
  ``2^CDF_MIN_QUBITS`` outcomes on, and it has no fused step.
* ``agent``: what the agent builds in ``train_cycle6``: an H layer plus 2n
  actions drawn uniformly from the action set, with random angles. Each
  round takes the next of four such circuits.

Per family and n the line shows the median kernel, plan and build times,
the median over rounds of kernel time over plan time, and the same ratio
for one optimization, which builds the plan once and runs it ``--runs``
times: ``runs * kernels / (build + runs * plan)``. A ratio above 1 means
the plan is faster. The last column is the median MiB of the distinct
arrays a plan holds (``table_mib``): its start vector and its steps'
tables, which is the memory a plan adds over the kernels.
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
from rlansatz.ansatz import build_baseline, build_linear_ryz  # noqa: E402
from rlansatz.circuits import action_space, h_layer  # noqa: E402
from rlansatz.problems import make_instance  # noqa: E402


def baseline_circuits(algorithm: str, n: int) -> list:
    if n % 2:
        return []
    circuit = build_baseline(algorithm, make_instance("three_regular", n, 1, "maxcut"))
    circuit.params[:] = np.random.default_rng(n).uniform(-np.pi, np.pi, circuit.n_params)
    return [circuit]


def linear_circuits(n: int) -> list:
    circuit = build_linear_ryz(n)
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


def table_mib(plan) -> float:
    """MiB of the distinct arrays the plan holds: the start vector, the tabulated steps' index and sign arrays,
    the fused steps' slots and the arrays a frame change's closure keeps."""
    arrays = {id(plan.start): plan.start}
    for op, table, sign, _ in plan.steps:
        held = [table, sign, *(getattr(op, name) for name in getattr(op, "__slots__", ()))]
        held += [cell.cell_contents for cell in getattr(op, "__closure__", None) or ()]
        arrays.update((id(a), a) for a in held if isinstance(a, np.ndarray))
    return sum(a.nbytes for a in arrays.values()) / 2**20


def seconds(run, theta) -> float:
    start = time.perf_counter()
    run(theta)
    return time.perf_counter() - start


def measure(circuits: list, rounds: int) -> tuple[float, float, float, float, float]:
    """Median kernel, plan and build seconds, the median kernel/plan ratio and the median table MiB."""
    kernels, plans, builds, ratios, tables = [], [], [], [], []
    for r in range(rounds):
        c = circuits[r % len(circuits)]
        start = time.perf_counter()
        plan = qsim._Plan(c.n_qubits, c.gates)
        builds.append(time.perf_counter() - start)
        tables.append(table_mib(plan))
        plan_run = plan.run
        theta = c.params

        def kernel_run(theta, c=c):
            return qsim._run_kernels(c.n_qubits, c.gates, theta)

        if r % 2:
            p = seconds(plan_run, theta)
            k = seconds(kernel_run, theta)
        else:
            k = seconds(kernel_run, theta)
            p = seconds(plan_run, theta)
        kernels.append(k)
        plans.append(p)
        ratios.append(k / p)
    return tuple(statistics.median(values) for values in (kernels, plans, builds, ratios, tables))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10-16", help="qubit counts, as LO-HI")
    parser.add_argument("--rounds", type=int, default=60, help="timed runs per family and n")
    parser.add_argument("--runs", type=int, default=42, help="plan runs per build in one optimization")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.sizes.split("-"))
    families = (
        ("qaoa2", lambda n: baseline_circuits("qaoa2", n)),
        ("maqaoa", lambda n: baseline_circuits("maqaoa", n)),
        ("linear", linear_circuits),
        ("agent", agent_circuits),
    )
    print(f"PLAN_MAX_QUBITS = {qsim.PLAN_MAX_QUBITS}; numpy {np.__version__}; ratios > 1: the plan is faster")
    print(f"{'n':>3} {'family':>6} {'kernels ms':>11} {'plan ms':>9} {'build ms':>9} {'kernel/plan':>12} "
          f"{'per ' + str(args.runs) + ' runs':>12} {'tables MiB':>11}")
    for n in range(lo, hi + 1):
        for family, build in families:
            circuits = build(n)
            if not circuits:
                print(f"{n:>3} {family:>6} {'-':>11} {'-':>9} {'-':>9} {'-':>12} {'-':>12} {'-':>11}", flush=True)
                continue
            kernel, plan, built, ratio, mib = measure(circuits, args.rounds)
            optimization = args.runs * kernel / (built + args.runs * plan)
            print(f"{n:>3} {family:>6} {kernel * 1e3:>11.3f} {plan * 1e3:>9.3f} {built * 1e3:>9.3f} "
                  f"{ratio:>12.2f} {optimization:>12.2f} {mib:>11.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
