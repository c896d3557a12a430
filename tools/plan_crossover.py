"""The compiled plan against the view kernels in an optimization's steady state: the data behind
``qsim.TABLE_MAX_ENTRIES``.

Usage (from the repository root):

    python3 tools/plan_crossover.py [--sizes 10-16] [--rounds 6] [--runs 42]

For each qubit count n and each circuit family, a round builds a
``qsim._Plan`` and times the build, then times ``--runs`` runs of that same
plan against as many runs of ``qsim._run_kernels``, alternating which
batch runs first. That is one optimization, which builds the plan once and
reruns it with each new angle vector. The plan picks each step's table or
kernel by ``qsim.TABLE_MAX_ENTRIES``, which the header prints. The
families are those the benchmark and the protocols send through ``qsim``:

* ``qaoa2`` and ``maqaoa``: the baseline circuits of a 3-regular maxcut
  instance (graph seed 1), qaoa2 as in ``baseline_qaoa2_n14``. A 3-regular
  graph needs an even n, so odd n print ``-``.
* ``linear``: the paper's Ryz chain (``build_linear_ryz``), on any n. It
  is flip-symmetric, so its plan runs on half the amplitudes from
  ``2^CDF_MIN_QUBITS`` outcomes on while its tables fit, and it has no
  fused step.
* ``agent``: what the agent builds in ``train_cycle6``: an H layer plus 2n
  actions drawn uniformly from the action set, with random angles. Each
  round takes the next of four such circuits.

Per family and n the line shows the median per-run kernel and plan times
and build time, the median over rounds of kernel time over plan time per
run, and the same ratio for the whole optimization, ``runs * kernels /
(build + runs * plan)``. A ratio above 1 means the plan is faster. The
last column is the median MiB of the distinct arrays a plan holds
(``table_mib``): its start vector and its steps' tables, which is the
memory a plan adds over the kernels.
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


def at_random_angles(circuit, seed: int) -> list:
    circuit.params[:] = np.random.default_rng(seed).uniform(-np.pi, np.pi, circuit.n_params)
    return [circuit]


def baseline_circuits(algorithm: str, n: int) -> list:
    if n % 2:
        return []
    return at_random_angles(build_baseline(algorithm, make_instance("three_regular", n, 1, "maxcut")), n)


def linear_circuits(n: int) -> list:
    return at_random_angles(build_linear_ryz(n), n)


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


def seconds(run, theta, runs: int) -> float:
    start = time.perf_counter()
    for _ in range(runs):
        run(theta)
    return time.perf_counter() - start


def measure(circuits: list, rounds: int, runs: int) -> tuple[float, float, float, float, float, float]:
    """Median per-run kernel and plan seconds, build seconds, per-run and per-optimization kernel/plan ratios
    and table MiB."""
    kernels, plans, builds, ratios, optimizations, tables = [], [], [], [], [], []
    for r in range(rounds):
        c = circuits[r % len(circuits)]
        start = time.perf_counter()
        plan = qsim._Plan(c.n_qubits, c.gates)
        built = time.perf_counter() - start
        tables.append(table_mib(plan))

        def kernel_run(theta, c=c):
            return qsim._run_kernels(c.n_qubits, c.gates, theta)

        if r % 2:
            p = seconds(plan.run, c.params, runs)
            k = seconds(kernel_run, c.params, runs)
        else:
            k = seconds(kernel_run, c.params, runs)
            p = seconds(plan.run, c.params, runs)
        kernels.append(k / runs)
        plans.append(p / runs)
        builds.append(built)
        ratios.append(k / p)
        optimizations.append(k / (built + p))
    return tuple(statistics.median(values) for values in (kernels, plans, builds, ratios, optimizations, tables))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10-16", help="qubit counts, as LO-HI")
    parser.add_argument("--rounds", type=int, default=6, help="timed optimizations per family and n")
    parser.add_argument("--runs", type=int, default=42, help="plan runs per build in one optimization")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.sizes.split("-"))
    families = (
        ("qaoa2", lambda n: baseline_circuits("qaoa2", n)),
        ("maqaoa", lambda n: baseline_circuits("maqaoa", n)),
        ("linear", linear_circuits),
        ("agent", agent_circuits),
    )
    print(f"TABLE_MAX_ENTRIES = {qsim.TABLE_MAX_ENTRIES}; numpy {np.__version__}; ratios > 1: the plan is faster")
    print(f"{'n':>3} {'family':>6} {'kernels ms':>11} {'plan ms':>9} {'build ms':>9} {'kernel/plan':>12} "
          f"{'per ' + str(args.runs) + ' runs':>12} {'tables MiB':>11}")
    for n in range(lo, hi + 1):
        for family, build in families:
            circuits = build(n)
            if not circuits:
                print(f"{n:>3} {family:>6} {'-':>11} {'-':>9} {'-':>9} {'-':>12} {'-':>12} {'-':>11}", flush=True)
                continue
            kernel, plan, built, ratio, optimization, mib = measure(circuits, args.rounds, args.runs)
            print(f"{n:>3} {family:>6} {kernel * 1e3:>11.3f} {plan * 1e3:>9.3f} {built * 1e3:>9.3f} "
                  f"{ratio:>12.2f} {optimization:>12.2f} {mib:>11.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
