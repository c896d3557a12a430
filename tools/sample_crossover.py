"""Where the inverse-CDF draw starts beating the multinomial: the data behind ``qsim.CDF_MIN_QUBITS``.

Usage (from the repository root):

    python3 tools/sample_crossover.py [--sizes 6-16] [--rounds 30] [--draws 20] [--shots 1000]

For each qubit count n it times the two draws of
``qsim.sample_from_probabilities`` back to back, alternating which runs
first, on the same seeds and the same probabilities:

* ``multinomial``: ``rng.multinomial(shots, p / p.sum())``
* ``inverse CDF``: ``qsim._inverse_cdf_counts(p, np.cumsum(p), rng.random(shots))``

Each draw takes its own ``rng = np.random.default_rng(seed)``, set up
before the timed loop, as the optimizer's draws take a Generator that
``seeding.seed_stream`` has already set.

The probabilities are those of the two circuit families
``tools/plan_crossover.py`` times (qaoa2 on a 3-regular maxcut instance,
even n only, and agent circuits), since the multinomial's cost depends on
how the mass is spread. A round draws ``--draws`` samples per method, on
seeds that differ from round to round. Per family and n the line shows the
median microseconds per draw of each method and the median over rounds of
their ratio; a ratio above 1 means the inverse-CDF draw is faster.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plan_crossover import agent_circuits, baseline_circuits  # noqa: E402  (this script's own directory)
from rlansatz import qsim  # noqa: E402


def multinomial(p: np.ndarray, shots: int, generators: list) -> None:
    for rng in generators:
        rng.multinomial(shots, p / p.sum())


def inverse_cdf(p: np.ndarray, shots: int, generators: list) -> None:
    for rng in generators:
        qsim._inverse_cdf_counts(p, np.cumsum(p), rng.random(shots))


def seconds(draw, p: np.ndarray, shots: int, seeds: range) -> float:
    generators = [np.random.default_rng(seed) for seed in seeds]
    start = time.perf_counter()
    draw(p, shots, generators)
    return time.perf_counter() - start


def measure(distributions: list, rounds: int, draws: int, shots: int) -> tuple[float, float, float]:
    """Median multinomial us per draw, median inverse-CDF us per draw, median multinomial/inverse-CDF ratio."""
    multis, cdfs, ratios = [], [], []
    for r in range(rounds):
        p = distributions[r % len(distributions)]
        seeds = range(r * draws, (r + 1) * draws)
        if r % 2:
            c = seconds(inverse_cdf, p, shots, seeds)
            m = seconds(multinomial, p, shots, seeds)
        else:
            m = seconds(multinomial, p, shots, seeds)
            c = seconds(inverse_cdf, p, shots, seeds)
        multis.append(m / draws)
        cdfs.append(c / draws)
        ratios.append(m / c)
    return statistics.median(multis), statistics.median(cdfs), statistics.median(ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="6-16", help="qubit counts, as LO-HI")
    parser.add_argument("--rounds", type=int, default=30, help="timed rounds per family and n")
    parser.add_argument("--draws", type=int, default=20, help="draws per method and round")
    parser.add_argument("--shots", type=int, default=1000, help="shots per draw")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.sizes.split("-"))
    print(f"CDF_MIN_QUBITS = {qsim.CDF_MIN_QUBITS}; numpy {np.__version__}; {args.shots} shots; "
          "multinomial/inverse CDF > 1: the inverse CDF is faster")
    print(f"{'n':>3} {'family':>6} {'multinomial us':>15} {'inverse CDF us':>15} {'ratio':>6}")
    for n in range(lo, hi + 1):
        for family, build in (("qaoa2", lambda n: baseline_circuits("qaoa2", n)), ("agent", agent_circuits)):
            distributions = [qsim.exact_probabilities(c) for c in build(n)]
            if not distributions:
                print(f"{n:>3} {family:>6} {'-':>15} {'-':>15} {'-':>6}", flush=True)
                continue
            multi, cdf, ratio = measure(distributions, args.rounds, args.draws, args.shots)
            print(f"{n:>3} {family:>6} {multi * 1e6:>15.1f} {cdf * 1e6:>15.1f} {ratio:>6.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
