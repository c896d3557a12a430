"""Approximation ratio, evaluation reports and solution distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, transpiled_counts
from .errors import DegenerateSpectrumError
from .optimize import OptimizerConfig, optimize_circuit
from .problems import ProblemInstance, Spectrum
from .qsim import estimate_expectation, sample_shots
from .seeding import INIT_STREAM, OPT_STREAM, REWARD_STREAM, derive_seed, rng_for


def approximation_ratio(estimate: float, spectrum: Spectrum, clamp: bool = False) -> float:
    """(estimate - e_max) / (e_min - e_max): 1 at the optimum, 0 at the worst.

    Shot estimates are averages of table energies, so the raw value already
    lies in [0, 1]; ``clamp`` only guards float edges for reporting.
    """
    if spectrum.degenerate:
        raise DegenerateSpectrumError("approximation ratio undefined for a constant spectrum")
    ratio = (estimate - spectrum.e_max) / (spectrum.e_min - spectrum.e_max)
    if clamp:
        ratio = min(1.0, max(0.0, ratio))
    return float(ratio)


@dataclass(frozen=True)
class EvalReport:
    approx_ratio: float
    above_feasibility_threshold: bool
    single_qubit_gates: int
    two_qubit_gates: int
    depth: int
    n_runs: int
    per_run_ratios: tuple[float, ...]
    per_run_estimates: tuple[float, ...]


def evaluate_circuit(
    circuit: Circuit,
    inst: ProblemInstance,
    n_runs: int,
    n_shots: int,
    seed: int = 0,
    *,
    random_init: bool = True,
    optimize: bool = True,
    optimizer: OptimizerConfig | None = None,
) -> EvalReport:
    """Run the standard evaluation protocol and average the ratios.

    Per run: re-initialize every parameter uniformly in [-pi, pi) (unless
    ``random_init`` is off), optimize on shot estimates (unless ``optimize``
    is off) with the ``optimizer`` settings, then score a fresh shot
    estimate. The reported ratio is the mean of the per-run ratios.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    ratios = []
    estimates = []
    for run in range(n_runs):
        work = circuit.copy()
        if random_init and work.n_params:
            init_rng = rng_for(seed, INIT_STREAM, run)
            work.params[:] = init_rng.uniform(-np.pi, np.pi, work.n_params)
        if optimize and work.n_params:
            optimize_circuit(work, inst.ham, n_shots, derive_seed(seed, OPT_STREAM, run), optimizer)
        shot_seed = derive_seed(seed, REWARD_STREAM, run)
        estimate = estimate_expectation(sample_shots(work, n_shots, shot_seed), inst.ham)
        estimates.append(estimate)
        ratios.append(approximation_ratio(estimate, inst.spectrum, clamp=True))
    counts = transpiled_counts(circuit)
    mean_ratio = float(np.mean(ratios))
    threshold = inst.spectrum.feasibility_threshold_ar or 0.0
    return EvalReport(
        approx_ratio=mean_ratio,
        above_feasibility_threshold=mean_ratio >= threshold,
        single_qubit_gates=counts.single_qubit,
        two_qubit_gates=counts.two_qubit,
        depth=counts.depth,
        n_runs=n_runs,
        per_run_ratios=tuple(ratios),
        per_run_estimates=tuple(estimates),
    )


def solution_distribution(
    circuit: Circuit, inst: ProblemInstance, n_shots: int, seed: int = 0
) -> dict[float, float]:
    """Sampled-energy histogram of an already-optimized circuit.

    Maps each distinct exact energy value hit by the sampled bitstrings to
    its frequency; frequencies sum to 1.
    """
    counts = sample_shots(circuit, n_shots, derive_seed(seed, REWARD_STREAM))
    levels, level_of = np.unique(inst.ham, return_inverse=True)
    # bincount adds each outcome's frequency in basis order, as a per-outcome loop would
    freq = np.bincount(level_of, weights=counts / n_shots, minlength=len(levels))
    hit = freq > 0
    return dict(zip(levels[hit].tolist(), freq[hit].tolist()))
