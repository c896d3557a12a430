"""Derivative-free parameter optimization of circuits on shot estimates.

The optimizer is COBYLA (linear-interpolation trust region, run
unconstrained), delegated to SciPy behind a wrapper that enforces the
evaluation budget, tracks the best evaluation ever seen and rejects
non-finite objective values. ``OptimizerConfig`` holds its settings: the
budget and the initial and final trust radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .circuits import Circuit
from .errors import ConfigurationError, OptimizationError
from .problems import ProblemInstance
from .qsim import estimate_expectation, sample_shots
from .seeding import OPT_STREAM, derive_seed


@dataclass
class OptimizerConfig:
    max_iterations: int = 1000  # objective-evaluation budget per optimization
    rho_begin: float = 1.0
    rho_end: float = 1e-4

    def validate(self) -> None:
        if self.max_iterations < 1:
            raise ConfigurationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (self.rho_begin > self.rho_end > 0):
            raise ConfigurationError(f"need rho_begin > rho_end > 0, got {self.rho_begin}, {self.rho_end}")


@dataclass(frozen=True)
class OptimizationResult:
    best_params: np.ndarray
    best_value: float
    evaluations: int
    converged: bool


class _BudgetExhausted(Exception):
    pass


class _Recorder:
    """Counts evaluations, tracks the running best, enforces the budget."""

    def __init__(self, objective: Callable[[np.ndarray], float], budget: int):
        self.objective = objective
        self.budget = budget
        self.evaluations = 0
        self.best_params: np.ndarray | None = None
        self.best_value = np.inf

    def __call__(self, x: np.ndarray) -> float:
        if self.evaluations >= self.budget:
            raise _BudgetExhausted
        value = float(self.objective(np.asarray(x, dtype=float)))
        if not np.isfinite(value):
            raise OptimizationError(f"non-finite objective value {value!r} at params {np.asarray(x)!r}")
        self.evaluations += 1
        if value < self.best_value:
            self.best_value = value
            self.best_params = np.array(x, dtype=float)
        return value


def cobyla_minimize(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Minimize with COBYLA under a hard objective-evaluation budget.

    Terminates when the trust radius shrinks below ``rho_end`` or the budget
    is exhausted; ``best_value`` is the minimum over all evaluations, not the
    last iterate. Deterministic for a deterministic objective.
    """
    config = config or OptimizerConfig()
    config.validate()
    x0 = np.asarray(x0, dtype=float)
    recorder = _Recorder(objective, config.max_iterations)
    if x0.size == 0:
        value = recorder(x0)
        return OptimizationResult(x0.copy(), value, 1, True)
    options = {"rhobeg": config.rho_begin, "tol": config.rho_end, "maxiter": config.max_iterations}
    converged = False
    try:
        result = _scipy_minimize(recorder, x0, method="COBYLA", options=options)
        converged = bool(result.success)
    except _BudgetExhausted:
        pass
    if recorder.best_params is None:
        raise OptimizationError("optimizer made no evaluations")
    return OptimizationResult(recorder.best_params, recorder.best_value, recorder.evaluations, converged)


def optimize_circuit(
    circuit: Circuit,
    inst: ProblemInstance,
    n_shots: int,
    seed: int,
    optimizer: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Tune the circuit's parameters against the shot-estimated expectation.

    The objective re-samples every evaluation with a fresh seed derived from
    ``seed`` and an evaluation counter, mirroring repeated executions on a
    sampling backend. Warm start: optimization begins at the circuit's
    current parameters (new gates enter at 0). On return the circuit carries
    the best parameters found.
    """
    eval_counter = [0]

    def objective(theta: np.ndarray) -> float:
        shot_seed = derive_seed(seed, OPT_STREAM, eval_counter[0])
        eval_counter[0] += 1
        return estimate_expectation(sample_shots(circuit, n_shots, shot_seed, params=theta), inst.ham)

    result = cobyla_minimize(objective, circuit.params, optimizer)
    if circuit.n_params:
        circuit.params[:] = result.best_params
    return result
