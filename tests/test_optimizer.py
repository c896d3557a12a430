"""Derivative-free optimizer contracts and circuit-objective behavior."""

import numpy as np
import pytest

from rlansatz.ansatz import build_linear_ryz, build_qaoa
from rlansatz.circuits import h_layer
from rlansatz.errors import ConfigurationError, OptimizationError
from rlansatz.metrics import approximation_ratio
from rlansatz.optimize import OptimizerConfig, cobyla_minimize, optimize_circuit
from rlansatz.problems import make_instance
from rlansatz.qsim import exact_expectation


def test_scalar_quadratic():
    result = cobyla_minimize(lambda x: (x[0] - 3.0) ** 2, np.zeros(1))
    assert abs(result.best_params[0] - 3.0) <= 1e-3
    assert result.converged


def test_two_dim_bowl_reaches_tiny_value():
    result = cobyla_minimize(lambda x: x[0] ** 2 + x[1] ** 2, np.ones(2))
    assert result.best_value <= 1e-6


def test_quadratic_bowls_dimensions_one_to_six():
    for dim in range(1, 7):
        target = np.linspace(-1.0, 1.0, dim)
        result = cobyla_minimize(lambda x: float(np.sum((x - target) ** 2)), np.zeros(dim), OptimizerConfig(max_iterations=200))
        assert result.evaluations <= 200
        assert np.max(np.abs(result.best_params - target)) <= 1e-3, dim


def test_evaluation_cap_of_one():
    calls = []
    result = cobyla_minimize(lambda x: calls.append(1) or float(x[0] ** 2), np.array([5.0]), OptimizerConfig(max_iterations=1))
    assert len(calls) == 1
    assert result.evaluations == 1
    assert not result.converged


def test_evaluation_cap_respected():
    for cap in (3, 10, 37):
        calls = []
        result = cobyla_minimize(
            lambda x: calls.append(1) or float((x[0] - 2) ** 2 + x[1] ** 2),
            np.array([10.0, 10.0]),
            OptimizerConfig(max_iterations=cap),
        )
        assert len(calls) <= cap
        assert result.evaluations == len(calls)


def test_best_value_is_minimum_over_all_evaluations():
    seen = []

    def bumpy(x):
        value = float(np.sin(3 * x[0]) + 0.1 * x[0] ** 2)
        seen.append(value)
        return value

    result = cobyla_minimize(bumpy, np.array([1.0]), OptimizerConfig(max_iterations=150))
    assert result.best_value == min(seen)


def test_deterministic_for_deterministic_objective():
    f = lambda x: float((x[0] - 1) ** 2 + (x[1] + 2) ** 2)
    a = cobyla_minimize(f, np.array([4.0, 4.0]))
    b = cobyla_minimize(f, np.array([4.0, 4.0]))
    assert np.array_equal(a.best_params, b.best_params)
    assert a.evaluations == b.evaluations


def test_non_finite_objective_aborts():
    with pytest.raises(OptimizationError):
        cobyla_minimize(lambda x: float("nan"), np.zeros(2))


def test_rho_validation():
    with pytest.raises(ConfigurationError):
        cobyla_minimize(lambda x: float(x[0] ** 2), np.zeros(1), OptimizerConfig(rho_begin=1e-5, rho_end=1e-4))


# --- circuit objectives -----------------------------------------------------

def test_qaoa_on_k3_reaches_good_values_on_most_seeds():
    inst = make_instance("cycle", 3, 0, "maxcut")
    good = 0
    for seed in range(10):
        circuit = build_qaoa(inst, 1)
        rng = np.random.default_rng(1000 + seed)
        circuit.params[:] = rng.uniform(-np.pi, np.pi, 2)
        result = optimize_circuit(circuit, inst, 1000, seed=seed)
        if result.best_value <= -1.3:
            good += 1
    assert good >= 8


def test_zero_parameter_circuit_returns_single_estimate():
    inst = make_instance("cycle", 3, 0, "maxcut")
    result = optimize_circuit(h_layer(3), inst, 1000, seed=0)
    assert result.evaluations == 1
    assert result.converged
    # uniform sampling averages the K3 table mean of -1.5, within shot noise
    assert result.best_value == pytest.approx(-1.5, abs=0.1)


def test_optimized_linear_not_worse_than_start():
    inst = make_instance("erdos_renyi", 8, 3, "maxcut", er_p=0.5)
    circuit = build_linear_ryz(8)
    start_ar = approximation_ratio(exact_expectation(circuit, inst.ham), inst.spectrum)
    optimize_circuit(circuit, inst, 1000, seed=4)
    end_ar = approximation_ratio(exact_expectation(circuit, inst.ham), inst.spectrum)
    assert end_ar >= start_ar


def test_optimize_circuit_updates_params_to_best():
    inst = make_instance("cycle", 4, 0, "maxcut")
    circuit = build_qaoa(inst, 1)
    result = optimize_circuit(circuit, inst, 500, seed=9)
    assert np.array_equal(circuit.params, result.best_params)


def test_optimize_circuit_deterministic():
    inst = make_instance("cycle", 4, 0, "maxcut")
    results = []
    for _ in range(2):
        circuit = build_qaoa(inst, 1)
        results.append(optimize_circuit(circuit, inst, 500, seed=77))
    assert np.array_equal(results[0].best_params, results[1].best_params)
    assert results[0].best_value == results[1].best_value
    assert results[0].evaluations == results[1].evaluations


def test_optimize_circuit_warm_start_evaluates_current_params_first():
    inst = make_instance("cycle", 4, 0, "maxcut")
    circuit = build_qaoa(inst, 1)
    circuit.params[:] = [0.4, -0.2]
    seen = []
    import rlansatz.optimize as opt

    original = opt.sample_shots

    def spy(c, shots, seed, params=None):
        seen.append(np.array(params))
        return original(c, shots, seed, params=params)

    opt.sample_shots = spy
    try:
        optimize_circuit(circuit, inst, 200, seed=1, optimizer=OptimizerConfig(max_iterations=5))
    finally:
        opt.sample_shots = original
    assert np.array_equal(seen[0], [0.4, -0.2])
