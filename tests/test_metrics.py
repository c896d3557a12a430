"""Approximation ratio, evaluation protocol and solution histograms."""

import math

import numpy as np
import pytest

from rlansatz.ansatz import build_linear_ryz, build_qaoa
from rlansatz.circuits import Circuit, GateApplication, GateKind, h_layer
from rlansatz.errors import DegenerateSpectrumError
from rlansatz.metrics import approximation_ratio, evaluate_circuit, solution_distribution
from rlansatz.optimize import OptimizerConfig
from rlansatz.problems import Spectrum, make_instance


def spectrum(e_min, e_max, threshold=0.0):
    return Spectrum(e_min, e_max, threshold, e_min == e_max, e_max, (), 1)


def test_ratio_endpoints():
    s = spectrum(-2.0, 0.0)
    assert approximation_ratio(-2.0, s) == 1.0
    assert approximation_ratio(0.0, s) == 0.0


def test_ratio_maxcut_example():
    assert approximation_ratio(-1.8, spectrum(-2.0, 0.0)) == pytest.approx(0.9)


def test_ratio_degenerate_rejected():
    with pytest.raises(DegenerateSpectrumError):
        approximation_ratio(1.0, spectrum(1.0, 1.0))


def test_ratio_affine_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        e_min, width = rng.uniform(-10, 0), rng.uniform(0.5, 5)
        s = spectrum(e_min, e_min + width)
        estimate = rng.uniform(e_min, e_min + width)
        a, b = rng.uniform(0.1, 3), rng.uniform(-5, 5)
        scaled = spectrum(a * e_min + b, a * (e_min + width) + b)
        assert approximation_ratio(estimate, s) == pytest.approx(
            approximation_ratio(a * estimate + b, scaled), abs=1e-12
        )


def test_ratio_clamp_guards_edges():
    s = spectrum(-2.0, 0.0)
    assert approximation_ratio(0.1, s, clamp=True) == 0.0
    assert approximation_ratio(-2.1, s, clamp=True) == 1.0
    assert approximation_ratio(0.1, s) < 0.0  # raw retained without clamp


def test_evaluate_circuit_reproducible_and_consistent():
    inst = make_instance("cycle", 4, 0, "maxcut")
    circuit = build_qaoa(inst, 1)
    a = evaluate_circuit(circuit, inst, n_runs=4, n_shots=300, seed=5, optimizer=OptimizerConfig(max_iterations=60))
    b = evaluate_circuit(circuit, inst, n_runs=4, n_shots=300, seed=5, optimizer=OptimizerConfig(max_iterations=60))
    assert a == b
    assert a.n_runs == 4
    assert len(a.per_run_ratios) == 4
    assert a.approx_ratio == pytest.approx(float(np.mean(a.per_run_ratios)))
    assert a.above_feasibility_threshold == (a.approx_ratio >= inst.spectrum.feasibility_threshold_ar)
    assert all(0.0 <= r <= 1.0 for r in a.per_run_ratios)


def test_evaluate_circuit_threshold_flag_constrained():
    inst = make_instance("cycle", 4, 0, "minvertexcover")
    report = evaluate_circuit(h_layer(4), inst, n_runs=2, n_shots=300, seed=1)
    assert report.above_feasibility_threshold == (
        report.approx_ratio >= inst.spectrum.feasibility_threshold_ar
    )


def test_evaluate_keep_params_without_optimization():
    inst = make_instance("cycle", 4, 0, "maxcut")
    circuit = Circuit(4, build_linear_ryz(4).gates, [0.3, -0.4, 0.8])
    report = evaluate_circuit(
        circuit, inst, n_runs=3, n_shots=500, seed=2, random_init=False, optimize=False
    )
    assert report.n_runs == 3
    assert np.array_equal(circuit.params, [0.3, -0.4, 0.8])  # untouched


def test_solution_distribution_ground_state_only():
    inst = make_instance("grid2d", 2, 0, "maxcut")  # single edge
    # Rx(pi) maps |00> to |01> up to phase: a deterministic ground state
    circuit = Circuit(2, [GateApplication(GateKind.RX, (0,), angle=math.pi)])
    hist = solution_distribution(circuit, inst, n_shots=500, seed=3)
    assert hist == {inst.spectrum.e_min: 1.0}


def test_solution_distribution_uniform_matches_degeneracies():
    inst = make_instance("cycle", 3, 0, "maxcut")
    hist = solution_distribution(h_layer(3), inst, n_shots=200_000, seed=4)
    assert abs(sum(hist.values()) - 1.0) <= 1e-9
    # table has 2 states at energy 0 and 6 at energy -2
    assert hist[0.0] == pytest.approx(2 / 8, abs=0.01)
    assert hist[-2.0] == pytest.approx(6 / 8, abs=0.01)


def test_solution_distribution_frequencies_sum_to_one():
    inst = make_instance("star", 5, 0, "maxclique")
    circuit = Circuit(inst.n, build_qaoa(inst, 1).gates, [0.7, 0.2])
    hist = solution_distribution(circuit, inst, n_shots=1000, seed=5)
    assert abs(sum(hist.values()) - 1.0) <= 1e-9
    assert all(f > 0 for f in hist.values())


def test_solution_distribution_equals_per_outcome_histogram():
    from rlansatz.qsim import sample_shots
    from rlansatz.seeding import REWARD_STREAM, derive_seed

    inst = make_instance("three_regular", 8, 2, "minvertexcover")
    circuit = Circuit(inst.n, build_qaoa(inst, 1).gates, [0.9, -0.4])
    hist = solution_distribution(circuit, inst, n_shots=1000, seed=6)
    counts = sample_shots(circuit, 1000, derive_seed(6, REWARD_STREAM))
    expected: dict[float, float] = {}
    for b in np.flatnonzero(counts):
        e = float(inst.ham[b])
        expected[e] = expected.get(e, 0.0) + counts[b] / 1000
    assert list(hist.items()) == sorted(expected.items())
