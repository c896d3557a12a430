"""Reinforcement-learning search for variational quantum circuits.

A gate-appending agent builds parametric circuits that minimize the
shot-estimated expectation of QUBO-derived diagonal Hamiltonians, alongside
the QAOA-family baselines and the Ryz-chain ansatz used to benchmark it.
"""

__version__ = "0.1.0"

from .ansatz import build_baseline, build_linear_ryz, build_qaoa, is_ryz_connected
from .circuits import (
    ActionSpace,
    Circuit,
    GateApplication,
    GateKind,
    action_space,
    circuit_depth_basis,
    decompose_double_rotation,
    h_layer,
    transpiled_counts,
)
from .metrics import EvalReport, approximation_ratio, evaluate_circuit, solution_distribution
from .optimize import OptimizationResult, OptimizerConfig, cobyla_minimize, optimize_circuit
from .problems import (
    Graph,
    ProblemInstance,
    ProblemKind,
    QuboMatrix,
    Spectrum,
    Topology,
    brute_force_spectrum,
    build_instance,
    build_qubo,
    generate_graph,
    make_instance,
    qubo_to_hamiltonian,
)
from .qsim import (
    apply_gate,
    estimate_expectation,
    exact_expectation,
    exact_probabilities,
    sample_shots,
)
