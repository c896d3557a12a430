"""Reinforcement-learning search for variational quantum circuits.

A gate-appending agent builds parametric circuits that minimize the
shot-estimated expectation of QUBO-derived diagonal Hamiltonians, alongside
the QAOA-family baselines and the Ryz-chain ansatz used to benchmark it.
Everything else is imported from its submodule.
"""

__version__ = "0.1.0"

from .ansatz import build_baseline, build_qaoa
from .circuits import action_space
from .metrics import evaluate_circuit
from .problems import make_instance
