"""Ansatz builders: the Ryz chain family and the QAOA variants.

All builders are pure functions returning fresh circuits whose parameters
default to 0 (identity-like start).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .circuits import (
    Circuit,
    GateApplication,
    GateKind,
    h_layer,
    opens_with_h_layer,
)
from .errors import ConfigurationError
from .problems import ProblemInstance, qubo_to_ising


def build_linear_ryz(n_qubits: int) -> Circuit:
    """Hadamard layer plus a chain of n-1 Ryz gates linking consecutive qubits.

    Gate k couples qubits (n-2-k, n-1-k) with its own parameter, walking the
    chain from the top qubit down; the y-axis conjugation lands on the qubit
    newly added to the chain.
    """
    if n_qubits < 2:
        raise ConfigurationError(f"linear Ryz circuit needs n >= 2, got {n_qubits}")
    circuit = h_layer(n_qubits)
    for k in range(n_qubits - 1):
        circuit = circuit.appended(GateKind.RYZ, (n_qubits - 2 - k, n_qubits - 1 - k))
    return circuit


def is_ryz_connected(circuit: Circuit) -> bool:
    """True iff the circuit is an H layer then n-1 Ryz gates growing one
    connected chain (every prefix's connectivity graph is connected and each
    gate adds exactly one new qubit)."""
    n = circuit.n_qubits
    if len(circuit.gates) != n + (n - 1) or not opens_with_h_layer(circuit.gates, n):
        return False
    tail = circuit.gates[n:]
    if any(g.kind is not GateKind.RYZ for g in tail):
        return False
    chained: set[int] = set()
    for g in tail:
        u, v = g.qubits
        if not chained:
            chained.update((u, v))
        elif (u in chained) == (v in chained):
            return False  # either disconnected or no new qubit added
        else:
            chained.update((u, v))
    return chained == set(range(n))


class QaoaVariant(str, Enum):
    STANDARD = "standard"
    MULTI_ANGLE = "multi_angle"
    PLUS = "plus"


def build_qaoa(inst: ProblemInstance, p: int = 1, variant: QaoaVariant | str = QaoaVariant.STANDARD) -> Circuit:
    """QAOA-family ansatz for a problem instance.

    standard: H layer, then per layer l a cost operator (Rzz(2*gamma_l*J_ij)
    per Ising coupling, Rz(2*gamma_l*h_i) per nonzero field) and an
    Rx(2*beta_l) mixer; 2p parameters.

    multi_angle: same gate sequence, every gate its own parameter.

    plus: standard p=1 followed by a problem-independent Rzz line
    (i, i+1) for i < n-1 and a full Rx mixer layer, every extra gate its own
    parameter: 2n-1 parameters on top of the standard 2.
    """
    variant = QaoaVariant(variant)
    if p < 1:
        raise ConfigurationError(f"QAOA needs p >= 1, got p={p}")
    if variant is QaoaVariant.PLUS and p != 1:
        raise ConfigurationError("the extended variant is defined for p = 1 only")

    n = inst.n
    couplings, fields, _ = qubo_to_ising(inst.qubo)
    coupling_items = sorted(couplings.items())
    field_items = [(i, h) for i, h in enumerate(fields) if h != 0.0]

    circuit = h_layer(n)
    gates = list(circuit.gates)
    params: list[float] = []

    def fresh_param() -> int:
        params.append(0.0)
        return len(params) - 1

    for _layer in range(p):
        if variant is QaoaVariant.STANDARD or variant is QaoaVariant.PLUS:
            gamma = fresh_param()
            for (i, j), jij in coupling_items:
                gates.append(GateApplication(GateKind.RZZ, (i, j), param_index=gamma, coeff=2.0 * jij))
            for i, h in field_items:
                gates.append(GateApplication(GateKind.RZ, (i,), param_index=gamma, coeff=2.0 * h))
            beta = fresh_param()
            for q in range(n):
                gates.append(GateApplication(GateKind.RX, (q,), param_index=beta, coeff=2.0))
        else:  # multi-angle: one parameter per gate, plain angles
            for (i, j), _jij in coupling_items:
                gates.append(GateApplication(GateKind.RZZ, (i, j), param_index=fresh_param()))
            for i, _h in field_items:
                gates.append(GateApplication(GateKind.RZ, (i,), param_index=fresh_param()))
            for q in range(n):
                gates.append(GateApplication(GateKind.RX, (q,), param_index=fresh_param()))

    if variant is QaoaVariant.PLUS:
        for i in range(n - 1):
            gates.append(GateApplication(GateKind.RZZ, (i, i + 1), param_index=fresh_param()))
        for q in range(n):
            gates.append(GateApplication(GateKind.RX, (q,), param_index=fresh_param()))

    return Circuit(n, gates, np.asarray(params))


BASELINE_BUILDERS = {
    "qaoa1": lambda inst: build_qaoa(inst, 1, QaoaVariant.STANDARD),
    "qaoa2": lambda inst: build_qaoa(inst, 2, QaoaVariant.STANDARD),
    "maqaoa": lambda inst: build_qaoa(inst, 1, QaoaVariant.MULTI_ANGLE),
    "qaoaplus": lambda inst: build_qaoa(inst, 1, QaoaVariant.PLUS),
    "linear": lambda inst: build_linear_ryz(inst.n),
}


def build_baseline(name: str, inst: ProblemInstance) -> Circuit:
    try:
        builder = BASELINE_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; expected one of {sorted(BASELINE_BUILDERS)}"
        ) from None
    return builder(inst)
