"""Independent reference implementations used to check the package.

Everything here is built from first principles (kron chains, scipy's
matrix exponential, explicit bit loops) and never calls into the package's
simulation or rewrite code, so agreement is meaningful.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kron_chain(factors):
    """kron over qubit positions, little-endian: factors[i] acts on qubit i."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(f, out)
    return out


def kron_chain_apply(factors, state: np.ndarray) -> np.ndarray:
    """kron_chain(factors) @ state without the 2^n x 2^n matrix.

    The state is reshaped to n axes of length 2, qubit i on axis n-1-i, and
    each 2x2 factor is contracted with its qubit's axis.
    """
    n = len(factors)
    tensor = state.reshape((2,) * n)
    for i, f in enumerate(factors):
        axis = n - 1 - i
        tensor = np.moveaxis(np.tensordot(f, tensor, axes=([1], [axis])), 0, axis)
    return tensor.reshape(-1)


def embedded_operator(op_by_qubit: dict, n: int) -> np.ndarray:
    return kron_chain([op_by_qubit.get(q, I2) for q in range(n)])


def pauli_string(n: int, assignment: dict) -> np.ndarray:
    return embedded_operator({q: SIGMA[a] for q, a in assignment.items()}, n)


def rotation_unitary(axes: str, qubits, theta: float, n: int) -> np.ndarray:
    """expm(-i theta/2 * sigma_axes[0](qubits[0]) (x) sigma_axes[1](qubits[1]) ...)."""
    generator = pauli_string(n, dict(zip(qubits, axes)))
    return expm(-0.5j * theta * generator)


def cx_unitary(control: int, target: int, n: int) -> np.ndarray:
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        c = (col >> control) & 1
        row = col ^ (c << target)
        u[row, col] = 1.0
    return u


def gate_unitary(gate, n: int, params=None) -> np.ndarray:
    """Full 2^n x 2^n unitary of one GateApplication, via kron + expm only."""
    kind = gate.kind.value
    if kind == "h":
        return embedded_operator({gate.qubits[0]: H2}, n)
    if kind == "cx":
        return cx_unitary(gate.qubits[0], gate.qubits[1], n)
    theta = gate.angle
    if theta is None:
        theta = gate.coeff * float(params[gate.param_index])
    return rotation_unitary(kind[1:], gate.qubits, theta, n)


def circuit_unitary(circuit, params=None) -> np.ndarray:
    theta = circuit.params if params is None else params
    u = np.eye(1 << circuit.n_qubits, dtype=complex)
    for gate in circuit.gates:
        u = gate_unitary(gate, circuit.n_qubits, theta) @ u
    return u


def gate_list_unitary(gates, n: int, params=None) -> np.ndarray:
    u = np.eye(1 << n, dtype=complex)
    for gate in gates:
        u = gate_unitary(gate, n, params) @ u
    return u


def circuit_probabilities(circuit, params=None) -> np.ndarray:
    return np.abs(circuit_unitary(circuit, params)[:, 0]) ** 2


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max |u - phase * v| over the best global phase."""
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    phase = u[idx] / v[idx]
    phase /= abs(phase)
    return float(np.max(np.abs(u - phase * v)))


def diagonal_phases(n: int, gates, theta) -> np.ndarray:
    """Per basis state b, the phase phi[b] of the Rz and Rzz gates: they multiply amplitude b by exp(-i phi[b]).

    phi[b] sums, over the gates, half the gate's angle times its Z-parity
    sign: -1 when b has an odd number of 1 bits on the gate's qubits, else
    +1. The bits are read with plain Python ints.
    """
    halves = []
    for gate in gates:
        if gate.kind.value not in ("rz", "rzz"):
            raise ValueError(f"{gate.kind.value} is not diagonal")
        angle = gate.angle if gate.angle is not None else gate.coeff * float(theta[gate.param_index])
        halves.append((0.5 * angle, gate.qubits))
    phases = []
    for b in range(1 << n):
        total = 0.0
        for half, qubits in halves:
            odd = sum((b >> q) & 1 for q in qubits) % 2
            total += -half if odd else half
        phases.append(total)
    return np.array(phases)


def qubo_value(q: np.ndarray, offset: float, bits) -> float:
    """x^T Q x + offset by explicit loops."""
    total = offset
    n = len(bits)
    for i in range(n):
        if bits[i]:
            total += q[i, i]
            for j in range(i + 1, n):
                if bits[j]:
                    total += q[i, j]
    return float(total)


def index_bits(index: int, n: int):
    return [(index >> i) & 1 for i in range(n)]


def qubo_table_einsum(q: np.ndarray, offset: float) -> np.ndarray:
    """x^T Q x + offset for all 2^n bitstrings x, by one einsum over the (2^n x n) bit matrix."""
    n = q.shape[0]
    idx = np.arange(1 << n, dtype=np.int64)
    bits = ((idx[:, None] >> np.arange(n)) & 1).astype(float)
    return np.einsum("bi,ij,bj->b", bits, q, bits) + offset


def is_feasible(kind: str, n: int, edges, index: int) -> bool:
    """Whether the vertex set of ``index``'s 1 bits satisfies ``kind``'s constraint, by explicit loops.

    A clique must be pairwise adjacent; a vertex cover must touch every
    edge; every set is a feasible cut.
    """
    chosen = [v for v in range(n) if (index >> v) & 1]
    if kind == "maxclique":
        present = set(edges)
        return all((u, v) in present for k, u in enumerate(chosen) for v in chosen[k + 1 :])
    if kind == "minvertexcover":
        return all(u in chosen or v in chosen for u, v in edges)
    return True


def random_circuit(rng: np.random.Generator, n: int, n_gates: int):
    """Random mix of all gate kinds with random fixed angles."""
    from rlansatz.circuits import (
        DOUBLE_ROTATIONS,
        SINGLE_ROTATIONS,
        Circuit,
        GateApplication,
        GateKind,
    )

    kinds = [GateKind.H] + list(SINGLE_ROTATIONS)
    if n >= 2:
        kinds += [GateKind.CX] + list(DOUBLE_ROTATIONS)
    gates = []
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        if kind in (GateKind.CX, *DOUBLE_ROTATIONS):
            q = rng.choice(n, size=2, replace=False)
            qubits = (int(q[0]), int(q[1]))
        else:
            qubits = (int(rng.integers(n)),)
        if kind in (GateKind.H, GateKind.CX):
            gates.append(GateApplication(kind, qubits))
        else:
            gates.append(GateApplication(kind, qubits, angle=float(rng.uniform(-2 * np.pi, 2 * np.pi))))
    return Circuit(n, gates)


def scipy_cobyla(objective, x0, rho_begin, rho_end, budget):
    """SciPy's COBYLA on ``objective``: the points it evaluates and its result.

    Since scipy 1.16 this is PRIMA's Python translation. PRIMA raises a
    budget below n + 2 to n + 2, so points past ``budget`` are dropped.
    """
    from scipy.optimize import minimize

    points = []

    def recorded(x):
        points.append(np.array(x, dtype=float))
        return objective(x)

    options = {"rhobeg": rho_begin, "tol": rho_end, "maxiter": max(budget, len(x0) + 2)}
    result = minimize(recorded, x0, method="COBYLA", options=options)
    return points[:budget], result


def running_sum(values) -> list[float]:
    """Left-to-right running sum of floats, the order in which ``np.cumsum`` adds."""
    out = []
    for x in values:
        out.append(x if not out else out[-1] + x)
    return out


def inverse_cdf_counts(probs, uniforms) -> np.ndarray:
    """Counts of the outcomes the uniforms select by inverse CDF, one shot at a time.

    Negative entries count as 0. Each uniform, scaled by the total, selects
    the first outcome whose running sum exceeds it, or the last outcome with
    positive probability when none does. The shots are walked in increasing
    order, each continuing from where the previous one stopped.
    """
    p = [x if x > 0.0 else 0.0 for x in map(float, probs)]
    cdf = running_sum(p)
    last = max(i for i, x in enumerate(p) if x > 0.0)
    counts = np.zeros(len(p), dtype=np.int64)
    i = 0
    for value in sorted(float(u) * cdf[-1] for u in uniforms):
        while i < len(cdf) and cdf[i] <= value:
            i += 1
        counts[min(i, last)] += 1
    return counts


@dataclass
class Segment:
    """Transitions of one episode (or its truncation at an epoch boundary)."""

    rewards: list[float]
    values: list[float]
    bootstrap_value: float = 0.0  # value of the next state when truncated, 0 at a true end


def segment_returns_and_advantages(segments: list[Segment], gamma: float, gae_lambda: float):
    """Discounted reward-to-go and GAE advantages, per transition, one segment at a time.

    Truncated segments bootstrap both from ``bootstrap_value``; completed
    episodes bootstrap from 0.
    """
    returns: list[float] = []
    advantages: list[float] = []
    for seg in segments:
        g = seg.bootstrap_value
        adv = 0.0
        next_value = seg.bootstrap_value
        seg_returns = []
        seg_advs = []
        for reward, value in zip(reversed(seg.rewards), reversed(seg.values)):
            g = reward + gamma * g
            delta = reward + gamma * next_value - value
            adv = delta + gamma * gae_lambda * adv
            next_value = value
            seg_returns.append(g)
            seg_advs.append(adv)
        returns.extend(reversed(seg_returns))
        advantages.extend(reversed(seg_advs))
    return np.asarray(returns), np.asarray(advantages)
