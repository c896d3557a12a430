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


# --- the PPO update, one array per weight and bias ---------------------------


def _orthogonal(rows: int, cols: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T  # a wide layer stays F-ordered
    return scale * q[:rows, :cols]


class ArrayMlp:
    """tanh hidden layers, linear output, with one array per weight and bias."""

    def __init__(self, sizes, rng: np.random.Generator, final_scale: float = 1.0):
        self.weights = []
        self.biases = []
        last = len(sizes) - 2
        for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            self.weights.append(_orthogonal(fan_in, fan_out, rng, final_scale if layer == last else 1.0))
            self.biases.append(np.zeros(fan_out))

    def forward_cached(self, x):
        h = np.atleast_2d(np.asarray(x, dtype=float))
        activations = [h]
        for layer in range(len(self.weights)):
            z = h @ self.weights[layer] + self.biases[layer]
            h = np.tanh(z) if layer < len(self.weights) - 1 else z
            activations.append(h)
        return h, activations

    def backward(self, activations, grad_out):
        grad_w, grad_b = [], []
        delta = np.atleast_2d(grad_out)
        for layer in range(len(self.weights) - 1, -1, -1):
            grad_w.append(activations[layer].T @ delta)
            grad_b.append(delta.sum(axis=0))
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (1.0 - activations[layer] ** 2)
        return grad_w[::-1], grad_b[::-1]


class ArrayAdam:
    """Adam over a list of arrays, one array at a time."""

    def __init__(self, arrays, lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, arrays, grads) -> None:
        self.t += 1
        b1c = 1.0 - 0.9**self.t
        b2c = 1.0 - 0.999**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            a -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + 1e-8)


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def array_ppo_update(policy: ArrayMlp, value: ArrayMlp, batch, hyper, pi_opt: ArrayAdam, vf_opt: ArrayAdam) -> dict:
    """One epoch's clipped-surrogate policy steps (with the KL stop) and value steps; returns diagnostics."""
    centered = batch.advantages - batch.advantages.mean()
    std = centered.std()
    advantages = centered if std == 0.0 else centered / std
    obs, actions, n = batch.observations, batch.actions, len(batch.actions)
    rows = np.arange(n)
    out = {"pi_loss": None, "vf_loss": None, "vf_loss_final": 0.0, "kl": 0.0, "clip_fraction": 0.0,
           "entropy": 0.0, "pi_steps": 0}
    for _ in range(hyper.pi_iters):
        logits, cache = policy.forward_cached(obs)
        logp_all = _log_softmax(logits)
        logp = logp_all[rows, actions]
        ratio = np.exp(logp - batch.log_probs_old)
        clipped = np.clip(ratio, 1.0 - hyper.clip_ratio, 1.0 + hyper.clip_ratio)
        if out["pi_loss"] is None:
            out["pi_loss"] = -float(np.mean(np.minimum(ratio * advantages, clipped * advantages)))
        active = np.where(advantages >= 0.0, ratio <= 1.0 + hyper.clip_ratio, ratio >= 1.0 - hyper.clip_ratio)
        dl_dratio = np.where(active, -advantages, 0.0) / n
        grad_logits = np.exp(logp_all) * (-(dl_dratio * ratio))[:, None]
        grad_logits[rows, actions] += dl_dratio * ratio
        grad_w, grad_b = policy.backward(cache, grad_logits)
        out["kl"] = float(np.mean(batch.log_probs_old - logp))
        out["clip_fraction"] = float(np.mean(np.abs(ratio - 1.0) > hyper.clip_ratio))
        out["entropy"] = float(-np.mean(np.sum(np.exp(logp_all) * logp_all, axis=1)))
        if out["kl"] > hyper.target_kl:
            break
        pi_opt.step(policy.weights + policy.biases, grad_w + grad_b)
        out["pi_steps"] += 1
    for _ in range(hyper.vf_iters):
        predictions, cache = value.forward_cached(obs)
        err = predictions[:, 0] - batch.returns
        out["vf_loss_final"] = float(np.mean(err**2))
        if out["vf_loss"] is None:
            out["vf_loss"] = out["vf_loss_final"]
        grad_w, grad_b = value.backward(cache, (2.0 * err / n)[:, None])
        vf_opt.step(value.weights + value.biases, grad_w + grad_b)
    out["pi_loss"] = out["pi_loss"] or 0.0
    out["vf_loss"] = out["vf_loss"] or 0.0
    return out
