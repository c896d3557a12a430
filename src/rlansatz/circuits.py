"""Parametric circuit model: gate catalog, action set, rewrites and metrics.

Conventions fixed here and used everywhere else:

* Little-endian basis order: basis index ``b`` assigns qubit ``i`` the bit
  ``(b >> i) & 1``.
* Single rotations ``Ra(theta) = exp(-i theta/2 sigma_a)``.
* Double rotations ``Rab(theta)`` on qubits ``(u, v)`` apply
  ``exp(-i theta/2 sigma_a(u) (x) sigma_b(v))``: the first axis letter acts
  on the first listed qubit. All nine axis pairs are identity at theta = 0.
* A gate's angle is either ``coeff * params[param_index]`` (parametric) or
  a fixed constant (rewritten forms). ``H`` and ``Cx`` carry no angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, InvalidGateError

MAX_QUBITS = 20  # the simulator's and the brute-force enumeration's limit: 2^20 amplitudes or energies

_TWO_PI = 2.0 * math.pi


class GateKind(str, Enum):
    H = "h"
    CX = "cx"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    RXX = "rxx"
    RXY = "rxy"
    RXZ = "rxz"
    RYX = "ryx"
    RYY = "ryy"
    RYZ = "ryz"
    RZX = "rzx"
    RZY = "rzy"
    RZZ = "rzz"


SINGLE_ROTATIONS = (GateKind.RX, GateKind.RY, GateKind.RZ)
DOUBLE_ROTATIONS = (
    GateKind.RXX,
    GateKind.RXY,
    GateKind.RXZ,
    GateKind.RYX,
    GateKind.RYY,
    GateKind.RYZ,
    GateKind.RZX,
    GateKind.RZY,
    GateKind.RZZ,
)
PARAMETRIC_KINDS = frozenset(SINGLE_ROTATIONS) | frozenset(DOUBLE_ROTATIONS)
TWO_QUBIT_KINDS = frozenset(DOUBLE_ROTATIONS) | {GateKind.CX}


def rotation_axes(kind: GateKind) -> str:
    """Axis letters of a rotation kind ('x' for Rx, 'yz' for Ryz, ...)."""
    if kind in PARAMETRIC_KINDS:
        return kind.value[1:]
    raise InvalidGateError(f"{kind.value} is not a rotation")


@dataclass(frozen=True)
class GateApplication:
    """One gate acting on 1 or 2 qubits.

    Parametric kinds carry either ``param_index`` (angle is
    ``coeff * params[param_index]``) or a fixed ``angle``; H and Cx carry
    neither.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    param_index: int | None = None
    coeff: float = 1.0
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        arity = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.qubits) != arity:
            raise InvalidGateError(f"{self.kind.value} acts on {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise InvalidGateError(f"duplicate qubit in {self.kind.value}{self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise InvalidGateError(f"negative qubit index in {self.qubits}")
        if self.kind in PARAMETRIC_KINDS:
            if (self.param_index is None) == (self.angle is None):
                raise InvalidGateError(
                    f"{self.kind.value} needs exactly one of param_index / angle"
                )
        elif self.param_index is not None or self.angle is not None:
            raise InvalidGateError(f"{self.kind.value} takes no parameter")

    def resolved_angle(self, params: np.ndarray | None) -> float | None:
        if self.kind not in PARAMETRIC_KINDS:
            return None
        if self.angle is not None:
            return self.angle
        if params is None:
            raise InvalidGateError(f"{self.kind.value} gate needs a parameter vector")
        return self.coeff * float(params[self.param_index])


@dataclass
class Circuit:
    """Ordered gate list over ``n_qubits`` with a shared parameter vector."""

    n_qubits: int
    gates: list[GateApplication] = field(default_factory=list)
    params: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float).copy()
        self.validate()

    def validate(self) -> None:
        for g in self.gates:
            check_qubits((g,), self.n_qubits)
            if g.param_index is not None and not (0 <= g.param_index < len(self.params)):
                raise InvalidGateError(f"param index {g.param_index} out of range")

    @property
    def n_params(self) -> int:
        return len(self.params)

    def copy(self) -> "Circuit":
        return Circuit(self.n_qubits, list(self.gates), self.params.copy())

    def appended(self, kind: GateKind, qubits: tuple[int, ...], value: float = 0.0) -> "Circuit":
        """New circuit with one more independently parametrized gate (at ``value``)."""
        gate = GateApplication(kind, qubits, param_index=len(self.params))
        return Circuit(self.n_qubits, self.gates + [gate], np.append(self.params, value))

    def to_json_dict(self) -> dict:
        gates = []
        for g in self.gates:
            doc: dict = {"kind": g.kind.value, "qubits": list(g.qubits)}
            if g.param_index is not None:
                doc["param_index"] = g.param_index
                if g.coeff != 1.0:
                    doc["coeff"] = g.coeff
            if g.angle is not None:
                doc["angle"] = g.angle
            gates.append(doc)
        return {"n_qubits": self.n_qubits, "params": list(self.params), "gates": gates}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Circuit":
        """Inverse of ``to_json_dict``; a value of the wrong JSON type raises ValueError."""
        gates = [
            GateApplication(
                GateKind(g["kind"]),
                tuple(_json_int(q, "qubit") for q in g["qubits"]),
                param_index=_optional(_json_int, g.get("param_index"), "param_index"),
                coeff=_json_float(g.get("coeff", 1.0), "coeff"),
                angle=_optional(_json_float, g.get("angle"), "angle"),
            )
            for g in doc["gates"]
        ]
        if not isinstance(doc["params"], list):
            raise ValueError(f"params must be a list, got {doc['params']!r}")
        params = [_json_float(p, "param") for p in doc["params"]]
        return cls(_json_int(doc["n_qubits"], "n_qubits"), gates, np.asarray(params, dtype=float))


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass, 1.7 would truncate
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_float(value, what: str) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _optional(check, value, what: str):
    return None if value is None else check(value, what)


def h_layer(n_qubits: int) -> Circuit:
    """The episode-initial circuit: one Hadamard per qubit."""
    return Circuit(n_qubits, [GateApplication(GateKind.H, (q,)) for q in range(n_qubits)])


def opens_with_h_layer(gates: list[GateApplication], n: int) -> bool:
    """True when the first n gates put one H on each of qubits 0 .. n-1, as ``h_layer(n)`` does, in any order."""
    head = gates[:n]
    return len(head) == n and all(g.kind is GateKind.H for g in head) and {g.qubits[0] for g in head} == set(range(n))


def check_qubits(gates, n: int) -> None:
    """Raise ``InvalidGateError`` at the first gate with a qubit that is not below n."""
    for g in gates:
        if any(q >= n for q in g.qubits):
            raise InvalidGateError(f"{g.kind.value}{g.qubits} out of range for n={n}")


# ---------------------------------------------------------------------------
# Action set: single rotations on every qubit plus all double rotations on
# every qubit pair, in a fixed documented order.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionSpace:
    """Gate templates the agent may append: 3n singles + 9*n(n-1)/2 doubles.

    Ordering: single rotations sorted by (axis, qubit) with axes x < y < z,
    then double rotations sorted by (axis pair, qubit pair), both
    lexicographic.
    """

    n_qubits: int
    actions: tuple[tuple[GateKind, tuple[int, ...]], ...]

    @property
    def size(self) -> int:
        return len(self.actions)

    def apply(self, circuit: Circuit, action_id: int) -> Circuit:
        """Append the chosen gate with a fresh parameter initialized to 0."""
        if not (0 <= action_id < self.size):
            raise ValueError(f"action id {action_id} out of range [0, {self.size})")
        kind, qubits = self.actions[action_id]
        return circuit.appended(kind, qubits)


def action_space(n_qubits: int) -> ActionSpace:
    if n_qubits < 2:
        raise ConfigurationError(f"action set needs n >= 2, got {n_qubits}")
    singles = [(kind, (q,)) for kind in SINGLE_ROTATIONS for q in range(n_qubits)]
    doubles = [
        (kind, pair)
        for kind in DOUBLE_ROTATIONS
        for pair in combinations(range(n_qubits), 2)
    ]
    return ActionSpace(n_qubits, tuple(singles + doubles))


# ---------------------------------------------------------------------------
# Rewrites. Basis set {H, Rx, Ry, Rz, Rzz} for depth; native set
# {Cx, Rx, Ry, Rz} for transpiled gate counts.
# ---------------------------------------------------------------------------

def _axis_change(axis: str, qubit: int) -> tuple[GateApplication | None, GateApplication | None]:
    """(U, U_dagger) mapping the axis into z on the given qubit; None for z."""
    if axis == "z":
        return None, None
    if axis == "x":
        u = GateApplication(GateKind.H, (qubit,))
        return u, u
    # axis y: Rx(pi/2) conjugation
    return (
        GateApplication(GateKind.RX, (qubit,), angle=0.5 * math.pi),
        GateApplication(GateKind.RX, (qubit,), angle=-0.5 * math.pi),
    )


def _decompose_double(gate: GateApplication) -> list[GateApplication]:
    """Rab on (u, v) -> axis changes on u and v around Rzz(theta) on (u, v)."""
    a, b = rotation_axes(gate.kind)
    u, v = gate.qubits
    pre_a, post_a = _axis_change(a, u)
    pre_b, post_b = _axis_change(b, v)
    core = GateApplication(
        GateKind.RZZ, (u, v), param_index=gate.param_index, coeff=gate.coeff, angle=gate.angle
    )
    out = [g for g in (pre_a, pre_b) if g is not None]
    out.append(core)
    out.extend(g for g in (post_a, post_b) if g is not None)
    return out


def to_basis_gates(circuit: Circuit) -> Circuit:
    """Rewrite into {H, Rx, Ry, Rz, Rzz}, preserving parameter linkage.

    Cx, absent from agent-built and builder circuits, passes through as an
    opaque two-qubit primitive.
    """
    gates: list[GateApplication] = []
    for g in circuit.gates:
        if g.kind in DOUBLE_ROTATIONS and g.kind is not GateKind.RZZ:
            gates.extend(_decompose_double(g))
        else:
            gates.append(g)
    return Circuit(circuit.n_qubits, gates, circuit.params)


_H_AS_NATIVE_ANGLES = (0.5 * math.pi, 0.5 * math.pi, 0.5 * math.pi)  # Rz, Rx, Rz


def to_native_gates(circuit: Circuit) -> Circuit:
    """Rewrite into {Cx, Rx, Ry, Rz} (up to global phase) and simplify.

    H becomes Rz(pi/2) Rx(pi/2) Rz(pi/2); Rzz(theta) on (u, v) becomes
    Cx(u, v), Rz(theta) on v, Cx(u, v).
    """
    gates: list[GateApplication] = []
    for g in to_basis_gates(circuit).gates:
        if g.kind is GateKind.H:
            (q,) = g.qubits
            rz, rx, rz2 = _H_AS_NATIVE_ANGLES
            gates.append(GateApplication(GateKind.RZ, (q,), angle=rz))
            gates.append(GateApplication(GateKind.RX, (q,), angle=rx))
            gates.append(GateApplication(GateKind.RZ, (q,), angle=rz2))
        elif g.kind is GateKind.RZZ:
            u, v = g.qubits
            cx = GateApplication(GateKind.CX, (u, v))
            gates.append(cx)
            gates.append(
                GateApplication(GateKind.RZ, (v,), param_index=g.param_index, coeff=g.coeff, angle=g.angle)
            )
            gates.append(cx)
        else:
            gates.append(g)
    return Circuit(circuit.n_qubits, simplify_gates(gates), circuit.params)


def _is_zero_angle(angle: float) -> bool:
    # structural zeros only: exact multiples of 4*pi (identity, not just
    # identity up to phase)
    return math.fmod(angle, 2.0 * _TWO_PI) == 0.0


def simplify_gates(gates: list[GateApplication]) -> list[GateApplication]:
    """Peephole simplification, in one pass.

    Rules: merge adjacent same-axis fixed rotations on a qubit; drop fixed
    rotations whose angle is an exact multiple of 4*pi; cancel adjacent
    identical Cx pairs. Parametric gates are never merged or dropped, so
    gate counts do not depend on parameter values. Each rule compares a gate
    only with the last gate kept on its qubit and removes only that gate, so
    the gate a removal uncovers meets every later gate on its qubit in turn:
    one pass reaches the fixpoint, and the result simplifies to itself.
    """
    out: list[GateApplication | None] = []
    last_on: dict[int, list[int]] = {}

    def push(g: GateApplication) -> None:
        out.append(g)
        for q in g.qubits:
            last_on.setdefault(q, []).append(len(out) - 1)

    for g in gates:
        stack = last_on.get(g.qubits[0])
        prev_idx = stack[-1] if stack else None
        prev = out[prev_idx] if prev_idx is not None else None
        # (a) merge adjacent fixed-angle rotations of the same axis
        if (
            g.kind in SINGLE_ROTATIONS
            and g.angle is not None
            and prev is not None
            and prev.kind is g.kind
            and prev.angle is not None
        ):
            merged = prev.angle + g.angle
            if _is_zero_angle(merged):
                out[prev_idx] = None
                last_on[g.qubits[0]].pop()
            else:
                out[prev_idx] = replace(prev, angle=merged)
            continue
        # (b) drop fixed rotations that are structurally the identity
        if g.kind in SINGLE_ROTATIONS and g.angle is not None and _is_zero_angle(g.angle):
            continue
        # (c) cancel an adjacent identical Cx pair
        if g.kind is GateKind.CX and prev is not None and prev.kind is GateKind.CX:
            u, v = g.qubits
            if prev.qubits == g.qubits and last_on.get(v, [None])[-1] == prev_idx:
                out[prev_idx] = None
                last_on[u].pop()
                last_on[v].pop()
                continue
        push(g)
    return [g for g in out if g is not None]


def gate_list_depth(gates: list[GateApplication]) -> int:
    """Longest qubit-wise dependency chain (standard circuit depth)."""
    frontier: dict[int, int] = {}
    depth = 0
    for g in gates:
        d = 1 + max((frontier.get(q, 0) for q in g.qubits), default=0)
        for q in g.qubits:
            frontier[q] = d
        depth = max(depth, d)
    return depth


@cache
def _basis_footprint(kind: GateKind, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The qubits of each gate ``to_basis_gates`` writes for this gate."""
    probe = GateApplication(kind, qubits, angle=0.0 if kind in PARAMETRIC_KINDS else None)
    return tuple(g.qubits for g in to_basis_gates(Circuit(max(qubits) + 1, [probe])).gates)


def circuit_depth_basis(circuit: Circuit) -> int:
    """Depth after rewriting into {H, Rx, Ry, Rz, Rzz} (the reward's depth term).

    Equal to ``gate_list_depth(to_basis_gates(circuit).gates)``: the same
    frontier rule, run over each gate's basis footprint without building
    the basis gates. Every gate acts on one or two qubits.
    """
    frontier = [0] * circuit.n_qubits
    for g in circuit.gates:
        for on in _basis_footprint(g.kind, g.qubits):
            if len(on) == 1:
                frontier[on[0]] += 1
            else:
                u, v = on
                frontier[u] = frontier[v] = 1 + max(frontier[u], frontier[v])
    return max(frontier, default=0)


@dataclass(frozen=True)
class TranspiledCounts:
    single_qubit: int
    two_qubit: int
    depth: int


def transpiled_counts(circuit: Circuit) -> TranspiledCounts:
    """Gate counts and depth after the {Cx, Rx, Ry, Rz} rewrite + simplification."""
    native = to_native_gates(circuit)
    singles = sum(1 for g in native.gates if len(g.qubits) == 1)
    doubles = sum(1 for g in native.gates if len(g.qubits) == 2)
    return TranspiledCounts(singles, doubles, gate_list_depth(native.gates))
