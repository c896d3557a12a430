"""Circuit model, action set, rewrites, metrics and ansatz builders."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlansatz.ansatz import build_baseline, build_linear_ryz, build_qaoa, is_ryz_connected
from rlansatz.circuits import (
    Circuit,
    GateApplication,
    GateKind,
    TranspiledCounts,
    action_space,
    circuit_depth_basis,
    gate_list_depth,
    h_layer,
    simplify_gates,
    to_basis_gates,
    to_native_gates,
    transpiled_counts,
)
from rlansatz.errors import ConfigurationError, InvalidGateError
from rlansatz.problems import make_instance
from rlansatz.qsim import exact_probabilities

from _oracles import circuit_unitary, phase_aligned_distance, random_circuit


# --- circuit model ----------------------------------------------------------

def test_gate_application_validation():
    with pytest.raises(InvalidGateError):
        GateApplication(GateKind.RX, (0,))  # rotation with no angle source
    with pytest.raises(InvalidGateError):
        GateApplication(GateKind.RX, (0,), param_index=0, angle=0.5)  # both
    with pytest.raises(InvalidGateError):
        GateApplication(GateKind.H, (0,), param_index=0)  # H takes none
    with pytest.raises(InvalidGateError):
        GateApplication(GateKind.RZZ, (2, 2), angle=0.1)  # duplicate qubits
    with pytest.raises(InvalidGateError):
        GateApplication(GateKind.CX, (0,))  # wrong arity


def test_circuit_param_index_validation():
    gate = GateApplication(GateKind.RX, (0,), param_index=3)
    with pytest.raises(InvalidGateError):
        Circuit(1, [gate], np.zeros(1))


def test_appended_gates_are_independently_parametrized():
    circuit = h_layer(2)
    circuit = circuit.appended(GateKind.RYZ, (0, 1))
    circuit = circuit.appended(GateKind.RX, (0,))
    indices = [g.param_index for g in circuit.gates if g.param_index is not None]
    assert indices == [0, 1]
    assert circuit.n_params == 2
    assert np.array_equal(circuit.params, [0.0, 0.0])


def test_circuit_json_round_trip():
    inst = make_instance("cycle", 4, 0, "maxcut")
    for circuit in (build_qaoa(inst, 2), build_linear_ryz(4), h_layer(3)):
        circuit = Circuit(circuit.n_qubits, circuit.gates, np.random.default_rng(0).uniform(-3, 3, circuit.n_params))
        doc = json.loads(json.dumps(circuit.to_json_dict()))
        back = Circuit.from_json_dict(doc)
        assert back.n_qubits == circuit.n_qubits
        assert back.gates == circuit.gates
        assert np.array_equal(back.params, circuit.params)


# --- action set -------------------------------------------------------------

@pytest.mark.parametrize("n,total", [(2, 15), (8, 276), (14, 861)])
def test_action_space_size(n, total):
    space = action_space(n)
    assert space.size == total == 3 * n + 9 * n * (n - 1) // 2


def test_action_space_ordering():
    space = action_space(3)
    # singles first, grouped by axis then qubit
    assert space.actions[0] == (GateKind.RX, (0,))
    assert space.actions[2] == (GateKind.RX, (2,))
    assert space.actions[3] == (GateKind.RY, (0,))
    assert space.actions[8] == (GateKind.RZ, (2,))
    # doubles: axis pairs xx, xy, ..., zz; qubit pairs (0,1), (0,2), (1,2)
    assert space.actions[9] == (GateKind.RXX, (0, 1))
    assert space.actions[10] == (GateKind.RXX, (0, 2))
    assert space.actions[12] == (GateKind.RXY, (0, 1))
    assert space.actions[-1] == (GateKind.RZZ, (1, 2))


def test_action_apply_appends_fresh_zero_param():
    space = action_space(2)
    circuit = space.apply(h_layer(2), space.size - 1)
    assert circuit.gates[-1].kind is GateKind.RZZ
    assert circuit.params[-1] == 0.0
    with pytest.raises(ValueError):
        space.apply(circuit, space.size)


def test_every_action_simulates_and_is_identity_at_zero():
    space = action_space(3)
    base = exact_probabilities(h_layer(3))
    for action_id in range(space.size):
        circuit = space.apply(h_layer(3), action_id)
        probs = exact_probabilities(circuit)
        assert np.allclose(probs, base, atol=1e-12), space.actions[action_id]


# --- rewrites and metrics ---------------------------------------------------

def test_depth_h_layer():
    assert circuit_depth_basis(h_layer(5)) == 1


def test_depth_h_plus_rzz():
    circuit = Circuit(3, h_layer(3).gates + [GateApplication(GateKind.RZZ, (0, 1), angle=0.2)])
    assert circuit_depth_basis(circuit) == 2


def test_depth_h_plus_ryz():
    circuit = Circuit(3, h_layer(3).gates + [GateApplication(GateKind.RYZ, (0, 1), angle=0.2)])
    # conjugated wire: H, Rx, Rzz, Rx -> chain of 4
    assert circuit_depth_basis(circuit) == 4


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8), n_gates=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_basis_depth_is_the_depth_of_the_basis_gates(n, n_gates, seed):
    circuit = random_circuit(np.random.default_rng(seed), n, n_gates)
    assert circuit_depth_basis(circuit) == gate_list_depth(to_basis_gates(circuit).gates)


def test_transpiled_counts_empty():
    assert transpiled_counts(Circuit(2)) == TranspiledCounts(0, 0, 0)


def test_transpiled_counts_single_rzz():
    circuit = Circuit(2, [GateApplication(GateKind.RZZ, (0, 1), angle=0.4)])
    assert transpiled_counts(circuit) == TranspiledCounts(1, 2, 3)


def test_simplify_merges_and_drops():
    merged = simplify_gates(
        [GateApplication(GateKind.RZ, (0,), angle=0.3), GateApplication(GateKind.RZ, (0,), angle=0.4)]
    )
    assert merged == [GateApplication(GateKind.RZ, (0,), angle=0.7)]
    dropped = simplify_gates(
        [GateApplication(GateKind.RZ, (0,), angle=0.3), GateApplication(GateKind.RZ, (0,), angle=-0.3)]
    )
    assert dropped == []


def test_simplify_cancels_adjacent_cx_pairs():
    cx = GateApplication(GateKind.CX, (0, 1))
    assert simplify_gates([cx, cx]) == []
    blocked = [cx, GateApplication(GateKind.RZ, (1,), angle=0.1), cx]
    assert len(simplify_gates(blocked)) == 3
    # a gate on the control wire also blocks cancellation
    blocked2 = [cx, GateApplication(GateKind.RZ, (0,), angle=0.1), cx]
    assert len(simplify_gates(blocked2)) == 3


def test_simplify_never_touches_parametric_gates():
    gates = [
        GateApplication(GateKind.RZ, (0,), param_index=0),
        GateApplication(GateKind.RZ, (0,), param_index=1),
    ]
    assert simplify_gates(gates) == gates


# Angles whose sums often land on exact multiples of 4*pi, so merges also cancel.
_ANGLES = [0.0, 0.5, -0.5, 1.5, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 4 * math.pi, -4 * math.pi]


@st.composite
def peephole_gates(draw):
    n = draw(st.integers(1, 3))
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["h", "cx", "rx", "ry", "rz"] if n > 1 else ["h", "rx", "ry", "rz"]))
        if kind == "cx":
            u, v = draw(st.permutations(range(n)))[:2]
            gates.append(GateApplication(GateKind.CX, (u, v)))
            continue
        q = (draw(st.integers(0, n - 1)),)
        if kind == "h":
            gates.append(GateApplication(GateKind.H, q))
        elif draw(st.booleans()):
            gates.append(GateApplication(GateKind(kind), q, angle=draw(st.sampled_from(_ANGLES))))
        else:
            gates.append(GateApplication(GateKind(kind), q, param_index=len(gates)))
    return gates


@settings(max_examples=400, deadline=None)
@given(gates=peephole_gates())
def test_simplify_leaves_its_own_output_unchanged(gates):
    once = simplify_gates(gates)
    assert simplify_gates(once) == once


@pytest.mark.parametrize("seed", range(20))
def test_native_rewrite_is_already_simplified(seed):
    native = to_native_gates(random_circuit(np.random.default_rng(seed), 3, 12)).gates
    assert simplify_gates(native) == native


def test_counts_are_parameter_independent():
    inst = make_instance("cycle", 4, 0, "maxcut")
    circuit = build_qaoa(inst, 1)
    zero = transpiled_counts(circuit)
    other = transpiled_counts(Circuit(circuit.n_qubits, circuit.gates, [1.23, -0.77]))
    assert zero == other
    assert circuit_depth_basis(circuit) == circuit_depth_basis(Circuit(circuit.n_qubits, circuit.gates, [3.0, 3.0]))


def test_rewrites_preserve_unitary_up_to_phase():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        circuit = random_circuit(rng, n, int(rng.integers(3, 10)))
        reference = circuit_unitary(circuit)
        basis = circuit_unitary(to_basis_gates(circuit))
        native = circuit_unitary(to_native_gates(circuit))
        assert phase_aligned_distance(basis, reference) <= 1e-10
        assert phase_aligned_distance(native, reference) <= 1e-10


def test_rewrites_preserve_parametric_linkage():
    inst = make_instance("star", 3, 0, "minvertexcover")
    circuit = build_qaoa(inst, 1)
    theta = np.array([0.31, -1.1])
    reference = circuit_unitary(circuit, theta)
    native = to_native_gates(circuit)
    assert phase_aligned_distance(circuit_unitary(native, theta), reference) <= 1e-10


# --- chain ansatz -----------------------------------------------------------

def test_linear_ryz_structure():
    c4 = build_linear_ryz(4)
    kinds = [g.kind for g in c4.gates]
    assert kinds == [GateKind.H] * 4 + [GateKind.RYZ] * 3
    assert c4.n_params == 3
    assert [g.qubits for g in c4.gates[4:]] == [(2, 3), (1, 2), (0, 1)]
    c2 = build_linear_ryz(2)
    assert len(c2.gates) == 3 and c2.n_params == 1
    with pytest.raises(ConfigurationError):
        build_linear_ryz(1)


def test_linear_ryz_bitflip_symmetry():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5):
        circuit = build_linear_ryz(n)
        full = (1 << n) - 1
        for _ in range(10):
            probs = exact_probabilities(circuit, rng.uniform(-np.pi, np.pi, n - 1))
            flipped = probs[[b ^ full for b in range(1 << n)]]
            assert np.max(np.abs(probs - flipped)) <= 1e-10


def test_is_ryz_connected_accepts_linear():
    for n in (2, 3, 5, 8):
        assert is_ryz_connected(build_linear_ryz(n))


def test_is_ryz_connected_rejects_disconnected_pairs():
    gates = h_layer(4).gates + [
        GateApplication(GateKind.RYZ, (0, 1), param_index=0),
        GateApplication(GateKind.RYZ, (2, 3), param_index=1),
        GateApplication(GateKind.RYZ, (1, 2), param_index=2),
    ]
    assert not is_ryz_connected(Circuit(4, gates, np.zeros(3)))


def test_is_ryz_connected_rejects_other_kinds_and_shapes():
    gates = h_layer(2).gates + [GateApplication(GateKind.RX, (0,), param_index=0)]
    assert not is_ryz_connected(Circuit(2, gates, np.zeros(1)))
    assert not is_ryz_connected(h_layer(3))  # missing chain
    star = h_layer(3).gates + [
        GateApplication(GateKind.RYZ, (0, 1), param_index=0),
        GateApplication(GateKind.RYZ, (0, 2), param_index=1),
    ]
    assert is_ryz_connected(Circuit(3, star, np.zeros(2)))  # any growing chain counts
    chain = build_linear_ryz(4)
    assert is_ryz_connected(Circuit(4, chain.gates[3::-1] + chain.gates[4:], chain.params))  # H in any order
    for missed in range(4):  # a head of four H gates that skips one qubit and repeats another
        head = [GateApplication(GateKind.H, (q if q != missed else (missed + 1) % 4,)) for q in range(4)]
        assert not is_ryz_connected(Circuit(4, head + chain.gates[4:], chain.params)), missed


def test_is_ryz_connected_rejects_edge_within_chain():
    # third gate reconnects two chained qubits instead of adding a new one
    gates = h_layer(4).gates + [
        GateApplication(GateKind.RYZ, (0, 1), param_index=0),
        GateApplication(GateKind.RYZ, (1, 2), param_index=1),
        GateApplication(GateKind.RYZ, (0, 2), param_index=2),
    ]
    assert not is_ryz_connected(Circuit(4, gates, np.zeros(3)))


# --- QAOA family ------------------------------------------------------------

def test_qaoa_standard_parameter_counts():
    inst = make_instance("three_regular", 8, 1, "maxcut")
    assert build_qaoa(inst, 1).n_params == 2
    assert build_qaoa(inst, 2).n_params == 4
    assert build_qaoa(inst, 3).n_params == 6


def test_qaoa_plus_parameter_count():
    for n, topology in ((4, "cycle"), (8, "star")):
        inst = make_instance(topology, n, 0, "maxcut")
        circuit = build_qaoa(inst, 1, "plus")
        assert circuit.n_params == 2 + (2 * n - 1)


def test_multi_angle_k3_parameter_count():
    inst = make_instance("cycle", 3, 0, "maxcut")
    circuit = build_qaoa(inst, 1, "multi_angle")
    assert circuit.n_params == 6  # 3 cost + 3 mixer
    indices = [g.param_index for g in circuit.gates if g.param_index is not None]
    assert indices == list(range(6))  # every gate its own parameter


def test_qaoa_rejects_unsupported_combinations():
    inst = make_instance("cycle", 3, 0, "maxcut")
    with pytest.raises(ConfigurationError):
        build_qaoa(inst, 2, "plus")
    with pytest.raises(ConfigurationError):
        build_qaoa(inst, 0)
    with pytest.raises(ValueError):
        build_qaoa(inst, 1, "nonsense")


def test_qaoa_zero_parameters_give_uniform_distribution():
    for kind in ("maxcut", "minvertexcover", "maxclique"):
        inst = make_instance("grid2d", 6, 0, kind)
        for variant in ("standard", "multi_angle", "plus"):
            circuit = build_qaoa(inst, 1, variant)
            assert np.allclose(exact_probabilities(circuit), 1.0 / (1 << inst.n), atol=1e-12)


def test_qaoa_cost_layer_uses_fields_for_constrained_problems():
    inst = make_instance("cycle", 3, 0, "minvertexcover")
    circuit = build_qaoa(inst, 1)
    kinds = {g.kind for g in circuit.gates}
    assert GateKind.RZ in kinds  # nonzero Ising fields
    assert GateKind.RZZ in kinds


def test_builders_validate_and_simulate():
    inst = make_instance("star", 4, 0, "maxclique")
    for name in ("qaoa1", "qaoa2", "maqaoa", "qaoaplus", "linear"):
        circuit = build_baseline(name, inst)
        circuit.validate()
        probs = exact_probabilities(circuit)
        assert abs(probs.sum() - 1.0) <= 1e-9
    with pytest.raises(ConfigurationError):
        build_baseline("qaoa17", inst)
