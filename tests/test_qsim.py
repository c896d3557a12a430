"""Simulator checks against independent dense-matrix oracles."""

import ast
import gc
import sys
import threading
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rlansatz import qsim
from rlansatz.circuits import (
    Circuit,
    DOUBLE_ROTATIONS,
    GateApplication,
    GateKind,
    PARAMETRIC_KINDS,
    TWO_QUBIT_KINDS,
    action_space,
    h_layer,
    rotation_axes,
    to_basis_gates,
)
from rlansatz.ansatz import build_baseline, build_linear_ryz
from rlansatz.errors import ConfigurationError, InvalidGateError
from rlansatz.metrics import evaluate_circuit
from rlansatz.problems import make_instance
from rlansatz.qsim import (
    apply_gate,
    estimate_expectation,
    exact_probabilities,
    run_circuit,
    sample_from_probabilities,
    sample_shots,
)

from _oracles import (
    circuit_probabilities,
    circuit_unitary,
    diagonal_phases,
    gate_list_unitary,
    gate_unitary,
    inverse_cdf_counts,
    kron_chain,
    kron_chain_apply,
    phase_aligned_distance,
    random_circuit,
    rotation_unitary,
    running_sum,
)

THETA_GRID = np.arange(16) * (np.pi / 4.0) - 2.0 * np.pi


def ket_zero(n):
    """|0...0> as a fresh amplitude vector."""
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


def counts_of(*pairs, n):
    """Dense int64 count vector on n qubits from (outcome, count) pairs."""
    counts = np.zeros(1 << n, dtype=np.int64)
    for b, c in pairs:
        counts[b] = c
    return counts


def test_zero_state_one_qubit():
    amps = run_circuit(Circuit(1))
    assert amps.dtype == complex
    assert np.array_equal(amps, [1.0, 0.0])


def test_zero_state_two_qubits():
    assert np.array_equal(run_circuit(Circuit(2)), [1.0, 0.0, 0.0, 0.0])


def test_zero_state_rejects_bad_sizes():
    with pytest.raises(ConfigurationError):
        run_circuit(Circuit(0))
    with pytest.raises(ConfigurationError):
        run_circuit(Circuit(21))


@pytest.mark.parametrize("n", [6, 10])
def test_params_of_another_shape_are_rejected(n):
    inst = make_instance("three_regular", n, 1, "maxcut")
    circuit = build_baseline("qaoa1", inst)
    assert circuit.n_params == 2
    for bad in ([0.3], [0.3, 0.2, 0.1], [[0.3, 0.2]]):
        for call in (run_circuit, exact_probabilities):
            with pytest.raises(ConfigurationError, match="shape"):
                call(circuit, np.array(bad))
        with pytest.raises(ConfigurationError, match="shape"):
            sample_shots(circuit, 100, 0, params=bad)
        with pytest.raises(ConfigurationError, match="shape"):
            qsim.exact_expectation(circuit, inst.ham, params=bad)
    assert np.array_equal(run_circuit(circuit, [0.3, 0.2]), run_circuit(Circuit(n, circuit.gates, [0.3, 0.2])))


def test_hadamard_on_zero():
    amps = ket_zero(1)
    apply_gate(amps, GateApplication(GateKind.H, (0,)))
    assert np.allclose(amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_double_rotation_at_zero_is_identity():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    for kind in DOUBLE_ROTATIONS:
        state = amps.copy()
        apply_gate(state, GateApplication(kind, (0, 1), angle=0.0))
        assert np.allclose(state, amps, atol=1e-12)


def test_ryz_matches_matrix_exponential_oracle():
    state = ket_zero(2)
    apply_gate(state, GateApplication(GateKind.RYZ, (0, 1), angle=np.pi / 2))
    expected = rotation_unitary("yz", (0, 1), np.pi / 2, 2)[:, 0]
    assert np.max(np.abs(state - expected)) <= 1e-10


def test_apply_gate_rejects_bad_qubits():
    state = ket_zero(2)
    with pytest.raises(InvalidGateError):
        apply_gate(state, GateApplication(GateKind.RX, (5,), angle=0.1))
    with pytest.raises(InvalidGateError):
        GateApplication(GateKind.RZZ, (1, 1), angle=0.1)
    # a body gate on qubit n: apply_gate, the plan (n=4) and the kernels (n=15) raise the same error
    for n in (4, qsim.PLAN_MAX_QUBITS + 1):
        for gate in (GateApplication(GateKind.RX, (n,), angle=0.1), GateApplication(GateKind.RYZ, (1, n), angle=0.1)):
            gates = h_layer(n).gates + [GateApplication(GateKind.RZ, (0,), angle=0.3), gate]
            messages = set()
            runs = [lambda: apply_gate(ket_zero(n), gate), lambda: qsim._run_kernels(n, gates, np.zeros(0))]
            if n <= qsim.PLAN_MAX_QUBITS:
                runs.append(lambda: qsim._Plan(n, gates))
            for run in runs:
                with pytest.raises(InvalidGateError) as raised:
                    run()
                messages.add(str(raised.value))
            assert messages == {f"{gate.kind.value}{gate.qubits} out of range for n={n}"}


def test_exact_probabilities_uniform_and_empty():
    assert np.allclose(exact_probabilities(h_layer(2)), 0.25)
    assert np.array_equal(exact_probabilities(Circuit(1)), [1.0, 0.0])


def test_exact_probabilities_vs_oracle_random_circuits():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        circuit = random_circuit(rng, n, int(rng.integers(1, 12)))
        probs = exact_probabilities(circuit)
        assert np.max(np.abs(probs - circuit_probabilities(circuit))) <= 1e-10
        assert abs(probs.sum() - 1.0) <= 1e-9


def test_norm_preserved_after_long_random_sequences():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        circuit = random_circuit(rng, n, 40)
        total = exact_probabilities(circuit).sum()
        assert abs(total - 1.0) <= 1e-9


def test_double_rotation_decomposition_identity_on_theta_grid():
    # decomposed gate list vs the matrix exponential, up to global phase
    for kind in DOUBLE_ROTATIONS:
        axes = kind.value[1:]
        for theta in THETA_GRID:
            gates = to_basis_gates(Circuit(2, [GateApplication(kind, (0, 1), angle=float(theta))])).gates
            u = gate_list_unitary(gates, 2)
            expected = rotation_unitary(axes, (0, 1), float(theta), 2)
            assert phase_aligned_distance(u, expected) <= 1e-10, (kind, theta)


def test_decomposition_identity_reversed_qubit_pair():
    for kind in (GateKind.RYZ, GateKind.RXY, GateKind.RZX):
        gates = to_basis_gates(Circuit(2, [GateApplication(kind, (1, 0), angle=1.234)])).gates
        u = gate_list_unitary(gates, 2)
        expected = rotation_unitary(kind.value[1:], (1, 0), 1.234, 2)
        assert phase_aligned_distance(u, expected) <= 1e-10


def test_sample_shots_deterministic_circuit():
    counts = sample_shots(Circuit(2), 1000, rng_seed=7)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, [1000, 0, 0, 0])


def test_sample_shots_binomial_bound_and_determinism():
    circuit = h_layer(1)
    counts = sample_shots(circuit, 1000, rng_seed=123)
    assert 400 <= counts[0] <= 600
    again = sample_shots(circuit, 1000, rng_seed=123)
    assert np.array_equal(counts, again)


def test_sampling_converges_to_exact_probabilities():
    rng = np.random.default_rng(5)
    circuit = random_circuit(rng, 3, 8)
    probs = exact_probabilities(circuit)
    counts = sample_shots(circuit, 100_000, rng_seed=99)
    tv = 0.5 * np.abs(counts / 100_000 - probs).sum()
    assert tv < 0.05


def test_estimate_expectation_ground_state_counts():
    inst = make_instance("cycle", 3, 0, "maxcut")
    ground = inst.spectrum.ground_states[0]
    counts = counts_of((ground, 1000), n=3)
    assert estimate_expectation(counts, inst.ham) == inst.spectrum.e_min


def test_estimate_expectation_uniform_counts_is_table_mean():
    inst = make_instance("cycle", 3, 0, "maxcut")
    counts = counts_of(*((b, 100) for b in range(8)), n=3)
    assert estimate_expectation(counts, inst.ham) == pytest.approx(inst.ham.mean())


def test_estimate_expectation_k3_half_half():
    # 500 shots on 0b011 and 500 on 0b100, both cut-2 bipartitions of K3
    inst = make_instance("cycle", 3, 0, "maxcut")
    counts = counts_of((0b011, 500), (0b100, 500), n=3)
    assert estimate_expectation(counts, inst.ham) == -2.0


def test_simulator_and_optimizer_import_nothing_from_problems():
    # they take the problem as its energy vector, a plain array
    for module in ("qsim", "optimize"):
        tree = ast.parse(Path(qsim.__file__).with_name(f"{module}.py").read_text())
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names += [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
        assert [name for name in names if "problems" in name.split(".")] == [], module


def test_estimate_expectation_dimension_mismatch():
    inst = make_instance("cycle", 3, 0, "maxcut")
    with pytest.raises(ConfigurationError):
        estimate_expectation(counts_of((0, 10), n=2), inst.ham)


# ---------------------------------------------------------------------------
# Property tests: the in-place gate kernels against the dense oracles.
# ---------------------------------------------------------------------------

N_PARAMS = 3
ANGLES = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def gate_applications(draw, n, kinds=tuple(GateKind)):
    """One gate of the given kinds on n qubits: fixed angle, or a parameter with any coeff."""
    kind = draw(st.sampled_from([k for k in kinds if n >= 2 or k not in TWO_QUBIT_KINDS]))
    arity = 2 if kind in TWO_QUBIT_KINDS else 1
    qubits = tuple(draw(st.permutations(range(n)))[:arity])
    if kind in (GateKind.H, GateKind.CX):
        return GateApplication(kind, qubits)
    if draw(st.booleans()):
        return GateApplication(kind, qubits, angle=draw(ANGLES))
    coeff = draw(st.one_of(st.just(1.0), st.floats(-3.0, 3.0, allow_nan=False)))
    return GateApplication(kind, qubits, param_index=draw(st.integers(0, N_PARAMS - 1)), coeff=coeff)


def leading_h_gates(draw, n, layer):
    """Opening H gates: on every qubit ("full"), a proper subset ("partial"),
    every qubit with one repeated among the first n gates ("repeated"), or none."""
    order = draw(st.permutations(range(n)))
    if layer == "full":
        qubits = order
    elif layer == "partial":
        qubits = order[: draw(st.integers(0, n - 1))]
    elif layer == "repeated":
        qubits = list(order)
        qubits.insert(draw(st.integers(0, n - 1)), draw(st.sampled_from(order[: max(n - 1, 1)])))
    else:
        qubits = []
    return [GateApplication(GateKind.H, (q,)) for q in qubits]


@st.composite
def circuits(draw, layer):
    n = draw(st.integers(1, 6))
    gates = leading_h_gates(draw, n, layer) + draw(st.lists(gate_applications(n), max_size=10))
    params = np.array(draw(st.lists(ANGLES, min_size=N_PARAMS, max_size=N_PARAMS)))
    return Circuit(n, gates, params)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("layer", ["none", "full", "partial", "repeated"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_run_circuit_matches_oracle_property(layer, data):
    circuit = data.draw(circuits(layer))
    amps = run_circuit(circuit)
    assert np.max(np.abs(amps - circuit_unitary(circuit)[:, 0])) <= 1e-10
    probs = exact_probabilities(circuit)
    assert np.max(np.abs(probs - circuit_probabilities(circuit))) <= 1e-10


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_apply_gate_matches_oracle_unitary_property(kind, data):
    n = data.draw(st.integers(2 if kind in TWO_QUBIT_KINDS else 1, 6))
    gate = data.draw(gate_applications(n, (kind,)))
    params = np.array(data.draw(st.lists(ANGLES, min_size=N_PARAMS, max_size=N_PARAMS)))
    amps = random_state(n, data.draw(st.integers(0, 2**32 - 1)))
    # both qubit orders of a two-qubit gate
    for g in {gate, GateApplication(gate.kind, gate.qubits[::-1], gate.param_index, gate.coeff, gate.angle)}:
        state = amps.copy()
        apply_gate(state, g, params)
        assert np.max(np.abs(state - gate_unitary(g, n, params) @ amps)) <= 1e-10


# ---------------------------------------------------------------------------
# Sampling contract: the multinomial below 2^CDF_MIN_QUBITS outcomes, the
# inverse-CDF draw from there on, and the dense estimate.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_sample_from_probabilities_is_the_clipped_normalised_multinomial(seed):
    probs = np.random.default_rng(seed + 1).random(32) ** 3
    probs /= probs.sum()
    probs[[3, 17]] = -1e-17  # float drift the clip removes
    probs[9] = -0.0
    counts = sample_from_probabilities(probs, 1000, seed)
    p = np.clip(probs, 0.0, None)
    expected = np.random.default_rng(seed).multinomial(1000, p / p.sum())
    assert counts.dtype == np.int64
    assert np.array_equal(counts, expected)


CDF_SIZE = 1 << qsim.CDF_MIN_QUBITS


def drifted_probabilities(seed, size):
    """Random probabilities with exact zeros, trailing zeros and float drift below 0."""
    rng = np.random.default_rng(seed)
    probs = rng.random(size) ** 3
    probs[rng.choice(size, size // 8, replace=False)] = 0.0
    probs[-5:] = 0.0
    probs /= probs.sum()
    probs[rng.choice(size - 5, 4, replace=False)] = -1e-17
    probs[-2] = -0.0
    return probs


def test_cdf_crossover_keeps_the_multinomial_up_to_eight_qubits():
    # the n=6 and n=8 benchmark runs, the acceptance criteria and their logs keep their bits
    assert 8 < qsim.CDF_MIN_QUBITS <= 10


@pytest.mark.parametrize("n", sorted({qsim.CDF_MIN_QUBITS, 10, 14}))
@pytest.mark.parametrize("seed", [0, 3])
def test_inverse_cdf_draw_matches_the_per_shot_oracle(n, seed):
    probs = drifted_probabilities(seed + n, 1 << n)
    counts = sample_from_probabilities(probs, 1000, seed)
    uniforms = np.random.default_rng(seed).random(1000)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, inverse_cdf_counts(probs, uniforms))


def test_oracle_running_sum_is_numpy_cumsum_bit_for_bit():
    values = np.random.default_rng(4).random(1 << 12) ** 5
    assert np.cumsum(values).tolist() == running_sum(values.tolist())


def test_inverse_cdf_draw_fits_the_exact_probabilities():
    from scipy.stats import chisquare

    probs = exact_probabilities(random_circuit(np.random.default_rng(3), 10, 40))
    counts = sample_from_probabilities(probs, 100_000, 17)
    expected = 100_000 * probs / probs.sum()
    small = expected < 5  # pooled, so every bin expects at least 5
    observed = np.append(counts[~small], counts[small].sum())
    pooled = np.append(expected[~small], expected[small].sum())
    assert pooled[-1] >= 5
    assert chisquare(observed, pooled).pvalue > 1e-3


def test_inverse_cdf_clamps_a_value_at_the_total_to_the_last_positive_outcome():
    class AtTheTotal(np.random.Generator):
        def random(self, n):
            return np.ones(n)

    probs = np.zeros(CDF_SIZE)
    probs[[2, CDF_SIZE - 9]] = 0.5
    counts = sample_from_probabilities(probs, 10, AtTheTotal(np.random.PCG64(0)))
    assert counts[CDF_SIZE - 9] == 10 and counts.sum() == 10


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(["sparse", "trailing zeros", "first only", "dense"]),
    data=st.data(),
    n_shots=st.integers(1, 2000),
    seed=st.integers(0, 2**63 - 1),
)
def test_inverse_cdf_never_counts_a_zero_probability_outcome(shape, data, n_shots, seed):
    probs = np.zeros(CDF_SIZE)
    weights = st.floats(min_value=5e-324, max_value=1e300 / CDF_SIZE)
    if shape == "first only":
        probs[0] = data.draw(weights)
    elif shape == "dense":
        probs[:] = np.random.default_rng(data.draw(st.integers(0, 2**32))).random(CDF_SIZE)
        probs[data.draw(st.lists(st.integers(0, CDF_SIZE - 1), max_size=CDF_SIZE // 2))] = 0.0
    else:
        end = CDF_SIZE if shape == "sparse" else data.draw(st.integers(1, CDF_SIZE - 1))
        support = data.draw(st.lists(st.integers(0, end - 1), min_size=1, max_size=40, unique=True))
        probs[support] = data.draw(st.lists(weights, min_size=len(support), max_size=len(support)))
    assume(probs.sum() > 0)
    counts = sample_from_probabilities(probs, n_shots, seed)
    assert counts.shape == (CDF_SIZE,) and counts.sum() == n_shots
    assert not counts[probs == 0].any()


def test_inverse_cdf_draws_survive_perturbations_of_2e_16():
    # numpy's binomial flips on such changes; a uniform lands within 2e-13 of a
    # running-sum boundary about once in 10^9 draws of 1000 shots
    rng = np.random.default_rng(2026)
    size = 1 << 10
    assert size >= CDF_SIZE
    for seed in range(300):
        probs = exact_probabilities(random_circuit(rng, 10, 12))
        perturbed = probs + rng.uniform(-1.5e-16, 1.5e-16, size)  # plus rounding
        assert 0 < np.max(np.abs(perturbed - probs)) <= 2e-16
        counts = sample_from_probabilities(probs, 1000, seed)
        assert np.array_equal(sample_from_probabilities(perturbed, 1000, seed), counts)


@pytest.mark.parametrize("size", [32, CDF_SIZE])
@pytest.mark.parametrize(
    "case",
    ["zeros", "drift only", "nan", "inf", "-inf", "overflowing sum"],
)
def test_sample_from_probabilities_rejects_degenerate_vectors_before_drawing(size, case):
    probs = np.full(size, 1.0 / size)
    if case == "zeros":
        probs[:] = 0.0
    elif case == "drift only":
        probs[:] = -1e-17
    elif case == "overflowing sum":
        probs[:] = 1e308
    else:
        probs[size // 2] = float(case)

    class NoDraw(np.random.Generator):
        def multinomial(self, *args, **kwargs):
            raise AssertionError("drew from a degenerate vector")

        random = multinomial

    with np.errstate(over="ignore"), pytest.raises(ConfigurationError, match="cannot sample"):
        sample_from_probabilities(probs, 1000, NoDraw(np.random.PCG64(0)))


@pytest.mark.parametrize("seed", [1, 5, 99])
def test_estimate_expectation_matches_per_outcome_sum(seed):
    inst = make_instance("three_regular", 8, 1, "maxcut")
    circuit = random_circuit(np.random.default_rng(seed), 8, 16)
    counts = sample_shots(circuit, 1000, rng_seed=seed)
    total = 0.0
    for b in np.flatnonzero(counts):
        total += counts[b] * inst.ham[b]
    assert abs(estimate_expectation(counts, inst.ham) - total / 1000) <= 1e-12


def test_apply_gate_rejects_strided_real_or_wrong_length_vector():
    # a reshape of any of these would update a copy, or fail, instead of the state
    gate = GateApplication(GateKind.RX, (0,), angle=np.pi)
    strided = np.zeros(8, dtype=complex)
    strided[0] = 1.0
    real = np.array([1.0, 0.0, 0.0, 0.0])
    for bad in (strided[::2], real, ket_zero(2)[:3], ket_zero(2).reshape(2, 2), ket_zero(0)):
        before = bad.copy()
        with pytest.raises(ConfigurationError):
            apply_gate(bad, gate)
        assert np.array_equal(bad, before)
    assert np.array_equal(strided, [1, 0, 0, 0, 0, 0, 0, 0])
    state = ket_zero(2)
    apply_gate(state, gate)
    assert np.allclose(np.abs(state), [0.0, 1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# The compiled gate plan: below 2^CDF_MIN_QUBITS outcomes the view kernels'
# bits for every run that misses a qubit, their draws for the fused ones and
# from there on, the oracles' values, one plan kept.
# ---------------------------------------------------------------------------

PLAN_SIZES = st.integers(2, qsim.CDF_MIN_QUBITS - 1)  # where the bits decide the multinomial's draws
FUSED_SIZES = st.integers(qsim.CDF_MIN_QUBITS, qsim.PLAN_MAX_QUBITS + 2)
DIAGONAL = (GateKind.RZ, GateKind.RZZ)


@st.composite
def plan_circuits(draw, n, kind):
    """Gates of ``kind`` mixed among random gates of every kind, after an opening H layer or not."""
    layer = draw(st.sampled_from(["none", "full", "partial", "repeated"]))
    body = draw(st.lists(gate_applications(n, (kind,)), min_size=1, max_size=4))
    body += draw(st.lists(gate_applications(n), max_size=8))
    gates = leading_h_gates(draw, n, layer) + list(draw(st.permutations(body)))
    return Circuit(n, gates, np.array(draw(st.lists(ANGLES, min_size=N_PARAMS, max_size=N_PARAMS))))


def kernel_probabilities(circuit):
    amps = qsim._run_kernels(circuit.n_qubits, circuit.gates, circuit.params)
    return (amps * amps.conj()).real


def runs_on_every_qubit(circuit):
    """How many maximal runs of the body touch all n qubits: of Rx gates, or of two or more Rz and Rzz gates.

    The body follows the opening H layer when that puts one H on each of
    qubits 0 .. n-1; below 2^CDF_MIN_QUBITS outcomes these are the runs the
    plan fuses.
    """
    n, gates = circuit.n_qubits, circuit.gates
    opening = [g.qubits for g in gates[:n] if g.kind is GateKind.H]
    body = gates[n:] if sorted(opening) == [(q,) for q in range(n)] else gates

    def family(gate):
        return "rx" if gate.kind is GateKind.RX else "diagonal" if gate.kind in DIAGONAL else None

    count = 0
    for key, run in groupby(body, key=family):
        run = list(run)
        if key is not None and (key == "rx" or len(run) > 1):
            count += {q for g in run for q in g.qubits} == set(range(n))
    return count


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_plan_probabilities_equal_the_kernels_bit_for_bit(kind, data):
    """Bit for bit unless a run touches every qubit; the plan fuses exactly those, to float rounding."""
    circuit = data.draw(plan_circuits(data.draw(PLAN_SIZES), kind))
    plan = qsim._Plan(circuit.n_qubits, circuit.gates)
    amps = plan.run(circuit.params)
    expected = kernel_probabilities(circuit)
    fused = runs_on_every_qubit(circuit)
    assert len(diagonal_runs(plan) + rx_layers(plan)) == fused
    if fused:
        kernels = qsim._run_kernels(circuit.n_qubits, circuit.gates, circuit.params)
        assert np.max(np.abs(amps - kernels)) <= 1e-12
        assert np.max(np.abs(exact_probabilities(circuit) - expected)) <= 1e-12
        return
    assert np.array_equal((amps * amps.conj()).real, expected)
    assert np.array_equal(exact_probabilities(circuit), expected)


def diagonal_runs(plan):
    return [op for op, *_ in plan.steps if isinstance(op, qsim._DiagonalRun)]


def rx_layers(plan):
    return [op for op, *_ in plan.steps if isinstance(op, qsim._RxLayer)]


@pytest.mark.parametrize("algorithm", ["qaoa2", "maqaoa"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_baseline_plans_fold_their_layers_and_draw_the_kernels_shots(algorithm, n):
    circuit = build_baseline(algorithm, make_instance("three_regular", n, 1, "maxcut"))
    circuit.params[:] = np.random.default_rng(n).uniform(-np.pi, np.pi, circuit.n_params)
    plan = qsim._Plan(n, circuit.gates)
    layers = 2 if algorithm == "qaoa2" else 1
    # each cost and mixer layer touches every qubit, so it folds below 2^CDF_MIN_QUBITS outcomes too
    assert len(diagonal_runs(plan)) == len(rx_layers(plan)) == layers
    assert len(plan.steps) == 2 * layers + 1  # the layers, and the step out of the Rx layers' frame
    amps = plan.run(circuit.params)
    assert np.max(np.abs(amps - qsim._run_kernels(n, circuit.gates, circuit.params))) <= 1e-12
    for seed in (0, 1, 2):
        counts = sample_from_probabilities((amps * amps.conj()).real, 1000, seed)
        assert np.array_equal(counts, sample_from_probabilities(kernel_probabilities(circuit), 1000, seed))


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_fused_plans_draw_the_kernels_shots(kind, data):
    circuit = data.draw(plan_circuits(data.draw(FUSED_SIZES), kind))
    n = circuit.n_qubits
    plan = qsim._Plan(n, circuit.gates)
    amps = plan.run(circuit.params)
    kernels = qsim._run_kernels(n, circuit.gates, circuit.params)
    assert np.max(np.abs(amps - kernels)) <= 1e-12
    for seed in (0, 1, 2):
        counts = sample_from_probabilities((amps * amps.conj()).real, 1000, seed)
        assert np.array_equal(counts, sample_from_probabilities(kernel_probabilities(circuit), 1000, seed))
    # with an Rx(0) after each diagonal gate no run has two gates to fold, and the plan keeps the kernels' bits
    apart = GateApplication(GateKind.RX, (0,), angle=0.0)
    separated = [h for g in circuit.gates for h in ((g, apart) if g.kind in DIAGONAL else (g,))]
    unfused = Circuit(n, separated, circuit.params)
    plan = qsim._Plan(n, unfused.gates)
    assert diagonal_runs(plan) == []
    assert np.array_equal(plan.run(unfused.params), qsim._run_kernels(n, unfused.gates, unfused.params))


def cost_layer(rng, n, parameters, angles):
    """Rzz on about 3n/2 random pairs plus Rz on every third qubit and on each
    qubit no pair touches, in random order: a run on every qubit, of two or
    more gates (at n = 1, two Rz gates on qubit 0).

    ``parameters``: "shared" (parameter 0, random coeffs), "per gate" (one
    parameter each) or "fixed" (fixed angles); "mixed" draws each gate's form.
    """
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(3 * n // 2 if n > 1 else 0)}
    paired = {q for pair in pairs for q in pair}
    fields = [q for q in range(n) if q % 3 == 0 or q not in paired]
    sites = [((q,), GateKind.RZ) for q in fields + [0] * (n == 1)] + [(pair, GateKind.RZZ) for pair in sorted(pairs)]
    gates = []
    for i in rng.permutation(len(sites)):
        qubits, kind = sites[i]
        form = parameters if parameters != "mixed" else ("shared", "per gate", "fixed")[rng.integers(3)]
        if form == "fixed":
            gates.append(GateApplication(kind, qubits, angle=float(rng.uniform(-2 * np.pi, 2 * np.pi))))
        else:
            index = 0 if form == "shared" else len(angles)
            if form != "shared" or not angles:
                angles.append(float(rng.uniform(-np.pi, np.pi)))
            gates.append(GateApplication(kind, qubits, param_index=index, coeff=float(rng.uniform(-3, 3))))
    return gates


# n = 1-9 in full mode, where only runs on every qubit fold, and n = 10-12; four qubits need n >= 4
DIAGONAL_CASES = [
    (n, parameters)
    for parameters in ("shared", "per gate", "fixed", "mixed", "repeated", "few qubits")
    for n in range(1, qsim.CDF_MIN_QUBITS + 3)
    if parameters != "few qubits" or n >= 4
]


@pytest.mark.parametrize("n, parameters", DIAGONAL_CASES, ids=[f"{p}-{n}" for n, p in DIAGONAL_CASES])
def test_diagonal_runs_match_the_phase_oracle(n, parameters):
    rng = np.random.default_rng([n, len(parameters)])
    angles = []
    if parameters == "repeated":
        # the same layer on parameters 0, 1 and 0 again, apart by an Rx of angle 0
        layer = cost_layer(rng, n, "shared", angles)
        angles.append(float(rng.uniform(-np.pi, np.pi)))
        again = [GateApplication(g.kind, g.qubits, param_index=1, coeff=g.coeff) for g in layer]
        apart = GateApplication(GateKind.RX, (n - 1,), angle=0.0)
        runs = [layer, again, layer]
        gates = [*layer, apart, *again, apart, *layer]
    elif parameters == "few qubits":
        # a run on four of the n qubits, in no order, tabulated over their 2^4 bit patterns
        a, b, c, d = rng.choice(n, 4, replace=False).tolist()
        angles += rng.uniform(-np.pi, np.pi, 2).tolist()
        runs = [[
            GateApplication(GateKind.RZZ, (b, a), param_index=0, coeff=1.5),
            GateApplication(GateKind.RZ, (c,), angle=0.7),
            GateApplication(GateKind.RZZ, (d, c), param_index=1, coeff=-0.5),
            GateApplication(GateKind.RZ, (a,), param_index=0),
        ]]
        gates = runs[0]
    else:
        runs = [cost_layer(rng, n, parameters, angles)]
        gates = runs[0]
    circuit = Circuit(n, h_layer(n).gates + gates, np.array(angles))
    plan = qsim._Plan(n, circuit.gates)
    assert not plan.half  # the Rz gates are flip-odd, and below 2^CDF_MIN_QUBITS outcomes no plan halves
    fused = diagonal_runs(plan)
    # below 2^CDF_MIN_QUBITS outcomes only a run on every qubit folds (the four qubits miss some from n = 5 on)
    every = n >= qsim.CDF_MIN_QUBITS or all({q for g in run for q in g.qubits} == set(range(n)) for run in runs)
    assert len(fused) == (len(runs) if every else 0)
    phases = diagonal_phases(n, [g for run in runs for g in run], circuit.params)
    expected = np.exp(-1j * phases) / np.sqrt(1 << n)
    amps = plan.run(circuit.params)
    assert np.max(np.abs(amps - expected)) <= 1e-12
    assert np.max(np.abs(exact_probabilities(circuit) - 1.0 / (1 << n))) <= 1e-12
    if fused:
        assert len({id(run.index) for run in fused}) == 1  # the repeated runs share one table
    else:
        assert np.array_equal(amps, qsim._run_kernels(n, circuit.gates, circuit.params))


def rx_run(n, rng, parameters):
    """Rx gates on all n qubits, and the parameter vector they read.

    ``parameters``: "shared" (parameter 0 with coeff 2, as in qaoa), "per
    qubit" (one parameter each, as in maqaoa), "fixed" (fixed angles),
    "repeated" (a second gate on one qubit, on its own parameter) or
    "unsorted" (shared, on the qubits in random order).
    """
    theta = rng.uniform(-np.pi, np.pi, n + 1)
    order = rng.permutation(n).tolist() if parameters == "unsorted" else range(n)
    if parameters == "per qubit":
        return [GateApplication(GateKind.RX, (q,), param_index=q) for q in order], theta
    if parameters == "fixed":
        return [GateApplication(GateKind.RX, (q,), angle=float(rng.uniform(-2 * np.pi, 2 * np.pi))) for q in order], theta
    gates = [GateApplication(GateKind.RX, (q,), param_index=0, coeff=2.0) for q in order]
    if parameters == "repeated":
        gates.insert(int(rng.integers(n)), GateApplication(GateKind.RX, (int(rng.integers(n)),), param_index=1, coeff=-0.5))
    return gates, theta


def rx_run_unitaries(n, gates, theta):
    """Per qubit, the dense 2x2 unitary of the run's gates on it, in order, from the oracles."""
    factors = [np.eye(2, dtype=complex) for _ in range(n)]
    for g in gates:
        (q,) = g.qubits
        factors[q] = gate_list_unitary([GateApplication(g.kind, (0,), g.param_index, g.coeff, g.angle)], 1, theta) @ factors[q]
    return factors


def test_kron_chain_apply_is_the_kron_chain_product():
    rng = np.random.default_rng(4)
    factors = [rotation_unitary(axis, (0,), float(rng.uniform(-np.pi, np.pi)), 1) for axis in "xyzx"]
    state = random_state(4, 4)
    assert np.max(np.abs(kron_chain_apply(factors, state) - kron_chain(factors) @ state)) <= 1e-14


RX_SIZES = range(qsim.CDF_MIN_QUBITS, qsim.CDF_MIN_QUBITS + 4)  # every residue of n mod 4, so every i^n


def s_dagger_frame(size):
    """D = diag(1, -i) on every qubit: the frame phi = D psi that Rx layers act on, (-i)^popcount(b)."""
    return np.array([(-1j) ** bin(b).count("1") for b in range(size)])


@pytest.mark.parametrize("n", range(1, RX_SIZES.stop))  # below RX_SIZES in full mode only
@pytest.mark.parametrize("parameters", ["shared", "per qubit", "fixed", "repeated", "unsorted"])
def test_rx_layers_match_the_dense_oracle(n, parameters):
    assert any(size % qsim.RX_BLOCK_QUBITS for size in RX_SIZES)  # some n splits into unequal blocks
    assert sum(qsim._rx_blocks(n)) == n
    rng = np.random.default_rng([n, len(parameters)])
    gates, theta = rx_run(n, rng, parameters)
    # the full plan, and from 2^CDF_MIN_QUBITS outcomes on half mode
    for opening in ([], h_layer(n).gates) if n >= qsim.CDF_MIN_QUBITS else ([],):
        plan = qsim._Plan(n, opening + gates)
        assert plan.half == bool(opening)
        (layer,) = rx_layers(plan)
        state = random_state(n, n)
        if plan.half:  # a flip-symmetric state, given by its first half
            state = (state + state[::-1]) / np.linalg.norm(state + state[::-1])
        expected = kron_chain_apply(rx_run_unitaries(n, gates, theta), state)
        size = plan.start.size
        frame = s_dagger_frame(size)  # the layer maps phi = D psi to D psi'
        assert np.max(np.abs(layer(frame * state[:size], theta) * frame.conj() - expected[:size])) <= 1e-12
        # in a circuit, after gates that make the state no Rx eigenstate: a layer
        # of Ry gates, or in half mode a ring of Rzz gates, which keeps the flip symmetry
        kind = GateKind.RZZ if plan.half else GateKind.RY
        mixing = [
            GateApplication(kind, (q, (q + 1) % n) if plan.half else (q,), angle=float(rng.uniform(-np.pi, np.pi)))
            for q in range(n)
        ]
        circuit = Circuit(n, h_layer(n).gates + mixing + gates, theta)
        plan = qsim._Plan(n, circuit.gates)
        assert len(rx_layers(plan)) == 1 and plan.half == bool(opening)
        kernels = qsim._run_kernels(n, circuit.gates, theta)
        assert np.max(np.abs(run_circuit(circuit) - kernels)) <= 1e-12


def frame_changes(plan):
    """The plan's steps that only multiply by D or its conjugate: neither a fused run nor a tabulated gate."""
    return sum(table is None and not isinstance(op, (qsim._RxLayer, qsim._DiagonalRun)) for op, table, *_ in plan.steps)


@pytest.mark.parametrize("n", RX_SIZES)
@pytest.mark.parametrize("mode", ["full", "half"])
@pytest.mark.parametrize("between", ["ryz", "cost layer"])
def test_rx_layers_change_frames_only_where_a_step_reads_psi(n, mode, between):
    """Two Rx layers, apart by a Ryz gate, which reads psi and so takes the
    vector out of the layers' frame and back, or by a cost layer, which is
    diagonal like the frame and so keeps it. Full mode opens with an Ry
    gate, which the frame must follow; half mode opens with the H layer
    alone, and so starts in the frame."""
    rng = np.random.default_rng([n, len(mode), len(between)])
    theta = rng.uniform(-np.pi, np.pi, 4)
    cost = [GateApplication(GateKind.RZZ, (q, (q + 1) % n), param_index=0, coeff=1.0) for q in range(n)]
    opening = h_layer(n).gates
    if mode == "full":
        cost.append(GateApplication(GateKind.RZ, (2,), param_index=0, coeff=0.5))
        opening.append(GateApplication(GateKind.RY, (1,), param_index=3))
    mixer = [GateApplication(GateKind.RX, (q,), param_index=1, coeff=2.0) for q in range(n)]
    middle = [GateApplication(GateKind.RYZ, (0, n - 1), param_index=2)] if between == "ryz" else cost
    circuit = Circuit(n, opening + cost + mixer + middle + mixer, theta)
    plan = qsim._Plan(n, circuit.gates)
    assert plan.half == (mode == "half") and len(rx_layers(plan)) == 2
    # out of the frame at the end, plus out of it and back into it around the
    # Ryz gate, plus into it after the Ry gate
    assert frame_changes(plan) == 1 + 2 * (between == "ryz") + (mode == "full")
    amps = plan.run(theta)
    assert np.max(np.abs(amps - qsim._run_kernels(n, circuit.gates, theta))) <= 1e-12
    for seed in (0, 1, 2):
        counts = sample_from_probabilities((amps * amps.conj()).real, 1000, seed)
        assert np.array_equal(counts, sample_from_probabilities(kernel_probabilities(circuit), 1000, seed))


def test_an_rx_run_that_misses_a_qubit_builds_no_rx_layer():
    n = qsim.CDF_MIN_QUBITS
    rng = np.random.default_rng(8)
    gates, theta = rx_run(n, rng, "per qubit")
    missing = [g for g in gates if g.qubits != (3,)]
    split = gates[:5] + [GateApplication(GateKind.RZ, (0,), angle=0.3)] + gates[5:]  # two runs, each missing qubits
    for body in (missing, split):
        circuit = Circuit(n, h_layer(n).gates + body, theta)
        plan = qsim._Plan(n, circuit.gates)
        assert rx_layers(plan) == []
        assert np.array_equal(plan.run(theta), qsim._run_kernels(n, circuit.gates, theta))


# Rotations whose generator has an even count of y and z factors commute with
# the global bit flip X^n, so from the uniform state they keep psi(b) = psi(~b).
FLIP_EVEN = tuple(k for k in PARAMETRIC_KINDS if sum(a in "yz" for a in rotation_axes(k)) % 2 == 0)
FLIP_ODD = tuple(k for k in PARAMETRIC_KINDS if k not in FLIP_EVEN)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flip_even_rotations_keep_the_uniform_state_flip_symmetric_bit_for_bit(data):
    n = data.draw(st.integers(2, 12))
    body = data.draw(st.lists(gate_applications(n, FLIP_EVEN), max_size=10))
    theta = np.array(data.draw(st.lists(ANGLES, min_size=N_PARAMS, max_size=N_PARAMS)))
    psi = qsim._run_kernels(n, h_layer(n).gates + body, theta)
    assert np.array_equal(psi, psi[::-1])


def half_mode(plan):
    """True when the plan runs on the first 2^(n-1) amplitudes."""
    return plan.start.size == 1 << (plan.n - 1)


def flip_even_body(n, rng):
    """Every flip-even kind, several on qubit n-1: a two-gate Rzz run on four
    qubits, an Rx layer, a partial Rx run and one gate of each two-qubit kind."""
    top = n - 1
    gates = [
        GateApplication(GateKind.RZZ, (top, 0), param_index=0, coeff=1.5),
        GateApplication(GateKind.RZZ, (2, 3), angle=0.7),
        *(GateApplication(GateKind.RX, (q,), param_index=1, coeff=2.0) for q in range(n)),
        GateApplication(GateKind.RX, (top,), param_index=2),
        GateApplication(GateKind.RX, (1,), angle=-0.4),
    ]
    for i, kind in enumerate(k for k in FLIP_EVEN if k in TWO_QUBIT_KINDS):
        pair = (top, i) if i % 2 else (i, top)
        gates.append(GateApplication(kind, pair, param_index=3 + i % 2, coeff=float(rng.uniform(-2, 2))))
    return gates, rng.uniform(-np.pi, np.pi, 5)


def test_half_mode_is_chosen_exactly_for_flip_symmetric_circuits():
    assert qsim._FLIP_EVEN_KINDS == set(FLIP_EVEN) == {
        GateKind.RX, GateKind.RXX, GateKind.RYY, GateKind.RZZ, GateKind.RYZ, GateKind.RZY
    }
    n = qsim.CDF_MIN_QUBITS + 1
    rng = np.random.default_rng(15)
    body, theta = flip_even_body(n, rng)
    layer = h_layer(n).gates

    def plan_of(gates, m=n):
        plan = qsim._Plan(m, gates)
        kernels = qsim._run_kernels(m, gates, theta)
        assert np.max(np.abs(plan.run(theta) - kernels)) <= 1e-12
        return plan

    plan = plan_of(layer + body)
    assert half_mode(plan) and plan.half
    assert diagonal_runs(plan) and rx_layers(plan) and len(plan.steps) > 2
    assert all(op.index.size == 1 << (n - 1) for op in diagonal_runs(plan))
    assert half_mode(plan_of(layer))  # an empty body has no flip-odd gate
    for kind in FLIP_ODD:
        odd = GateApplication(kind, (n - 1, 1) if kind in TWO_QUBIT_KINDS else (n - 1,), angle=0.9)
        assert not half_mode(plan_of(layer + body + [odd])), kind
    for other in (GateApplication(GateKind.H, (3,)), GateApplication(GateKind.CX, (n - 1, 2))):
        assert not half_mode(plan_of(layer + body[:4] + [other] + body[4:])), other.kind
    assert not half_mode(plan_of(body))  # no H layer: not the uniform start
    assert not half_mode(plan_of(layer[1:] + body))  # a partial layer
    small = qsim.CDF_MIN_QUBITS - 1
    small_body, theta = flip_even_body(small, rng)
    gates = h_layer(small).gates + small_body
    plan = plan_of(gates, small)
    assert not half_mode(plan)  # below 2^CDF_MIN_QUBITS outcomes the plan runs on the full vector
    assert rx_layers(plan) and not diagonal_runs(plan)  # only the Rx run touches every qubit
    # without the Rx on qubit 0 every run misses a qubit, and the plan keeps the kernels' bits
    gates = [g for g in gates if not (g.kind is GateKind.RX and g.qubits == (0,))]
    plan = plan_of(gates, small)
    assert not half_mode(plan) and not rx_layers(plan) and not diagonal_runs(plan)
    assert np.array_equal(plan.run(theta), qsim._run_kernels(small, gates, theta))


@pytest.mark.parametrize("n", range(qsim.CDF_MIN_QUBITS, qsim.PLAN_MAX_QUBITS + 1))
def test_the_ryz_chain_runs_in_half_mode_with_the_kernels_bits(n):
    circuit = build_linear_ryz(n)
    circuit.params[:] = np.random.default_rng(n).uniform(-np.pi, np.pi, circuit.n_params)
    plan = qsim._Plan(n, circuit.gates)
    assert half_mode(plan) and diagonal_runs(plan) == [] and rx_layers(plan) == []
    assert np.array_equal(plan.run(circuit.params), qsim._run_kernels(n, circuit.gates, circuit.params))


@pytest.mark.parametrize("algorithm", ["qaoa1", "qaoa2", "maqaoa", "qaoaplus"])
@pytest.mark.parametrize("n", range(10, 15))
def test_maxcut_baselines_run_in_half_mode_and_draw_the_kernels_shots(algorithm, n):
    circuit = build_baseline(algorithm, make_instance("cycle" if n % 2 else "three_regular", n, 1, "maxcut"))
    circuit.params[:] = np.random.default_rng(n).uniform(-np.pi, np.pi, circuit.n_params)
    plan = qsim._Plan(n, circuit.gates)
    assert half_mode(plan) and rx_layers(plan)
    amps = plan.run(circuit.params)
    assert np.max(np.abs(amps - qsim._run_kernels(n, circuit.gates, circuit.params))) <= 1e-12
    for seed in (0, 1, 2):
        counts = sample_from_probabilities((amps * amps.conj()).real, 1000, seed)
        assert np.array_equal(counts, sample_from_probabilities(kernel_probabilities(circuit), 1000, seed))


def agent_circuit(n, seed):
    """An H layer plus 2n actions drawn uniformly from the agent's action set, with random angles."""
    space = action_space(n)
    rng = np.random.default_rng([n, seed])
    circuit = h_layer(n)
    for action in rng.integers(space.size, size=2 * n):
        circuit = space.apply(circuit, int(action))
    circuit.params[:] = rng.uniform(-np.pi, np.pi, circuit.n_params)
    return circuit


@pytest.mark.parametrize("source", ["minvertexcover", "agent 0", "agent 1", "agent 2"])
def test_circuits_with_flip_odd_gates_keep_the_full_plan(source):
    n = qsim.CDF_MIN_QUBITS + 2
    if source == "minvertexcover":
        circuit = build_baseline("qaoa2", make_instance("three_regular", n, 1, "minvertexcover"))
        circuit.params[:] = np.random.default_rng(n).uniform(-np.pi, np.pi, circuit.n_params)
    else:
        circuit = agent_circuit(n, int(source.split()[1]))
    assert any(g.kind in FLIP_ODD for g in circuit.gates)  # Rz fields, or the agent's Ry, Rz, Rxz, ...
    plan = qsim._Plan(n, circuit.gates)
    assert plan.start.size == 1 << n and not plan.half
    assert np.max(np.abs(plan.run(circuit.params) - qsim._run_kernels(n, circuit.gates, circuit.params))) <= 1e-12


def test_full_plan_probabilities_are_contiguous_from_cdf_sizes_on():
    circuit = agent_circuit(qsim.CDF_MIN_QUBITS, 0)
    probs = exact_probabilities(circuit)
    assert not qsim._last_plan.half
    amps = run_circuit(circuit)
    assert probs.flags.c_contiguous and probs.dtype == np.float64
    assert np.array_equal(probs.view(np.uint64), (amps * amps.conj()).real.view(np.uint64))


# the n = 12 MaxCut baselines, which run in half mode, and the four cells of
# the benchmark's matrix_n8, whose layers fold though their draws are multinomial
PROTOCOL_CASES = {
    "qaoa2": ("three_regular", 12, 1, "maxcut", "qaoa2"),
    "maqaoa": ("three_regular", 12, 1, "maxcut", "maqaoa"),
    **{
        f"grid2d-8-{kind}-{algorithm}": ("grid2d", 8, 0, kind, algorithm)
        for kind in ("maxcut", "minvertexcover")
        for algorithm in ("qaoa1", "maqaoa")
    },
}


@pytest.mark.parametrize("case", PROTOCOL_CASES.values(), ids=PROTOCOL_CASES.keys())
def test_protocol_estimates_equal_the_kernels_draw_for_draw(case, monkeypatch):
    topology, n, graph_seed, kind, algorithm = case
    inst = make_instance(topology, n, graph_seed, kind)
    circuit = build_baseline(algorithm, inst)

    def protocol():
        return [evaluate_circuit(circuit, inst, 2, 1000, seed).per_run_estimates for seed in (0, 1)]

    fused = protocol()
    plan = qsim._last_plan
    assert diagonal_runs(plan) and rx_layers(plan) and half_mode(plan) == (n >= qsim.CDF_MIN_QUBITS)

    def kernels(circuit, params=None, mirror=True):  # the full vector, also where the plan gives half of it
        theta = circuit.params if params is None else np.asarray(params, dtype=float)
        return qsim._run_kernels(circuit.n_qubits, circuit.gates, theta)

    monkeypatch.setattr(qsim, "run_circuit", kernels)
    assert protocol() == fused
    if n > qsim.CDF_MIN_QUBITS:
        # the optimizer drew over bit-flip classes, from the kernels' full vector in the second protocol
        assert qsim.draws_flip_classes(circuit) and np.array_equal(inst.ham, inst.ham[::-1])
    else:
        assert not qsim.draws_flip_classes(circuit)


HALF_MODE_SOURCES = ["qaoa1", "qaoa2", "maqaoa", "qaoaplus", "linear"]


def half_mode_circuit(source, n):
    """A MaxCut baseline or the Ryz chain at random angles, and its instance (3-regular, or a cycle for odd n)."""
    inst = make_instance("cycle" if n % 2 else "three_regular", n, 1, "maxcut")
    circuit = build_baseline(source, inst)
    circuit.params[:] = np.random.default_rng([n, len(source)]).uniform(-np.pi, np.pi, circuit.n_params)
    return circuit, inst


@pytest.mark.parametrize("source", HALF_MODE_SOURCES)
@pytest.mark.parametrize("n", range(10, 15))
def test_half_mode_probabilities_square_the_half_and_mirror_them_bit_for_bit(source, n):
    circuit, _ = half_mode_circuit(source, n)
    probs = exact_probabilities(circuit)
    assert half_mode(qsim._last_plan)
    amps = run_circuit(circuit)
    assert amps.shape == (1 << n,)  # run_circuit still gives every amplitude
    expected = (amps * amps.conj()).real
    assert probs.flags.c_contiguous and probs.dtype == np.float64
    assert np.array_equal(probs.view(np.uint64), expected.view(np.uint64))


def flip_classes(probs):
    """p(b) + p(~b) for b < 2^(n-1)."""
    h = probs.size // 2
    return probs[:h] + probs[h:][::-1]


@pytest.mark.parametrize("source", HALF_MODE_SOURCES)
@pytest.mark.parametrize("n", range(11, 15))
def test_folded_probabilities_are_the_flip_class_sums_bit_for_bit_in_half_mode(source, n):
    circuit, inst = half_mode_circuit(source, n)
    assert qsim.draws_flip_classes(circuit)
    folded = exact_probabilities(circuit, folded=True)
    assert half_mode(qsim._last_plan)
    probs = exact_probabilities(circuit)
    assert folded.shape == (1 << (n - 1),) and folded.flags.c_contiguous
    assert np.array_equal(folded.view(np.uint64), flip_classes(probs).view(np.uint64))
    energy = inst.ham
    assert np.array_equal(energy, energy[::-1])  # MaxCut: E(b) = E(~b)
    assert abs(folded @ energy[: folded.size] - probs @ energy) <= 1e-12


@pytest.mark.parametrize("source", ["minvertexcover", "agent 0", "agent 1", "ryz chain n=9", "ryz chain n=16"])
def test_folded_probabilities_of_full_runs_are_the_flip_class_sums(source):
    if source == "minvertexcover":
        circuit = build_baseline("qaoa2", make_instance("three_regular", 12, 1, "minvertexcover"))
    elif source.startswith("agent"):
        circuit = agent_circuit(12, int(source.split()[1]))
    else:  # flip-symmetric, but below half mode's sizes or above the plan's
        circuit = build_linear_ryz(int(source.split("=")[1]))
    circuit.params[:] = np.random.default_rng(7).uniform(-np.pi, np.pi, circuit.n_params)
    assert not qsim.draws_flip_classes(circuit)
    folded = exact_probabilities(circuit, folded=True)
    if circuit.n_qubits <= qsim.PLAN_MAX_QUBITS:
        assert not qsim._last_plan.half
    assert folded.shape == (1 << (circuit.n_qubits - 1),)
    assert np.max(np.abs(folded - flip_classes(exact_probabilities(circuit)))) <= 1e-15
    counts = sample_shots(circuit, 1000, 3, folded=True)
    assert counts.shape == folded.shape and counts.sum() == 1000


def test_folded_estimates_have_the_full_estimates_mean_and_variance():
    circuit, inst = half_mode_circuit("qaoa2", 12)
    half = inst.ham[: 1 << 11]
    folded = np.array([estimate_expectation(sample_shots(circuit, 1000, s, folded=True), half) for s in range(2000)])
    full = np.array([estimate_expectation(sample_shots(circuit, 1000, s), inst.ham) for s in range(2000, 4000)])
    assert len(set(folded.tolist())) > 100
    exact = float(exact_probabilities(circuit) @ inst.ham)
    for a in (folded, full):
        assert abs(a.mean() - exact) <= 4 * a.std() / np.sqrt(a.size)
    mean_se = np.sqrt(folded.var() / folded.size + full.var() / full.size)
    assert abs(folded.mean() - full.mean()) <= 4 * mean_se

    def variance_se(a):
        """Standard error of the sample variance, from the fourth central moment."""
        centered = a - a.mean()
        return np.sqrt((np.mean(centered**4) - a.var() ** 2) / a.size)

    assert abs(folded.var() - full.var()) <= 4 * np.hypot(variance_se(folded), variance_se(full))


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_plan_and_kernels_match_the_oracle(kind, data):
    circuit = data.draw(plan_circuits(data.draw(st.integers(2, 6)), kind))
    oracle = circuit_unitary(circuit)[:, 0]
    plan = qsim._Plan(circuit.n_qubits, circuit.gates).run(circuit.params)
    kernels = qsim._run_kernels(circuit.n_qubits, circuit.gates, circuit.params)
    for amps in (plan, kernels):
        assert np.max(np.abs(amps - oracle)) <= 1e-10
    assert np.max(np.abs(exact_probabilities(circuit) - circuit_probabilities(circuit))) <= 1e-10


def test_plan_cache_holds_one_plan_after_many_circuits():
    rng = np.random.default_rng(11)
    for i in range(1000):
        circuit = random_circuit(rng, 2 + i % 5, 1 + i % 7)
        exact_probabilities(circuit)
    gc.collect()
    assert sum(isinstance(o, qsim._Plan) for o in gc.get_objects()) <= 1


def test_plan_is_rebuilt_when_the_gate_list_changes_in_place():
    circuit = h_layer(3).appended(GateKind.RYZ, (0, 2), 0.7)
    first = exact_probabilities(circuit)
    assert np.array_equal(first, kernel_probabilities(circuit))
    circuit.gates.append(GateApplication(GateKind.RZX, (1, 0), angle=1.1))
    second = exact_probabilities(circuit)
    assert not np.array_equal(first, second)
    assert np.array_equal(second, kernel_probabilities(circuit))


def test_an_opening_h_layer_must_cover_qubits_0_to_n_minus_1():
    """n distinct H qubits are no H layer when one of them is not below n: the gate is out of range."""
    for n in (4, qsim.PLAN_MAX_QUBITS + 1):  # the plan, and the kernels above its sizes
        circuit = h_layer(n)
        circuit.gates[0] = GateApplication(GateKind.H, (n + 3,))
        with pytest.raises(InvalidGateError, match="out of range"):
            run_circuit(circuit)
        circuit.gates[0] = GateApplication(GateKind.H, (0,))
        circuit.gates.append(GateApplication(GateKind.H, (n + 3,)))  # the same qubit in the body
        with pytest.raises(InvalidGateError, match="out of range"):
            run_circuit(circuit)


def test_kernel_runs_leave_the_kept_plan():
    """Above PLAN_MAX_QUBITS neither the kernels nor the flip-class rule touch the kept plan."""
    circuit, _ = half_mode_circuit("qaoa2", 12)
    assert qsim.draws_flip_classes(circuit)  # builds the n=12 plan, which the first run then reuses
    plan = qsim._last_plan
    assert plan.half and plan.matches(12, circuit.gates)
    big = build_linear_ryz(qsim.PLAN_MAX_QUBITS + 1)
    assert not qsim.draws_flip_classes(big)
    assert np.array_equal(run_circuit(big), qsim._run_kernels(big.n_qubits, big.gates, big.params))
    assert qsim._last_plan is plan
    exact_probabilities(circuit)
    assert qsim._last_plan is plan


def test_plan_runs_new_angles_without_a_rebuild():
    circuit = h_layer(4).appended(GateKind.RXY, (3, 1), 0.2).appended(GateKind.RZ, (2,), -0.4)
    exact_probabilities(circuit)
    plan = qsim._last_plan
    for theta in ([0.5, 1.5], [-2.0, 0.1]):
        expected = kernel_probabilities(Circuit(circuit.n_qubits, circuit.gates, theta))
        assert np.array_equal(exact_probabilities(circuit, np.array(theta)), expected)
    assert qsim._last_plan is plan


def test_threads_get_the_plan_of_their_own_circuit():
    rng = np.random.default_rng(5)
    circuits = [random_circuit(rng, 2 + i % 3, 6) for i in range(8)]
    expected = [exact_probabilities(c).copy() for c in circuits]  # each plan's own, built on one thread
    failures = []

    def simulate(i):
        try:
            for _ in range(1500):
                if not np.array_equal(exact_probabilities(circuits[i]), expected[i]):
                    failures.append(i)
        except Exception as exc:  # a plan swapped mid-call can raise anywhere
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=simulate, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
