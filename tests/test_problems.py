"""Graph generators, QUBO formulations and brute-force spectra."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlansatz.config import check_objective
from rlansatz.errors import ConfigurationError
from rlansatz.problems import (
    Graph,
    ProblemKind,
    Topology,
    brute_force_spectrum,
    build_qubo,
    feasible_mask,
    generate_graph,
    grid_shape,
    make_instance,
    qubo_to_hamiltonian,
    qubo_to_ising,
    QuboMatrix,
)

from _oracles import index_bits, is_feasible, qubo_table_einsum, qubo_value

# The instances exercised by the exhaustive checks (all n <= 12).
TEST_MATRIX = [
    ("cycle", 3, 0, None),
    ("cycle", 6, 0, None),
    ("star", 5, 0, None),
    ("star", 8, 0, None),
    ("grid2d", 6, 0, None),
    ("grid2d", 8, 0, None),
    ("three_regular", 8, 1, None),
    ("three_regular", 12, 1, None),
    ("grid2d", 12, 0, None),
    ("erdos_renyi", 6, 7, 0.2),
    ("erdos_renyi", 8, 3, 0.5),
    ("erdos_renyi", 8, 4, 0.8),
]
ALL_KINDS = list(ProblemKind)


def iter_test_instances():
    for topology, n, seed, er_p in TEST_MATRIX:
        for kind in ALL_KINDS:
            yield make_instance(topology, n, seed, kind, er_p=er_p)


# --- graph generators -------------------------------------------------------

def test_star_graph_shape():
    g = generate_graph("star", 8, seed=42)
    assert len(g.edges) == 7
    assert all(0 in e for e in g.edges)


def test_cycle_graph_shape():
    g = generate_graph("cycle", 5, seed=0)
    assert set(g.edges) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    assert all(sum(v in e for e in g.edges) == 2 for v in range(5))


def test_three_regular_degrees_many_seeds():
    for seed in range(100):
        g = generate_graph("three_regular", 8, seed=seed)
        assert all(sum(v in e for e in g.edges) == 3 for v in range(8))
        assert len(g.edges) == 12


def test_grid_factorizations():
    assert grid_shape(8) == (2, 4)
    assert grid_shape(14) == (2, 7)
    assert grid_shape(16) == (4, 4)
    with pytest.raises(ConfigurationError):
        grid_shape(13)  # prime > 3


def test_grid_edges_and_degrees():
    g = generate_graph("grid2d", 6, seed=0)  # 2 x 3
    assert len(g.edges) == 7  # 2*(3-1) + 3*(2-1)
    assert max(sum(v in e for e in g.edges) for v in range(6)) <= 4


def test_erdos_renyi_seeded_and_probability():
    g1 = generate_graph("erdos_renyi", 8, seed=5, er_p=0.5)
    g2 = generate_graph("erdos_renyi", 8, seed=5, er_p=0.5)
    assert g1.edges == g2.edges
    g3 = generate_graph("erdos_renyi", 8, seed=6, er_p=0.5)
    assert g1.edges != g3.edges  # overwhelmingly likely across C(8,2)=28 coin flips
    empty = generate_graph("erdos_renyi", 8, seed=5, er_p=0.0)
    assert len(empty.edges) == 0
    full = generate_graph("erdos_renyi", 8, seed=5, er_p=1.0)
    assert len(full.edges) == 28


def test_generator_postconditions_many_seeds():
    for seed in range(100):
        star = generate_graph("star", 6, seed=seed)
        assert len(star.edges) == 5
        cyc = generate_graph("cycle", 7, seed=seed)
        assert len(cyc.edges) == 7
        er = generate_graph("erdos_renyi", 6, seed=seed, er_p=0.5)
        assert 0 <= len(er.edges) <= 15


def test_infeasible_topologies_rejected():
    with pytest.raises(ConfigurationError):
        generate_graph("three_regular", 3, seed=0)
    with pytest.raises(ConfigurationError):
        generate_graph("star", 2, seed=0)
    with pytest.raises(ConfigurationError):
        generate_graph("cycle", 2, seed=0)
    with pytest.raises(ConfigurationError):
        generate_graph("erdos_renyi", 5, seed=0)  # missing er_p


# --- QUBO formulations ------------------------------------------------------

def brute_minimum(qubo):
    return min(qubo_value(qubo.q, qubo.offset, index_bits(b, qubo.n)) for b in range(1 << qubo.n))


def test_maxcut_k3_optimum():
    g = generate_graph("cycle", 3, seed=0)
    qubo = build_qubo(g, "maxcut")
    assert brute_minimum(qubo) == -2.0


def test_minvertexcover_k3_optimum_and_violations():
    g = generate_graph("cycle", 3, seed=0)
    qubo = build_qubo(g, "minvertexcover", penalty=2.0)
    values = {b: qubo_value(qubo.q, qubo.offset, index_bits(b, 3)) for b in range(8)}
    assert min(values.values()) == 2.0  # any 2-vertex cover
    for b in (0b001, 0b010, 0b100):
        assert values[b] == 3.0  # cover cost 1 + one violated edge * 2


def test_maxclique_k3_optimum():
    g = generate_graph("cycle", 3, seed=0)
    qubo = build_qubo(g, "maxclique", penalty=2.0)
    values = [qubo_value(qubo.q, qubo.offset, index_bits(b, 3)) for b in range(8)]
    assert min(values) == -3.0
    assert values[0b111] == -3.0


def test_constrained_kinds_require_penalty_above_one():
    g = generate_graph("cycle", 3, seed=0)
    with pytest.raises(ConfigurationError):
        build_qubo(g, "minvertexcover", penalty=1.0)
    build_qubo(g, "maxcut", penalty=0.0)  # penalty ignored for maxcut


# --- energy tables ----------------------------------------------------------

def test_zero_qubo_gives_zero_table():
    qubo = QuboMatrix(3, np.zeros((3, 3)))
    assert np.array_equal(qubo_to_hamiltonian(qubo), np.zeros(8))


def test_single_variable_table():
    qubo = QuboMatrix(1, np.array([[-1.0]]))
    assert np.array_equal(qubo_to_hamiltonian(qubo), [0.0, -1.0])


def test_k3_maxcut_table_entries():
    inst = make_instance("cycle", 3, 0, "maxcut")
    assert inst.ham[0b000] == 0.0
    assert inst.ham[0b001] == -2.0


def test_energy_table_matches_qubo_exhaustively():
    for inst in iter_test_instances():
        n = inst.n
        for b in range(1 << n):
            expected = qubo_value(inst.qubo.q, inst.qubo.offset, index_bits(b, n))
            assert inst.ham[b] == pytest.approx(expected, abs=1e-9), (inst.kind, b)


@pytest.mark.parametrize("penalty", [2.0, 2.3, 1.7])
def test_energy_table_is_the_einsum_bit_for_bit(penalty):
    for topology, n, seed, er_p in TEST_MATRIX:
        graph = generate_graph(topology, n, seed, er_p=er_p)
        for kind in ALL_KINDS:
            qubo = build_qubo(graph, kind, penalty)
            table = qubo_to_hamiltonian(qubo)
            assert table.tobytes() == qubo_table_einsum(qubo.q, qubo.offset).tobytes(), (topology, n, kind)


def test_random_dense_tables_are_the_einsum_bit_for_bit():
    rng = np.random.default_rng(24)
    for n in range(1, 13):
        for _ in range(4):
            qubo = QuboMatrix(n, np.triu(rng.standard_normal((n, n))), float(rng.standard_normal()))
            assert qubo_to_hamiltonian(qubo).tobytes() == qubo_table_einsum(qubo.q, qubo.offset).tobytes(), n


def test_largest_table_matches_qubo_at_sampled_indices():
    from rlansatz.circuits import MAX_QUBITS

    inst = make_instance("three_regular", MAX_QUBITS, 1, "minvertexcover", 2.3)
    rng = np.random.default_rng(20)
    for b in [0, (1 << MAX_QUBITS) - 1, *rng.integers(1 << MAX_QUBITS, size=198)]:
        expected = qubo_value(inst.qubo.q, inst.qubo.offset, index_bits(int(b), MAX_QUBITS))
        assert inst.ham[b] == pytest.approx(expected, abs=1e-9), b


def test_maxcut_tables_are_spin_symmetric_with_zero_max():
    full = (1 << 8) - 1
    for topology, n, seed, er_p in TEST_MATRIX:
        if n != 8:
            continue
        inst = make_instance(topology, n, seed, "maxcut", er_p=er_p)
        assert inst.spectrum.e_max == 0.0
        flipped = inst.ham[[b ^ full for b in range(1 << n)]]
        assert np.array_equal(inst.ham, flipped)


def test_ising_form_reproduces_qubo_values():
    rng = np.random.default_rng(8)
    for inst in [make_instance("cycle", 5, 0, k) for k in ALL_KINDS]:
        couplings, h, const = qubo_to_ising(inst.qubo)
        for _ in range(20):
            b = int(rng.integers(1 << inst.n))
            bits = index_bits(b, inst.n)
            z = [1 - 2 * x for x in bits]
            value = const + sum(h[i] * z[i] for i in range(inst.n))
            value += sum(j * z[i1] * z[i2] for (i1, i2), j in couplings.items())
            assert value == pytest.approx(inst.ham[b], abs=1e-9)


# --- spectra ----------------------------------------------------------------

def test_k3_maxcut_spectrum():
    inst = make_instance("cycle", 3, 0, "maxcut")
    assert inst.spectrum.e_min == -2.0
    assert inst.spectrum.e_max == 0.0
    assert inst.spectrum.feasibility_threshold_ar == 0.0
    assert not inst.spectrum.degenerate


def test_k3_minvertexcover_spectrum():
    inst = make_instance("cycle", 3, 0, "minvertexcover")
    s = inst.spectrum
    assert s.e_min == 2.0
    assert s.e_max == 6.0  # empty set: 3 violated edges at P=2
    assert s.e_feasible_worst == 3.0  # the full cover
    assert s.feasibility_threshold_ar == pytest.approx((3.0 - s.e_max) / (s.e_min - s.e_max))


def test_degenerate_spectrum_flagged():
    g = generate_graph("cycle", 3, seed=0)
    ham = np.full(8, 4.2)
    s = brute_force_spectrum(ham, "maxcut", g)
    assert s.degenerate
    assert s.feasibility_threshold_ar is None
    with pytest.raises(ConfigurationError):  # a vector that is not the graph's
        brute_force_spectrum(np.full(16, 4.2), "maxcut", g)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    mask=st.integers(0, 2**15 - 1),
    kind=st.sampled_from(ALL_KINDS),
    penalty=st.sampled_from([1.5, 2.0, 3.25]),
)
@example(n=6, mask=0, kind=ProblemKind.MAX_CUT, penalty=2.0)
@example(n=6, mask=0, kind=ProblemKind.MIN_VERTEX_COVER, penalty=2.0)
@example(n=6, mask=0, kind=ProblemKind.MAX_CLIQUE, penalty=2.0)
def test_constant_objective_is_exactly_an_all_zero_q(n, mask, kind, penalty):
    """x^T Q x + offset is constant on {0,1}^n iff Q == 0; check_objective rejects exactly those."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graph = Graph(n, tuple(pair for k, pair in enumerate(pairs) if mask >> k & 1), Topology.ERDOS_RENYI)
    qubo = build_qubo(graph, kind, penalty)
    degenerate = brute_force_spectrum(qubo_to_hamiltonian(qubo), kind, graph).degenerate
    assert (not qubo.q.any()) == degenerate
    if degenerate:
        with pytest.raises(ConfigurationError):
            check_objective(qubo)
    else:
        check_objective(qubo)


def test_feasibility_masks():
    g = generate_graph("star", 4, seed=0)
    clique = feasible_mask(g, "maxclique")
    # 1-2 is not an edge of the star, so {1, 2} is not a clique
    assert not clique[0b0110]
    assert clique[0b0011]  # {0, 1} is an edge
    assert clique[0]  # empty set counts
    cover = feasible_mask(g, "minvertexcover")
    assert cover[0b0001]  # the hub covers every edge
    assert cover[0b1110]  # all leaves cover every edge too
    assert not cover[0b0110]  # {1, 2} leaves edge (0, 3) uncovered
    assert cover[(1 << 4) - 1]  # full set always covers


def test_feasibility_masks_match_the_loop_oracle_exhaustively():
    for topology, n, seed, er_p in TEST_MATRIX:
        graph = generate_graph(topology, n, seed, er_p=er_p)
        for kind in ALL_KINDS:
            expected = [is_feasible(kind.value, n, graph.edges, b) for b in range(1 << n)]
            assert feasible_mask(graph, kind).tolist() == expected, (topology, n, kind)


def test_infeasible_strictly_above_feasible_optimum():
    for inst in iter_test_instances():
        if inst.kind is ProblemKind.MAX_CUT:
            continue
        mask = feasible_mask(inst.graph, inst.kind)
        feasible_best = inst.ham[mask].min()
        if (~mask).any():
            assert inst.ham[~mask].min() > feasible_best


def test_threshold_range():
    for inst in iter_test_instances():
        t = inst.spectrum.feasibility_threshold_ar
        assert t is not None
        assert 0.0 <= t <= 1.0
        if inst.kind is ProblemKind.MAX_CUT:
            assert t == 0.0


# --- regeneration ------------------------------------------------------------

def test_regeneration_is_deterministic():
    for seed in (0, 1, 2):
        a = generate_graph("three_regular", 8, seed=seed)
        b = generate_graph("three_regular", 8, seed=seed)
        assert a.edges == b.edges
