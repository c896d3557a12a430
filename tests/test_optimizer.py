"""Derivative-free optimizer contracts and circuit-objective behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import scipy_cobyla
from rlansatz import qsim
from rlansatz.ansatz import build_baseline, build_linear_ryz, build_qaoa
from rlansatz.circuits import action_space, h_layer
from rlansatz.errors import ConfigurationError, OptimizationError
from rlansatz.metrics import approximation_ratio
from rlansatz.optimize import OptimizerConfig, cobyla_minimize, optimize_circuit
from rlansatz.problems import make_instance
from rlansatz.qsim import exact_expectation


def test_scalar_quadratic():
    result = cobyla_minimize(lambda x: (x[0] - 3.0) ** 2, np.zeros(1))
    assert abs(result.best_params[0] - 3.0) <= 1e-3
    assert result.converged


def test_two_dim_bowl_reaches_tiny_value():
    result = cobyla_minimize(lambda x: x[0] ** 2 + x[1] ** 2, np.ones(2))
    assert result.best_value <= 1e-6


def test_quadratic_bowls_dimensions_one_to_six():
    for dim in range(1, 7):
        target = np.linspace(-1.0, 1.0, dim)
        result = cobyla_minimize(lambda x: float(np.sum((x - target) ** 2)), np.zeros(dim), OptimizerConfig(max_iterations=200))
        assert result.evaluations <= 200
        assert np.max(np.abs(result.best_params - target)) <= 1e-3, dim


def test_evaluation_cap_of_one():
    calls = []
    result = cobyla_minimize(lambda x: calls.append(1) or float(x[0] ** 2), np.array([5.0]), OptimizerConfig(max_iterations=1))
    assert len(calls) == 1
    assert result.evaluations == 1
    assert not result.converged


def test_evaluation_cap_respected():
    for cap in (3, 10, 37):
        calls = []
        result = cobyla_minimize(
            lambda x: calls.append(1) or float((x[0] - 2) ** 2 + x[1] ** 2),
            np.array([10.0, 10.0]),
            OptimizerConfig(max_iterations=cap),
        )
        assert len(calls) <= cap
        assert result.evaluations == len(calls)


def test_best_value_is_minimum_over_all_evaluations():
    seen = []

    def bumpy(x):
        value = float(np.sin(3 * x[0]) + 0.1 * x[0] ** 2)
        seen.append(value)
        return value

    result = cobyla_minimize(bumpy, np.array([1.0]), OptimizerConfig(max_iterations=150))
    assert result.best_value == min(seen)


def test_deterministic_for_deterministic_objective():
    f = lambda x: float((x[0] - 1) ** 2 + (x[1] + 2) ** 2)
    a = cobyla_minimize(f, np.array([4.0, 4.0]))
    b = cobyla_minimize(f, np.array([4.0, 4.0]))
    assert np.array_equal(a.best_params, b.best_params)
    assert a.evaluations == b.evaluations


def test_non_finite_objective_aborts():
    with pytest.raises(OptimizationError):
        cobyla_minimize(lambda x: float("nan"), np.zeros(2))


def test_rho_validation():
    with pytest.raises(ConfigurationError):
        cobyla_minimize(lambda x: float(x[0] ** 2), np.zeros(1), OptimizerConfig(rho_begin=1e-5, rho_end=1e-4))


# --- scipy's COBYLA as the oracle -------------------------------------------

def spd_sine_objective(dim, seed):
    """0.5 (x - c)^T Q (x - c) + a sin(k . x) with Q symmetric, eigenvalues in [0.5, 2], and |a| <= 0.2."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = basis @ np.diag(rng.uniform(0.5, 2.0, dim)) @ basis.T
    centre, wave = rng.normal(size=dim), rng.normal(size=dim)
    amplitude = rng.uniform(0.0, 0.2)

    def objective(x):
        gap = x - centre
        return float(0.5 * gap @ q @ gap + amplitude * np.sin(wave @ x))

    return objective, rng.normal(size=dim)


def recorded(objective, points):
    def wrapped(x):
        points.append(np.array(x))
        return objective(x)

    return wrapped


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_cobyla_agrees_with_scipy_cobyla(dim, seed):
    objective, x0 = spd_sine_objective(dim, seed)
    config = OptimizerConfig()
    ours = []
    result = cobyla_minimize(recorded(objective, ours), x0, config)
    theirs, reference = scipy_cobyla(objective, x0, config.rho_begin, config.rho_end, config.max_iterations)
    assert len(ours) >= dim + 1 and len(theirs) >= dim + 1
    for a, b in zip(ours[: dim + 1], theirs[: dim + 1]):
        assert np.array_equal(a, b)
    assert abs(len(ours) - len(theirs)) <= 0.1 * len(theirs)
    assert abs(result.best_value - reference.fun) <= 1e-5
    if len(ours) < config.max_iterations and len(theirs) < config.max_iterations:
        assert result.converged == reference.success


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 0.05]),
    shots=st.sampled_from([None, 500]),
    rho_end=st.sampled_from([1e-4, 1e-3, 1 / 222, 0.05]),
    budget=st.sampled_from([1, 3, 9, 40, 400]),
)
def test_cobyla_evaluates_the_points_scipy_cobyla_evaluates(dim, seed, noise, shots, rho_end, budget):
    """The port repeats PRIMA's arithmetic, so even a noisy objective sees the same points.

    With ``shots`` the values are multiples of 1/shots, as shot estimates
    are, so reduction ratios hit PRIMA's thresholds exactly.
    """
    objective, x0 = spd_sine_objective(dim, seed)

    def noisy():
        calls = [0]

        def f(x):
            calls[0] += 1
            value = objective(x) + noise * np.random.default_rng(calls[0]).normal()
            return value if shots is None else round(value * shots) / shots

        return f

    ours = []
    result = cobyla_minimize(recorded(noisy(), ours), x0, OptimizerConfig(max_iterations=budget, rho_end=rho_end))
    theirs, reference = scipy_cobyla(noisy(), x0, 1.0, rho_end, budget)
    assert len(ours) == len(theirs) == result.evaluations
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
    if result.evaluations < budget:
        assert result.converged == reference.success


@pytest.fixture
def prima():
    """The modules of scipy's translation of PRIMA's COBYLA."""
    import importlib

    pytest.importorskip("scipy._lib.pyprima")
    names = ("cobyla.update", "cobyla.geometry", "cobyla.trustregion", "common.redrho", "common.consts")
    return {name: importlib.import_module(f"scipy._lib.pyprima.{name}") for name in names}


def random_simplex(rng, n, drift):
    """A pole, n steps, their values and an inverse of the steps that is off by about ``drift``."""
    sim = np.column_stack([rng.normal(size=(n, n)) + 3 * np.eye(n), rng.normal(size=n)])
    simi = np.linalg.inv(sim[:, :n]) + drift * rng.normal(size=(n, n)) / n
    return sim, simi, rng.normal(size=n + 1)


def test_simplex_updates_match_prima(prima):
    """``_updatexfc`` (with its pole switch and re-inversion) and ``_setdrop_tr`` against PRIMA's own."""
    from rlansatz.optimize import _EPS, _col_sq, _setdrop_tr, _updatexfc

    update, geometry = prima["cobyla.update"], prima["cobyla.geometry"]
    rng = np.random.default_rng(11)
    for case in range(300):
        n = 1 + case % 8
        sim, simi, fval = random_simplex(rng, n, drift=[0.0, 0.3, 3.0][case % 3])
        d, f = rng.normal(size=n), float(rng.normal())
        delta = 10 ** rng.uniform(-1.5, 1)
        rho = delta * 10 ** rng.uniform(-2, 0)
        for ximproved in (True, False):
            expected = geometry.setdrop_tr(ximproved, d, delta, rho, sim, simi)
            assert _setdrop_tr(ximproved, d, delta, rho, sim, simi.dot(d), _col_sq(sim)) == expected
        j = int(rng.integers(0, n + 1))
        sim_o, fval_o = sim.copy(), fval.copy()
        simi_o = _updatexfc(j, d, f, sim_o, simi.copy(), fval_o, simi.dot(d))
        no_constraints = (np.zeros(0), _EPS, 0.0, d, f, np.zeros((0, n + 1)), np.zeros(n + 1))
        sim_p, simi_p, fval_p, _, _, info = update.updatexfc(j, *no_constraints, fval.copy(), sim.copy(), simi.copy())
        if info != 0:  # PRIMA's DAMAGING_ROUNDING: the run stops
            assert simi_o is None
            continue
        assert np.array_equal(sim_o, sim_p) and np.array_equal(simi_o, simi_p) and np.array_equal(fval_o, fval_p)


def test_radius_and_resolution_updates_match_prima(prima):
    from rlansatz.optimize import _redrho, _trrad

    trrad, redrho = prima["cobyla.trustregion"].trrad, prima["common.redrho"].redrho
    eta1 = prima["common.consts"].ETA1_DEFAULT
    eta2 = (eta1 + 2) / 3  # as PRIMA's cobyla() sets it when only eta1 has a default
    for ratio in (-1.0, 0.0, 0.05, 0.1, 0.4, 0.7, 0.7000000000000001, 0.9, 3.0):
        for delta, dnorm in ((1.0, 1.0), (0.3, 0.1), (0.2, 0.15)):
            assert _trrad(delta, dnorm, ratio) == trrad(delta, dnorm, eta1, eta2, 0.5, 2.0, ratio)
    for rho in (1.0, 0.5, 0.1, 0.0226, 0.02, 0.0016, 0.0011):
        assert _redrho(rho, 1e-4) == redrho(rho, 1e-4)


def test_trust_region_step_matches_prima(prima):
    """``_trstlp`` against PRIMA's own, also where math.hypot and np.hypot round differently."""
    from rlansatz.optimize import _trstlp

    trustregion = prima["cobyla.trustregion"]
    rng = np.random.default_rng(3)
    gradients = [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) for n in range(1, 12) for _ in range(20)]
    gradients += [np.zeros(3), np.array([2.0, 0.0, 0.0]), np.array([0.0, -1.0, 0.0]), np.array([3e12, -1.0, 4e11])]
    gradients += [np.array([0.0]), np.array([1e-40]), np.array([-3e12])]  # one coordinate: zero, below eps^2, rescaled
    rounds_apart = []
    while len(rounds_apart) < 5:
        a, b = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3, size=2)
        if math.hypot(a, b) != np.hypot(a, b):
            rounds_apart.append(np.array([rng.normal(), a, b]))
    for g in gradients + rounds_apart:
        for delta in (1.0, 0.3, 1e-4):
            expected = trustregion.trstlp(np.zeros((g.size, 0)), np.zeros(0), delta, g)
            assert np.array_equal(_trstlp(g, delta), expected), (g, delta)



@pytest.mark.parametrize("dim", [12, 18, 26])
def test_cobyla_evaluates_the_points_scipy_cobyla_evaluates_at_matrix_sizes(dim):
    """The maqaoa sizes of the matrix workload, past the 8 entries from which numpy sums in partial sums."""
    objective, x0 = spd_sine_objective(dim, dim)

    def estimate(x):
        return round(objective(x) * 1000) / 1000

    ours = []
    result = cobyla_minimize(recorded(estimate, ours), x0, OptimizerConfig(max_iterations=400))
    theirs, _ = scipy_cobyla(estimate, x0, 1.0, 1e-4, 400)
    assert len(ours) == len(theirs) == result.evaluations
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))


def test_trust_region_step_matches_prima_on_long_and_degenerate_gradients(prima):
    """Past 12 coordinates, and where a rotation is degenerate or empty, which the step takes in a loop."""
    from rlansatz.optimize import _trstlp

    trstlp = prima["cobyla.trustregion"].trstlp
    rng = np.random.default_rng(8)
    gradients = [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) for n in (12, 18, 26, 30) for _ in range(10)]
    for n in (2, 3, 5, 12, 26):
        for _ in range(4):
            g = rng.normal(size=n)
            k = int(rng.integers(0, n))
            gradients.append(np.concatenate([g[:-1], [0.0]]))  # empty rotations: a zero tail
            gradients.append(np.where(np.arange(n) == k, 1e-20 * g, g))  # |g[k]| <= eps * (norm of the tail)
            gradients.append(np.where(np.arange(n) > k, 1e-20 * g, g))  # a tail below eps * |g[k]|
            gradients.append(np.where(np.arange(n) == k, 0.0, g))
    for g in gradients:
        for delta in (1.0, 1e-4):
            expected = trstlp(np.zeros((g.size, 0)), np.zeros(0), delta, g)
            assert np.array_equal(_trstlp(g, delta), expected), (g, delta)


def test_setdrop_tr_scores_a_nan_as_prima_does(prima):
    """A zero Lagrange value at a vertex whose weight overflows scores 0 * inf = NaN, which PRIMA never drops."""
    from rlansatz.optimize import _col_sq, _setdrop_tr

    geometry = prima["cobyla.geometry"]
    n = 3
    sim = np.column_stack([np.diag([1e160, 1.0, 1.0]), np.zeros(n)])
    simi = np.diag([0.0, 1.0, 1.0])  # simi[0] @ d == 0
    d = np.array([0.5, 0.3, -0.2])
    for ximproved in (True, False):
        for delta, rho in ((1.0, 0.1), (1e-170, 1e-171)):  # the second underflows scale^2
            with np.errstate(all="ignore"):
                expected = geometry.setdrop_tr(ximproved, d, delta, rho, sim, simi)
                assert _setdrop_tr(ximproved, d, delta, rho, sim, simi.dot(d), _col_sq(sim)) == expected


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
def test_sq_norm_adds_as_numpy_adds_a_column(n, seed):
    """``_sq_norm`` repeats in Python the column sum of np.add.reduce(steps * steps, 0)."""
    from rlansatz.optimize import _col_sq, _sq_norm

    rng = np.random.default_rng(seed)
    sim = rng.normal(size=(n, n + 1)) * 10.0 ** rng.uniform(-8, 8, size=(n, n + 1))
    j = int(rng.integers(0, n))
    assert _sq_norm(sim[:, j].copy()) == _col_sq(sim)[j]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_ndarray_dot_is_matmul_on_the_optimizers_operands(n, seed):
    """The optimizer calls ``ndarray.dot`` where PRIMA uses matmul: the same BLAS call on contiguous operands."""
    rng = np.random.default_rng(seed)
    simi = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6, size=(n, n))
    d, g = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-6, 6, size=(2, n))
    assert d.dot(g) == d @ g and d.dot(d) == d @ d and simi[n // 2].dot(d) == simi[n // 2] @ d
    assert simi.dot(d).tobytes() == (simi @ d).tobytes()
    assert g.dot(simi).tobytes() == (g @ simi).tobytes()


def full_near_vertex(sim, d, near):
    """The vertex check as PRIMA's port first wrote it: every distance, in full."""
    n = d.size
    x = sim[:, n] + d
    gaps = x[:, None] - (sim[:, n, None] + sim[:, :n])
    distsq = (gaps * gaps).sum(axis=0)
    j = int(distsq.argmin())
    return j if distsq[j] <= near * near else None


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 26),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([None, 0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 3.0]),
    near=st.sampled_from([1e-8, 1e-5, 1e-160]),
)
def test_near_vertex_finds_what_the_full_check_finds(n, seed, offset, near):
    """Points at a random step, or ``offset`` * near from a vertex, around poles of any size."""
    from rlansatz.optimize import _near_vertex

    rng = np.random.default_rng(seed)
    sim = rng.normal(size=(n, n + 1))
    sim[:, n] *= 10.0 ** rng.uniform(-3, 6)
    d = rng.normal(size=n)
    if offset is not None:
        direction = rng.normal(size=n)
        d = sim[:, int(rng.integers(0, n))] + offset * near * direction / np.linalg.norm(direction)
    assert _near_vertex(sim, d, near) == full_near_vertex(sim, d, near)


# --- circuit objectives -----------------------------------------------------

def test_qaoa_on_k3_reaches_good_values_on_most_seeds():
    inst = make_instance("cycle", 3, 0, "maxcut")
    good = 0
    for seed in range(10):
        circuit = build_qaoa(inst, 1)
        rng = np.random.default_rng(1000 + seed)
        circuit.params[:] = rng.uniform(-np.pi, np.pi, 2)
        result = optimize_circuit(circuit, inst.ham, 1000, seed=seed)
        if result.best_value <= -1.3:
            good += 1
    assert good >= 8


def test_zero_parameter_circuit_returns_single_estimate():
    inst = make_instance("cycle", 3, 0, "maxcut")
    result = optimize_circuit(h_layer(3), inst.ham, 1000, seed=0)
    assert result.evaluations == 1
    assert result.converged
    # uniform sampling averages the K3 table mean of -1.5, within shot noise
    assert result.best_value == pytest.approx(-1.5, abs=0.1)


def test_optimized_linear_not_worse_than_start():
    inst = make_instance("erdos_renyi", 8, 3, "maxcut", er_p=0.5)
    circuit = build_linear_ryz(8)
    start_ar = approximation_ratio(exact_expectation(circuit, inst.ham), inst.spectrum)
    optimize_circuit(circuit, inst.ham, 1000, seed=4)
    end_ar = approximation_ratio(exact_expectation(circuit, inst.ham), inst.spectrum)
    assert end_ar >= start_ar


def test_optimize_circuit_updates_params_to_best():
    inst = make_instance("cycle", 4, 0, "maxcut")
    circuit = build_qaoa(inst, 1)
    result = optimize_circuit(circuit, inst.ham, 500, seed=9)
    assert np.array_equal(circuit.params, result.best_params)


def test_optimize_circuit_deterministic():
    inst = make_instance("cycle", 4, 0, "maxcut")
    results = []
    for _ in range(2):
        circuit = build_qaoa(inst, 1)
        results.append(optimize_circuit(circuit, inst.ham, 500, seed=77))
    assert np.array_equal(results[0].best_params, results[1].best_params)
    assert results[0].best_value == results[1].best_value
    assert results[0].evaluations == results[1].evaluations


def test_optimize_circuit_warm_start_evaluates_current_params_first():
    inst = make_instance("cycle", 4, 0, "maxcut")
    circuit = build_qaoa(inst, 1)
    circuit.params[:] = [0.4, -0.2]
    seen = []
    import rlansatz.optimize as opt

    original = opt.sample_shots

    def spy(c, shots, seed, params=None, **kwargs):
        seen.append(np.array(params))
        return original(c, shots, seed, params=params, **kwargs)

    opt.sample_shots = spy
    try:
        optimize_circuit(circuit, inst.ham, 200, seed=1, optimizer=OptimizerConfig(max_iterations=5))
    finally:
        opt.sample_shots = original
    assert np.array_equal(seen[0], [0.4, -0.2])


def fold_case(source, n):
    """A circuit and its energies: a baseline on MaxCut or minvertexcover, 2n uniform agent actions on MaxCut,
    or MaxCut's flip-even qaoa2 against the minvertexcover energies of the same graph."""
    kind = "minvertexcover" if source == "minvertexcover" else "maxcut"
    inst = make_instance("cycle" if n % 2 else "three_regular", n, 1, kind)
    if source == "qaoa2 vs minvertexcover":
        circuit, _ = fold_case("qaoa2", n)
        energy = make_instance("cycle" if n % 2 else "three_regular", n, 1, "minvertexcover").ham
        assert not np.array_equal(energy, energy[::-1])
        return circuit, energy
    if source.startswith("agent"):
        space = action_space(n)
        rng = np.random.default_rng([n, int(source.split()[1])])
        circuit = h_layer(n)
        for action in rng.integers(space.size, size=2 * n):
            circuit = space.apply(circuit, int(action))
        assert any(g.kind not in qsim._FLIP_EVEN_KINDS for g in circuit.gates[n:])
    else:
        circuit = build_baseline("qaoa2" if source == "minvertexcover" else source, inst)
    circuit.params[:] = np.random.default_rng(n).uniform(-np.pi, np.pi, circuit.n_params)
    return circuit, inst.ham


@pytest.mark.parametrize(
    "source, n, folds",
    [(source, n, True) for source in ("qaoa2", "linear") for n in (11, 12, 13, 14)]
    + [("qaoa2", 10, False), ("linear", 10, False), ("qaoa2", 6, False), ("minvertexcover", 12, False)]
    + [("agent 0", 12, False), ("agent 1", 11, False), ("qaoa2 vs minvertexcover", 12, False)],
)
def test_optimize_circuit_draws_over_flip_classes_exactly_when_both_are_flip_symmetric(source, n, folds, monkeypatch):
    import rlansatz.optimize as opt

    circuit, energy = fold_case(source, n)
    seen = []
    original = opt.sample_shots

    def spy(c, shots, seed, params=None, folded=False):
        counts = original(c, shots, seed, params=params, folded=folded)
        seen.append((folded, counts.size))
        return counts

    monkeypatch.setattr(opt, "sample_shots", spy)
    result = optimize_circuit(circuit, energy, 500, seed=3, optimizer=OptimizerConfig(max_iterations=4))
    size = 1 << (n - 1) if folds else 1 << n
    assert seen == [(folds, size)] * result.evaluations


@pytest.mark.parametrize("source", ["qaoa2", "linear"])
def test_folded_objective_estimates_the_exact_expectation(source):
    circuit, energy = fold_case(source, 12)
    exact = exact_expectation(circuit, energy)
    one = OptimizerConfig(max_iterations=1)  # the objective at the circuit's own parameters
    values = np.array([optimize_circuit(circuit.copy(), energy, 1000, seed, one).best_value for seed in range(400)])
    assert abs(values.mean() - exact) <= 4 * values.std() / np.sqrt(values.size)
