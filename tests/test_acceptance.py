"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 9 and 10 share three end-to-end training runs through a
module-scoped fixture (two seeds plus one repeat for the byte-identity
check); everything else is self-contained. Run with ``-v -s`` to see the
per-criterion lines as they complete.
"""

import csv
import json

import numpy as np
import pytest

from rlansatz.agent.networks import Mlp
from rlansatz.agent.ppo import log_softmax, policy_loss_and_grads, value_loss_and_grads
from rlansatz.ansatz import build_linear_ryz, build_qaoa
from rlansatz.circuits import DOUBLE_ROTATIONS, Circuit, GateApplication, to_basis_gates
from rlansatz.cli import main as cli_main
from rlansatz.metrics import evaluate_circuit, solution_distribution
from rlansatz.optimize import OptimizerConfig, cobyla_minimize, optimize_circuit
from rlansatz.problems import make_instance
from rlansatz.qsim import exact_probabilities
from rlansatz.seeding import INIT_STREAM, derive_seed, rng_for

from _oracles import (
    circuit_probabilities,
    gate_list_unitary,
    phase_aligned_distance,
    index_bits,
    qubo_value,
    random_circuit,
    rotation_unitary,
)

BETA = 0.015

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
KINDS = ("maxcut", "maxclique", "minvertexcover")


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status} criterion-{number}: {description}{suffix}")
    assert ok, f"criterion-{number}: {description} {detail}"


def test_criterion_1_simulator_matches_dense_oracle():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        circuit = random_circuit(rng, n, int(rng.integers(1, 14)))
        delta = np.max(np.abs(exact_probabilities(circuit) - circuit_probabilities(circuit)))
        worst = max(worst, float(delta))
    report(1, "exact probabilities match the dense matrix-product oracle", worst <= 1e-10, f"max |delta| {worst:.2e}")


def test_criterion_2_double_rotation_decompositions():
    thetas = np.arange(16) * (np.pi / 4.0) - 2.0 * np.pi
    worst = 0.0
    for kind in DOUBLE_ROTATIONS:
        for theta in thetas:
            gates = to_basis_gates(Circuit(2, [GateApplication(kind, (0, 1), angle=float(theta))])).gates
            u = gate_list_unitary(gates, 2)
            expected = rotation_unitary(kind.value[1:], (0, 1), float(theta), 2)
            worst = max(worst, phase_aligned_distance(u, expected))
    report(
        2,
        "all 9 double rotations decompose to the matrix exponential up to phase",
        worst <= 1e-10,
        f"9 kinds x 16 angles, max |delta| {worst:.2e}",
    )


def test_criterion_3_chain_circuit_bitflip_symmetry():
    rng = np.random.default_rng(33)
    worst = 0.0
    for n in range(2, 7):
        circuit = build_linear_ryz(n)
        full = (1 << n) - 1
        flip = [b ^ full for b in range(1 << n)]
        for _ in range(50):
            probs = exact_probabilities(circuit, rng.uniform(-np.pi, np.pi, n - 1))
            worst = max(worst, float(np.max(np.abs(probs - probs[flip]))))
    report(
        3,
        "chain ansatz outputs are bit-flip symmetric",
        worst <= 1e-10,
        f"n=2..6, 50 parameter draws each, max |delta| {worst:.2e}",
    )


def test_criterion_4_qubo_tables_and_spectra():
    ok = True
    details = []
    for topology, n, seed, er_p in TEST_MATRIX:
        for kind in KINDS:
            inst = make_instance(topology, n, seed, kind, er_p=er_p)
            for b in range(1 << n):
                expected = qubo_value(inst.qubo.q, inst.qubo.offset, index_bits(b, n))
                if inst.ham[b] != pytest.approx(expected, abs=1e-9):
                    ok = False
                    details.append(f"{kind}/{topology}: energy mismatch at {b}")
                    break
            if kind == "maxcut":
                if inst.spectrum.e_max != 0.0:
                    ok = False
                    details.append(f"maxcut/{topology}: e_max {inst.spectrum.e_max}")
                full = (1 << n) - 1
                flipped = inst.ham[[b ^ full for b in range(1 << n)]]
                if not np.array_equal(inst.ham, flipped):
                    ok = False
                    details.append(f"maxcut/{topology}: flip asymmetry")
    report(
        4,
        "energy tables equal the QUBO objective exhaustively; cut tables have zero max and flip symmetry",
        ok,
        "; ".join(details) if details else f"{len(TEST_MATRIX) * len(KINDS)} instances, n <= 12",
    )


def test_criterion_5_gradients_match_finite_differences():
    h = 1e-6
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        policy = Mlp((4, 8, 3), np.random.default_rng(900 + trial))
        value = Mlp((4, 8, 1), np.random.default_rng(950 + trial))
        obs = rng.random((6, 4))
        actions = rng.integers(0, 3, size=6)
        logp_old = log_softmax(policy.forward(obs))[np.arange(6), actions] + rng.uniform(-0.05, 0.05, 6)
        advantages = rng.standard_normal(6)
        returns = rng.standard_normal(6)

        for net, loss_fn in (
            (policy, lambda: policy_loss_and_grads(policy, obs, actions, logp_old, advantages, 0.2)),
            (value, lambda: value_loss_and_grads(value, obs, returns)),
        ):
            out = loss_fn()
            analytic = np.concatenate([g.ravel() for g in out[1] + out[2]])
            center = net.get_flat()
            numeric = np.zeros_like(center)
            for i in range(center.size):
                for sign in (1.0, -1.0):
                    probe = center.copy()
                    probe[i] += sign * h
                    net.set_flat(probe)
                    numeric[i] += sign * loss_fn()[0]
                numeric[i] /= 2 * h
            net.set_flat(center)
            rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(numeric), 1e-12)
            worst = max(worst, float(rel))
    report(
        5,
        "policy and value gradients match central finite differences",
        worst <= 1e-4,
        f"20 batches, 4-input/3-action nets, max rel err {worst:.2e}",
    )


def test_criterion_6_cobyla_quadratic_bowls():
    ok = True
    details = []
    for dim in range(1, 7):
        target = np.linspace(-1.0, 1.0, dim) if dim > 1 else np.array([0.7])
        result = cobyla_minimize(lambda x: float(np.sum((x - target) ** 2)), np.zeros(dim), OptimizerConfig(max_iterations=200))
        err = float(np.max(np.abs(result.best_params - target)))
        if err > 1e-3 or result.evaluations > 200:
            ok = False
            details.append(f"dim {dim}: err {err:.1e} in {result.evaluations} evals")
    report(6, "quadratic bowls solved to 1e-3 within 200 evaluations (dims 1-6)", ok, "; ".join(details))


def test_criterion_7_qaoa_baseline_ratio_range():
    inst = make_instance("three_regular", 8, 1, "maxcut")
    rep = evaluate_circuit(build_qaoa(inst, 1), inst, n_runs=10, n_shots=1000, seed=0)
    ok = 0.55 <= rep.approx_ratio <= 0.90
    report(
        7,
        "10-run QAOA p=1 mean shot ratio on the 8-vertex 3-regular cut instance in [0.55, 0.90]",
        ok,
        f"mean A.R. {rep.approx_ratio:.4f}",
    )


def test_criterion_8_chain_vs_qaoa_ordering():
    ok = True
    details = []
    for topology, er_p in (("erdos_renyi", 0.5), ("grid2d", None)):
        inst = make_instance(topology, 8, 3, "maxcut", er_p=er_p)
        lin = evaluate_circuit(build_linear_ryz(8), inst, n_runs=10, n_shots=1000, seed=0)
        qa = evaluate_circuit(build_qaoa(inst, 1), inst, n_runs=10, n_shots=1000, seed=0)
        details.append(f"{topology}: linear {lin.approx_ratio:.3f} vs qaoa1 {qa.approx_ratio:.3f}")
        if lin.approx_ratio < qa.approx_ratio - 0.02:
            ok = False
    report(8, "chain ansatz mean ratio at least matches QAOA p=1 (10 runs, n=8)", ok, "; ".join(details))


# --- criteria 9 and 10 share three CLI training runs ------------------------

TRAIN_SEEDS = (101, 202)


@pytest.fixture(scope="module")
def desk_training(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk_training")
    cfg = root / "train.ini"
    cfg.write_text(
        """
[problem]
kind = maxcut
topology = cycle
n = 6
seed = 0

[rl]
epochs = 16
steps_per_epoch = 128
workers = 1

[run]
shots = 1000
master_seed = 0
output_dir = unused
"""
    )
    outs = {}
    for seed in TRAIN_SEEDS:
        out = root / f"run_{seed}"
        assert cli_main(["train", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
        outs[seed] = out
    repeat = root / f"run_{TRAIN_SEEDS[0]}_repeat"
    assert cli_main(["train", "--config", str(cfg), "--out", str(repeat), "--seed", str(TRAIN_SEEDS[0])]) == 0
    return outs, repeat


def _read_steps(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_criterion_9_training_reaches_good_circuits(desk_training):
    outs, _ = desk_training
    ratios = {}
    invariants_ok = True
    details = []
    for seed, out in outs.items():
        doc = json.loads((out / "report.json").read_text())
        ratios[seed] = doc["exact_approx_ratio"]
        rows = _read_steps(out / "steps.csv")
        if len(rows) != 16 * 128:
            invariants_ok = False
            details.append(f"seed {seed}: {len(rows)} rows")
        best_logged = max(float(r["reward"]) for r in rows)
        if doc["best_reward"] < best_logged:
            invariants_ok = False
            details.append(f"seed {seed}: best_reward below step log")
        for r in rows:
            reward = float(r["reward"])
            identity = -float(r["expectation"]) - BETA * int(r["depth"])
            if reward != identity:
                invariants_ok = False
                details.append(f"seed {seed}: reward identity broken at episode {r['episode']}")
                break
            if not (1 <= int(r["step"]) <= 12):
                invariants_ok = False
                details.append(f"seed {seed}: episode overran the 2n cap")
                break
            if not (0 <= int(r["patience"]) <= 3):
                invariants_ok = False
                details.append(f"seed {seed}: patience out of range")
                break
            if not (0 <= int(r["action_id"]) < 153):
                invariants_ok = False
                details.append(f"seed {seed}: illegal action id")
                break
    reached = max(ratios.values()) >= 0.85
    detail = ", ".join(f"seed {s}: exact A.R. {r:.4f}" for s, r in ratios.items())
    report(
        9,
        "end-to-end training solves the 6-vertex cycle cut (>= 0.85 exact ratio) with clean step logs",
        reached and invariants_ok,
        detail + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_10_training_is_byte_deterministic(desk_training):
    outs, repeat = desk_training
    first = (outs[TRAIN_SEEDS[0]] / "steps.csv").read_bytes()
    second = (repeat / "steps.csv").read_bytes()
    report(
        10,
        "repeating the training run with the same master seed gives a byte-identical step log",
        first == second,
        f"{len(first)} bytes",
    )


def test_criterion_11_concentration_of_chain_solutions():
    seed = 2
    inst = make_instance("erdos_renyi", 8, 5, "maxcut", er_p=0.8)
    e_min = inst.spectrum.e_min

    linear = build_linear_ryz(8)
    linear.params[:] = rng_for(seed, INIT_STREAM, 0).uniform(-np.pi, np.pi, linear.n_params)
    optimize_circuit(linear, inst.ham, 1000, derive_seed(seed, 10))
    qaoa = build_qaoa(inst, 1)
    qaoa.params[:] = rng_for(seed, INIT_STREAM, 1).uniform(-np.pi, np.pi, qaoa.n_params)
    optimize_circuit(qaoa, inst.ham, 1000, derive_seed(seed, 11))

    mass_linear = solution_distribution(linear, inst, 1000, derive_seed(seed, 12)).get(e_min, 0.0)
    mass_qaoa = solution_distribution(qaoa, inst, 1000, derive_seed(seed, 13)).get(e_min, 0.0)
    report(
        11,
        "optimized chain ansatz puts more sampled mass on the lowest-energy bin than QAOA p=1",
        mass_linear > mass_qaoa,
        f"linear {mass_linear:.3f} vs qaoa1 {mass_qaoa:.3f} at energy {e_min}",
    )
