"""Agent stack: networks, policy-gradient math, environment, training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlansatz.agent.env as env_module
import rlansatz.agent.training as training
from _oracles import ArrayAdam, ArrayMlp, Segment, array_ppo_update, segment_returns_and_advantages
from rlansatz.agent.env import CircuitBuildEnv, EnvConfig
from rlansatz.agent.networks import Adam, Mlp
from rlansatz.agent.ppo import (
    FINAL_LAYER_SCALE,
    Batch,
    PpoHyperparams,
    build_model,
    compute_returns_and_advantages,
    log_softmax,
    normalize_advantages,
    policy_loss_and_grads,
    ppo_update,
    sample_action,
    value_loss_and_grads,
)
from rlansatz.agent.training import TrainConfig, train
from rlansatz.optimize import OptimizationResult, OptimizerConfig
from rlansatz.problems import make_instance
from rlansatz.seeding import rng_for


def toy_instance(n=2):
    return make_instance("grid2d", n, 0, "maxcut")


# --- networks ---------------------------------------------------------------

def test_mlp_shapes_and_final_scale():
    rng = np.random.default_rng(0)
    net = Mlp((4, 8, 3), rng, final_scale=0.01)
    out = net.forward(np.zeros((5, 4)))
    assert out.shape == (5, 3)
    assert np.max(np.abs(net.weights[-1])) <= 0.011  # small-scale final layer
    # orthogonal init: orthonormal rows for a wide matrix
    w = net.weights[0]
    assert np.allclose(w @ w.T, np.eye(w.shape[0]), atol=1e-9)


def test_mlp_flat_round_trip():
    net = Mlp((3, 5, 2), np.random.default_rng(1))
    flat = net.get_flat()
    net.set_flat(flat * 2.0)
    assert np.allclose(net.get_flat(), flat * 2.0)


def test_adam_zero_gradient_is_noop():
    net = Mlp((3, 4, 2), np.random.default_rng(2))
    optimizer = Adam(net.flat, lr=1e-3)
    before = net.get_flat()
    optimizer.step(net.flat, np.zeros_like(net.flat))
    assert np.array_equal(net.get_flat(), before)


# --- policy head ------------------------------------------------------------

def policy_forward(model, obs):
    """Action probabilities for one observation."""
    return np.exp(log_softmax(model.policy.forward(obs)))[0]


def test_policy_forward_sums_to_one():
    model = build_model(4, 7, seed=3)
    probs = policy_forward(model, np.random.default_rng(0).random(4))
    assert probs.shape == (7,)
    assert np.all(probs > 0)
    assert abs(probs.sum() - 1.0) <= 1e-9


def test_zeroed_final_layer_gives_uniform_policy():
    model = build_model(4, 5, seed=4)
    model.policy.weights[-1][...] = 0.0
    model.policy.biases[-1][...] = 0.0
    probs = policy_forward(model, np.ones(4))
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_sampled_action_log_prob_consistency():
    model = build_model(6, 9, seed=5)
    rng = np.random.default_rng(6)
    obs = rng.random(6)
    action, logp, _value = sample_action(model, obs, rng)
    probs = policy_forward(model, obs)
    assert abs(logp - np.log(probs[action])) <= 1e-12


# --- returns and advantages -------------------------------------------------

def test_single_step_return_equals_reward():
    for gamma in (0.1, 0.5, 0.99):
        returns, _ = compute_returns_and_advantages(np.array([2.5]), np.array([0.3]), np.array([0.0]), gamma, 0.9)
        assert returns[0] == 2.5


def test_two_step_discounted_return():
    returns, _ = compute_returns_and_advantages(np.ones(2), np.zeros(2), np.array([np.nan, 0.0]), 0.5, 1.0)
    assert returns[0] == 1.5
    assert returns[1] == 1.0


def test_zero_rewards_zero_values_give_zeros():
    returns, advantages = compute_returns_and_advantages(np.zeros(3), np.zeros(3), np.array([np.nan, np.nan, 0.0]), 0.9, 0.95)
    assert np.array_equal(returns, np.zeros(3))
    assert np.array_equal(advantages, np.zeros(3))


def test_truncated_segment_bootstraps_value():
    returns, advantages = compute_returns_and_advantages(np.array([1.0]), np.array([0.5]), np.array([2.0]), 0.5, 1.0)
    assert returns[0] == 1.0 + 0.5 * 2.0
    assert advantages[0] == pytest.approx(1.0 + 0.5 * 2.0 - 0.5)


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_segments = st.lists(
    st.tuples(
        st.lists(st.tuples(_finite, _finite), min_size=1, max_size=6),  # (reward, value) per transition
        st.one_of(st.just(0.0), _finite),  # 0 at a true end, a value estimate at a cut
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(segments=_segments, gamma=st.floats(0.0, 1.0), gae_lambda=st.floats(0.0, 1.0))
def test_flat_returns_and_advantages_match_per_segment_oracle(segments, gamma, gae_lambda):
    rewards = [r for steps, _ in segments for r, _ in steps]
    values = [v for steps, _ in segments for _, v in steps]
    bootstrap = [b if i == len(steps) - 1 else np.nan for steps, b in segments for i in range(len(steps))]
    returns, advantages = compute_returns_and_advantages(
        np.array(rewards), np.array(values), np.array(bootstrap), gamma, gae_lambda
    )
    oracle = [Segment([r for r, _ in steps], [v for _, v in steps], b) for steps, b in segments]
    expected_returns, expected_advantages = segment_returns_and_advantages(oracle, gamma, gae_lambda)
    assert (returns == expected_returns).all()
    assert (advantages == expected_advantages).all()


def test_advantage_normalization_statistics():
    rng = np.random.default_rng(7)
    adv = normalize_advantages(rng.standard_normal(257) * 3.0 + 1.0)
    assert abs(adv.mean()) <= 1e-9
    assert abs(adv.std() - 1.0) <= 1e-6


# --- ppo update -------------------------------------------------------------

def make_batch(model, n, rng, advantages=None):
    obs = rng.random((n, model.policy.sizes[0]))
    logits = log_softmax(model.policy.forward(obs))
    actions = np.array([rng.choice(model.policy.sizes[-1], p=np.exp(row)) for row in logits])
    logp_old = logits[np.arange(n), actions]
    return Batch(
        observations=obs,
        actions=actions,
        log_probs_old=logp_old,
        returns=rng.standard_normal(n),
        advantages=rng.standard_normal(n) if advantages is None else advantages,
    )


def test_zero_advantages_leave_policy_unchanged():
    model = build_model(4, 3, seed=8)
    rng = np.random.default_rng(9)
    batch = make_batch(model, 16, rng, advantages=np.zeros(16))
    hyper = PpoHyperparams(pi_iters=5, vf_iters=0)
    before = model.policy.get_flat()
    ppo_update(model, batch, hyper, Adam(model.policy.flat, 1e-3), Adam(model.value.flat, 1e-3))
    assert np.array_equal(model.policy.get_flat(), before)


def test_positive_advantage_increases_action_probability():
    # checked below batch normalization, which zeroes a lone advantage
    model = build_model(4, 3, seed=10)
    obs = np.full(4, 0.3)
    action = 1
    logits = log_softmax(model.policy.forward(obs))
    before = policy_forward(model, obs)[action]
    _, grad_w, grad_b, _ = policy_loss_and_grads(
        model.policy, obs[None, :], np.array([action]), np.array([logits[0, action]]), np.array([1.0]), 0.2
    )
    for arr, grad in zip(model.policy.weights + model.policy.biases, grad_w + grad_b):
        arr -= 1e-3 * grad
    after = policy_forward(model, obs)[action]
    assert after > before


def test_value_steps_reduce_value_loss():
    model = build_model(4, 3, seed=11)
    rng = np.random.default_rng(12)
    batch = make_batch(model, 32, rng)
    loss_before, _, _ = value_loss_and_grads(model.value, batch.observations, batch.returns)
    hyper = PpoHyperparams(pi_iters=0, vf_iters=40)
    out = ppo_update(model, batch, hyper, Adam(model.policy.flat, 3e-4), Adam(model.value.flat, 1e-2))
    assert out["vf_loss_final"] < loss_before


def test_kl_early_stop_limits_policy_steps():
    model = build_model(4, 3, seed=13)
    rng = np.random.default_rng(14)
    batch = make_batch(model, 32, rng)
    hyper = PpoHyperparams(pi_iters=80, vf_iters=0, pi_lr=0.05, target_kl=1e-4)
    out = ppo_update(model, batch, hyper, Adam(model.policy.flat, hyper.pi_lr), Adam(model.value.flat, 1e-3))
    assert out["pi_steps"] < 80


# name: (inputs, actions, hidden sizes, batch size, hyperparameters, shift of the old log-probabilities)
_UPDATE_CASES = {
    "n6_acceptance_shapes": (64, 153, (64, 64), 128, {}, 0.0),  # the output layer is F-ordered
    "one_hidden_layer": (5, 4, (8,), 24, {"pi_iters": 20, "vf_iters": 20}, 0.0),
    "kl_stop_at_first_step": (6, 5, (16, 16), 16, {"vf_iters": 10}, 0.5),
    "kl_stop_never": (6, 5, (16, 16), 16, {"pi_iters": 15, "vf_iters": 10, "target_kl": math.inf}, 0.0),
}


def _memory_order(arrays) -> bytes:
    return np.concatenate([a.ravel(order="K") for a in arrays]).tobytes()


@pytest.mark.parametrize("case", sorted(_UPDATE_CASES))
def test_update_matches_the_per_array_oracle_bit_for_bit(case):
    obs_dim, n_actions, hidden, size, settings_, shift = _UPDATE_CASES[case]
    hyper = PpoHyperparams(hidden=hidden, **settings_)
    model = build_model(obs_dim, n_actions, seed=21, hidden=hidden)
    pi_opt, vf_opt = Adam(model.policy.flat, hyper.pi_lr), Adam(model.value.flat, hyper.vf_lr)
    policy = ArrayMlp((obs_dim, *hidden, n_actions), rng_for(21, 0), FINAL_LAYER_SCALE)
    value = ArrayMlp((obs_dim, *hidden, 1), rng_for(21, 1), FINAL_LAYER_SCALE)
    oracle_pi = ArrayAdam(policy.weights + policy.biases, hyper.pi_lr)
    oracle_vf = ArrayAdam(value.weights + value.biases, hyper.vf_lr)
    rng = np.random.default_rng(22)
    for _ in range(3):
        batch = make_batch(model, size, rng)
        batch.log_probs_old += shift
        out = ppo_update(model, batch, hyper, pi_opt, vf_opt)
        assert out == array_ppo_update(policy, value, batch, hyper, oracle_pi, oracle_vf)
        assert out["pi_steps"] == {"kl_stop_at_first_step": 0, "kl_stop_never": hyper.pi_iters}.get(case, out["pi_steps"])
        # each vector holds the oracle's arrays in their memory order, bit for bit
        for net, opt, oracle_net, oracle_opt in ((model.policy, pi_opt, policy, oracle_pi), (model.value, vf_opt, value, oracle_vf)):
            assert net.flat.tobytes() == _memory_order(oracle_net.weights + oracle_net.biases)
            assert opt.m.tobytes() == _memory_order(oracle_opt.m)
            assert opt.v.tobytes() == _memory_order(oracle_opt.v)
            assert opt.t == oracle_opt.t
    assert policy.weights[-1].flags.f_contiguous == (n_actions > hidden[-1])


# --- gradient checks --------------------------------------------------------

def central_difference(loss_of_flat, flat, h=1e-6):
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += h
        down = flat.copy()
        down[i] -= h
        grad[i] = (loss_of_flat(up) - loss_of_flat(down)) / (2 * h)
    return grad


def flatten_grads(grad_w, grad_b):
    return np.concatenate([g.ravel() for g in grad_w + grad_b])


def test_policy_gradient_matches_finite_differences():
    rng = np.random.default_rng(15)
    for trial in range(5):
        net = Mlp((4, 8, 3), np.random.default_rng(100 + trial))
        obs = rng.random((6, 4))
        actions = rng.integers(0, 3, size=6)
        logp_old = log_softmax(net.forward(obs))[np.arange(6), actions] + rng.uniform(-0.05, 0.05, 6)
        advantages = rng.standard_normal(6)

        _, grad_w, grad_b, _ = policy_loss_and_grads(net, obs, actions, logp_old, advantages, 0.2)
        analytic = flatten_grads(grad_w, grad_b)

        center = net.get_flat()

        def loss_of(flat):
            net.set_flat(flat)
            loss, *_ = policy_loss_and_grads(net, obs, actions, logp_old, advantages, 0.2)
            return loss

        numeric = central_difference(loss_of, center)
        net.set_flat(center)
        rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(numeric), 1e-12)
        assert rel <= 1e-4, trial


def test_value_gradient_matches_finite_differences():
    rng = np.random.default_rng(16)
    net = Mlp((4, 8, 1), np.random.default_rng(17))
    obs = rng.random((6, 4))
    returns = rng.standard_normal(6)
    _, grad_w, grad_b = value_loss_and_grads(net, obs, returns)
    analytic = flatten_grads(grad_w, grad_b)
    center = net.get_flat()

    def loss_of(flat):
        net.set_flat(flat)
        loss, *_ = value_loss_and_grads(net, obs, returns)
        return loss

    numeric = central_difference(loss_of, center)
    rel = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(numeric), 1e-12)
    assert rel <= 1e-4


# --- environment ------------------------------------------------------------

def test_reset_observation_near_uniform():
    env = CircuitBuildEnv(toy_instance(), EnvConfig(shots=1000), seed=1)
    obs = env.reset()
    assert obs.shape == (4,)
    assert abs(obs.sum() - 1.0) <= 1e-9
    assert np.max(np.abs(obs - 0.25)) <= 0.05
    assert env.patience == 3
    assert env.steps == 0


def test_step_rejects_bad_action_ids():
    env = CircuitBuildEnv(toy_instance(), EnvConfig(shots=50, optimizer=OptimizerConfig(max_iterations=5)), seed=0)
    env.reset()
    with pytest.raises(ValueError):
        env.step(env.n_actions)


def scripted_env(monkeypatch, inst, expectations, **kwargs):
    """Environment whose optimization is a no-op and whose reward estimates
    follow a script; isolates the episode bookkeeping."""
    script = iter(expectations)
    monkeypatch.setattr(
        env_module,
        "optimize_circuit",
        lambda circuit, *a, **k: OptimizationResult(circuit.params.copy(), 0.0, 1, True),
    )
    monkeypatch.setattr(env_module, "estimate_expectation", lambda dist, ham: next(script))
    return CircuitBuildEnv(inst, EnvConfig(shots=10, **kwargs), seed=0)


def test_reward_arithmetic():
    assert -(-5.0) - 0.015 * 10 == pytest.approx(4.85)


def test_reward_identity_on_scripted_step(monkeypatch):
    env = scripted_env(monkeypatch, toy_instance(), [-5.0])
    env.reset()
    _, reward, _, info = env.step(0)
    assert reward == -info.expectation - env.config.beta * info.depth
    assert info.expectation == -5.0


def test_patience_exhaustion_ends_episode(monkeypatch):
    # best reward 2.0 at step 2, then three strictly worse steps
    env = scripted_env(monkeypatch, toy_instance(4), [-1.0, -2.0, -1.5, -1.4, -1.3], beta=0.0)
    env.reset()
    outcomes = []
    for action in range(5):
        _, reward, done, info = env.step(action)
        outcomes.append((reward, info.patience, done))
    assert [o[1] for o in outcomes] == [3, 3, 2, 1, 0]
    assert [o[2] for o in outcomes] == [False, False, False, False, True]


def test_patience_recovers_but_is_capped(monkeypatch):
    env = scripted_env(monkeypatch, toy_instance(4), [-1.0, -0.5, -0.5, -2.0, -2.0], beta=0.0)
    env.reset()
    patience = []
    for action in range(5):
        _, _, _, info = env.step(action)
        patience.append(info.patience)
    # worse, worse, better (recover +1), better-or-equal (capped at 3)
    assert patience == [3, 2, 1, 2, 3]


def test_tied_reward_does_not_decrement_patience(monkeypatch):
    env = scripted_env(monkeypatch, toy_instance(4), [-1.0, -1.0, -1.0], beta=0.0)
    env.reset()
    for action in range(3):
        _, _, done, info = env.step(action)
        assert info.patience == 3
    assert not done


def test_episode_caps_at_two_n_steps(monkeypatch):
    n = 3
    inst = make_instance("cycle", n, 0, "maxcut")
    improving = [-float(k) for k in range(1, 2 * n + 1)]
    env = scripted_env(monkeypatch, inst, improving, beta=0.0)
    env.reset()
    for step in range(2 * n):
        _, _, done, info = env.step(0)
        assert info.step == step + 1
    assert done
    with pytest.raises(RuntimeError):
        env.step(0)


def test_real_step_reward_identity_and_gate_growth():
    inst = toy_instance()
    env = CircuitBuildEnv(inst, EnvConfig(shots=200, optimizer=OptimizerConfig(max_iterations=20)), seed=3)
    env.reset()
    n_gates_before = len(env.circuit.gates)
    obs, reward, _, info = env.step(7)
    assert len(env.circuit.gates) == n_gates_before + 1
    assert env.circuit.gates[-1].param_index is not None
    assert reward == -info.expectation - env.config.beta * info.depth
    assert abs(obs.sum() - 1.0) <= 1e-9


# --- training loop ----------------------------------------------------------

TOY_TRAIN = dict(
    epochs=2,
    steps_per_epoch=8,
    workers=2,
    shots=100,
    optimizer=OptimizerConfig(max_iterations=20),
)


def test_train_toy_run_plumbing():
    inst = toy_instance()
    result = train(inst, TrainConfig(**TOY_TRAIN), seed=5)
    assert len(result.history) == 2
    assert len(result.steps) == 16
    assert len(result.best_circuit.gates) > inst.n
    assert result.best_reward == max(row["reward"] for row in result.steps)
    for row in result.steps:
        assert row["step"] <= 2 * inst.n
        assert 0 <= row["patience"] <= 3
        assert 0 <= row["action_id"] < 3 * inst.n + 9 * inst.n * (inst.n - 1) // 2
        assert row["reward"] == -row["expectation"] - 0.015 * row["depth"]


def test_train_deterministic_across_runs():
    inst = toy_instance()
    a = train(inst, TrainConfig(**TOY_TRAIN), seed=9)
    b = train(inst, TrainConfig(**TOY_TRAIN), seed=9)
    assert a.best_reward == b.best_reward
    assert a.steps == b.steps
    assert [h["kl"] for h in a.history] == [h["kl"] for h in b.history]


def test_train_validates_worker_split():
    inst = toy_instance()
    with pytest.raises(Exception):
        train(inst, TrainConfig(epochs=1, steps_per_epoch=5, workers=2), seed=0)


def traced_peak_over_estimate(n: int) -> float:
    import tracemalloc

    inst = make_instance("cycle", n, 0, "maxcut")
    cfg = TrainConfig(epochs=1, steps_per_epoch=8, workers=1, optimizer=OptimizerConfig(max_iterations=10))
    tracemalloc.start()
    try:
        train(inst, cfg, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / cfg.array_bytes(inst.n)


def test_array_bytes_estimate_matches_the_traced_peak():
    assert 0.9 <= traced_peak_over_estimate(12) <= 1.1


def test_array_bytes_estimate_matches_the_traced_peak_at_n10():
    # the policy's output layer is 42% of its first layer here
    assert 0.9 <= traced_peak_over_estimate(10) <= 1.1


def test_update_batch_follows_the_step_log(monkeypatch):
    batches = []
    update = training.ppo_update

    def spy(model, batch, *args):
        batches.append(batch)
        return update(model, batch, *args)

    monkeypatch.setattr(training, "ppo_update", spy)
    # 3 steps per worker per epoch, episodes of up to 4 steps: some run across an epoch boundary
    cfg = TrainConfig(epochs=3, steps_per_epoch=9, workers=3, shots=100, optimizer=OptimizerConfig(max_iterations=20))
    result = train(toy_instance(), cfg, seed=4)
    epochs_of = {}
    for row in result.steps:
        epochs_of.setdefault((row["worker"], row["episode"]), set()).add(row["epoch"])
    assert any(len(epochs) > 1 for epochs in epochs_of.values())
    assert any(row["done"] for row in result.steps)
    assert len(batches) == 3
    for epoch, batch in enumerate(batches):
        rows = [row for row in result.steps if row["epoch"] == epoch]
        assert batch.actions.tolist() == [row["action_id"] for row in rows]
        done = [t for t, row in enumerate(rows) if row["done"]]
        assert batch.returns[done].tolist() == [rows[t]["reward"] for t in done]
