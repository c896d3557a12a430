"""Training loop: collect gate-appending rollouts, update the agent per epoch.

Rollout workers are independent environments with disjoint seed streams,
collected sequentially in a fixed order and synchronized at the per-epoch
update, so any worker count is exactly reproducible from the master seed.
Episodes cut by an epoch boundary bootstrap from the value head and resume
in the next epoch. The best-reward circuit over the whole run is kept
(first occurrence wins ties).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits import Circuit, action_space
from ..errors import ConfigurationError
from ..problems import ProblemInstance
from ..seeding import derive_seed, rng_for
from .env import CircuitBuildEnv, EnvConfig
from .networks import Adam, parameter_count
from .ppo import (
    Batch,
    PpoHyperparams,
    build_model,
    compute_returns_and_advantages,
    ppo_update,
    sample_action,
)

_MODEL_STREAM = 0
_ENV_STREAM = 1
_ACTION_STREAM = 2

# The largest array_bytes estimate a run may have. A fixed bound keeps a
# config valid or invalid on every machine alike.
ARRAY_BYTES_BOUND = 2 << 30


@dataclass
class TrainConfig(EnvConfig):
    """Environment settings plus the rollout schedule and PPO settings."""

    epochs: int = 64
    steps_per_epoch: int = 384
    workers: int = 6  # logical rollout workers; steps split evenly
    ppo: PpoHyperparams = field(default_factory=PpoHyperparams)

    def validate(self) -> None:
        if self.epochs < 1 or self.steps_per_epoch < 1 or self.workers < 1:
            raise ConfigurationError("epochs, steps_per_epoch and workers must be positive")
        if self.steps_per_epoch % self.workers != 0:
            raise ConfigurationError(
                f"steps_per_epoch={self.steps_per_epoch} must divide evenly over workers={self.workers}"
            )

    def array_bytes(self, n: int) -> int:
        """Estimated peak bytes of the arrays a run on n qubits holds, from its two largest kinds.

        The epoch's observation batch is steps_per_epoch x 2^n float64. Each
        network is one float64 vector led by its 2^n x hidden[0] first layer,
        and a policy step of the update holds nine such vectors at once: each
        network's parameters and Adam's two moments, the policy's gradient
        and the two temporaries of its Adam step.
        """
        obs_dim = 1 << n
        policy = parameter_count((obs_dim, *self.ppo.hidden, action_space(n).size))
        value = parameter_count((obs_dim, *self.ppo.hidden, 1))
        return 8 * (self.steps_per_epoch * obs_dim + 6 * policy + 3 * value)


@dataclass
class TrainResult:
    best_circuit: Circuit
    best_reward: float
    best_expectation: float
    history: list[dict]


def train(inst: ProblemInstance, cfg: TrainConfig, seed: int, log_step=None) -> TrainResult:
    """Train an agent on one instance; fully deterministic in (cfg, seed).

    ``log_step``, if given, gets each step's row (the ``steps.csv`` columns) as the step ends.
    """
    cfg.validate()
    # per worker: (env, action rng, current observation, return of the open episode)
    workers = []
    for w in range(cfg.workers):
        env = CircuitBuildEnv(inst, cfg, seed=derive_seed(seed, _ENV_STREAM, w))
        workers.append((env, rng_for(seed, _ACTION_STREAM, w), env.reset(), 0.0))
    obs_dim = env.observation_dim  # the same for every worker
    model = build_model(obs_dim, env.n_actions, derive_seed(seed, _MODEL_STREAM), cfg.ppo.hidden)
    pi_opt = Adam(model.policy.flat, cfg.ppo.pi_lr)
    vf_opt = Adam(model.value.flat, cfg.ppo.vf_lr)

    steps_per_worker = cfg.steps_per_epoch // cfg.workers
    best_reward = -np.inf
    best_circuit: Circuit | None = None
    best_expectation = np.nan
    history: list[dict] = []

    # One observation buffer for every epoch: a batch is spent once its update
    # returns, and a second 2^n-wide batch would outweigh the networks.
    observations = np.empty((cfg.steps_per_epoch, obs_dim))
    for epoch in range(cfg.epochs):
        # the epoch's transitions, worker by worker in step order (the order log_step sees)
        actions = np.empty(cfg.steps_per_epoch, dtype=int)
        log_probs = np.empty(cfg.steps_per_epoch)
        values = np.empty(cfg.steps_per_epoch)
        rewards = np.empty(cfg.steps_per_epoch)
        bootstrap = np.full(cfg.steps_per_epoch, np.nan)  # set at the last transition of each segment
        episode_returns: list[float] = []
        t = 0
        for w, (env, rng, observation, episode_return) in enumerate(workers):
            for _ in range(steps_per_worker):
                observations[t] = observation
                action, log_probs[t], values[t] = sample_action(model, observation, rng)
                observation, reward, done, info = env.step(action)
                actions[t] = action
                rewards[t] = reward
                episode_return += reward

                if log_step is not None:
                    # StepInfo holds only scalars, so vars() gives asdict()'s row without its deep copy
                    log_step({"epoch": epoch, "worker": w, **vars(info), "done": int(done)})

                if reward > best_reward:
                    best_reward = reward
                    best_circuit = env.circuit.copy()
                    best_expectation = info.expectation

                if done:
                    bootstrap[t] = 0.0
                    episode_returns.append(episode_return)
                    observation = env.reset()
                    episode_return = 0.0
                t += 1
            if not done:
                # epoch boundary: bootstrap the open episode and keep it running
                bootstrap[t - 1] = float(model.value.forward(observation)[0, 0])
            workers[w] = (env, rng, observation, episode_return)

        returns, advantages = compute_returns_and_advantages(
            rewards, values, bootstrap, cfg.ppo.gamma, cfg.ppo.gae_lambda
        )
        batch = Batch(observations, actions, log_probs, returns, advantages)
        diagnostics = ppo_update(model, batch, cfg.ppo, pi_opt, vf_opt)
        history.append(
            {
                "epoch": epoch,
                "steps": len(batch.actions),
                "episodes_completed": len(episode_returns),
                "mean_reward": float(np.mean(rewards)),
                "mean_episode_return": float(np.mean(episode_returns)) if episode_returns else float("nan"),
                "best_reward": float(best_reward),
                **diagnostics,
            }
        )

    assert best_circuit is not None
    return TrainResult(
        best_circuit=best_circuit,
        best_reward=float(best_reward),
        best_expectation=float(best_expectation),
        history=history,
    )
