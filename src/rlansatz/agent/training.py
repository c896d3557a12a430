"""Training loop: collect gate-appending rollouts, update the agent per epoch.

Rollout workers are independent environments with disjoint seed streams,
collected sequentially in a fixed order and synchronized at the per-epoch
update, so any worker count is exactly reproducible from the master seed.
Episodes cut by an epoch boundary bootstrap from the value head and resume
in the next epoch. The best-reward circuit over the whole run is kept
(first occurrence wins ties).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..circuits import Circuit
from ..errors import ConfigurationError
from ..problems import ProblemInstance
from ..seeding import derive_seed, rng_for
from .env import CircuitBuildEnv, EnvConfig
from .networks import Adam
from .ppo import (
    Batch,
    PpoHyperparams,
    Segment,
    build_model,
    compute_returns_and_advantages,
    ppo_update,
    sample_action,
)

_MODEL_STREAM = 0
_ENV_STREAM = 1
_ACTION_STREAM = 2


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


@dataclass
class TrainResult:
    best_circuit: Circuit
    best_reward: float
    best_expectation: float
    history: list[dict]
    steps: list[dict]


@dataclass
class _WorkerState:
    env: CircuitBuildEnv
    rng: np.random.Generator
    observation: np.ndarray | None = None
    segment: Segment = field(default_factory=Segment)
    episode_return: float = 0.0


def train(inst: ProblemInstance, cfg: TrainConfig, seed: int, log_step=None) -> TrainResult:
    """Train an agent on one instance; fully deterministic in (cfg, seed)."""
    cfg.validate()
    workers = [
        _WorkerState(
            env=CircuitBuildEnv(inst, cfg, seed=derive_seed(seed, _ENV_STREAM, w)),
            rng=rng_for(seed, _ACTION_STREAM, w),
        )
        for w in range(cfg.workers)
    ]
    env = workers[0].env
    model = build_model(env.observation_dim, env.n_actions, derive_seed(seed, _MODEL_STREAM), cfg.ppo.hidden)
    pi_opt = Adam(model.policy.parameter_arrays(), cfg.ppo.pi_lr)
    vf_opt = Adam(model.value.parameter_arrays(), cfg.ppo.vf_lr)

    steps_per_worker = cfg.steps_per_epoch // cfg.workers
    best_reward = -np.inf
    best_circuit: Circuit | None = None
    best_expectation = np.nan
    history: list[dict] = []
    step_log: list[dict] = []

    for epoch in range(cfg.epochs):
        segments: list[Segment] = []
        episode_returns: list[float] = []
        epoch_rewards: list[float] = []
        for w, state in enumerate(workers):
            if state.observation is None:
                state.observation = state.env.reset()
                state.segment = Segment()
                state.episode_return = 0.0
            for _ in range(steps_per_worker):
                action, logp, value = sample_action(model, state.observation, state.rng)
                observation, reward, done, info = state.env.step(action)
                state.segment.observations.append(state.observation)
                state.segment.actions.append(action)
                state.segment.rewards.append(reward)
                state.segment.values.append(value)
                state.segment.log_probs.append(logp)
                state.observation = observation
                state.episode_return += reward
                epoch_rewards.append(reward)

                row = {"epoch": epoch, "worker": w, **asdict(info), "done": int(done)}
                step_log.append(row)
                if log_step is not None:
                    log_step(row)

                if reward > best_reward:
                    best_reward = reward
                    best_circuit = state.env.circuit.copy()
                    best_expectation = info.expectation

                if done:
                    state.segment.bootstrap_value = 0.0
                    segments.append(state.segment)
                    episode_returns.append(state.episode_return)
                    state.observation = state.env.reset()
                    state.segment = Segment()
                    state.episode_return = 0.0
            if len(state.segment) > 0:
                # epoch boundary: bootstrap the open episode and keep it running
                state.segment.bootstrap_value = float(model.value.forward(state.observation)[0, 0])
                segments.append(state.segment)
                state.segment = Segment()

        returns, advantages = compute_returns_and_advantages(segments, cfg.ppo.gamma, cfg.ppo.gae_lambda)
        batch = Batch(
            observations=np.concatenate([np.asarray(s.observations) for s in segments]),
            actions=np.concatenate([np.asarray(s.actions, dtype=int) for s in segments]),
            log_probs_old=np.concatenate([np.asarray(s.log_probs) for s in segments]),
            returns=returns,
            advantages=advantages,
        )
        diagnostics = ppo_update(model, batch, cfg.ppo, pi_opt, vf_opt)
        history.append(
            {
                "epoch": epoch,
                "steps": len(batch.actions),
                "episodes_completed": len(episode_returns),
                "mean_reward": float(np.mean(epoch_rewards)),
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
        steps=step_log,
    )
