"""Environment whose actions append gates to a parametric circuit.

Each step appends the chosen gate at angle 0, re-optimizes every circuit
parameter on shot estimates (warm start), scores
``reward = -expectation - beta * depth`` with a fresh shot estimate and a
basis-gate depth, and observes a fresh estimated probability distribution
of the optimized circuit. Episodes end after ``max_episode_steps_factor * n``
steps (``2 * n`` by default) or when the patience counter runs out:
patience drops on every step whose reward is strictly below the episode's
best so far, and otherwise recovers up to its initial value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits import ActionSpace, Circuit, action_space, circuit_depth_basis, h_layer
from ..optimize import OptimizerConfig, optimize_circuit
from ..problems import ProblemInstance
from ..qsim import estimate_expectation, exact_probabilities, sample_from_probabilities, sample_shots
from ..seeding import OBS_STREAM, OPT_STREAM, REWARD_STREAM, derive_seed


@dataclass
class EnvConfig:
    """Settings of one environment: shots, reward, episode end, optimizer."""

    shots: int = 1000
    beta: float = 0.015  # depth weight in the reward
    patience: int = 3
    max_episode_steps_factor: int = 2  # episode cap = factor * n
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


@dataclass
class StepInfo:
    """Everything needed to audit or replay one environment step.

    The fields, in order, are the ``steps.csv`` columns after ``epoch`` and
    ``worker``.
    """

    episode: int
    step: int
    action_id: int
    reward: float
    expectation: float
    depth: int
    n_gates: int
    patience: int
    done: bool
    evaluations: int
    opt_seed: int
    reward_seed: int
    obs_seed: int


class CircuitBuildEnv:
    """Appends agent-chosen gates to a circuit over one problem instance."""

    def __init__(self, inst: ProblemInstance, config: EnvConfig | None = None, *, seed: int = 0):
        self.inst = inst
        self.config = config or EnvConfig()
        self.actions: ActionSpace = action_space(inst.n)
        self.seed = seed

        self.circuit: Circuit = h_layer(inst.n)
        self.episode = -1
        self.steps = 0
        self.patience = self.config.patience
        self.best_episode_reward = -np.inf
        self.done = True

    @property
    def observation_dim(self) -> int:
        return 1 << self.inst.n

    @property
    def n_actions(self) -> int:
        return self.actions.size

    def reset(self) -> np.ndarray:
        """Start a new episode from a bare Hadamard layer."""
        self.episode += 1
        self.steps = 0
        self.patience = self.config.patience
        self.best_episode_reward = -np.inf
        self.circuit = h_layer(self.inst.n)
        self.done = False
        obs_seed = derive_seed(self.seed, self.episode, 0, OBS_STREAM)
        return sample_shots(self.circuit, self.config.shots, obs_seed) / self.config.shots

    def step(self, action_id: int) -> tuple[np.ndarray, float, bool, StepInfo]:
        cfg = self.config
        if self.done:
            raise RuntimeError("episode is over; call reset()")
        if not (0 <= action_id < self.n_actions):
            raise ValueError(f"action id {action_id} out of range [0, {self.n_actions})")

        self.circuit = self.actions.apply(self.circuit, action_id)
        step_key = self.steps + 1  # 0 is the reset observation
        opt_seed = derive_seed(self.seed, self.episode, step_key, OPT_STREAM)
        result = optimize_circuit(self.circuit, self.inst.ham, cfg.shots, opt_seed, cfg.optimizer)

        # the reward and the observation sample the same optimized circuit
        probs = exact_probabilities(self.circuit)
        reward_seed = derive_seed(self.seed, self.episode, step_key, REWARD_STREAM)
        expectation = estimate_expectation(sample_from_probabilities(probs, cfg.shots, reward_seed), self.inst.ham)
        depth = circuit_depth_basis(self.circuit)
        reward = -expectation - cfg.beta * depth

        if reward < self.best_episode_reward:
            self.patience -= 1
        else:
            self.patience = min(cfg.patience, self.patience + 1)
        self.best_episode_reward = max(self.best_episode_reward, reward)

        self.steps += 1
        self.done = self.steps >= cfg.max_episode_steps_factor * self.inst.n or self.patience <= 0

        obs_seed = derive_seed(self.seed, self.episode, step_key, OBS_STREAM)
        observation = sample_from_probabilities(probs, cfg.shots, obs_seed) / cfg.shots
        info = StepInfo(
            episode=self.episode,
            step=self.steps,
            action_id=action_id,
            reward=reward,
            expectation=expectation,
            depth=depth,
            n_gates=len(self.circuit.gates),
            patience=self.patience,
            done=self.done,
            evaluations=result.evaluations,
            opt_seed=opt_seed,
            reward_seed=reward_seed,
            obs_seed=obs_seed,
        )
        return observation, reward, self.done, info
