"""Reinforcement-learning agent: environment, networks and training loop."""

from .env import CircuitBuildEnv, EnvConfig, StepInfo
from .networks import Adam, Mlp
from .ppo import (
    Batch,
    PpoHyperparams,
    PpoModel,
    Segment,
    build_model,
    compute_returns_and_advantages,
    normalize_advantages,
    policy_forward,
    policy_loss_and_grads,
    ppo_update,
    sample_action,
    value_loss_and_grads,
)
from .training import TrainConfig, TrainResult, train

__all__ = [
    "Adam",
    "Batch",
    "CircuitBuildEnv",
    "EnvConfig",
    "Mlp",
    "PpoHyperparams",
    "PpoModel",
    "Segment",
    "StepInfo",
    "TrainConfig",
    "TrainResult",
    "build_model",
    "compute_returns_and_advantages",
    "normalize_advantages",
    "policy_forward",
    "policy_loss_and_grads",
    "ppo_update",
    "sample_action",
    "train",
    "value_loss_and_grads",
]
