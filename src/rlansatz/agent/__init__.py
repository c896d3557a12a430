"""Reinforcement-learning agent: environment, networks and training loop."""

from .training import TrainConfig, train
