"""Clipped-surrogate policy optimization over collected trajectories.

Two separate networks share one architecture: the policy maps an
observation to action logits, the value head to a scalar return estimate.
Updates maximize min(ratio * A, clip(ratio, 1 +- eps) * A) on normalized
advantages and regress the value head on discounted returns, with an
approximate-KL early stop on the policy steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..seeding import rng_for
from .networks import Adam, Mlp

DEFAULT_HIDDEN = (64, 64)
FINAL_LAYER_SCALE = 0.01  # near-uniform initial policy


@dataclass
class PpoHyperparams:
    clip_ratio: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.97
    pi_lr: float = 3e-4
    vf_lr: float = 1e-3
    pi_iters: int = 80
    vf_iters: int = 80
    target_kl: float = 0.015
    hidden: tuple[int, ...] = DEFAULT_HIDDEN


@dataclass
class PpoModel:
    policy: Mlp
    value: Mlp


def build_model(obs_dim: int, n_actions: int, seed: int, hidden: tuple[int, ...] = DEFAULT_HIDDEN) -> PpoModel:
    policy = Mlp((obs_dim, *hidden, n_actions), rng_for(seed, 0), final_scale=FINAL_LAYER_SCALE)
    value = Mlp((obs_dim, *hidden, 1), rng_for(seed, 1), final_scale=FINAL_LAYER_SCALE)
    return PpoModel(policy, value)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.atleast_2d(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def sample_action(model: PpoModel, obs: np.ndarray, rng: np.random.Generator) -> tuple[int, float, float]:
    """Sample an action; returns (action id, its log-probability, value estimate)."""
    logp = log_softmax(model.policy.forward(obs))[0]
    action = int(rng.choice(logp.size, p=np.exp(logp)))
    value = float(model.value.forward(obs)[0, 0])
    return action, float(logp[action]), value


def compute_returns_and_advantages(
    rewards: np.ndarray, values: np.ndarray, bootstrap: np.ndarray, gamma: float, gae_lambda: float
) -> tuple[np.ndarray, np.ndarray]:
    """Discounted reward-to-go and GAE advantages, per transition.

    ``bootstrap[t]`` is NaN inside a segment of consecutive transitions. At
    the last transition of a segment it is the value both bootstrap from: 0
    when the episode ended, the value estimate of the next state when an
    epoch boundary cut it.
    """
    returns = np.empty(len(rewards))
    advantages = np.empty(len(rewards))
    g = adv = next_value = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        if not np.isnan(bootstrap[t]):
            g = next_value = bootstrap[t]
            adv = 0.0
        g = rewards[t] + gamma * g
        delta = rewards[t] + gamma * next_value - values[t]
        adv = delta + gamma * gae_lambda * adv
        next_value = values[t]
        returns[t] = g
        advantages[t] = adv
    return returns, advantages


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Shift to mean 0 and scale to std 1 (left at 0 when the batch is constant)."""
    centered = advantages - advantages.mean()
    std = centered.std()
    if std == 0.0:
        return centered
    return centered / std


@dataclass
class Batch:
    observations: np.ndarray  # (B, obs_dim)
    actions: np.ndarray  # (B,) int
    log_probs_old: np.ndarray  # (B,)
    returns: np.ndarray  # (B,)
    advantages: np.ndarray  # (B,) already normalized by ppo_update


def policy_loss_and_grads(
    policy: Mlp,
    observations: np.ndarray,
    actions: np.ndarray,
    log_probs_old: np.ndarray,
    advantages: np.ndarray,
    clip_ratio: float,
) -> tuple[float, np.ndarray, dict]:
    """Clipped-surrogate loss and its gradient (laid out like ``policy.flat``), through the softmax."""
    logits, cache = policy.forward_cached(observations)
    logp_all = log_softmax(logits)
    batch = np.arange(len(actions))
    logp = logp_all[batch, actions]
    ratio = np.exp(logp - log_probs_old)
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio)
    loss = -float(np.mean(np.minimum(ratio * advantages, clipped * advantages)))

    # d loss / d ratio is -A/B where the unclipped branch is active, else 0
    active = np.where(advantages >= 0.0, ratio <= 1.0 + clip_ratio, ratio >= 1.0 - clip_ratio)
    dl_dratio = np.where(active, -advantages, 0.0) / len(actions)
    # d ratio / d logits = ratio * (onehot - softmax)
    probs = np.exp(logp_all)
    grad_logits = probs * (-(dl_dratio * ratio))[:, None]
    grad_logits[batch, actions] += dl_dratio * ratio

    grad = policy.backward(cache, grad_logits)
    info = {
        "kl": float(np.mean(log_probs_old - logp)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > clip_ratio)),
        "entropy": float(-np.mean(np.sum(probs * logp_all, axis=1))),
    }
    return loss, grad, info


def value_loss_and_grads(value: Mlp, observations: np.ndarray, returns: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error of the value head against the returns, and its gradient (laid out like ``value.flat``)."""
    predictions, cache = value.forward_cached(observations)
    err = predictions[:, 0] - returns
    loss = float(np.mean(err**2))
    grad_out = (2.0 * err / len(returns))[:, None]
    return loss, value.backward(cache, grad_out)


def ppo_update(
    model: PpoModel,
    batch: Batch,
    hyper: PpoHyperparams,
    pi_optimizer: Adam,
    vf_optimizer: Adam,
) -> dict:
    """One epoch's worth of gradient steps on both networks.

    Policy steps stop early once the approximate KL to the collection-time
    policy exceeds the target. Returns diagnostics.
    """
    if len(batch.actions) == 0:
        raise ValueError("empty batch")
    advantages = normalize_advantages(batch.advantages)
    pi_loss_initial = None
    kl = 0.0
    clip_fraction = 0.0
    entropy = 0.0
    pi_steps = 0
    for _ in range(hyper.pi_iters):
        loss, grad, info = policy_loss_and_grads(
            model.policy, batch.observations, batch.actions, batch.log_probs_old, advantages, hyper.clip_ratio
        )
        if pi_loss_initial is None:
            pi_loss_initial = loss
        kl, clip_fraction, entropy = info["kl"], info["clip_fraction"], info["entropy"]
        if kl > hyper.target_kl:
            break
        pi_optimizer.step(model.policy.flat, grad)
        pi_steps += 1
    vf_loss_initial = None
    vf_loss = 0.0
    for _ in range(hyper.vf_iters):
        vf_loss, grad = value_loss_and_grads(model.value, batch.observations, batch.returns)
        if vf_loss_initial is None:
            vf_loss_initial = vf_loss
        vf_optimizer.step(model.value.flat, grad)
    return {
        "pi_loss": pi_loss_initial or 0.0,
        "vf_loss": vf_loss_initial or 0.0,
        "vf_loss_final": vf_loss,
        "kl": kl,
        "clip_fraction": clip_fraction,
        "entropy": entropy,
        "pi_steps": pi_steps,
    }
