"""Fully-connected networks with manual gradients, plus Adam.

Small enough to gradient-check against finite differences, which the test
suite does; no autograd framework involved.
"""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


def _orthogonal(rows: int, cols: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix QR sign ambiguity
    if rows < cols:
        q = q.T
    return scale * q[:rows, :cols]


class Mlp:
    """tanh hidden layers, linear output; weights W[l] map layer l to l+1."""

    def __init__(self, sizes: tuple[int, ...], rng: np.random.Generator, final_scale: float = 1.0):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        last = len(sizes) - 2
        for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            scale = final_scale if layer == last else 1.0
            self.weights.append(_orthogonal(fan_in, fan_out, rng, scale))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (output, activations); activations[l] feeds weights[l]."""
        h = np.atleast_2d(np.asarray(x, dtype=float))
        activations = [h]
        for layer in range(self.n_layers):
            z = h @ self.weights[layer] + self.biases[layer]
            h = np.tanh(z) if layer < self.n_layers - 1 else z
            activations.append(h)
        return h, activations

    def backward(self, activations: list[np.ndarray], grad_out: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Gradients of a scalar loss given d loss / d output."""
        grad_w: list[np.ndarray] = []
        grad_b: list[np.ndarray] = []
        delta = np.atleast_2d(grad_out)
        for layer in range(self.n_layers - 1, -1, -1):
            grad_w.append(activations[layer].T @ delta)
            grad_b.append(delta.sum(axis=0))
            if layer > 0:
                # activations[layer] is tanh(z); tanh' = 1 - tanh^2
                delta = (delta @ self.weights[layer].T) * (1.0 - activations[layer] ** 2)
        return grad_w[::-1], grad_b[::-1]

    # flat views, used by the finite-difference checks
    def get_flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weights + self.biases])

    def set_flat(self, flat: np.ndarray) -> None:
        offset = 0
        for arr in self.weights + self.biases:
            arr[...] = flat[offset : offset + arr.size].reshape(arr.shape)
            offset += arr.size
        if offset != flat.size:
            raise ValueError(f"expected {offset} values, got {flat.size}")

    def parameter_arrays(self) -> list[np.ndarray]:
        return self.weights + self.biases


class Adam:
    """Adaptive moment estimation over a fixed list of parameter arrays."""

    def __init__(self, arrays: list[np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            a -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)
