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


def parameter_count(sizes: tuple[int, ...]) -> int:
    """Weights and biases of an Mlp with these layer sizes: the length of its ``flat``."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


class Mlp:
    """tanh hidden layers, linear output; weights W[l] map layer l to l+1.

    Every weight and bias is a view into one float64 vector ``flat``: the
    weights in layer order, then the biases. A weight with fewer rows than
    columns is F-ordered, as ``_orthogonal`` draws it, and the others are
    C-ordered: OpenBLAS rounds ``h @ W`` differently for the two orders, so
    the order is part of the network's bits.
    """

    def __init__(self, sizes: tuple[int, ...], rng: np.random.Generator, final_scale: float = 1.0):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        self.flat = np.zeros(parameter_count(self.sizes))
        self.weights, self.biases = self._views(self.flat)
        last = len(sizes) - 2
        for layer, w in enumerate(self.weights):
            w[...] = _orthogonal(*w.shape, rng, final_scale if layer == last else 1.0)

    def _views(self, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Weight and bias views into a vector laid out like ``flat``."""
        shapes = list(zip(self.sizes[:-1], self.sizes[1:]))
        weights, biases = [], []
        offset = 0
        for rows, cols in shapes:
            block = vector[offset : offset + rows * cols]
            weights.append(block.reshape(cols, rows).T if rows < cols else block.reshape(rows, cols))
            offset += rows * cols
        for _, cols in shapes:
            biases.append(vector[offset : offset + cols])
            offset += cols
        return weights, biases

    def __reduce_ex__(self, protocol):
        """Refuse ``copy.copy``, ``copy.deepcopy`` and pickle, which all reduce the object first.

        A copy would hold its weights as arrays apart from its ``flat``, and
        its ``forward`` would not see the Adam steps later taken on ``flat``.
        """
        raise TypeError(
            "an Mlp is not copied or pickled: its weights are views into its flat vector; "
            "copy `flat` into an Mlp of the same sizes instead"
        )

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
            h = h @ self.weights[layer]
            h += self.biases[layer]
            if layer < self.n_layers - 1:
                np.tanh(h, out=h)
            activations.append(h)
        return h, activations

    def backward(self, activations: list[np.ndarray], grad_out: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss given d loss / d output.

        A fresh vector laid out like ``flat``: entry i is d loss / d
        ``flat[i]``, so an earlier call's gradient stays as it was.
        """
        grad = np.empty_like(self.flat)
        grad_w, grad_b = self._views(grad)
        delta = np.atleast_2d(grad_out)
        for layer in range(self.n_layers - 1, -1, -1):
            if grad_w[layer].flags.c_contiguous:
                np.matmul(activations[layer].T, delta, out=grad_w[layer])
            else:  # a product written into an F-ordered view rounds differently
                grad_w[layer][...] = activations[layer].T @ delta
            np.add.reduce(delta, axis=0, out=grad_b[layer])
            if layer > 0:
                # activations[layer] is tanh(z); tanh' = 1 - tanh^2
                slope = np.square(activations[layer])
                np.subtract(1.0, slope, out=slope)
                delta = delta @ self.weights[layer].T
                delta *= slope
        return grad


class Adam:
    """Adaptive moment estimation over one parameter vector, updated in place."""

    def __init__(self, params: np.ndarray, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """params -= lr * m_hat / (sqrt(v_hat) + eps), with two temporaries the size of params."""
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        scaled = np.multiply(grad, 1.0 - BETA1)
        self.m *= BETA1
        self.m += scaled
        np.multiply(grad, 1.0 - BETA2, out=scaled)
        scaled *= grad
        self.v *= BETA2
        self.v += scaled
        np.divide(self.m, b1c, out=scaled)
        scaled *= self.lr
        denom = np.divide(self.v, b2c)
        np.sqrt(denom, out=denom)
        denom += EPS
        scaled /= denom
        params -= scaled
