"""Small fully-connected networks with hand-written backprop, plus Adam.

Kept dependency-free (numpy only) so training is bit-deterministic
given a seed and the analytic gradients can be checked against finite
differences directly.
"""

from __future__ import annotations

import math

import numpy as np

HIDDEN_GAIN = math.sqrt(2.0)  # orthogonal-init gain of the tanh hidden layers
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def orthogonal_init(rng: np.random.Generator, shape: tuple[int, int], gain: float) -> np.ndarray:
    """Orthogonal weight matrix scaled by ``gain``, deterministic in rng."""
    rows, cols = shape
    big, small = max(rows, cols), min(rows, cols)
    a = rng.standard_normal((big, small))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    w = q if rows >= cols else q.T
    return np.ascontiguousarray(gain * w, dtype=np.float64)


class Mlp:
    """Feed-forward net: tanh hidden layers, linear output.

    ``forward`` returns the output and a cache of layer activations;
    ``backward`` consumes the cache and the gradient at the output and
    returns per-parameter gradients in ``parameters()`` order.

    Inputs that stay fixed across many calls can be folded: ``fold``
    turns the nonzero trailing inputs into their share of the first
    layer's pre-activation, bias included, and ``forward(head, folded)``
    then multiplies only the leading inputs ``head``.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator, out_gain: float = 1.0):
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        last = len(sizes) - 2
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            gain = out_gain if i == last else HIDDEN_GAIN
            self.weights.append(orthogonal_init(rng, (fan_in, fan_out), gain))
            self.biases.append(np.zeros(fan_out, dtype=np.float64))

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def fold(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """First-layer pre-activation of the inputs ``x`` at positions
        ``rows``, every other trailing input 0, bias included."""
        return x @ self.weights[0][rows] + self.biases[0]

    def forward(
        self, x: np.ndarray, folded: "np.ndarray | None" = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Output and activation cache for ``x``. With ``folded`` (from
        ``fold``), ``x`` holds only the leading inputs and ``folded``
        stands in for the rest; ``backward`` needs an unfolded cache."""
        h = np.asarray(x, dtype=np.float64)
        cache = [h]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i == 0 and folded is not None:
                w, b = w[: h.shape[-1]], folded
            z = h @ w + b
            h = np.tanh(z) if i < self.num_layers - 1 else z
            cache.append(h)
        return h, cache

    def __call__(self, x: np.ndarray, folded: "np.ndarray | None" = None) -> np.ndarray:
        return self.forward(x, folded)[0]

    def backward(self, cache: list[np.ndarray], grad_out: np.ndarray) -> list[np.ndarray]:
        grads: list[np.ndarray] = [np.empty(0)] * (2 * self.num_layers)
        g = np.asarray(grad_out, dtype=np.float64)
        for i in range(self.num_layers - 1, -1, -1):
            grads[2 * i] = cache[i].T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            if i > 0:
                g = (g @ self.weights[i].T) * (1.0 - cache[i] ** 2)
        return grads

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


class Adam:
    """Adam over a fixed list of parameter arrays, updated in place.

    The moments are kept per array and the step count is shared, so one
    optimizer over two networks' parameter lists updates each array
    exactly as one optimizer per network would at the same ``lr``.
    """

    def __init__(self, params: list[np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)

    def state(self) -> dict:
        return {
            "t": self.t,
            "m": [m.copy() for m in self.m],
            "v": [v.copy() for v in self.v],
        }

    def restore(self, state: dict) -> None:
        self.t = state["t"]
        self.m = [m.copy() for m in state["m"]]
        self.v = [v.copy() for v in state["v"]]
