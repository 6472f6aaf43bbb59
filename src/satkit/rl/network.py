"""Small fully-connected networks with hand-written backprop, plus Adam.

Kept dependency-free (numpy only) so training is bit-deterministic
given a seed and the analytic gradients can be checked against finite
differences directly.

A layer adds its bias and takes its tanh in place on its fresh
product, so a forward pass allocates one array per layer, which the
activation cache keeps for ``backward``.

Weights start orthogonal: the Q factor of a Gaussian draw, computed by
shifted Cholesky QR (``cholesky_qr``) rather than Householder QR. Its
work is Gram products, small Cholesky factors and their inverses, all
matrix-matrix (BLAS 3) operations, so on a policy's tall first layers
it takes about half of Householder's time, for the same Q up to
rounding.

``Adam`` keeps its moments as unnormalised sums and folds both bias
corrections into two scalars per step, so a parameter block takes ten
ufunc passes with one division; see its docstring.
"""

from __future__ import annotations

import math

import numpy as np

HIDDEN_GAIN = math.sqrt(2.0)  # orthogonal-init gain of the tanh hidden layers
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
QR_BLOCK_ROWS = 256  # rows per block of the Cholesky QR products
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per Adam block: a block of p, g, m and v plus one scratch
# block is 1.25 MB of float64, which stays in a 2 MB L2 cache.
ADAM_BLOCK = 1 << 15


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of the lower triangular ``low`` = [[A, 0], [C, D]], by
    halves: A^-1 and D^-1 on the diagonal, -D^-1 C A^-1 below it. The
    work is then mostly matrix products, and takes about a third of the
    time of a general inverse at 256 x 256."""
    n = len(low)
    if n <= 32:
        return np.linalg.inv(low)
    h = n // 2
    a_inv = _lower_inverse(low[:h, :h])
    d_inv = _lower_inverse(low[h:, h:])
    out = np.zeros_like(low)
    out[:h, :h] = a_inv
    out[h:, h:] = d_inv
    out[h:, :h] = -(d_inv @ low[h:, :h] @ a_inv)
    return out


def cholesky_qr(a: np.ndarray) -> np.ndarray:
    """The Q factor of a full-rank ``a`` with at least as many rows as
    columns, the one whose R has a positive diagonal, written over ``a``.

    Shifted Cholesky QR (Fukaya et al. 2014 and 2020). A pass replaces Q
    by Q L^-T, where L L^T is the Cholesky factorisation of the Gram
    matrix Q^T Q. Each L is lower triangular with a positive diagonal,
    so the passes compose to the Q that Householder QR gives once R's
    signs are made positive. The Gram matrix squares the condition
    number, so a plain pass breaks down once the condition number of
    ``a`` passes about 1e8, which a square Gaussian draw can reach. The
    first pass therefore adds 11 (mn + n(n + 1)) u ||a||_F^2 to the Gram
    diagonal, which keeps it positive definite and leaves a Q well
    enough conditioned for the two plain passes that make it
    orthonormal to rounding (measured up to a condition number of 1e12;
    past about 1e13 a plain pass can raise ``LinAlgError``).

    A row of Q L^-T depends on the same row of Q only, so each pass
    works in place, on blocks of ``QR_BLOCK_ROWS`` rows: no second tall
    matrix is allocated, and no whole tall operand is packed into the
    BLAS work buffer, whose touched pages stay resident for the life of
    the process.
    """
    m, n = a.shape
    gram, part = np.empty((n, n)), np.empty((n, n))
    blocks = [slice(start, start + QR_BLOCK_ROWS) for start in range(0, m, QR_BLOCK_ROWS)]
    for shifted in (True, False, False):
        gram.fill(0.0)
        for rows in blocks:
            np.matmul(a[rows].T, a[rows], out=part)
            gram += part
        if shifted:
            gram.flat[:: n + 1] += 11 * (m * n + n * (n + 1)) * UNIT_ROUNDOFF * np.trace(gram)
        inverse = _lower_inverse(np.linalg.cholesky(gram))
        for rows in blocks:
            np.matmul(a[rows], inverse.T, out=a[rows])
    return a


def orthogonal_init(rng: np.random.Generator, shape: tuple[int, int], gain: float) -> np.ndarray:
    """Orthogonal weight matrix scaled by ``gain``, deterministic in rng:
    ``cholesky_qr`` of a Gaussian draw with the larger side as rows,
    transposed to ``shape`` when it is wide."""
    rows, cols = shape
    q = cholesky_qr(rng.standard_normal((max(rows, cols), min(rows, cols))))
    q *= gain
    return q if rows >= cols else np.ascontiguousarray(q.T)


class Mlp:
    """Feed-forward net: tanh hidden layers, linear output.

    ``forward`` returns the output and a cache of layer activations;
    ``backward`` consumes the cache of a folded forward and the gradient
    at the output and writes per-parameter gradients, in
    ``parameters()`` order, into arrays the caller owns.

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

    @classmethod
    def allocate(cls, sizes: list[int]) -> "Mlp":
        """A net of layer widths ``sizes`` whose parameters are allocated
        but not set, for a caller that fills every entry."""
        net = cls.__new__(cls)
        net.weights = [np.empty((fan_in, fan_out)) for fan_in, fan_out in zip(sizes, sizes[1:])]
        net.biases = [np.empty(fan_out) for fan_out in sizes[1:]]
        return net

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
        stands in for the rest, one row of it per row of ``x`` or one
        row for all. ``backward`` takes a folded cache only."""
        h = np.asarray(x, dtype=np.float64)
        cache = [h]
        last = self.num_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i == 0 and folded is not None:
                w, b = w[: h.shape[-1]], folded
            # Each layer's product is a fresh array: its bias and tanh go
            # in place, and no later step writes to a cached activation.
            h = h @ w
            h += b
            if i < last:
                np.tanh(h, out=h)
            cache.append(h)
        return h, cache

    def __call__(self, x: np.ndarray, folded: "np.ndarray | None" = None) -> np.ndarray:
        return self.forward(x, folded)[0]

    def backward(
        self,
        cache: list[np.ndarray],
        grad_out: np.ndarray,
        grads: list[np.ndarray],
        tail: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Write the per-parameter gradients, in ``parameters()`` order,
        into the arrays of ``grads`` through ``out=``, given the cache
        of a folded ``forward`` and the gradient at the output.

        ``cache[0]`` holds only the leading inputs, and ``tail = (blocks,
        owner)`` gives the trailing ones: their distinct rows ``blocks``
        and, per batch row, the index ``owner`` of its row in ``blocks``.
        The trailing rows of the first weight gradient are then
        ``blocks.T`` times the first layer's gradient summed per block,
        one product per block rather than one per batch row.
        """
        g = np.asarray(grad_out, dtype=np.float64)
        for i in range(self.num_layers - 1, -1, -1):
            x = cache[i]
            np.matmul(x.T, g, out=grads[2 * i][: x.shape[-1]])
            np.sum(g, axis=0, out=grads[2 * i + 1])
            if i > 0:
                g = (g @ self.weights[i].T) * (1.0 - x**2)
        blocks, owner = tail
        per_block = (owner == np.arange(len(blocks))[:, None]) @ g
        np.matmul(blocks.T, per_block, out=grads[0][cache[0].shape[-1] :])

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


class Adam:
    """Adam (Kingma & Ba 2015, Algorithm 1) over a fixed list of
    parameter arrays, updated in place.

    The moments are kept per array and the step count is shared, so one
    optimizer over two networks' parameter lists updates each array
    exactly as one optimizer per network would at the same ``lr``.

    ``m`` and ``v`` hold the moment sums unnormalised: ``m`` is the first
    moment over (1 - beta1), ``m <- beta1 m + g``, and ``v`` the second
    over (1 - beta2), ``v <- beta2 v + g^2``. Both bias corrections then
    fold into two scalars computed once per step, with
    r_t = sqrt((1 - beta2^t) / (1 - beta2)),

        k_t = lr (1 - beta1) / (1 - beta1^t) r_t,    eps_t = eps r_t,

    and ``p -= k_t m / (sqrt(v) + eps_t)`` is ``lr m_hat / (sqrt(v_hat) +
    eps)`` in exact arithmetic, eps in the same place. A block takes ten
    ufunc passes, one of them a division, against fourteen with three
    divisions when the moments and the corrections are applied term by
    term; the rounding differs, so the last bits of training do too.

    A step walks each array in blocks of ``ADAM_BLOCK`` elements and
    finishes the update of one block, through one scratch buffer
    allocated once, before it starts the next. A step thus allocates no
    full-size temporaries, whose fresh pages cost a whole-array update
    much of its time in training, and each array crosses memory once.
    Every element still sees the same float64 operations on the same
    operands in the same order as in a whole-array update, so the
    parameters and moments are bit-identical to it. The blocks are
    views of the flattened arrays, so parameters must be C-contiguous.
    """

    def __init__(self, params: list[np.ndarray], lr: float):
        for i, p in enumerate(params):
            if not p.flags.c_contiguous:
                raise ValueError(f"Adam updates C-contiguous arrays only; parameter {i} is not")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = np.empty(ADAM_BLOCK)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if not len(params) == len(grads) == len(self.m) == len(self.v):
            # checked before anything moves, so a refused step changes nothing
            raise ValueError(
                f"Adam steps {len(self.m)} parameter arrays, got {len(params)} "
                f"parameters and {len(grads)} gradients"
            )
        self.t += 1
        root = math.sqrt((1.0 - ADAM_BETA2**self.t) / (1.0 - ADAM_BETA2))
        k = self.lr * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1**self.t) * root
        eps = ADAM_EPS * root
        for arrays in zip(params, grads, self.m, self.v, strict=True):
            p, g, m, v = (x.reshape(-1) for x in arrays)
            for start in range(0, p.size, ADAM_BLOCK):
                end = start + ADAM_BLOCK
                pb, gb, mb, vb = p[start:end], g[start:end], m[start:end], v[start:end]
                a = self._scratch[: pb.size]
                mb *= ADAM_BETA1
                mb += gb
                vb *= ADAM_BETA2
                np.multiply(gb, gb, out=a)
                vb += a
                np.sqrt(vb, out=a)
                a += eps
                np.divide(mb, a, out=a)
                a *= k
                pb -= a
