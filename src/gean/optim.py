"""Adam optimizer, parameter initializers, and seed handling."""

import os

import numpy as np

from .errors import GeanError

SEED_ENV = "GEAN_SEED"


def resolve_seed(seed=None):
    """Explicit seed, else the GEAN_SEED env var, else 0."""
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return int(env)
    return 0 if seed is None else int(seed)


def finite_loss(loss, step):
    """The loss as a float; a NaN or infinite loss raises FloatingPointError
    naming the 1-based step, before the optimizer spreads it."""
    value = loss.item()
    if not np.isfinite(value):
        raise FloatingPointError("non-finite loss %s at training step %d"
                                 % (value, step + 1))
    return value


# Adam walks each Parameter in blocks of this many elements: the block's
# data, grad, m, v and two scratch buffers, 6 x 256 KB in float32, stay in
# a 2 MB L2 cache while the block's seven updates run over them.
ADAM_BLOCK = 65536
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the defaults of arXiv:1412.6980


class AdamState:
    """Adam with bias correction; moments live per parameter by name."""

    def __init__(self, lr=1e-4):
        if lr < 0:
            raise GeanError("learning rate must be >= 0, got %g" % lr)
        self.lr = lr
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params):
        """One update over `params`, in place and block by block; each
        Parameter keeps its grad array, zero-filled afterwards.

        Elementwise, every block runs the operations and operand dtypes of
        the whole-array update, so the result is the same to the bit.
        """
        self.t += 1
        b1, b2, lr, eps = BETA1, BETA2, self.lr, EPS
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        scratch = {}
        for p in params:
            dtype = p.data.dtype
            # a flat view of a non-C-contiguous array would be a copy, and
            # the update or the zero-fill would be lost; the grad is held in
            # the Parameter's dtype
            p.data = np.asarray(p.data, order="C")
            p.grad = (np.zeros(p.shape, dtype) if p.grad is None
                      else np.asarray(p.grad, dtype, order="C"))
            if p.name not in self.m:
                self.m[p.name] = np.zeros(p.shape, dtype)
                self.v[p.name] = np.zeros(p.shape, dtype)
            flat = [a.reshape(-1) for a in
                    (p.data, p.grad, self.m[p.name], self.v[p.name])]
            if dtype not in scratch:
                scratch[dtype] = (np.empty(ADAM_BLOCK, dtype),
                                  np.empty(ADAM_BLOCK, dtype))
            for lo in range(0, p.data.size, ADAM_BLOCK):
                d, g, m, v = (a[lo:lo + ADAM_BLOCK] for a in flat)
                a, b = (s[:d.size] for s in scratch[dtype])
                m *= b1
                np.multiply(g, 1 - b1, out=a)
                m += a
                v *= b2
                np.multiply(g, 1 - b2, out=a)
                a *= g
                v += a
                np.divide(m, c1, out=a)  # m_hat
                a *= lr
                np.divide(v, c2, out=b)  # v_hat
                np.sqrt(b, out=b)
                b += eps
                a /= b
                d -= a
                g.fill(0)


def init_xavier(shape, rng, dtype=np.float64):
    """Uniform in +/- sqrt(6 / (fan_in + fan_out)).

    Matrices (out, in); conv kernels (kh, kw, cin, cout).
    """
    shape = tuple(shape)
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    elif len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 4:
        kh, kw, cin, cout = shape
        fan_in = kh * kw * cin
        fan_out = kh * kw * cout
    else:
        raise GeanError("unsupported shape for xavier init: %s" % (shape,))
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_orthogonal(shape, rng, dtype=np.float64):
    """Matrix with orthonormal rows or columns via sign-corrected QR."""
    rows, cols = shape
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].astype(dtype)
