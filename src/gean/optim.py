"""Adam optimizer, parameter initializers, and seed handling."""

import os

import numpy as np

from .errors import ConfigError

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


class AdamState:
    """Adam with bias correction; moments live per parameter by name."""

    def __init__(self, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr < 0:
            raise ConfigError("learning rate must be >= 0, got %g" % lr)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params):
        """One update over `params`; zero-fills each grad afterwards."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m.get(p.name)
            if m is None:
                m = np.zeros_like(p.data)
                self.m[p.name] = m
                self.v[p.name] = np.zeros_like(p.data)
            v = self.v[p.name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.zero_grad()


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
        raise ConfigError("unsupported shape for xavier init: %s" % (shape,))
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
