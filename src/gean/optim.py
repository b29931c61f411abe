"""Adam optimizer, parameter initializers, and seed handling."""

import os

import numpy as np

from .errors import GeanError

SEED_ENV = "GEAN_SEED"


def resolve_seed(seed):
    """The GEAN_SEED env var if set (it overrides an explicit seed), else
    the explicit seed, else 0."""
    env = os.environ.get(SEED_ENV)
    if env is None:
        return 0 if seed is None else int(seed)
    try:
        value = int(env)
    except ValueError:
        raise GeanError("%s=%r is not an integer" % (SEED_ENV, env)) from None
    if value < 0:
        raise GeanError("%s=%r is negative" % (SEED_ENV, env))
    return value


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
# a 2 MB L2 cache while the block's updates run over them.
ADAM_BLOCK = 65536
# Factors (A, B) are multiplied out about this many elements of A^T @ B per
# GEMM: on the default decoder 2^18 took 1.5 ms more a step, 2^20 no less.
PRODUCT_BLOCK = 1 << 19
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the defaults of arXiv:1412.6980


class AdamState:
    """Adam with bias correction; moments live per parameter by name."""

    def __init__(self, lr):
        self.lr = float(lr)
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params):
        """One update over `params`, in place and block by block, in the
        efficient form of arXiv:1412.6980 Sec. 2, adding each Parameter's
        pending l2 term per block. A dense grad is kept, zero-filled and
        fresh; pending factors alone are multiplied out in scratch, so their
        Parameter is given no grad. The step scalars are Python floats, as a
        numpy float64 would cast every float32 block."""
        self.t += 1
        b1, b2, root_c2 = BETA1, BETA2, (1 - BETA2 ** self.t) ** 0.5
        alpha = self.lr * root_c2 / (1 - b1 ** self.t)
        eps = EPS * root_c2
        scratch = {}
        for p in params:
            dtype = p.data.dtype
            l2, p.l2 = p.l2, 0.0  # taken first: reading grad would fold it
            # a flat view of a non-C-contiguous array would be a copy, and
            # the update or the zero-fill would be lost; the grad is held in
            # the Parameter's dtype, with any factors folded in
            p.data = np.asarray(p.data, order="C")
            if p._grad is not None:
                p._grad = np.asarray(p.grad, dtype, order="C")
            factors, p.factors = p.factors, None
            if p._grad is None and factors is None:  # zeros: an empty product
                factors = (np.empty((0, p.data.size), dtype),
                           np.empty((0, 1), dtype))
            if p.name not in self.m:
                self.m[p.name] = np.zeros(p.shape, dtype)
                self.v[p.name] = np.zeros(p.shape, dtype)
            flat = [a.reshape(-1) for a in
                    (p.data, self.m[p.name], self.v[p.name])]
            if dtype not in scratch:
                scratch[dtype] = [np.empty(n, dtype) for n in
                                  (ADAM_BLOCK, ADAM_BLOCK, PRODUCT_BLOCK)]
            bufs = scratch[dtype]
            for lo, g in _gradient_blocks(p, factors, bufs):
                d, m, v = (a[lo:lo + g.size] for a in flat)
                a, b = (s[:g.size] for s in bufs[:2])
                if l2:
                    np.multiply(d, l2, out=a)
                    g += a
                m *= b1
                np.multiply(g, 1 - b1, out=a)
                m += a
                v *= b2
                np.multiply(g, 1 - b2, out=a)
                a *= g
                v += a
                np.sqrt(v, out=b)
                b += eps
                np.multiply(m, alpha, out=a)
                a /= b
                d -= a
            p.fresh = p._grad is not None


def _gradient_blocks(p, factors, bufs):
    """(offset, block) pairs over p's flat gradient, blocks of at most
    ADAM_BLOCK elements: the dense grad's, zero-filled once used, or A^T @ B
    of factors (A, B) formed in bufs[2] in near-equal runs of whole rows.
    Every run but a single-row weight's has 2+ rows, as a one-row GEMM is
    a GEMV and rounds differently from the whole product."""
    if factors is None:
        dense = p._grad.reshape(-1)
        for lo in range(0, dense.size, ADAM_BLOCK):
            yield lo, dense[lo:lo + ADAM_BLOCK]
            dense[lo:lo + ADAM_BLOCK] = 0
        return
    a, b = factors
    rows, n = a.shape[1], b.shape[1]
    step = -(-rows // -(-rows // max(2, PRODUCT_BLOCK // n)))
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()  # a one-row last run joins the run before it
    longest = max(step, rows - starts[-1])
    if bufs[2].size < longest * n:
        bufs[2] = np.empty(longest * n, bufs[2].dtype)
    for r, end in zip(starts, starts[1:] + [rows]):
        out = bufs[2][:(end - r) * n]
        np.matmul(a.T[r:end], b, out=out.reshape(-1, n))
        for lo in range(0, out.size, ADAM_BLOCK):
            yield r * n + lo, out[lo:lo + ADAM_BLOCK]


def init_xavier(shape, rng, dtype):
    """Uniform in +/- sqrt(6 / (fan_in + fan_out)).

    Matrices (out, in); conv kernels (kh, kw, cin, cout).
    """
    shape = tuple(shape)
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    elif len(shape) == 2:
        fan_out, fan_in = shape
    else:
        kh, kw, cin, cout = shape
        fan_in = kh * kw * cin
        fan_out = kh * kw * cout
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_orthogonal(shape, rng, dtype):
    """Matrix with orthonormal rows or columns via sign-corrected QR."""
    rows, cols = shape
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].astype(dtype)
