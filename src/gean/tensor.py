"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are numpy arrays; every differentiable operation records itself on
the active Tape so that a single backward sweep (in reverse execution
order) accumulates gradients into every reachable tensor.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GeanError


# ---------------------------------------------------------------------------
# Tape and Tensor
# ---------------------------------------------------------------------------

_TAPE_STACK = []


class Tape:
    """Ordered record of executed operations for one backward sweep.

    The sweep pops each node it reaches and drops its closure and grad, so
    an activation is freed once no earlier node needs it, even while the
    caller holds the loss; a tape is swept once. Parameters are leaves: the
    weight gradient of each is formed when the sweep ends, from the stacked
    entries (a, b) in `_pending`, as A^T @ B. A matmul leaves (g2^T, x^T)
    under (its left operand, None) and (rows, g2) under (its right one,
    None); a conv2d leaves (xb, g) under (kernel, (stride, pad, H, W)),
    im2col'd at the flush by kernel rows. A matrix Parameter with no dense
    grad whose A and B are smaller than A^T @ B keeps them as `factors`.
    """

    def __init__(self):
        self._nodes, self._pending, self._swept = [], {}, False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def record(self, tensor):
        self._nodes.append(tensor)

    def backward(self, loss):
        """Seed d(loss)/d(loss)=1 and replay recorded ops in reverse order."""
        if loss.data.size != 1:
            raise GeanError("backward requires a scalar loss, got shape %s"
                            % (loss.shape,))
        if self._swept:
            raise GeanError("backward on a tape that was already swept")
        self._swept, loss.grad = True, np.ones_like(loss.data)
        try:
            while self._nodes:
                node = self._nodes.pop()
                if node._grad is not None:
                    node._backward(node._grad)
                node._backward = node._grad = None
            for (param, conv), pairs in self._pending.items():
                if not pairs:
                    continue
                a, b = (np.concatenate(e) if len(e) > 1 else e[0]
                        for e in zip(*pairs))
                if conv is not None:
                    _add_kernel_grad(param, a, b, *conv[:2])
                elif (param._grad is None and param.factors is None
                        and a.size + b.size < param.data.size):
                    # copied, as an entry may view data that Adam changes
                    param.factors = a.copy(order="K"), b.copy(order="K")
                else:
                    _add_product(param, a.T, b)
        finally:
            self._nodes.clear()
            for pairs in self._pending.values():
                pairs.clear()


class no_grad:
    """Context that suppresses tape recording (pure forward math)."""

    def __enter__(self):
        _TAPE_STACK.append(None)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


def _recording():
    return bool(_TAPE_STACK) and _TAPE_STACK[-1] is not None


class Tensor:
    """Dense n-dimensional array, optionally tracked for gradients. A
    `fresh` grad is Adam's zero fill, which `_add_product` may overwrite."""

    __slots__ = ("data", "_grad", "fresh", "requires_grad", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        if not np.issubdtype(self.data.dtype, np.floating):
            self.data = self.data.astype(np.float64)
        self._grad, self.fresh = None, False
        self.requires_grad = requires_grad
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data.reshape(()))

    @property
    def grad(self):
        return self._grad

    @grad.setter
    def grad(self, g):
        self._grad, self.fresh = g, False

    def accumulate(self, g):
        if self._grad is None:
            self._grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self._grad += g
        self.fresh = False

    def __repr__(self):
        return "Tensor(shape=%s, dtype=%s)" % (self.shape, self.data.dtype)

    # operator sugar; definitions below
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)


class Parameter(Tensor):
    """Named trainable tensor. Two parts of its gradient may be pending:
    `factors` (A, B), left by the tape in place of the product A^T @ B, and
    `l2`, the 2g of sumsq's backward in place of 2g * data. Reading `grad`
    folds both in, in that order; Adam adds both block by block; the tape's
    own adds leave them; assigning `grad` drops them."""

    __slots__ = ("name", "l2", "factors")

    def __init__(self, name, value):
        super().__init__(value, requires_grad=True)
        self.name, self.l2, self.factors = name, 0.0, None

    @property
    def grad(self):
        if self.factors is not None:
            (a, b), self.factors = self.factors, None
            _add_product(self, a.T, b)
        if self.l2:
            self.accumulate(self.l2 * self.data)
            self.l2 = 0.0
        return self._grad

    @grad.setter
    def grad(self, g):
        self._grad, self.fresh, self.l2, self.factors = g, False, 0.0, None

    def __repr__(self):
        return "Parameter(%r, shape=%s)" % (self.name, self.shape)


class ParameterSet:
    """A model's Parameters keyed by name; each Parameter is also an
    attribute (`params.b_out`). Subclasses define `shapes(config)`, the
    name -> shape map in `create`'s order, and `create`."""

    def __init__(self, params):
        self.params = params

    def __getattr__(self, name):
        params = self.__dict__["params"]
        if name in params:
            return params[name]
        raise AttributeError(name)

    @classmethod
    def adopt(cls, arrays, config):
        """A set made of `arrays` (a checkpoint's, handed over) once they
        pass `check_state` against `shapes(config)`: each is cast to
        float32, with no copy of one that is float32 already."""
        shapes = cls.shapes(config)
        check_state(shapes, arrays)
        return cls({n: Parameter(n, arrays[n].astype(np.float32, copy=False))
                    for n in shapes})

    def all(self):
        return list(self.params.values())

    def state_dict(self):
        return {n: p.data for n, p in self.params.items()}

    def load_state_dict(self, arrays):
        """Copy checkpoint arrays into each Parameter's own buffer, cast to
        its dtype, so no two sets share one. Nothing is changed unless the
        arrays pass `check_state`."""
        check_state({n: p.shape for n, p in self.params.items()}, arrays)
        for n, p in self.params.items():
            p.data[...] = arrays[n]


def require_parameters(names, arrays):
    """Raise GeanError naming the first (sorted) name not in arrays."""
    missing = sorted(set(names) - set(arrays))
    if missing:
        raise GeanError("checkpoint lacks parameter %r" % missing[0])


def check_state(shapes, arrays):
    """Raise GeanError unless `arrays` has exactly the names of the name ->
    shape map `shapes`, each of its shape: the first missing name (sorted),
    else the first unknown one, else the first with a wrong shape."""
    require_parameters(shapes, arrays)
    extra = sorted(set(arrays) - set(shapes))
    if extra:
        raise GeanError("checkpoint has unknown parameter %r" % extra[0])
    for n, shape in shapes.items():
        if arrays[n].shape != shape:
            raise GeanError("checkpoint shape %s != %s for %r"
                            % (arrays[n].shape, shape, n))


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, backward, requires_grad):
    out = Tensor(data)
    track = requires_grad and _recording()
    out.requires_grad = track
    if track:
        out._backward = backward
        _TAPE_STACK[-1].record(out)
    return out


def _unary(a, data, grad):
    """Node of a one-input op: its backward adds grad(g) into a's grad. The
    node is recorded only if a requires grad, so grad never needs to ask."""
    return _make(data, lambda g: a.accumulate(grad(g)), a.requires_grad)


def _entries(t, key):
    """The recording tape's list of entries (a, b) for the weight product
    of t under (t, key), or None unless t is a Parameter that needs one."""
    if isinstance(t, Parameter) and t.requires_grad and _recording():
        return _TAPE_STACK[-1]._pending.setdefault((t, key), [])
    return None


def _add_product(t, a, b, rows=slice(None)):
    """Add a @ b (both 2-D) into t's grad, or its leading-axis slice `rows`.
    A missing grad starts fresh (zeros, as Adam leaves it); a product of a
    fresh grad's dtype is written into it, with no temporary."""
    if t._grad is None:
        t._grad, t.fresh = np.zeros(t.shape, t.data.dtype), True
    out = t._grad[rows]
    if t.fresh and a.dtype == b.dtype == out.dtype:
        np.matmul(a, b, out=out.reshape(a.shape[0], b.shape[1]))
        t.fresh = rows.stop not in (None, len(t._grad))
    elif rows == slice(None):
        t.accumulate((a @ b).reshape(t.shape))
    else:
        out += (a @ b).reshape(out.shape)
        t.fresh = False


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to `shape`."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise and linear algebra
# ---------------------------------------------------------------------------

def add(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _make(data, backward, a.requires_grad or b.requires_grad)


def mul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, backward, a.requires_grad or b.requires_grad)


def matmul(a, b):
    """a @ b for a right operand b of 1 or 2 dims. Every leading axis of a
    is a row (a 1-D a is one row) and a 1-D b is one column, so each
    operand's gradient is one 2-D product."""
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    if a.data.ndim == 0 or b.data.ndim not in (1, 2):
        raise GeanError("matmul requires a 1-D or 2-D right operand and an "
                        "at least 1-D left one, got %s @ %s"
                        % (a.shape, b.shape))
    try:
        data = a.data @ b.data
    except ValueError as e:
        raise GeanError(str(e)) from None
    # a 1-D left Parameter's entries would be the transpose of its right ones
    left = _entries(a, None) if a.data.ndim > 1 else None
    right = _entries(b, None)

    def backward(g):
        rows = a.data.reshape(-1, a.shape[-1])
        cols = b.data.reshape(b.shape[0], -1)
        g2 = g.reshape(rows.shape[0], cols.shape[1])
        if left is not None:
            left.append((g2.T, cols.T))
        elif a.requires_grad:
            _add_product(a, g2, cols.T)
        if right is not None:
            right.append((rows, g2))
        elif b.requires_grad:
            _add_product(b, rows.T, g2)

    return _make(data, backward, a.requires_grad or b.requires_grad)


def tensor_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    # a full sum's 0-d g broadcasts as it is, like a kept axis
    return _unary(a, a.data.sum(axis=axis, keepdims=keepdims),
                  lambda g: np.broadcast_to(
                      g if keepdims or axis is None
                      else np.expand_dims(g, axis), a.shape))


def sumsq(a):
    """Sum of squares of all elements, as one dot product."""
    a = _as_tensor(a)
    flat = a.data.reshape(-1)
    data = np.dot(flat, flat)

    def backward(g):
        if isinstance(a, Parameter):
            a.l2 += float(2 * g)
        else:
            a.accumulate((2 * g) * a.data)

    return _make(data, backward, a.requires_grad)


def reshape(a, *shape):
    a = _as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return _unary(a, a.data.reshape(shape), lambda g: g.reshape(a.shape))


def transpose(a):
    a = _as_tensor(a)
    if a.ndim != 2:
        raise GeanError("transpose expects a 2-D tensor")
    return _unary(a, a.data.T, lambda g: g.T)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(g):
        start = 0
        for t, s in zip(tensors, sizes):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, start + s)
                t.accumulate(g[tuple(idx)])
            start += s

    return _make(data, backward, any(t.requires_grad for t in tensors))


def stack(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        parts = np.moveaxis(g, axis, 0)
        for t, gt in zip(tensors, parts):
            if t.requires_grad:
                t.accumulate(gt)

    return _make(data, backward, any(t.requires_grad for t in tensors))


def _scatter(a, idx, g):
    """Backward of the gather a[idx]: add g into a's grad in place. Only an
    index array can pick one element twice, so only it needs np.add.at."""
    if a._grad is None:
        a._grad = np.zeros_like(a.data)
    a.fresh = False
    parts = idx if isinstance(idx, tuple) else (idx,)
    if any(np.ndim(i) for i in parts):
        np.add.at(a._grad, idx, g)
    else:  # ints and slices: a plain add, 6x cheaper than np.add.at
        a._grad[idx] += g


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    a = _as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    return _make(a.data[idx], lambda g: _scatter(a, idx, g), a.requires_grad)


def index(a, i):
    """Gather a[i]: i is an integer, an index array, or a tuple of index
    arrays, one per leading axis. Repeated indices sum their gradients."""
    a = _as_tensor(a)
    return _make(a.data[i], lambda g: _scatter(a, i, g), a.requires_grad)


def column(M, j):
    """Column M[:, j] of a matrix, or the columns M[:, j] for an index
    array j (embedding lookup); repeated columns sum their gradients."""
    M = _as_tensor(M)
    if M.ndim != 2:
        raise GeanError("column expects a 2-D tensor")
    return _make(M.data[:, j].copy(),
                 lambda g: _scatter(M, (slice(None), j), g), M.requires_grad)


# ---------------------------------------------------------------------------
# Activations and softmax
# ---------------------------------------------------------------------------

def sigmoid(a):
    a = _as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))
    return _unary(a, data, lambda g: g * data * (1.0 - data))


def tanh(a):
    a = _as_tensor(a)
    data = np.tanh(a.data)
    return _unary(a, data, lambda g: g * (1.0 - data * data))


def stanh(a):
    """Scaled hyperbolic tangent: 1.7159 * tanh(2x/3)."""
    a = _as_tensor(a)
    inner = np.tanh(a.data * (2.0 / 3.0))
    return _unary(a, 1.7159 * inner,
                  lambda g: g * (1.7159 * 2.0 / 3.0) * (1.0 - inner * inner))


def log(a):
    a = _as_tensor(a)
    return _unary(a, np.log(a.data), lambda g: g / a.data)


def softmax(a, axis=-1):
    """Numerically stabilized softmax along one axis."""
    a = _as_tensor(a)
    if a.data.size == 0:
        raise GeanError("softmax of empty tensor")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    return _unary(a, data, lambda g: (
        g - (g * data).sum(axis=axis, keepdims=True)) * data)


def log_softmax(a, axis=-1):
    a = _as_tensor(a)
    if a.data.size == 0:
        raise GeanError("log_softmax of empty tensor")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    return _unary(a, data, lambda g: (
        g - np.exp(data) * g.sum(axis=axis, keepdims=True)))


def dropout(a, rate, rng, on):
    """Inverted dropout; identity when off (inference)."""
    if not on or rate <= 0.0:
        return _as_tensor(a)
    a = _as_tensor(a)
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    return mul(a, Tensor(keep))


# ---------------------------------------------------------------------------
# Spatial ops ((N,H,W,C) layout)
# ---------------------------------------------------------------------------

def _nhwc(x, op):
    """x's data, which must be 4-D (N,H,W,C)."""
    if x.ndim != 4:
        raise GeanError("%s expects a 4-D (N,H,W,C) input, got %s"
                        % (op, x.shape))
    return x.data


def _conv_args(op, x, kernel, stride, cin_axis):
    """x and kernel as Tensors and x's (N,H,W,C) data, checked: stride >= 1
    and x's channels equal the kernel's input channels (axis cin_axis)."""
    x = _as_tensor(x)
    kernel = _as_tensor(kernel, like=x)
    if stride < 1:
        raise GeanError("stride must be >= 1")
    xb = _nhwc(x, op)
    if xb.shape[3] != kernel.shape[cin_axis]:
        raise GeanError("%s channel mismatch: input %d vs kernel %d"
                        % (op, xb.shape[3], kernel.shape[cin_axis]))
    return x, kernel, xb


_COLS_SPLIT_BYTES = 4 << 20


def _kernel_rows(shape, dtype):
    """A conv's kernel-row slices, one per GEMM, for an (N,ho,wo,kh,kw,C)
    matrix: all rows, or one each if the matrix is over _COLS_SPLIT_BYTES."""
    kh = shape[3]
    step = kh if np.prod(shape) * dtype.itemsize <= _COLS_SPLIT_BYTES else 1
    return [slice(d, d + step) for d in range(0, kh, step)]


def _windows(xb, kh, kw, stride, pad):
    """The (N,ho,wo,kh,kw,Cin) window view of an (N,H,W,Cin) input."""
    if kh == kw == stride == 1 and pad == 0:
        return xb[:, :, :, None, None]  # 1x1 conv: a channel matmul
    n, h, w, cin = xb.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, cin), dtype=xb.dtype)
    xp[:, pad:pad + h, pad:pad + w] = xb
    sn, sh, sw, sc = xp.strides
    return as_strided(xp, shape=(n, ho, wo, kh, kw, cin),
                      strides=(sn, sh * stride, sw * stride, sh, sw, sc))


def _cols(win):
    """The (N*ho*wo, -1) im2col matrix of a window view or a row slice."""
    return np.ascontiguousarray(win).reshape(np.prod(win.shape[:3]), -1)


def _conv_data(xb, k, stride, pad):
    """conv2d on arrays: (N,H,W,Cin) input and (kh,kw,Cin,Cout) kernel ->
    the (N,ho,wo,Cout) output, the kernel-row products summed in order."""
    kh, kw, _, cout = k.shape
    win = _windows(xb, kh, kw, stride, pad)
    first, *rest = _kernel_rows(win.shape, win.dtype)
    out = _cols(win[:, :, :, first]) @ k[first].reshape(-1, cout)
    for r in rest:
        out += _cols(win[:, :, :, r]) @ k[r].reshape(-1, cout)
    return out.reshape(*win.shape[:3], cout)


def _add_kernel_grad(kernel, xb, g, stride, pad):
    """Add conv2d's kernel gradient im2col(xb)^T @ g by kernel rows."""
    kh, kw, _, cout = kernel.shape
    win = _windows(xb, kh, kw, stride, pad)
    for r in _kernel_rows(win.shape, win.dtype):
        _add_product(kernel, _cols(win[:, :, :, r]).T, g.reshape(-1, cout), r)


def conv2d(x, kernel, stride=1, pad=0):
    """2-D convolution (cross-correlation), zero padding.

    x: (N,H,W,Cin); kernel: (kh,kw,Cin,Cout).
    """
    x, kernel, xb = _conv_args("conv2d", x, kernel, stride, 2)
    kh, kw, cin, cout = kernel.shape
    n, h, w, _ = xb.shape
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise GeanError("kernel larger than padded input")
    out = _conv_data(xb, kernel.data, stride, pad)
    ho, wo = out.shape[1:3]
    pending = _entries(kernel, (stride, pad, h, w))

    def backward(g):
        if pending is not None:
            pending.append((xb, g))
        elif kernel.requires_grad:
            _add_kernel_grad(kernel, xb, g, stride, pad)
        if x.requires_grad:
            # col2im by kernel-row groups, tap by tap (conv_transpose2d's
            # sub-pixel form re-lays out the kernel per call, and is slower)
            gp = np.zeros((n, h + 2 * pad, w + 2 * pad, cin), g.dtype)
            for r in _kernel_rows((n, ho, wo, kh, kw, cin), g.dtype):
                cols = (g.reshape(-1, cout) @ kernel.data[r].reshape(
                    -1, cout).T).reshape(n, ho, wo, -1, kw, cin)
                for di, dj in np.ndindex(cols.shape[3], kw):
                    gp[:, r.start + di:r.start + di + stride * ho:stride,
                       dj:dj + stride * wo:stride] += cols[:, :, :, di, dj]
                del cols  # before the next group's product is formed
            x.accumulate(gp[:, pad:pad + h, pad:pad + w, :])

    return _make(out, backward, x.requires_grad or kernel.requires_grad)


def conv_transpose2d(x, kernel, stride, pad):
    """Transposed convolution, the adjoint of conv2d.

    x: (N,H,W,Cin); kernel: (kh,kw,Cout,Cin).
    Output extent: (H-1)*stride + kh - 2*pad.
    """
    x, kernel, xb = _conv_args("conv_transpose2d", x, kernel, stride, 3)
    kh, kw, cout, cin = kernel.shape
    n, h, w, _ = xb.shape
    ho = (h - 1) * stride + kh - 2 * pad
    wo = (w - 1) * stride + kw - 2 * pad
    if ho <= 0 or wo <= 0:
        raise GeanError("non-positive output extent (%d, %d)" % (ho, wo))

    # Sub-pixel form. Output row q*s + r sums x[q - a] * K[a*s + r] over
    # a < A = ceil(max(kh, kw)/s), with K zero-padded to A*s rows and
    # columns. That is conv2d's kernel at stride 1, padded by A - 1, with
    # the tap-flipped A x A kernel, one s*s*cout column block per output
    # phase (r, c); interleaving the phases and cropping pad gives the output.
    s = stride
    a = -(-max(kh, kw) // s)
    kp = np.pad(kernel.data, ((0, a * s - kh), (0, a * s - kw),
                              (0, 0), (0, 0)))
    kp = kp.reshape(a, s, a, s, cout, cin)[::-1, :, ::-1]
    ksub = kp.transpose(0, 2, 5, 1, 3, 4).reshape(a, a, cin, s * s * cout)
    phases = _conv_data(xb, ksub, 1, a - 1)
    qh, qw = phases.shape[1:3]
    full = phases.reshape(n, qh, qw, s, s, cout).transpose(
        0, 1, 3, 2, 4, 5).reshape(n, qh * s, qw * s, cout)
    out = full[:, pad:pad + ho, pad:pad + wo, :]

    def backward(g):
        # conv2d with this kernel, read as (kh,kw,Cout,Cin), is the adjoint
        gcols = _cols(_windows(g, kh, kw, stride, pad))
        if x.requires_grad:
            gx = gcols @ kernel.data.reshape(-1, cin)
            x.accumulate(gx.reshape(xb.shape))
        if kernel.requires_grad:
            _add_product(kernel, gcols.T, xb.reshape(-1, cin))

    return _make(out, backward, x.requires_grad or kernel.requires_grad)


def avg_pool2d(x, kh, kw, stride):
    """Average pooling over (kh,kw) windows; x: (N,H,W,C)."""
    x = _as_tensor(x)
    xb = _nhwc(x, "avg_pool2d")
    n, h, w, c = xb.shape
    if kh > h or kw > w:
        raise GeanError("pooling window (%d,%d) larger than input (%d,%d)"
                        % (kh, kw, h, w))
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    # window sums are separable: kh row slices, then kw column slices
    row_slices = [slice(d, d + stride * (ho - 1) + 1, stride)
                  for d in range(kh)]
    col_slices = [slice(d, d + stride * (wo - 1) + 1, stride)
                  for d in range(kw)]
    rows = sum(xb[:, rs] for rs in row_slices)
    out = sum(rows[:, :, cs] for cs in col_slices) / (kh * kw)

    def backward(g):
        gb = g / (kh * kw)
        grows = np.zeros((n, ho, w, c), dtype=g.dtype)
        for cs in col_slices:
            grows[:, :, cs] += gb
        gx = np.zeros((n, h, w, c), dtype=g.dtype)
        for rs in row_slices:
            gx[:, rs] += grows
        x.accumulate(gx)

    return _make(out, backward, x.requires_grad)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

# A float64 central difference has a rounding floor of eps*|loss|/h, about
# 1e-11 at h=1e-5, which hides gradient elements near 1e-7. Taking the
# reference in long double (x86 80-bit: eps 1.1e-19) lowers that floor far
# below them; where long double is plain double, a fourth-order five-point
# stencil at a larger step stands in.
_LONGDOUBLE_WIDER = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
_CENTRAL_H = 1e-5
_FIVE_POINT_H = 1e-3


def grad_check(f, params):
    """Max relative error between autodiff and finite differences.

    f is a no-argument callable returning a scalar Tensor built from
    `params` (a sequence of Parameters). Autodiff runs at the parameters'
    own dtype. The reference is a central difference with step 1e-5,
    computed in np.longdouble; on platforms whose long double is no wider than
    double it is a five-point stencil in float64 with step 1e-3 instead.
    Relative error per element is |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8).
    Every Parameter's data (values and dtype) and grad are restored.
    """
    params = list(params)
    saved = [(p.data, p.grad) for p in params]
    if _LONGDOUBLE_WIDER:
        dtype, step, pairs, denom = np.longdouble, _CENTRAL_H, ((1, 1),), 2
    else:
        dtype, step, pairs, denom = (np.float64, _FIVE_POINT_H,
                                     ((1, 8), (2, -1)), 12)
    try:
        for p in params:
            p.grad = None
        with Tape() as tape:
            loss = f()
            tape.backward(loss)
        analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                    for p in params]

        for p in params:
            p.data = np.array(p.data, dtype=dtype, order="C")
        worst = 0.0
        with no_grad():
            for p, ga in zip(params, analytic):
                flat = p.data.reshape(-1)
                gfd = np.zeros(flat.size, dtype=dtype)
                for i in range(flat.size):
                    orig = flat[i]
                    acc = 0
                    for k, w in pairs:
                        flat[i] = orig + k * step
                        fp = f().data.reshape(())
                        flat[i] = orig - k * step
                        fm = f().data.reshape(())
                        acc = acc + w * (fp - fm)
                    flat[i] = orig
                    gfd[i] = acc / (denom * step)
                gad = ga.reshape(-1).astype(np.float64)
                gfd = gfd.astype(np.float64)
                err = np.abs(gad - gfd) / np.maximum(
                    np.maximum(np.abs(gad), np.abs(gfd)), 1e-8)
                worst = max(worst, float(np.max(err)))
    finally:
        for p, (data, grad) in zip(params, saved):
            p.data, p.grad = data, grad
    return worst
