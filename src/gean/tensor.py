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

    Gradients of matrix @ vector products whose matrix is a Parameter are
    not added word by word: each product leaves (g, x) in that Parameter's
    pending list, and the sweep ends with one matrix product per Parameter,
    sum_k outer(g_k, x_k) = [g_1 .. g_K] @ [x_1 .. x_K]^T. Parameters are
    leaves, so no backward step reads their grad before then.
    """

    def __init__(self):
        self._nodes = []
        self._pending = {}  # Parameter -> [(g, x), ...]

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
        loss.grad = np.ones_like(loss.data)
        try:
            for node in reversed(self._nodes):
                if node.grad is not None and node._backward is not None:
                    node._backward(node.grad)
            for param, pairs in self._pending.items():
                if pairs:
                    gs, xs = zip(*pairs)
                    param.accumulate(np.stack(gs, axis=1) @ np.stack(xs))
        finally:
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
    """Dense n-dimensional array, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        if not np.issubdtype(self.data.dtype, np.floating):
            self.data = self.data.astype(np.float64)
        self.grad = None
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

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

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

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)


class Parameter(Tensor):
    """Named trainable tensor; `grad` is zero-filled after an optimizer step."""

    __slots__ = ("name",)

    def __init__(self, name, value, dtype=None):
        super().__init__(value, requires_grad=True, dtype=dtype)
        self.name = name

    def __repr__(self):
        return "Parameter(%r, shape=%s)" % (self.name, self.shape)


class ParameterSet:
    """A model's Parameters keyed by name, plus its config; each Parameter
    is also an attribute (`params.b_out`). Subclasses define `create`."""

    def __init__(self, params, config):
        self.params = params
        self.config = config

    def __getattr__(self, name):
        params = self.__dict__["params"]
        if name in params:
            return params[name]
        raise AttributeError(name)

    def all(self):
        return list(self.params.values())

    def state_dict(self):
        return {n: p.data for n, p in self.params.items()}

    def load_state_dict(self, arrays):
        """Copy checkpoint arrays in, cast to each Parameter's dtype.

        The names must be exactly this set's and every shape must match;
        nothing is changed unless all of them do.
        """
        require_parameters(self.params, arrays)
        extra = sorted(set(arrays) - set(self.params))
        if extra:
            raise GeanError("checkpoint has unknown parameter %r" % extra[0])
        for n, p in self.params.items():
            if arrays[n].shape != p.shape:
                raise GeanError("checkpoint shape %s != %s for %r"
                                % (arrays[n].shape, p.shape, n))
        for n, p in self.params.items():
            p.data = np.array(arrays[n], dtype=p.data.dtype)


def require_parameters(names, arrays):
    """Raise GeanError naming the first (sorted) name not in arrays."""
    missing = sorted(set(names) - set(arrays))
    if missing:
        raise GeanError("checkpoint lacks parameter %r" % missing[0])


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
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise GeanError("matmul requires at least 1-D operands")
    try:
        data = a.data @ b.data
    except ValueError as e:
        raise GeanError(str(e)) from None
    pending = None  # W @ x with W a Parameter: summed when the sweep ends
    if (isinstance(a, Parameter) and a.requires_grad and a.data.ndim == 2
            and b.data.ndim == 1 and _recording()):
        pending = _TAPE_STACK[-1]._pending.setdefault(a, [])

    def backward(g):
        ad, bd = a.data, b.data
        if ad.ndim >= 2 and bd.ndim == 1:
            if pending is not None:
                pending.append((g, bd))
            elif a.requires_grad:
                a.accumulate(g[..., None] * bd)
            if b.requires_grad:
                b.accumulate(ad.reshape(-1, bd.size).T @ g.reshape(-1))
        elif ad.ndim == 1 and bd.ndim == 2:
            if a.requires_grad:
                a.accumulate(bd @ g)
            if b.requires_grad:
                b.accumulate(np.outer(ad, g))
        elif ad.ndim == 1 and bd.ndim == 1:
            if a.requires_grad:
                a.accumulate(g * bd)
            if b.requires_grad:
                b.accumulate(g * ad)
        else:
            if a.requires_grad:
                a.accumulate(g @ bd.swapaxes(-1, -2))
            if b.requires_grad:
                b.accumulate(ad.swapaxes(-1, -2) @ g)

    return _make(data, backward, a.requires_grad or b.requires_grad)


def tensor_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            # a full sum's 0-d g broadcasts as it is, like a kept axis
            ge = g if keepdims or axis is None else np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(ge, a.shape))

    return _make(data, backward, a.requires_grad)


def sumsq(a):
    """Sum of squares of all elements, as one dot product."""
    a = _as_tensor(a)
    flat = a.data.reshape(-1)
    data = np.dot(flat, flat)

    def backward(g):
        if a.requires_grad:
            a.accumulate((2 * g) * a.data)

    return _make(data, backward, a.requires_grad)


def reshape(a, *shape):
    a = _as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.shape
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.reshape(old))

    return _make(data, backward, a.requires_grad)


def transpose(a):
    a = _as_tensor(a)
    if a.ndim != 2:
        raise GeanError("transpose expects a 2-D tensor")
    data = a.data.T

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.T)

    return _make(data, backward, a.requires_grad)


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


def stack(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        parts = np.moveaxis(g, axis, 0)
        for t, gt in zip(tensors, parts):
            if t.requires_grad:
                t.accumulate(gt)

    return _make(data, backward, any(t.requires_grad for t in tensors))


def _scatter(a, idx, g):
    """Backward of the gather a[idx]: add g into a.grad in place. Only an
    index array can pick one element twice, so only it needs np.add.at."""
    if a.grad is None:
        a.grad = np.zeros_like(a.data)
    parts = idx if isinstance(idx, tuple) else (idx,)
    if any(np.ndim(i) for i in parts):
        np.add.at(a.grad, idx, g)
    else:  # ints and slices: a plain add, 6x cheaper than np.add.at
        a.grad[idx] += g


def narrow(a, axis, start, length):
    """Contiguous slice [start, start+length) along one axis."""
    a = _as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]

    def backward(g):
        if a.requires_grad:
            _scatter(a, idx, g)

    return _make(data, backward, a.requires_grad)


def index(a, i):
    """Gather a[i]: i is an integer, an index array, or a tuple of index
    arrays, one per leading axis. Repeated indices sum their gradients."""
    a = _as_tensor(a)
    data = a.data[i]

    def backward(g):
        if a.requires_grad:
            _scatter(a, i, g)

    return _make(data, backward, a.requires_grad)


def column(M, j):
    """Column M[:, j] of a matrix, or the columns M[:, j] for an index
    array j (embedding lookup); repeated columns sum their gradients."""
    M = _as_tensor(M)
    if M.ndim != 2:
        raise GeanError("column expects a 2-D tensor")
    data = M.data[:, j].copy()

    def backward(g):
        if M.requires_grad:
            _scatter(M, (slice(None), j), g)

    return _make(data, backward, M.requires_grad)


# ---------------------------------------------------------------------------
# Activations and softmax
# ---------------------------------------------------------------------------

def sigmoid(a):
    a = _as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * data * (1.0 - data))

    return _make(data, backward, a.requires_grad)


def tanh(a):
    a = _as_tensor(a)
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * (1.0 - data * data))

    return _make(data, backward, a.requires_grad)


def stanh(a):
    """Scaled hyperbolic tangent: 1.7159 * tanh(2x/3)."""
    a = _as_tensor(a)
    inner = np.tanh(a.data * (2.0 / 3.0))
    data = 1.7159 * inner

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * (1.7159 * 2.0 / 3.0) * (1.0 - inner * inner))

    return _make(data, backward, a.requires_grad)


def log(a):
    a = _as_tensor(a)
    data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g / a.data)

    return _make(data, backward, a.requires_grad)


def softmax(a, axis=-1):
    """Numerically stabilized softmax along one axis."""
    a = _as_tensor(a)
    if a.data.size == 0:
        raise GeanError("softmax of empty tensor")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            a.accumulate((g - dot) * data)

    return _make(data, backward, a.requires_grad)


def log_softmax(a, axis=-1):
    a = _as_tensor(a)
    if a.data.size == 0:
        raise GeanError("log_softmax of empty tensor")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def backward(g):
        if a.requires_grad:
            a.accumulate(g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _make(data, backward, a.requires_grad)


def dropout(a, rate, rng, on):
    """Inverted dropout; identity when off (inference)."""
    if not on or rate <= 0.0:
        return _as_tensor(a)
    a = _as_tensor(a)
    keep = (rng.random(a.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    return mul(a, Tensor(keep))


# ---------------------------------------------------------------------------
# Spatial ops (H x W x C layout, optional leading batch axis)
# ---------------------------------------------------------------------------

def _batched(x):
    """View as (N,H,W,C); report whether a batch axis was added."""
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise GeanError("expected 3-D (H,W,C) or 4-D (N,H,W,C), got %s"
                    % (x.shape,))


def _im2col(xp, kh, kw, stride, ho, wo):
    """Window view of padded (N,Hp,Wp,C) -> (N,ho,wo,kh,kw,C)."""
    n, hp, wp, c = xp.shape
    sn, sh, sw, sc = xp.strides
    shape = (n, ho, wo, kh, kw, c)
    strides = (sn, sh * stride, sw * stride, sh, sw, sc)
    return as_strided(xp, shape=shape, strides=strides)


def _col2im(cols, hp, wp, stride):
    """Scatter-add (N,ho,wo,kh,kw,C) windows back into a padded image.
    conv2d's input gradient stays this scatter: conv_transpose2d's sub-pixel
    form re-lays out the kernel per call and ran gaze-train slower."""
    n, ho, wo, kh, kw, c = cols.shape
    out = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    for di in range(kh):
        for dj in range(kw):
            out[:, di:di + stride * ho:stride,
                dj:dj + stride * wo:stride, :] += cols[:, :, :, di, dj, :]
    return out


def _conv_data(xb, k, stride, pad):
    """conv2d on arrays: (N,H,W,Cin) input and (kh,kw,Cin,Cout) kernel ->
    the (N,ho,wo,Cout) output and the (N*ho*wo, kh*kw*Cin) im2col matrix
    that the kernel gradient reads."""
    kh, kw, cin, cout = k.shape
    n, h, w, _ = xb.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    if kh == 1 and kw == 1 and stride == 1 and pad == 0:
        cols = xb.reshape(-1, cin)  # 1x1 conv is a plain channel matmul
    else:
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, cin), dtype=xb.dtype)
        xp[:, pad:pad + h, pad:pad + w] = xb
        cols = np.ascontiguousarray(_im2col(xp, kh, kw, stride, ho, wo))
        cols = cols.reshape(n * ho * wo, kh * kw * cin)
    return (cols @ k.reshape(-1, cout)).reshape(n, ho, wo, cout), cols


def conv2d(x, kernel, stride=1, pad=0):
    """2-D convolution (cross-correlation), zero padding.

    x: (H,W,Cin) or (N,H,W,Cin); kernel: (kh,kw,Cin,Cout).
    """
    x = _as_tensor(x)
    kernel = _as_tensor(kernel, like=x)
    if stride < 1:
        raise GeanError("stride must be >= 1")
    xb, squeeze = _batched(x.data)
    kh, kw, cin, cout = kernel.shape
    n, h, w, cx = xb.shape
    if cx != cin:
        raise GeanError("conv2d channel mismatch: input %d vs kernel %d"
                        % (cx, cin))
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise GeanError("kernel larger than padded input")
    out, cols = _conv_data(xb, kernel.data, stride, pad)
    ho, wo = out.shape[1:3]

    def backward(g):
        gflat = g.reshape(-1, cout)
        if kernel.requires_grad:
            kernel.accumulate((cols.T @ gflat).reshape(kernel.shape))
        if x.requires_grad:
            gcols = gflat @ kernel.data.reshape(-1, cout).T
            gp = _col2im(gcols.reshape(n, ho, wo, kh, kw, cin),
                         h + 2 * pad, w + 2 * pad, stride)
            gx = gp[:, pad:pad + h, pad:pad + w, :]
            x.accumulate(gx[0] if squeeze else gx)

    data = out[0] if squeeze else out
    return _make(data, backward, x.requires_grad or kernel.requires_grad)


def conv_transpose2d(x, kernel, stride=1, pad=0):
    """Transposed convolution, the adjoint of conv2d.

    x: (H,W,Cin) or (N,H,W,Cin); kernel: (kh,kw,Cout,Cin).
    Output extent: (H-1)*stride + kh - 2*pad.
    """
    x = _as_tensor(x)
    kernel = _as_tensor(kernel, like=x)
    if stride < 1:
        raise GeanError("stride must be >= 1")
    xb, squeeze = _batched(x.data)
    kh, kw, cout, cin = kernel.shape
    n, h, w, cx = xb.shape
    if cx != cin:
        raise GeanError("conv_transpose2d channel mismatch: input %d vs "
                        "kernel %d" % (cx, cin))
    ho = (h - 1) * stride + kh - 2 * pad
    wo = (w - 1) * stride + kw - 2 * pad
    if ho <= 0 or wo <= 0:
        raise GeanError("non-positive output extent (%d, %d)" % (ho, wo))

    # Sub-pixel form. Output row q*s + r sums x[q - a] * K[a*s + r] over
    # a < A = ceil(kh/s), with K zero-padded to A*s rows (columns alike).
    # That is a stride-1 A x A correlation of x, padded by A - 1, with the
    # tap-flipped kernel, one s*s*cout column block per output phase (r, c);
    # interleaving the phases and cropping pad gives the output.
    s = stride
    ah, aw = -(-kh // s), -(-kw // s)
    qh, qw = h + ah - 1, w + aw - 1
    kp = np.pad(kernel.data, ((0, ah * s - kh), (0, aw * s - kw),
                              (0, 0), (0, 0)))
    kp = kp.reshape(ah, s, aw, s, cout, cin)[::-1, :, ::-1]
    ksub = kp.transpose(0, 2, 5, 1, 3, 4).reshape(ah * aw * cin, s * s * cout)
    xp = np.pad(xb, ((0, 0), (ah - 1, ah - 1), (aw - 1, aw - 1), (0, 0)))
    cols = np.ascontiguousarray(_im2col(xp, ah, aw, 1, qh, qw))
    phases = (cols.reshape(n * qh * qw, -1) @ ksub).reshape(n, qh, qw, s, s,
                                                             cout)
    full = phases.transpose(0, 1, 3, 2, 4, 5).reshape(n, qh * s, qw * s, cout)
    out = full[:, pad:pad + ho, pad:pad + wo, :]

    def backward(g):
        # conv2d with this kernel, read as (kh,kw,Cout,Cin), is the adjoint
        gx, gcols = _conv_data(g.reshape(n, ho, wo, cout), kernel.data,
                               stride, pad)
        if x.requires_grad:
            x.accumulate(gx[0] if squeeze else gx)
        if kernel.requires_grad:
            gk = gcols.T @ xb.reshape(-1, cin)
            kernel.accumulate(gk.reshape(kernel.shape))

    data = out[0] if squeeze else out
    return _make(data, backward, x.requires_grad or kernel.requires_grad)


def avg_pool2d(x, kh, kw, stride):
    """Average pooling over (kh,kw) windows; x: (H,W,C) or (N,H,W,C)."""
    x = _as_tensor(x)
    xb, squeeze = _batched(x.data)
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
        gb = g.reshape(n, ho, wo, c) / (kh * kw)
        grows = np.zeros((n, ho, w, c), dtype=g.dtype)
        for cs in col_slices:
            grows[:, :, cs] += gb
        gx = np.zeros((n, h, w, c), dtype=g.dtype)
        for rs in row_slices:
            gx[:, rs] += grows
        if squeeze:
            gx = gx[0]
        x.accumulate(gx)

    data = out[0] if squeeze else out
    return _make(data, backward, x.requires_grad)


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
