"""Oracle tests for the tensor engine: spatial ops, activations,
softmax, and the gradient checker itself."""

import tracemalloc
import weakref

import numpy as np
import pytest

from gean import tensor as T
from gean.checks import SMALL_DECODER, SMALL_RGP
from gean.decoder import DecoderConfig, DecoderParams
from gean.errors import GeanError
from gean.optim import AdamState
from gean.rgp import RgpConfig, RgpParams
from gean.tensor import Parameter, Tape, Tensor, grad_check


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv2d_identity_1x1():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 5, 5, 3)))
    k = Tensor(np.eye(3).reshape(1, 1, 3, 3))
    out = T.conv2d(x, k)
    np.testing.assert_allclose(out.data, x.data, rtol=0, atol=1e-12)


def test_conv2d_constant_ones_kernel():
    x = Tensor(np.ones((1, 5, 5, 1)))
    k = Tensor(np.ones((3, 3, 1, 1)))
    out = T.conv2d(x, k, stride=1, pad=0)
    assert out.shape == (1, 3, 3, 1)
    np.testing.assert_allclose(out.data, 9.0)


def test_conv2d_zero_kernel():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((1, 4, 6, 2)))
    k = Tensor(np.zeros((3, 3, 2, 5)))
    out = T.conv2d(x, k, stride=1, pad=1)
    np.testing.assert_array_equal(out.data, 0.0)


def test_conv2d_channel_mismatch():
    with pytest.raises(GeanError, match="mismatch: input 2 vs kernel 3"):
        T.conv2d(Tensor(np.ones((1, 5, 5, 2))),
                 Tensor(np.ones((3, 3, 3, 1))))


@pytest.mark.parametrize("op, args", [
    (T.conv2d, (Tensor(np.ones((3, 3, 2, 3))),)),
    (T.conv_transpose2d, (Tensor(np.ones((4, 4, 3, 2))), 2, 1)),
    (T.avg_pool2d, (3, 3, 2)),
], ids=["conv2d", "conv_transpose2d", "avg_pool2d"])
def test_spatial_ops_reject_3d_input(op, args):
    with pytest.raises(GeanError, match=r"4-D \(N,H,W,C\) input, got "
                                        r"\(6, 6, 2\)"):
        op(Tensor(np.ones((6, 6, 2))), *args)


def test_conv2d_large_forward_one_kernel_row_at_a_time():
    """Above the split size the forward holds one kernel row's im2col
    matrix, the padded input, the output and one row's product, not the
    whole 7.2 MB matrix, and still matches a float64 reference."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 7, 7, 512)).astype(np.float32)
    k = rng.standard_normal((3, 3, 512, 64)).astype(np.float32)
    assert x.nbytes * 9 > T._COLS_SPLIT_BYTES
    xt, kt = Tensor(x), Tensor(k)
    tracemalloc.start()
    try:
        out = T.conv2d(xt, kt, stride=1, pad=1).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row, padded = x.nbytes * 3, 8 * 9 * 9 * 512 * 4
    assert peak <= row + padded + 2 * out.nbytes + (1 << 16)  # + headers
    xp = np.pad(x.astype(np.float64), ((0, 0), (1, 1), (1, 1), (0, 0)))
    ref = sum(xp[:, i:i + 7, j:j + 7] @ k[i, j].astype(np.float64)
              for i in range(3) for j in range(3))
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-5 * abs(ref).max())


def _split_case(dtype):
    """A loss over conv2d at stride 1 and 2, a kernel at two geometries
    (the second flush adds to a grad that is no longer fresh) and tanh(K),
    no Parameter, whose kernel gradient is formed during the sweep."""
    rng = np.random.default_rng(43)
    x = Parameter("x", rng.standard_normal((2, 6, 6, 3)).astype(dtype))
    K = Parameter("K", rng.standard_normal((3, 3, 3, 4)).astype(dtype))
    y = Tensor(rng.standard_normal((1, 5, 5, 3)).astype(dtype))
    ws = [Tensor(rng.standard_normal(s).astype(dtype))
          for s in ((2, 6, 6, 4), (2, 2, 2, 4), (1, 5, 5, 4))]

    def loss():
        return (T.tensor_sum(T.conv2d(x, K, stride=1, pad=1) * ws[0])
                + T.tensor_sum(T.conv2d(x, T.tanh(K), stride=2, pad=0)
                               * ws[1])
                + T.tensor_sum(T.conv2d(y, K, stride=1, pad=1) * ws[2]))

    return loss, [x, K]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_split_gradients_are_the_whole_path_bytes(monkeypatch, dtype):
    # no checked shape reaches the split size, so a size of 0 forces it:
    # each gradient element sums the same terms in the same order either
    # way (the forward's row products are summed, so its bytes may differ)
    sides = []
    for split in (T._COLS_SPLIT_BYTES, 0):
        monkeypatch.setattr(T, "_COLS_SPLIT_BYTES", split)
        loss, params = _split_case(dtype)
        with Tape() as tape:
            tape.backward(loss())
        sides.append([p.grad.tobytes() for p in params])
    assert sides[0] == sides[1]


def test_conv2d_split_gradients_grad_check(monkeypatch):
    monkeypatch.setattr(T, "_COLS_SPLIT_BYTES", 0)
    loss, params = _split_case(np.float64)
    assert grad_check(loss, params) <= 1e-4


def test_conv2d_large_backward_one_kernel_row_at_a_time():
    """The sweep's input gradient and the flush's kernel gradient each hold
    one kernel row's 5.7 MB matrix, not the whole 17.2 MB one, beside the
    padded input gradient (or the padded input), the output gradient the
    conv's entry keeps and x's own grad."""
    rng = np.random.default_rng(44)
    x = Tensor(rng.standard_normal((20, 7, 7, 512)).astype(np.float32),
               requires_grad=True)
    K = Parameter("K", rng.standard_normal((3, 3, 512, 384)).astype(
        np.float32))
    K.grad = np.ones_like(K.data)
    AdamState(lr=0.0).step([K])  # a fresh grad, written in place
    w = Tensor(rng.standard_normal((20, 7, 7, 384)).astype(np.float32))
    with Tape() as tape:
        loss = T.tensor_sum(T.conv2d(x, K, stride=1, pad=1) * w)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    row, padded = 20 * 49 * 3 * 512 * 4, 20 * 9 * 9 * 512 * 4
    assert row * 3 > T._COLS_SPLIT_BYTES
    assert peak <= row + padded + w.data.nbytes + x.data.nbytes + (1 << 16)
    assert K.grad.shape == K.shape and x.grad.shape == x.shape


# ---------------------------------------------------------------------------
# conv_transpose2d
# ---------------------------------------------------------------------------

def test_conv_transpose_single_pixel():
    x = Tensor(np.ones((1, 1, 1, 1)))
    k = Tensor(np.ones((4, 4, 1, 1)))
    out = T.conv_transpose2d(x, k, stride=2, pad=1)
    assert out.shape == (1, 2, 2, 1)
    np.testing.assert_allclose(out.data, 1.0)


def test_conv_transpose_zero_input():
    k = Tensor(np.random.default_rng(3).standard_normal((4, 4, 2, 3)))
    out = T.conv_transpose2d(Tensor(np.zeros((1, 3, 3, 3))), k, stride=2,
                             pad=1)
    np.testing.assert_array_equal(out.data, 0.0)


def test_conv_transpose_adjoint_identity():
    # <conv(x, k), y> == <x, conv_transpose(y, k)> with the same kernel array
    rng = np.random.default_rng(4)
    k = rng.standard_normal((4, 4, 3, 2))
    x = rng.standard_normal((1, 6, 6, 3))
    y_shape = T.conv2d(Tensor(x), Tensor(k), stride=2, pad=1).shape
    y = rng.standard_normal(y_shape)
    lhs = float((T.conv2d(Tensor(x), Tensor(k), stride=2, pad=1).data
                 * y).sum())
    rhs = float((T.conv_transpose2d(Tensor(y), Tensor(k), stride=2,
                                    pad=1).data * x).sum())
    assert abs(lhs - rhs) <= 1e-10


def test_conv_transpose_geometry_7_to_14():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((1, 7, 7, 3)))
    k = Tensor(rng.standard_normal((4, 4, 2, 3)))
    assert T.conv_transpose2d(x, k, stride=2, pad=1).shape == (1, 14, 14, 2)


def _scatter_conv_transpose(x, k, stride, pad):
    """Reference: every input pixel adds its kernel-weighted window."""
    n, h, w, _ = x.shape
    kh, kw, cout, _ = k.shape
    full = np.zeros((n, (h - 1) * stride + kh, (w - 1) * stride + kw, cout))
    for i in range(h):
        for j in range(w):
            full[:, i * stride:i * stride + kh, j * stride:j * stride + kw] \
                += np.einsum("nc,abdc->nabd", x[:, i, j], k)
    return full[:, pad:full.shape[1] - pad, pad:full.shape[2] - pad]


@pytest.mark.parametrize("k, stride, pad", [
    (4, 2, 1), (3, 2, 0), (3, 1, 1), (5, 3, 2), (1, 1, 0),
    # a non-square kernel runs on a square tap count, zero-padded
    pytest.param((3, 2), 2, 0, id="3x2-2-0")])
@pytest.mark.parametrize("shape", [(1, 5, 6, 3), (2, 4, 5, 3)])
@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5),
                                         (np.float64, 1e-12)])
def test_conv_transpose_matches_scatter_add(k, stride, pad, shape, dtype,
                                            rtol):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape).astype(dtype)
    kh, kw = k if isinstance(k, tuple) else (k, k)
    kern = rng.standard_normal((kh, kw, 2, 3)).astype(dtype)
    out = T.conv_transpose2d(Tensor(x), Tensor(kern), stride=stride, pad=pad)
    ref = _scatter_conv_transpose(x.astype(np.float64),
                                  kern.astype(np.float64), stride, pad)
    assert out.data.dtype == dtype and out.shape == ref.shape
    np.testing.assert_allclose(out.data, ref, rtol=rtol,
                               atol=rtol * np.abs(ref).max())


@pytest.mark.parametrize("op", [T.conv2d, T.conv_transpose2d])
@pytest.mark.parametrize("shape, k, stride, pad", [
    ((1, 6, 6, 2), 3, 2, 0),  # the windows do not tile the input
    ((1, 5, 5, 2), 2, 2, 0),
    ((1, 5, 5, 2), 1, 1, 0),
    ((2, 7, 7, 2), 4, 3, 2),
], ids=["6x6-k3-s2", "5x5-k2-s2", "k1", "batched-k4-s3-p2"])
def test_conv_grad_check_off_the_rgp_geometry(op, shape, k, stride, pad):
    rng = np.random.default_rng(18)
    cin, cout = 2, 3
    kshape = (k, k, cin, cout) if op is T.conv2d else (k, k, cout, cin)
    x = Parameter("x", rng.standard_normal(shape))
    kern = Parameter("k", rng.standard_normal(kshape))
    w = Tensor(rng.standard_normal(op(x, kern, stride=stride, pad=pad).shape))
    assert grad_check(lambda: T.tensor_sum(op(x, kern, stride=stride,
                                                pad=pad) * w),
                      [x, kern]) <= 1e-8


# ---------------------------------------------------------------------------
# conv2d kernel gradients, formed once when the sweep ends
# ---------------------------------------------------------------------------

def _windows(x, k, stride, pad):
    """Reference im2col of (N,H,W,C) x: one row per output pixel, each a
    k x k window read in (row, column, channel) order."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    ho = (xp.shape[1] - k) // stride + 1
    wo = (xp.shape[2] - k) // stride + 1
    return np.array([xp[b, i * stride:i * stride + k,
                        j * stride:j * stride + k].reshape(-1)
                     for b in range(x.shape[0]) for i in range(ho)
                     for j in range(wo)])


def test_shared_kernel_gradient_is_one_write(monkeypatch):
    rng = np.random.default_rng(40)
    K = Parameter("K", rng.standard_normal((3, 3, 2, 4)))
    K.grad = np.ones_like(K.data)
    AdamState(lr=0.0).step([K])  # zero-fills K's grad
    held = K.grad
    xs = [Tensor(rng.standard_normal((1, 5, 5, 2))) for _ in range(3)]
    cs = [rng.standard_normal((1, 5, 5, 4)) for _ in range(3)]
    added = []
    plain = Tensor.accumulate

    def spy(self, g):
        added.append(self)
        plain(self, g)

    monkeypatch.setattr(Tensor, "accumulate", spy)
    with Tape() as tape:
        tape.backward(sum(T.tensor_sum(T.conv2d(x, K, stride=1, pad=1)
                                       * Tensor(c)) for x, c in zip(xs, cs)))
    assert K.grad is held and not any(t is K for t in added)
    expect = sum(_windows(x.data, 3, 1, 1).T @ c.reshape(-1, 4)
                 for x, c in zip(xs, cs))
    np.testing.assert_allclose(K.grad, expect.reshape(K.shape), rtol=1e-13,
                               atol=1e-13)


def test_kernel_at_two_geometries_grad_check():
    # stride 1 pad 1 on two input sizes and stride 2 on one: three groups
    # that the sweep's end must not concatenate; tanh(K) is no Parameter,
    # so its gradient is formed at once
    rng = np.random.default_rng(41)
    K = Parameter("K", rng.standard_normal((3, 3, 2, 3)))
    x = Parameter("x", rng.standard_normal((1, 6, 6, 2)))
    y = Tensor(rng.standard_normal((2, 5, 5, 2)))
    calls = ((x, 1, 1), (y, 1, 1), (x, 2, 0), (y, 1, 1))
    ws = [Tensor(rng.standard_normal(T.conv2d(a, K, stride=s, pad=p).shape))
          for a, s, p in calls]

    def loss():
        return sum((T.tensor_sum(T.conv2d(a, K, stride=s, pad=p) * w)
                    for (a, s, p), w in zip(calls, ws)),
                   T.tensor_sum(T.conv2d(x, T.tanh(K), stride=1, pad=1)))

    assert grad_check(loss, [K, x]) <= 1e-8


# ---------------------------------------------------------------------------
# avg_pool2d
# ---------------------------------------------------------------------------

def test_avg_pool_constant():
    out = T.avg_pool2d(Tensor(np.full((1, 6, 6, 2), 3.5)), 3, 3, 2)
    np.testing.assert_allclose(out.data, 3.5)


def test_avg_pool_block_mass():
    m = np.zeros((1, 49, 49, 1))
    m[0, :7, :7] = 1.0 / 49.0  # mass 1.0 in the top-left block
    out = T.avg_pool2d(Tensor(m), 7, 7, 7)
    assert out.shape == (1, 7, 7, 1)
    np.testing.assert_allclose(out.data[0, 0, 0, 0], 1.0 / 49.0, atol=1e-12)
    assert np.all(out.data.ravel()[1:] == 0.0)


def test_avg_pool_2x2():
    out = T.avg_pool2d(Tensor([[[[1.0], [3.0]], [[5.0], [7.0]]]]), 2, 2, 2)
    np.testing.assert_allclose(out.data, [[[[4.0]]]])


@pytest.mark.parametrize("kh, kw, stride", [(8, 8, 1), (3, 3, 2), (7, 7, 7)])
def test_avg_pool_matches_window_means(kh, kw, stride):
    x = np.random.default_rng(12).standard_normal((2, 21, 23, 3))
    out = T.avg_pool2d(Tensor(x), kh, kw, stride).data
    ho, wo = (21 - kh) // stride + 1, (23 - kw) // stride + 1
    ref = np.array([[[x[b, i * stride:i * stride + kh,
                         j * stride:j * stride + kw].mean(axis=(0, 1))
                      for j in range(wo)] for i in range(ho)]
                    for b in range(2)])
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-15)


def test_narrow_slices_sum_their_gradients():
    # adjacent slices [0,2) and [2,4), and [1,4) overlapping both. The
    # backward sweep reaches the last slice first, while x has no grad,
    # and the sumsq term's accumulate between the other slices
    rng = np.random.default_rng(16)
    x = Parameter("x", rng.standard_normal((6, 5, 3)))
    spans = ((0, 2), (2, 2), (1, 3))
    ws = [Tensor(rng.standard_normal((n, 5, 3))) for _, n in spans]

    def term(k):
        (s, n), w = spans[k], ws[k]
        return T.tensor_sum(T.narrow(x, 0, s, n) * w)

    def loss():
        return term(0) + T.sumsq(x) + term(1) + term(2)

    with Tape() as tape:
        tape.backward(loss())
    expected = 2 * x.data
    for (s, n), w in zip(spans, ws):
        expected[s:s + n] += w.data
    np.testing.assert_allclose(x.grad, expected, rtol=1e-14, atol=1e-14)
    x.grad = None
    assert grad_check(loss, [x]) <= 1e-8


@pytest.mark.parametrize("gather, idx", [
    (lambda a: T.index(a, 2), 2),
    (lambda a: T.narrow(a, 1, 1, 2), (slice(None), slice(1, 3))),
    (lambda a: T.index(a, np.array([0, 3, 0, 0])), np.array([0, 3, 0, 0])),
    (lambda a: T.column(a, np.array([1, 1, 0, 1])),
     (slice(None), np.array([1, 1, 0, 1]))),
], ids=["int", "narrow", "repeated-array", "column-repeats"])
def test_gather_backward_matches_dense_add_at(gather, idx):
    # two gathers of one tensor: the sweep reaches the second one first,
    # so the first one's backward adds into a grad that already exists
    rng = np.random.default_rng(17)
    a = Parameter("a", rng.standard_normal((5, 4)))
    ws = [Tensor(rng.standard_normal(a.data[idx].shape)) for _ in range(2)]
    with Tape() as tape:
        tape.backward(T.tensor_sum(gather(a) * ws[0])
                      + T.tensor_sum(gather(a) * ws[1]))
    expected = np.zeros(a.shape)
    for w in reversed(ws):
        np.add.at(expected, idx, w.data)
    np.testing.assert_array_equal(a.grad, expected)


def test_avg_pool_grad_check_rgp_window():
    rng = np.random.default_rng(13)
    x = Parameter("x", rng.standard_normal((2, 11, 10, 1)))
    w = Tensor(rng.standard_normal((2, 4, 3, 1)))
    assert grad_check(lambda: T.tensor_sum(T.avg_pool2d(x, 8, 8, 1) * w),
                      [x]) <= 1e-8


# ---------------------------------------------------------------------------
# activations and softmax
# ---------------------------------------------------------------------------

def test_activations_at_zero():
    z = Tensor(np.zeros(3))
    assert np.all(T.stanh(z).data == 0.0)
    assert np.all(T.tanh(z).data == 0.0)
    np.testing.assert_allclose(T.sigmoid(z).data, 0.5)


def test_stanh_value():
    out = T.stanh(Tensor([1.5]))
    np.testing.assert_allclose(out.data, 1.7159 * np.tanh(1.0), atol=1e-12)
    assert abs(out.data[0] - 1.3068) < 1e-4


def test_affine_identity():
    x = Tensor([1.0, -2.0, 3.0])
    out = T.add(T.matmul(Tensor(np.eye(3)), x), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, x.data)


def test_softmax_symmetric():
    np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0])).data, 0.5)


def test_softmax_hand_value():
    out = T.softmax(Tensor([1.0, 2.0, 3.0])).data
    np.testing.assert_allclose(out, [0.09003057, 0.24472847, 0.66524096],
                               atol=1e-7)


def test_softmax_single_entry():
    np.testing.assert_allclose(T.softmax(Tensor([4.2])).data, [1.0])


def test_log_softmax_matches_log_of_softmax():
    x = Tensor(np.random.default_rng(6).standard_normal(9))
    np.testing.assert_allclose(T.log_softmax(x).data,
                               np.log(T.softmax(x).data), atol=1e-12)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def test_backward_square():
    p = Parameter("p", np.array(3.0))
    with Tape() as tape:
        loss = p * p
        tape.backward(loss)
    assert float(p.grad) == pytest.approx(6.0, abs=1e-12)


def test_grad_check_square():
    p = Parameter("p", np.array(3.0))
    assert grad_check(lambda: p * p, [p]) <= 1e-4


def _small_gradient_case():
    # loss of order 10 whose gradient w.r.t. `a` is 3e-8: a float64 central
    # difference at h=1e-5 resolves it only to ~1e-3 relative error
    a = Parameter("a", np.array([0.7, -0.2]))
    b = Parameter("b", np.array(np.sqrt(10.0)))
    c = Tensor([3e-8, 2e-8])
    return (lambda: T.tensor_sum(a * c) + b * b), [a, b]


def test_grad_check_small_gradient_on_large_loss():
    f, params = _small_gradient_case()
    assert grad_check(f, params) <= 1e-4


def test_grad_check_restores_parameters():
    f, params = _small_gradient_case()
    params.append(Parameter("s", np.ones(3, dtype=np.float32)))
    params[0].grad = np.full(2, 5.0)
    before = [(p.data, p.data.copy(), p.grad) for p in params]
    grad_check(f, params)
    for p, (data, values, grad) in zip(params, before):
        assert p.data is data
        assert p.data.dtype == values.dtype
        np.testing.assert_array_equal(p.data, values)
        assert p.grad is grad


def test_grad_check_five_point_fallback(monkeypatch):
    # platforms whose long double is plain double take the five-point path
    monkeypatch.setattr(T, "_LONGDOUBLE_WIDER", False)
    f, params = _small_gradient_case()
    assert grad_check(f, params) <= 1e-4


def test_unused_parameter_zero_grad():
    p = Parameter("p", np.array(2.0))
    q = Parameter("q", np.array(5.0))
    with Tape() as tape:
        loss = p * p
        tape.backward(loss)
    assert q.grad is None or np.all(q.grad == 0.0)


# ---------------------------------------------------------------------------
# deferred matvec weight gradients and sumsq
# ---------------------------------------------------------------------------

def test_matvec_parameter_grads_summed_at_sweep_end():
    rng = np.random.default_rng(20)
    P = Parameter("P", rng.standard_normal((3, 4)))
    v = Parameter("v", rng.standard_normal(4))
    xs = [Tensor(rng.standard_normal(4)), v, Tensor(rng.standard_normal(4))]
    cs = [rng.standard_normal(3) for _ in xs]
    with Tape() as tape:
        loss = T.sumsq(P)
        for x, c in zip(xs, cs):
            loss = loss + T.tensor_sum(T.matmul(P, x) * Tensor(c))
        tape.backward(loss)
    expect = 2.0 * P.data + sum(np.outer(c, x.data) for x, c in zip(xs, cs))
    np.testing.assert_allclose(P.grad, expect, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v.grad, P.data.T @ cs[1], rtol=0, atol=1e-12)


def test_matvec_non_parameter_matrix_grad_check():
    # transpose(P) and P * 2.0 are intermediates: their gradient must reach
    # them before their own backward step hands it on to P
    rng = np.random.default_rng(21)
    P = Parameter("P", rng.standard_normal((4, 3)))
    x = Parameter("x", rng.standard_normal(4))
    y = Parameter("y", rng.standard_normal(3))

    def f():
        return (T.tensor_sum(T.tanh(T.matmul(T.transpose(P), x)))
                + T.tensor_sum(T.sigmoid(T.matmul(P * 2.0, y))))

    assert grad_check(f, [P, x, y]) <= 1e-6


def test_failed_backward_leaves_nothing_pending():
    # the matrix @ vector products and the conv2d both run their backward
    # before the failing node, so each has an entry pending when it raises
    rng = np.random.default_rng(22)
    P = Parameter("P", rng.standard_normal((3, 4)))
    K = Parameter("K", rng.standard_normal((3, 3, 2, 2)))
    v = Parameter("v", rng.standard_normal(4))
    img = rng.standard_normal((1, 4, 4, 2))

    def sweep(tape, fail):
        x = T.tanh(v)
        if fail:
            def boom(g):
                raise RuntimeError("backward failed")
            x._backward = boom
        y = T.conv2d(T.tanh(T.reshape(T.tensor_sum(x), (1, 1, 1, 1)) * img),
                     K, stride=1, pad=1)
        loss = (T.tensor_sum(T.matmul(P, x)) + T.tensor_sum(T.matmul(P, v))
                + T.tensor_sum(y))
        tape.backward(loss)

    with Tape() as tape:
        sweep(tape, False)
    clean = (P.grad.copy(), K.grad.copy(), v.grad.copy())
    P.grad = K.grad = v.grad = None
    with Tape() as tape:
        with pytest.raises(RuntimeError):
            sweep(tape, True)
    # the entries hold their products' inputs; none may outlive the sweep
    assert not any(tape._pending.values())
    assert P.grad is None and K.grad is None
    v.grad = None
    with Tape() as tape:
        sweep(tape, False)
    np.testing.assert_array_equal(P.grad, clean[0])
    np.testing.assert_array_equal(K.grad, clean[1])
    np.testing.assert_array_equal(v.grad, clean[2])


def test_matmul_stack_times_matrix_grads():
    # the leading axes of a stack are rows: b's grad is rows^T @ g
    rng = np.random.default_rng(24)
    a = Parameter("a", rng.standard_normal((2, 3, 4)))
    b = Parameter("b", rng.standard_normal((4, 5)))
    g = rng.standard_normal((2, 3, 5))
    with Tape() as tape:
        tape.backward(T.tensor_sum(T.matmul(a, b) * Tensor(g)))
    np.testing.assert_allclose(b.grad, a.data.reshape(-1, 4).T
                               @ g.reshape(-1, 5), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-13, atol=1e-13)


def test_matmul_rejects_stacked_right_operand():
    with pytest.raises(GeanError, match="1-D or 2-D right operand"):
        T.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4, 5))))


@pytest.mark.parametrize("op", [
    T.sigmoid, T.tanh, T.stanh, T.softmax, T.log_softmax, T.transpose,
    T.tensor_sum, lambda a: T.reshape(a, (-1,)), lambda a: T.index(a, 1),
    lambda a: T.narrow(a, 0, 1, 2), lambda a: T.column(a, 2), T.sumsq,
], ids=["sigmoid", "tanh", "stanh", "softmax", "log_softmax", "transpose",
        "sum", "reshape", "index", "narrow", "column", "sumsq"])
def test_one_input_op_without_grad_records_no_node(op):
    # the backwards of one-input ops never ask whether their input needs
    # grad: a node whose input needs none is never put on the tape
    with Tape() as tape:
        out = op(Tensor(np.ones((3, 4))))
    assert tape._nodes == []
    assert not out.requires_grad and out._backward is None


def test_backward_frees_intermediate_grads():
    rng = np.random.default_rng(25)
    P = Parameter("P", rng.standard_normal((3, 4)))
    x = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    with Tape() as tape:
        m = T.matmul(P, x)
        product = weakref.ref(m.data)
        h = T.tanh(m)
        del m
        loss = T.tensor_sum(h * h)
        tape.backward(loss)
    # the sweep drops each node's closure, so the product that only tanh's
    # backward needed is freed while loss (and h) are still held
    assert product() is None
    assert h.grad is None
    with pytest.raises(GeanError, match="already swept"):
        tape.backward(loss)
    expect = P.data.T @ (2 * h.data * (1 - h.data ** 2))
    np.testing.assert_allclose(x.grad, expect, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(
        P.grad, (2 * h.data * (1 - h.data ** 2)) @ x.data.T,
        rtol=1e-13, atol=1e-13)


def test_sumsq_value_and_gradient():
    rng = np.random.default_rng(23)
    a = Parameter("a", rng.standard_normal((3, 5)))
    assert T.sumsq(a).item() == pytest.approx(float(np.sum(a.data ** 2)),
                                              rel=1e-12)
    assert grad_check(lambda: T.sumsq(a), [a]) <= 1e-6


def test_dropout_off_is_identity():
    x = Tensor(np.arange(5, dtype=np.float64))
    out = T.dropout(x, 0.5, None, False)
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(7)
    x = Tensor(np.ones(10000))
    out = T.dropout(x, 0.5, rng, True).data
    assert set(np.unique(out)) <= {0.0, 2.0}
    assert abs(out.mean() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# parameter sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls,config", [(RgpParams, SMALL_RGP),
                                        (DecoderParams, SMALL_DECODER)])
@pytest.mark.parametrize("change", ["drop", "add", "reshape"])
def test_load_state_dict_is_strict(cls, config, change):
    params = cls.create(np.random.default_rng(0), config)
    arrays = cls.create(np.random.default_rng(1), config).state_dict()
    name = "extra" if change == "add" else sorted(arrays)[-1]
    if change == "drop":
        del arrays[name]
    elif change == "add":
        arrays[name] = np.zeros(2)
    else:
        arrays[name] = arrays[name][:-1]
    before = {n: a.copy() for n, a in params.state_dict().items()}
    with pytest.raises(GeanError, match=repr(name)):
        params.load_state_dict(arrays)
    for n, a in params.state_dict().items():
        np.testing.assert_array_equal(a, before[n])


@pytest.mark.parametrize("cls,config", [(RgpParams, SMALL_RGP),
                                        (DecoderParams, SMALL_DECODER)])
def test_load_state_dict_fills_in_place_without_aliasing(cls, config):
    a = cls.create(np.random.default_rng(0), config)
    b = cls.create(np.random.default_rng(1), config)
    buffers = {n: p.data for n, p in b.params.items()}
    b.load_state_dict(a.state_dict())
    for n, p in b.params.items():
        assert p.data is buffers[n]
        np.testing.assert_array_equal(p.data, a.params[n].data)
    loaded = {n: d.copy() for n, d in b.state_dict().items()}
    opt = AdamState(lr=0.1)
    for _ in range(2):
        for p in a.all():
            p.grad = np.ones_like(p.data)
        opt.step(a.all())
    for n, p in b.params.items():
        np.testing.assert_array_equal(p.data, loaded[n])
        assert not np.array_equal(p.data, a.params[n].data)


@pytest.mark.parametrize("cls,config", [
    (RgpParams, RgpConfig()), (RgpParams, SMALL_RGP),
    (DecoderParams, DecoderConfig(vocab_size=40)),
    (DecoderParams, SMALL_DECODER)])
def test_shapes_map_is_create_layout(cls, config):
    params = cls.create(np.random.default_rng(0), config)
    assert ([(n, p.shape) for n, p in params.params.items()]
            == list(cls.shapes(config).items()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adopt_takes_float32_arrays_without_copy(dtype):
    arrays = {n: a.astype(dtype) for n, a in RgpParams.create(
        np.random.default_rng(0), SMALL_RGP).state_dict().items()}
    params = RgpParams.adopt(arrays, SMALL_RGP)
    for n, p in params.params.items():
        assert p.data.dtype == np.float32
        assert (p.data is arrays[n]) == (dtype == np.float32)
        np.testing.assert_array_equal(p.data, arrays[n].astype(np.float32))
