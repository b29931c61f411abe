"""Finite-difference gradient verification of every layer primitive and
of the composite model steps, on small random double-precision instances."""

import numpy as np

from . import tensor as T
from .decoder import (CHANNELS, DecoderConfig, DecoderParams, DecoderState,
                      attention_keys, caption_loss, decode_step)
from .rgp import RgpConfig, RgpParams, rgp_cell_step
from .tensor import Parameter, Tensor, grad_check

SMALL_DECODER = DecoderConfig(vocab_size=5, embed=4, hidden=4, att=3, feat=5,
                              agg_splits=(2, 2, 3))
SMALL_RGP = RgpConfig(in_channels=3, proj_channels=3, hidden=3,
                      readout_channels=(3, 2, 2))


def _param(rng, *shape):
    return Parameter("p", rng.standard_normal(shape))


def _scalarize(out):
    # fixed non-constant projection so every output element carries gradient
    c = Tensor(np.cos(np.arange(out.data.size)).reshape(out.shape))
    return T.tensor_sum(out * c)


def _worst(rng, instances, build):
    worst = 0.0
    for _ in range(instances):
        f, params = build(rng)
        worst = max(worst, grad_check(f, params))
    return worst


def _op_check(op, *shapes):
    """Check of op(*params) for Parameters of these shapes, drawn in order."""
    def check(rng, instances):
        def build(rng):
            params = [_param(rng, *shape) for shape in shapes]
            return (lambda: _scalarize(op(*params)), params)
        return _worst(rng, instances, build)
    return check


def _affine_activations(W, b, x):
    y = T.add(T.matmul(W, x), b)
    return T.sigmoid(y) + T.tanh(y) + T.stanh(y)


def check_rgp_cell(rng, instances):
    def build(rng):
        params = RgpParams.create(rng, SMALL_RGP, dtype=np.float64)
        x = Tensor(rng.standard_normal((1, 7, 7, SMALL_RGP.proj_channels)))
        h0 = Tensor(rng.standard_normal((1, 7, 7, SMALL_RGP.hidden)) * 0.5)

        def f():
            wx = T.conv2d(x, params.w_zrh, stride=1, pad=1)
            return _scalarize(rgp_cell_step(wx, h0, params))

        return f, [params.w_zrh, params.u_zr, params.u_h]
    return _worst(rng, instances, build)


def _decoder_check(scalar, n_targets):
    """Check of scalar(logits, targets, params) for the logits of the span
    [0, targets[0]], with params, 3-frame pools and then n_targets word
    indices drawn in that order."""
    def check(rng, instances):
        def build(rng):
            params = DecoderParams.create(rng, SMALL_DECODER,
                                          dtype=np.float64)
            pools = {ch: Tensor(rng.standard_normal((3, SMALL_DECODER.feat)))
                     for ch in CHANNELS}
            targets = [int(t) for t in rng.integers(
                0, SMALL_DECODER.vocab_size, size=n_targets)]

            def f():
                state = DecoderState.initial(params)
                logits, _ = decode_step(state, attention_keys(pools, params),
                                        [0, targets[0]], params)
                return scalar(logits, targets, params)

            return f, params.all()
        return _worst(rng, instances, build)
    return check


CHECKS = {
    "conv2d": _op_check(lambda x, k: T.conv2d(x, k, stride=1, pad=1),
                        (1, 5, 5, 2), (3, 3, 2, 3)),
    "conv_transpose2d": _op_check(
        lambda x, k: T.conv_transpose2d(x, k, stride=2, pad=1),
        (1, 3, 3, 2), (4, 4, 3, 2)),
    "avg_pool2d": _op_check(lambda x: T.avg_pool2d(x, 3, 3, 2),
                            (1, 6, 6, 2)),
    "affine_activations": _op_check(_affine_activations, (4, 5), (4,), (5,)),
    "softmax": _op_check(T.softmax, (7,)),
    "log_softmax": _op_check(T.log_softmax, (7,)),
    "rgp_cell": check_rgp_cell,
    "decode_step": _decoder_check(lambda logits, *_: _scalarize(logits), 1),
    # the l2 term covers weight matrices only, so the b_* biases keep
    # gradient elements near 1e-7; grad_check's long double reference is
    # what resolves them to 1e-4 relative error
    "caption_loss": _decoder_check(
        lambda logits, targets, params: caption_loss(logits, targets, params,
                                                     l2_coeff=1e-2), 2),
}


def gradient_report(seed, instances):
    """Max relative autodiff-vs-finite-difference error per check."""
    report = {}
    for name, fn in CHECKS.items():
        rng = np.random.default_rng(seed)
        report[name] = fn(rng, instances)
    return report
