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


def check_conv2d(rng, instances=20):
    def build(rng):
        x = _param(rng, 5, 5, 2)
        k = _param(rng, 3, 3, 2, 3)
        return (lambda: _scalarize(T.conv2d(x, k, stride=1, pad=1)),
                [x, k])
    return _worst(rng, instances, build)


def check_conv_transpose2d(rng, instances=20):
    def build(rng):
        x = _param(rng, 3, 3, 2)
        k = _param(rng, 4, 4, 3, 2)
        return (lambda: _scalarize(T.conv_transpose2d(x, k, stride=2, pad=1)),
                [x, k])
    return _worst(rng, instances, build)


def check_avg_pool2d(rng, instances=20):
    def build(rng):
        x = _param(rng, 6, 6, 2)
        return (lambda: _scalarize(T.avg_pool2d(x, 3, 3, 2)), [x])
    return _worst(rng, instances, build)


def check_affine_activations(rng, instances=20):
    def build(rng):
        W = _param(rng, 4, 5)
        b = _param(rng, 4)
        x = _param(rng, 5)

        def f():
            y = T.add(T.matmul(W, x), b)
            y = T.sigmoid(y) + T.tanh(y) + T.stanh(y)
            return _scalarize(y)

        return f, [W, b, x]
    return _worst(rng, instances, build)


def check_softmax(rng, instances=20):
    def build(rng):
        x = _param(rng, 7)
        return (lambda: _scalarize(T.softmax(x)), [x])
    return _worst(rng, instances, build)


def check_log_softmax(rng, instances=20):
    def build(rng):
        x = _param(rng, 7)
        return (lambda: _scalarize(T.log_softmax(x)), [x])
    return _worst(rng, instances, build)


def check_rgp_cell(rng, instances=20, config=SMALL_RGP):
    def build(rng):
        params = RgpParams.create(rng, config, dtype=np.float64)
        x = Tensor(rng.standard_normal((7, 7, config.proj_channels)))
        h0 = Tensor(rng.standard_normal((7, 7, config.hidden)) * 0.5)
        cell_params = [params.params[n] for n in
                       ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h")]
        return (lambda: _scalarize(rgp_cell_step(x, h0, params)),
                cell_params)
    return _worst(rng, instances, build)


def _random_pools(rng, cfg, n_max=3):
    return {ch: Tensor(rng.standard_normal((n_max, cfg.feat)))
            for ch in CHANNELS}


def check_decode_step(rng, instances=20, config=SMALL_DECODER):
    def build(rng):
        params = DecoderParams.create(rng, config, dtype=np.float64)
        pools = _random_pools(rng, config)

        def f():
            state = DecoderState.initial(0, config, dtype=np.float64)
            logits, _ = decode_step(state, attention_keys(pools, params),
                                    params)
            return _scalarize(logits)

        return f, params.all()
    return _worst(rng, instances, build)


def check_caption_loss(rng, instances=20, config=SMALL_DECODER, n_words=2,
                       l2_coeff=1e-2):
    def build(rng):
        params = DecoderParams.create(rng, config, dtype=np.float64)
        pools = _random_pools(rng, config)
        targets = list(rng.integers(0, config.vocab_size, size=n_words))

        def f():
            keys = attention_keys(pools, params)
            state = DecoderState.initial(0, config, dtype=np.float64)
            logits_seq = []
            prev = 0
            for tgt in targets:
                state.prev_word = prev
                logits, state = decode_step(state, keys, params)
                logits_seq.append(logits)
                prev = int(tgt)
            # the l2 term covers weight matrices only, so the b_* biases
            # keep gradient elements near 1e-7; grad_check's long double
            # reference is what resolves them to 1e-4 relative error
            return caption_loss(logits_seq, targets, params, l2_coeff=l2_coeff)

        return f, params.all()
    return _worst(rng, instances, build)


CHECKS = {
    "conv2d": check_conv2d,
    "conv_transpose2d": check_conv_transpose2d,
    "avg_pool2d": check_avg_pool2d,
    "affine_activations": check_affine_activations,
    "softmax": check_softmax,
    "log_softmax": check_log_softmax,
    "rgp_cell": check_rgp_cell,
    "decode_step": check_decode_step,
    "caption_loss": check_caption_loss,
}


def gradient_report(seed=0, instances=20):
    """Max relative autodiff-vs-finite-difference error per check."""
    report = {}
    for name, fn in CHECKS.items():
        rng = np.random.default_rng(seed)
        report[name] = fn(rng, instances)
    return report
