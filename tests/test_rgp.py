"""Gaze-predictor tests: the convolutional GRU cell, deconvolutional
readout, full forward pass, loss, and training loop."""

import tracemalloc

import numpy as np
import pytest

from gean import tensor as T
from gean.checks import SMALL_RGP
from gean.errors import GeanError
from gean.rgp import (RgpConfig, RgpParams, predict_gaze, rgp_cell_step,
                      rgp_forward_scores, rgp_loss_from_scores,
                      rgp_readout_scores, target_entropy, train_rgp)
from gean.tensor import Parameter, Tape, Tensor, grad_check

SMALL = RgpConfig(in_channels=4, proj_channels=3, hidden=3,
                  readout_channels=(3, 2, 2))


def small_params(seed=0, zero=False):
    params = RgpParams.create(np.random.default_rng(seed), SMALL,
                              dtype=np.float64)
    if zero:
        for p in params.all():
            p.data[...] = 0.0
    return params


def rgp_readout(h, params):
    """49x49 gaze distribution from one (1,7,7,hidden) state map."""
    return T.reshape(T.softmax(rgp_readout_scores(h, params)), (49, 49))


def cell(x, h_prev, params):
    """One ConvGRU step on a projected frame x."""
    wx = T.conv2d(x, params.w_zrh, stride=1, pad=1)
    return rgp_cell_step(wx, h_prev, params)


def rgp_loss(preds, gts, mask):
    """The gaze loss of probability maps: log_softmax(log p) = log p."""
    n = len(preds)
    return rgp_loss_from_scores(Tensor(np.log(preds).reshape(n, -1)), gts,
                                mask)


# ---------------------------------------------------------------------------
# cell
# ---------------------------------------------------------------------------

def test_zero_params_zero_state():
    params = small_params(zero=True)
    x = Tensor(np.random.default_rng(1).standard_normal((1, 7, 7, 3)))
    h = cell(x, Tensor(np.zeros((1, 7, 7, 3))), params)
    np.testing.assert_array_equal(h.data, 0.0)


def test_zero_params_halve_state():
    params = small_params(zero=True)
    x = Tensor(np.random.default_rng(2).standard_normal((1, 7, 7, 3)))
    h_prev = np.random.default_rng(3).standard_normal((1, 7, 7, 3))
    h = cell(x, Tensor(h_prev), params)
    # gates sit at sigmoid(0)=0.5 and the candidate is tanh(0)=0
    np.testing.assert_allclose(h.data, 0.5 * h_prev, atol=1e-12)


def per_gate_cell(x, h_prev, w, u):
    """The standard ConvGRU, one 3x3 conv per gate and side: w and u map
    gate name to its kernel."""
    conv = lambda a, k: T.conv2d(a, k, stride=1, pad=1)
    z = T.sigmoid(conv(x, w["z"]) + conv(h_prev, u["z"]))
    r = T.sigmoid(conv(x, w["r"]) + conv(h_prev, u["r"]))
    h_bar = T.tanh(conv(x, w["h"]) + conv(r * h_prev, u["h"]))
    return (1.0 - z) * h_prev + z * h_bar


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_fused_cell_is_the_per_gate_conv_gru():
    params = small_params(12)
    rng = np.random.default_rng(13)
    x = Parameter("x", rng.standard_normal((1, 7, 7, 3)))
    h_prev = Parameter("h", rng.standard_normal((1, 7, 7, 3)))
    c = Tensor(np.cos(np.arange(7 * 7 * 3)).reshape(1, 7, 7, 3))
    # the per-gate reference is fed the sliced blocks of the fused kernels
    split = lambda t, gates: {g: Parameter(g, block) for g, block in
                              zip(gates, np.split(t.data, len(gates), axis=3))}
    w = split(params.w_zrh, "zrh")
    u = dict(split(params.u_zr, "zr"), **split(params.u_h, "h"))
    results = []
    for run in (lambda: cell(x, h_prev, params),
                lambda: per_gate_cell(x, h_prev, w, u)):
        x.grad = h_prev.grad = None
        with Tape() as tape:
            out = run()
            tape.backward(T.tensor_sum(out * c))
        results.append((out.data, x.grad, h_prev.grad))
    (fused, *fused_grads), (ref, *ref_grads) = results
    assert fused.dtype == ref.dtype == np.float64
    assert rel_err(fused, ref) <= 1e-12
    for g, ref_g in zip(fused_grads, ref_grads):
        assert rel_err(g, ref_g) <= 1e-12
    reference = {"w_zrh": np.concatenate([w[g].grad for g in "zrh"], axis=3),
                 "u_zr": np.concatenate([u[g].grad for g in "zr"], axis=3),
                 "u_h": u["h"].grad}
    for name, ref_g in reference.items():
        assert rel_err(params.params[name].grad, ref_g) <= 1e-12, name


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------

def unfolded_readout_scores(h, params):
    """The readout as the model defines it: d3's deconv, then the 1x1 conv
    r on its c3 channels."""
    y = T.conv_transpose2d(h, params.d1, stride=2, pad=1)
    y = T.conv_transpose2d(y, params.d2, stride=2, pad=1)
    y = T.conv_transpose2d(y, params.d3, stride=2, pad=1)
    y = T.avg_pool2d(T.conv2d(y, params.r), 8, 8, stride=1)
    return T.reshape(y, y.shape[:-3] + (49 * 49,))


def test_folded_readout_is_d3_then_r():
    cfg = RgpConfig(in_channels=4, proj_channels=3, hidden=3,
                    readout_channels=(4, 3, 5))
    params = RgpParams.create(np.random.default_rng(14), cfg,
                              dtype=np.float64)
    rng = np.random.default_rng(15)
    h = Parameter("h", rng.standard_normal((2, 7, 7, 3)))
    c = Tensor(rng.standard_normal((2, 49 * 49)))
    checked = [h] + [params.params[n] for n in ("d1", "d2", "d3", "r")]
    results = []
    for readout in (rgp_readout_scores, unfolded_readout_scores):
        for p in checked:
            p.grad = None
        with Tape() as tape:
            scores = readout(h, params)
            tape.backward(T.tensor_sum(scores * c))
        results.append([scores.data] + [p.grad for p in checked])
    for folded, ref in zip(*results):
        assert folded.dtype == ref.dtype == np.float64
        assert folded.shape == ref.shape
        assert rel_err(folded, ref) <= 1e-12


def test_readout_uniform_for_zero_params():
    params = small_params(zero=True)
    m = rgp_readout(
        Tensor(np.random.default_rng(4).standard_normal((1, 7, 7, 3))), params)
    np.testing.assert_allclose(m.data, 1.0 / 2401.0, atol=1e-12)


def test_readout_distribution():
    params = small_params()
    m = rgp_readout(
        Tensor(np.random.default_rng(5).standard_normal((1, 7, 7, 3))),
        params).data
    assert m.shape == (49, 49)
    assert m.sum() == pytest.approx(1.0, abs=1e-6)
    assert m.min() > 0.0


def test_readout_flip_equivariance():
    params = small_params(6)
    h = np.random.default_rng(7).standard_normal((1, 7, 7, 3))
    m = rgp_readout(Tensor(h), params).data
    flipped = RgpParams.create(np.random.default_rng(0), SMALL,
                               dtype=np.float64)
    for name in RgpParams.NAMES:
        flipped.params[name].data = params.params[name].data[:, ::-1].copy()
    m_flip = rgp_readout(Tensor(h[:, :, ::-1].copy()), flipped).data
    np.testing.assert_allclose(m_flip, m[:, ::-1], atol=1e-9)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_counts():
    params = small_params()
    for n in (1, 5, 35):
        feats = np.random.default_rng(n).standard_normal((n, 7, 7, 4))
        maps = predict_gaze(feats, params)
        assert maps.shape == (n, 49, 49)
        np.testing.assert_allclose(maps.sum(axis=(1, 2)), 1.0, atol=1e-6)


def test_forward_single_frame_matches_manual():
    params = small_params(8)
    feat = np.random.default_rng(9).standard_normal((1, 7, 7, 4))
    auto = predict_gaze(feat, params)[0]
    x = T.conv2d(Tensor(feat), params.p_in)
    h = cell(x, Tensor(np.zeros((1, 7, 7, 3))), params)
    manual = rgp_readout(h, params).data
    np.testing.assert_allclose(auto, manual, atol=1e-9)


def test_forward_repeated_input_converges():
    params = small_params(10)
    feat = np.repeat(np.random.default_rng(11).standard_normal((1, 7, 7, 4)),
                     60, axis=0)
    maps = predict_gaze(feat, params)
    deltas = np.abs(np.diff(maps, axis=0)).sum(axis=(1, 2))
    assert deltas[48] <= 1e-3  # frame 50 vs 49


def test_taped_forward_holds_no_im2col_matrix():
    # proj 64 and hidden 4: w_zrh's input im2col, (8*49, 9*64) float64, is
    # larger than every weight and activation of the forward, so a forward
    # that kept it for the kernel gradient would reach its size
    cfg = RgpConfig(in_channels=4, proj_channels=64, hidden=4,
                    readout_channels=(3, 2, 2))
    params = RgpParams.create(np.random.default_rng(14), cfg,
                              dtype=np.float64)
    n = 8
    feats = Tensor(np.random.default_rng(15).standard_normal((n, 7, 7, 4)))
    cols_bytes = n * 49 * 9 * cfg.proj_channels * 8
    assert cols_bytes > max(p.data.nbytes for p in params.all())
    assert cols_bytes > n * 56 * 56 * cfg.readout_channels[1] * 8
    with Tape():
        tracemalloc.start()
        try:
            scores = rgp_forward_scores(feats, params)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert scores.shape == (n, 49 * 49)
    assert held < cols_bytes


def test_grad_check_over_three_frames():
    # the rgp_cell check runs one step; here each recurrent kernel's
    # gradient is a sum over frames
    rng = np.random.default_rng(16)
    params = RgpParams.create(rng, SMALL_RGP, dtype=np.float64)
    feats = rng.standard_normal((3, 7, 7, SMALL_RGP.in_channels))
    gts = rng.random((3, 49, 49))
    gts /= gts.sum(axis=(1, 2), keepdims=True)
    mask = np.ones(3, dtype=bool)
    assert grad_check(
        lambda: rgp_loss_from_scores(rgp_forward_scores(feats, params), gts,
                                     mask),
        [params.w_zrh, params.u_zr, params.u_h]) <= 1e-4


def test_float64_features_run_in_the_weights_dtype():
    params = RgpParams.create(np.random.default_rng(17), SMALL)
    feats = np.random.default_rng(18).standard_normal((2, 7, 7, 4))
    maps = predict_gaze(feats, params)
    assert maps.dtype == np.float32
    np.testing.assert_array_equal(
        maps, predict_gaze(feats.astype(np.float32), params))


def test_forward_rejects_empty():
    with pytest.raises(GeanError, match="expected a non-empty"):
        predict_gaze(np.zeros((0, 7, 7, 4)), small_params())


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_uniform_ln2401():
    uniform = np.full((2, 49, 49), 1.0 / 2401.0)
    loss = rgp_loss(uniform, uniform, np.ones(2, dtype=bool))
    assert loss.item() == pytest.approx(np.log(2401.0), abs=1e-9)


def test_loss_one_cell_gt_uniform_pred():
    pred = np.full((1, 49, 49), 1.0 / 2401.0)
    gt = np.zeros((1, 49, 49))
    gt[0, 3, 5] = 1.0
    loss = rgp_loss(pred, gt, np.ones(1, dtype=bool))
    assert loss.item() == pytest.approx(np.log(2401.0), abs=1e-9)


def test_loss_gibbs_inequality():
    rng = np.random.default_rng(12)
    gt = rng.random((3, 49, 49))
    gt /= gt.sum(axis=(1, 2), keepdims=True)
    mask = np.ones(3, dtype=bool)
    floor = rgp_loss(gt, gt, mask).item()
    other = rng.random((3, 49, 49))
    other /= other.sum(axis=(1, 2), keepdims=True)
    assert rgp_loss(other, gt, mask).item() > floor


def test_loss_mask_drops_frames():
    rng = np.random.default_rng(13)
    gt = rng.random((2, 49, 49))
    gt /= gt.sum(axis=(1, 2), keepdims=True)
    pred = np.full((2, 49, 49), 1.0 / 2401.0)
    only_first = rgp_loss(pred[:1], gt[:1], np.ones(1, dtype=bool)).item()
    masked = rgp_loss(pred, gt, np.array([True, False])).item()
    assert masked == pytest.approx(only_first, abs=1e-9)
    with pytest.raises(GeanError, match="all frames masked out"):
        rgp_loss(pred, gt, np.zeros(2, dtype=bool))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _toy_dataset(seed=0, n_frames=4):
    rng = np.random.default_rng(seed)
    gts = rng.random((n_frames, 49, 49))
    gts /= gts.sum(axis=(1, 2), keepdims=True)
    return [{
        "id": "toy",
        "motion": rng.standard_normal((n_frames, 7, 7, 4)).astype(np.float32),
        "targets": gts,
        "mask": np.ones(n_frames, dtype=bool),
    }]


def test_train_zero_lr_keeps_parameters():
    dataset = _toy_dataset()
    params, _ = train_rgp(dataset, lr=0.0, steps=2, seed=0, target_loss=None,
                          model_config=SMALL)
    fresh = RgpParams.create(np.random.default_rng(0), SMALL)
    for name in RgpParams.NAMES:
        np.testing.assert_array_equal(params.params[name].data,
                                      fresh.params[name].data)


def test_train_deterministic_loss_curves():
    cfg = dict(lr=1e-4, steps=4, seed=3, target_loss=None, model_config=SMALL)
    _, h1 = train_rgp(_toy_dataset(), **cfg)
    _, h2 = train_rgp(_toy_dataset(), **cfg)
    assert h1 == h2


def test_train_stops_on_non_finite_loss():
    dataset = _toy_dataset(n_frames=4) + _toy_dataset(seed=1, n_frames=4)
    dataset[1]["motion"][2, 3, 3, 0] = np.nan
    with pytest.raises(FloatingPointError, match="nan at training step 2"):
        train_rgp(dataset, lr=1e-4, steps=4, seed=0, target_loss=None,
                  model_config=SMALL)


def test_target_entropy_uniform():
    gts = np.full((2, 49, 49), 1.0 / 2401.0)
    dataset = [{"targets": gts, "mask": np.ones(2, dtype=bool)}]
    assert target_entropy(dataset) == pytest.approx(np.log(2401.0), abs=1e-9)
