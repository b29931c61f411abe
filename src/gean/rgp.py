"""Recurrent gaze prediction: a convolutional GRU over motion features
with a deconvolutional readout emitting one 49x49 gaze distribution per
frame, plus its training loop."""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import FEATURE_DIM, FEATURE_GRID
from .errors import GeanError
from .gaze import GRID, mirror_augment
from .optim import AdamState, finite_loss, init_xavier
from .tensor import Parameter, ParameterSet, Tape, Tensor, no_grad

MIRROR_PROB = 0.5  # chance that a training step flips its clip left-right


@dataclass
class RgpConfig:
    in_channels: int = FEATURE_DIM
    proj_channels: int = 512
    hidden: int = 128
    readout_channels: tuple = (64, 32, 16)


class RgpParams(ParameterSet):
    """Parameter set of the gaze predictor.

    p_in: 1x1 projection conv; w_zrh, u_zr, u_h: 3x3 GRU kernels, gates
    stacked z|r|h on the output channels; d1..d3: transposed-conv readout;
    r: final 1x1 conv.
    """

    NAMES = ("p_in", "w_zrh", "u_zr", "u_h", "d1", "d2", "d3", "r")

    @classmethod
    def shapes(cls, config):
        ci, cp, ch = config.in_channels, config.proj_channels, config.hidden
        c1, c2, c3 = config.readout_channels
        # conv kernels are (kh, kw, cin, cout), conv_transpose (kh, kw,
        # cout, cin)
        return dict(zip(cls.NAMES, [
            (1, 1, ci, cp), (3, 3, cp, 3 * ch), (3, 3, ch, 2 * ch),
            (3, 3, ch, ch), (4, 4, c1, ch), (4, 4, c2, c1), (4, 4, c3, c2),
            (1, 1, c3, 1)]))

    @classmethod
    def create(cls, rng, config, dtype=np.float32):
        params = {}
        for name, (kh, kw, cin, cout) in cls.shapes(
                config or RgpConfig()).items():
            # one Xavier draw per gate kernel, stacked on output channels
            gates = {"w_zrh": 3, "u_zr": 2}.get(name, 1)
            params[name] = Parameter(name, np.concatenate(
                [init_xavier((kh, kw, cin, cout // gates), rng, dtype)
                 for _ in range(gates)], axis=3))
        return cls(params)


def gru_update(wx, zr_rec, h_prev, candidate_rec):
    """The GRU update of Cho et al. (arXiv:1406.1078) on the last axis,
    shared by the ConvGRU and the decoder's GRUs.

    wx: input-side pre-activations, gates stacked z|r|h; zr_rec: the
    recurrent z|r pre-activations; candidate_rec(r * h_prev): the
    candidate's recurrent product. The candidate carries no bias.
    """
    n = h_prev.shape[-1]
    axis = h_prev.ndim - 1
    zr = T.sigmoid(T.narrow(wx, axis, 0, 2 * n) + zr_rec)
    z, r = T.narrow(zr, axis, 0, n), T.narrow(zr, axis, n, n)
    h_bar = T.tanh(T.narrow(wx, axis, 2 * n, n) + candidate_rec(r * h_prev))
    return (1.0 - z) * h_prev + z * h_bar


def rgp_cell_step(wx, h_prev, params):
    """One ConvGRU step given the input-side term wx = conv(x, w_zrh),
    (1,7,7,3*hidden) for a projected frame x."""
    return gru_update(wx, T.conv2d(h_prev, params.u_zr, stride=1, pad=1),
                      h_prev,
                      lambda rh: T.conv2d(rh, params.u_h, stride=1, pad=1))


def rgp_readout_scores(h, params):
    """Readout logits: three deconvs, a 1x1 conv, 8x8 average pool.

    h: (N,7,7,hidden); returns (N, GRID**2) scores.
    The 1x1 conv r follows d3 with nothing in between, so it is contracted
    into d3's output channels: one (4,4,1,c2) kernel, one deconv.
    """
    y = T.conv_transpose2d(h, params.d1, stride=2, pad=1)
    y = T.conv_transpose2d(y, params.d2, stride=2, pad=1)
    k = T.tensor_sum(params.d3 * params.r, axis=2, keepdims=True)
    y = T.conv_transpose2d(y, k, stride=2, pad=1)
    y = T.avg_pool2d(y, 8, 8, stride=1)
    return T.reshape(y, (y.shape[0], GRID * GRID))


def rgp_forward_scores(features, params):
    """Per-frame readout logits (N, GRID**2) for a clip.

    Input-side convolutions are batched over frames; the recurrence and
    readout follow. Features that are not a Tensor are cast to the
    weights' dtype.
    """
    x = (features if isinstance(features, Tensor)
         else Tensor(features, dtype=params.p_in.data.dtype))
    n = x.shape[0]
    proj = T.conv2d(x, params.p_in)
    wx_all = T.conv2d(proj, params.w_zrh, stride=1, pad=1)
    h = Tensor(np.zeros((1, FEATURE_GRID, FEATURE_GRID,
                         params.u_h.shape[-1]), dtype=x.data.dtype))
    states = []
    for t in range(n):
        h = rgp_cell_step(T.narrow(wx_all, 0, t, 1), h, params)
        states.append(h)
    return rgp_readout_scores(T.concat(states), params)


def predict_gaze(features, params):
    """Inference-only forward: a (N,49,49) numpy array of gaze maps, each
    strictly positive with sum 1."""
    with no_grad():
        scores = rgp_forward_scores(features, params)
        return T.reshape(T.softmax(scores, axis=-1),
                         (scores.shape[0], GRID, GRID)).data


def _loss_weights(gts, mask):
    gts = np.asarray(gts, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    kept = int(mask.sum())
    if kept == 0:
        raise GeanError("all frames masked out of the gaze loss")
    w = gts * mask[:, None, None] / kept
    return w.reshape(gts.shape[0], -1)


def rgp_loss_from_scores(scores, gts, mask):
    """Mean frame-wise cross-entropy -sum gt*log(softmax(scores)) over the
    unmasked frames, taken via log-softmax (stable in single precision)."""
    w = _loss_weights(gts, mask)
    logp = T.log_softmax(scores, axis=-1)
    return -T.tensor_sum(logp * Tensor(w.astype(scores.data.dtype)))


def target_entropy(dataset):
    """Mean entropy of the unmasked GT gaze targets (the loss floor)."""
    total, count = 0.0, 0
    for clip in dataset:
        for gt, keep in zip(clip["targets"], clip["mask"]):
            if keep:
                g = np.asarray(gt, dtype=np.float64).ravel()
                nz = g[g > 0]
                total += float(-(nz * np.log(nz)).sum())
                count += 1
    return total / count


def train_rgp(dataset, *, lr, steps, seed, target_loss, model_config=None):
    """Fit the gaze predictor with Adam; one clip per step, optional
    horizontal-mirroring augmentation. A `target_loss` that is not None
    stops training once a pass over the dataset averages at most it.
    Returns (params, loss history)."""
    rng = np.random.default_rng(seed)
    params = RgpParams.create(rng, model_config)
    opt = AdamState(lr=lr)
    history = []
    for step in range(steps):
        clip = dataset[step % len(dataset)]
        feats, gts = clip["motion"], clip["targets"]
        if rng.random() < MIRROR_PROB:
            feats, gts = mirror_augment(feats, gts)
        with Tape() as tape:
            scores = rgp_forward_scores(feats, params)
            loss = rgp_loss_from_scores(scores, gts, clip["mask"])
            tape.backward(loss)
        history.append(finite_loss(loss, step))
        opt.step(params.all())
        if target_loss is not None and step % len(dataset) == len(dataset) - 1:
            recent = history[-len(dataset):]
            if sum(recent) / len(recent) <= target_loss:
                break
    return params, history
