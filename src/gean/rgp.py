"""Recurrent gaze prediction: a convolutional GRU over motion features
with a deconvolutional readout emitting one 49x49 gaze distribution per
frame, plus its training loop."""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .gaze import GRID as OUT_GRID, mirror_augment
from .optim import AdamState, finite_loss, init_xavier, resolve_seed
from .tensor import Parameter, ParameterSet, Tape, Tensor, no_grad

GRID = 7  # the ConvGRU runs on GRID x GRID feature cells


@dataclass
class RgpConfig:
    in_channels: int = 1024
    proj_channels: int = 512
    hidden: int = 128
    readout_channels: tuple = (64, 32, 16)


@dataclass
class RgpTrainConfig:
    lr: float = 1e-4
    steps: int = 2000
    seed: int = None
    mirror_prob: float = 0.5
    target_loss: float = None  # stop early once reached


class RgpParams(ParameterSet):
    """Parameter set of the gaze predictor.

    p_in: 1x1 projection conv; w_*/u_* : 3x3 GRU gate kernels;
    d1..d3: transposed-conv readout; r: final 1x1 conv.
    """

    NAMES = ("p_in", "w_z", "w_r", "w_h", "u_z", "u_r", "u_h",
             "d1", "d2", "d3", "r")

    @classmethod
    def create(cls, rng, config=None, dtype=np.float32):
        cfg = config or RgpConfig()
        ci, cp, ch = cfg.in_channels, cfg.proj_channels, cfg.hidden
        c1, c2, c3 = cfg.readout_channels
        shapes = {
            "p_in": (1, 1, ci, cp),
            "w_z": (3, 3, cp, ch), "w_r": (3, 3, cp, ch), "w_h": (3, 3, cp, ch),
            "u_z": (3, 3, ch, ch), "u_r": (3, 3, ch, ch), "u_h": (3, 3, ch, ch),
            # conv_transpose kernels are (kh, kw, cout, cin)
            "d1": (4, 4, c1, ch), "d2": (4, 4, c2, c1), "d3": (4, 4, c3, c2),
            "r": (1, 1, c3, 1),
        }
        params = {name: Parameter(name, init_xavier(shape, rng, dtype))
                  for name, shape in shapes.items()}
        return cls(params, cfg)


def _channels(t, start, length):
    return T.narrow(t, t.ndim - 1, start, length)


def _cell_from_wx(wx, h_prev, params, u_zr):
    """GRU update given the precomputed input-side convolution wx
    (concatenated z|r|h candidates along channels) and the [u_z|u_r]
    kernel."""
    ch = params.u_z.shape[-1]
    zr_rec = T.conv2d(h_prev, u_zr, stride=1, pad=1)
    z = T.sigmoid(_channels(wx, 0, ch) + _channels(zr_rec, 0, ch))
    r = T.sigmoid(_channels(wx, ch, ch) + _channels(zr_rec, ch, ch))
    h_bar = T.tanh(_channels(wx, 2 * ch, ch)
                   + T.conv2d(r * h_prev, params.u_h, stride=1, pad=1))
    return (1.0 - z) * h_prev + z * h_bar


def rgp_cell_step(x, h_prev, params):
    """One convolutional-GRU step on a projected frame x (7,7,proj)."""
    wx = T.conv2d(x, T.concat([params.w_z, params.w_r, params.w_h], axis=3),
                  stride=1, pad=1)
    u_zr = T.concat([params.u_z, params.u_r], axis=3)
    return _cell_from_wx(wx, h_prev, params, u_zr)


def rgp_readout_scores(h, params):
    """Readout logits: three deconvs, a 1x1 conv, 8x8 average pool.

    h: (7,7,hidden) or (N,7,7,hidden); returns (..., OUT_GRID**2) scores.
    """
    y = T.conv_transpose2d(h, params.d1, stride=2, pad=1)
    y = T.conv_transpose2d(y, params.d2, stride=2, pad=1)
    y = T.conv_transpose2d(y, params.d3, stride=2, pad=1)
    y = T.conv2d(y, params.r)
    y = T.avg_pool2d(y, 8, 8, stride=1)
    lead = y.shape[:-3]
    return T.reshape(y, lead + (OUT_GRID * OUT_GRID,))


def rgp_forward_scores(features, params):
    """Per-frame readout logits (N, OUT_GRID**2) for a clip.

    Input-side convolutions are batched over frames; the recurrence and
    readout follow.
    """
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.ndim != 4 or x.shape[0] < 1:
        raise ContractError("expected a non-empty (N,7,7,C) feature sequence")
    n = x.shape[0]
    proj = T.conv2d(x, params.p_in)
    wx_all = T.conv2d(proj, T.concat([params.w_z, params.w_r, params.w_h],
                                     axis=3), stride=1, pad=1)
    h = Tensor(np.zeros((GRID, GRID, params.config.hidden),
                        dtype=x.data.dtype))
    u_zr = T.concat([params.u_z, params.u_r], axis=3)  # once per clip
    states = []
    for t in range(n):
        wx = T.reshape(T.narrow(wx_all, 0, t, 1), wx_all.shape[1:])
        h = _cell_from_wx(wx, h, params, u_zr)
        states.append(h)
    return rgp_readout_scores(T.stack(states), params)


def predict_gaze(features, params):
    """Inference-only forward: a (N,49,49) numpy array of gaze maps, each
    strictly positive with sum 1."""
    with no_grad():
        scores = rgp_forward_scores(features, params)
        return T.reshape(T.softmax(scores, axis=-1),
                         (scores.shape[0], OUT_GRID, OUT_GRID)).data


def _loss_weights(gts, mask):
    gts = np.asarray(gts, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if gts.shape[0] != mask.shape[0]:
        raise DimensionError("targets and mask length mismatch")
    kept = int(mask.sum())
    if kept == 0:
        raise ContractError("all frames masked out of the gaze loss")
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
    if count == 0:
        raise ContractError("dataset has no unmasked frames")
    return total / count


def train_rgp(dataset, config=None, model_config=None):
    """Fit the gaze predictor with Adam; one clip per step, optional
    horizontal-mirroring augmentation. Returns (params, loss history)."""
    cfg = config or RgpTrainConfig()
    if not dataset:
        raise ConfigError("empty dataset")
    rng = np.random.default_rng(resolve_seed(cfg.seed))
    params = RgpParams.create(rng, model_config)
    opt = AdamState(lr=cfg.lr)
    history = []
    for step in range(cfg.steps):
        clip = dataset[step % len(dataset)]
        feats, gts = clip["motion"], clip["targets"]
        if cfg.mirror_prob > 0 and rng.random() < cfg.mirror_prob:
            feats, gts = mirror_augment(feats, gts)
        with Tape() as tape:
            scores = rgp_forward_scores(feats.astype(np.float32), params)
            loss = rgp_loss_from_scores(scores, gts, clip["mask"])
            tape.backward(loss)
        history.append(finite_loss(loss, step))
        opt.step(params.all())
        if cfg.target_loss is not None and step % len(dataset) == len(dataset) - 1:
            recent = history[-len(dataset):]
            if sum(recent) / len(recent) <= cfg.target_loss:
                break
    return params, history
