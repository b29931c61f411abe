"""Caption decoder: per-channel temporal attention, attention GRU, gated
aggregation, multimodal GRU, word softmax, greedy decoding, and the
captioner training loop (gaze predictor frozen)."""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .optim import (AdamState, finite_loss, init_orthogonal, init_xavier,
                    resolve_seed)
from .pools import (DEFAULT_LAMBDA, POOL_FOVEA, POOL_MOTION, POOL_SCENE,
                    attend_features, build_pool, fixed_gaze, spatial_attention)
from .rgp import predict_gaze
from .tensor import Parameter, ParameterSet, Tape, Tensor, no_grad
from .text import build_vocab, tokenize

CHANNELS = ("scene", "motion", "fovea")
DROPOUT = 0.5  # rate on the fused features q while training


@dataclass
class DecoderConfig:
    vocab_size: int
    embed: int = 512
    hidden: int = 512
    att: int = 64
    feat: int = 1024
    agg_splits: tuple = (256, 256, 512)

    @property
    def agg_dim(self):
        return sum(self.agg_splits)


@dataclass
class CaptionTrainConfig:
    lr: float = 1e-4
    steps: int = 5000
    seed: int = None
    l2_coeff: float = 1e-5
    max_len: int = 80
    lam: float = DEFAULT_LAMBDA
    gaze: str = "learned"
    eval_every: int = 100  # greedy-decode training clips; stop when exact


class DecoderParams(ParameterSet):
    """All trainable tensors of the decoder, keyed by name."""

    def weight_matrices(self):
        return [p for n, p in self.params.items() if not n.startswith("b_")]

    @classmethod
    def create(cls, rng, config, dtype=np.float32):
        cfg = config
        v, e, h, a, f = (cfg.vocab_size, cfg.embed, cfg.hidden, cfg.att,
                         cfg.feat)
        params = {"embedding": Parameter("embedding",
                                         init_xavier((e, v), rng, dtype))}

        def add(name, shape, init="xavier"):
            if init == "zero":
                data = np.zeros(shape, dtype=dtype)
            elif init == "orth":
                data = init_orthogonal(shape, rng, dtype)
            else:
                data = init_xavier(shape, rng, dtype)
            params[name] = Parameter(name, data)

        for ch in CHANNELS:
            add("w_%s" % ch, (a,))
            add("wq_%s" % ch, (a, f))
            add("uq_%s" % ch, (a, h))
            add("b_q_%s" % ch, (a,), "zero")
        for prefix, xdim in (("att", e), ("mm", cfg.agg_dim + e)):
            for gate in ("z", "r", "h"):
                add("%s_w%s" % (prefix, gate), (h, xdim))
                add("%s_u%s" % (prefix, gate), (h, h), "orth")
            add("b_%s_z" % prefix, (h,), "zero")
            add("b_%s_r" % prefix, (h,), "zero")
        for ch, dim in zip(CHANNELS, cfg.agg_splits):
            add("wg_%s" % ch, (dim, f))
        add("b_g", (cfg.agg_dim,), "zero")
        add("u_g", (cfg.agg_dim, h))
        add("w_out", (v, h))
        add("b_out", (v,), "zero")
        return cls(params, cfg)


class DecoderState:
    """Hidden states, the previous word, and the last step's temporal
    attention weights per channel."""

    def __init__(self, h_att, h_m, prev_word, betas=None):
        self.h_att = h_att
        self.h_m = h_m
        self.prev_word = prev_word
        self.betas = betas or {}

    @classmethod
    def initial(cls, bos, config, dtype=np.float32):
        zero = lambda: Tensor(np.zeros(config.hidden, dtype=dtype))
        return cls(zero(), zero(), bos)


def gru_step(x, h_prev, wz, uz, bz, wr, ur, br, wh, uh):
    """Standard GRU update; the candidate branch carries no bias."""
    z = T.sigmoid(T.matmul(wz, x) + T.matmul(uz, h_prev) + bz)
    r = T.sigmoid(T.matmul(wr, x) + T.matmul(ur, h_prev) + br)
    h_bar = T.tanh(T.matmul(wh, x) + T.matmul(uh, r * h_prev))
    return (1.0 - z) * h_prev + z * h_bar


def _gru(params, prefix, x, h_prev):
    p = params.params
    return gru_step(x, h_prev,
                    p["%s_wz" % prefix], p["%s_uz" % prefix],
                    p["b_%s_z" % prefix],
                    p["%s_wr" % prefix], p["%s_ur" % prefix],
                    p["b_%s_r" % prefix],
                    p["%s_wh" % prefix], p["%s_uh" % prefix])


def attention_keys(pools, params):
    """Per channel, (pool, pool @ Wq^T): the pool as a Tensor in the wq_*
    weight's dtype and the key term of temporal attention that no word
    changes, computed once per caption (Bahdanau et al., arXiv:1409.0473,
    App. A.1.2); the tape sums its gradient over the words."""
    p = params.params
    keys = {}
    for ch in CHANNELS:
        wq = p["wq_%s" % ch]
        pool = pools[ch]
        if not isinstance(pool, Tensor):
            # numpy pools (build_clip_pools gives float64) run in the
            # weights' dtype, so training and decoding compute alike
            pool = Tensor(pool, dtype=wq.data.dtype)
        keys[ch] = (pool, T.matmul(pool, T.transpose(wq)))
    return keys


def temporal_attention(pool, pool_key, h_att, params, channel):
    """Soft attention over one feature pool, given its key term
    pool_key = pool @ Wq^T from `attention_keys`.

    Returns (u, beta): u = sum_tau beta_tau * v_tau with
    beta = softmax(w . stanh(Wq v + Uq h_att + bq)).
    """
    p = params.params
    energy = T.stanh(pool_key + T.matmul(p["uq_%s" % channel], h_att)
                     + p["b_q_%s" % channel])
    scores = T.matmul(energy, p["w_%s" % channel])
    beta = T.softmax(scores)
    u = T.matmul(beta, pool)
    return u, beta


def aggregate(u_s, u_m, u_f, h_att, params, dropout_on=False, rng=None):
    """Gated fusion q = stanh(([Ws u_s || Wm u_m || Wf u_f] + b_g) *
    (U_g h_att)); inverted dropout on the output when training."""
    p = params.params
    cat = T.concat([T.matmul(p["wg_scene"], u_s),
                    T.matmul(p["wg_motion"], u_m),
                    T.matmul(p["wg_fovea"], u_f)])
    q = T.stanh((cat + p["b_g"]) * T.matmul(p["u_g"], h_att))
    return T.dropout(q, DROPOUT, rng, dropout_on)


def decode_step(state, keys, params, dropout_on=False, rng=None):
    """One word step: update the attention GRU from the previous word,
    attend each pool (`keys` from `attention_keys`), aggregate, update the
    multimodal GRU, emit logits."""
    if not (0 <= state.prev_word < params.config.vocab_size):
        raise ContractError("previous word index %d out of vocabulary"
                            % state.prev_word)
    emb = T.column(params.embedding, state.prev_word)
    h_att = _gru(params, "att", emb, state.h_att)
    attended = {}
    betas = {}
    for ch in CHANNELS:
        attended[ch], betas[ch] = temporal_attention(*keys[ch], h_att,
                                                     params, ch)
    q = aggregate(attended["scene"], attended["motion"], attended["fovea"],
                  h_att, params, dropout_on, rng)
    h_m = _gru(params, "mm", T.concat([q, emb]), state.h_m)
    logits = T.matmul(params.w_out, h_m) + params.b_out
    next_state = DecoderState(h_att, h_m, state.prev_word, betas)
    return logits, next_state


def decode_greedy(pools, params, vocab, max_len=80):
    """Greedy argmax decoding from <BOS>; stops at <EOS> or max_len."""
    with no_grad():
        keys = attention_keys(pools, params)
        state = DecoderState.initial(vocab.bos, params.config)
        out = []
        for _ in range(max_len):
            logits, state = decode_step(state, keys, params)
            word = int(np.argmax(logits.data))
            if word == vocab.eos:
                break
            out.append(word)
            state.prev_word = word
        return out


def l2_penalty(params, coeff):
    if coeff == 0:
        return Tensor(0.0)
    total = None
    for p in params.weight_matrices():
        term = T.sumsq(p)
        total = term if total is None else total + term
    return coeff * total


def caption_loss(logits_seq, targets, params, l2_coeff=0.0):
    """Mean per-step cross-entropy plus l2 over weight matrices."""
    if not targets:
        raise ContractError("empty ground-truth sequence")
    total = None
    for logits, tgt in zip(logits_seq, targets):
        nll = -T.index(T.log_softmax(logits), tgt)
        total = nll if total is None else total + nll
    loss = (1.0 / len(targets)) * total
    if l2_coeff:
        loss = loss + l2_penalty(params, l2_coeff)
    return loss


def teacher_forced_loss(pools, token_ids, params, vocab, l2_coeff=0.0,
                        dropout_on=False, rng=None, max_len=80):
    """Teacher forcing over <BOS> w1..wL with targets w1..wL <EOS>."""
    token_ids = list(token_ids)[:max_len]
    if not token_ids:
        raise ContractError("empty ground-truth sequence")
    targets = token_ids + [vocab.eos]
    keys = attention_keys(pools, params)
    state = DecoderState.initial(vocab.bos, params.config)
    logits_seq = []
    for prev, tgt in zip([vocab.bos] + token_ids, targets):
        state.prev_word = prev
        logits, state = decode_step(state, keys, params, dropout_on, rng)
        logits_seq.append(logits)
    return caption_loss(logits_seq, targets, params, l2_coeff)


def build_clip_pools(scene, motion, fovea, rgp_params=None, gaze="learned",
                     lam=DEFAULT_LAMBDA, seed=0):
    """Per-clip feature pools; motion/fovea frames are gaze-weighted.

    gaze: 'learned' (needs rgp_params) or a fixed_gaze kind.
    """
    if gaze == "learned":
        if rgp_params is None:
            raise ConfigError("learned gaze requires RGP parameters")
        maps = predict_gaze(np.asarray(motion, dtype=np.float32), rgp_params)
        alphas = [spatial_attention(m, lam) for m in maps]
    else:
        alpha = fixed_gaze(gaze, seed=seed)
        alphas = [alpha] * len(motion)
    v_m = np.stack([attend_features(a, f) for a, f in zip(alphas, motion)])
    v_f = np.stack([attend_features(a, f) for a, f in zip(alphas, fovea)])
    return {
        "scene": build_pool(np.asarray(scene, dtype=np.float64), POOL_SCENE),
        "motion": build_pool(v_m, POOL_MOTION),
        "fovea": build_pool(v_f, POOL_FOVEA),
    }


def train_captioner(dataset, rgp_params, config=None):
    """Train the decoder on (pools, caption) pairs with the gaze model
    frozen. Returns (params, vocab, loss history)."""
    cfg = config or CaptionTrainConfig()
    if not dataset:
        raise ConfigError("empty dataset")
    if cfg.gaze == "learned" and rgp_params is None:
        raise ConfigError("no RGP checkpoint supplied for learned gaze")
    seed = resolve_seed(cfg.seed)
    rng = np.random.default_rng(seed)

    vocab = build_vocab([c for clip in dataset for c in clip["captions"]])
    params = DecoderParams.create(rng, DecoderConfig(vocab_size=len(vocab)))

    pairs = []
    clip_refs = []
    for i, clip in enumerate(dataset):
        pools = build_clip_pools(clip["scene"], clip["motion"], clip["fovea"],
                                 rgp_params, cfg.gaze, cfg.lam,
                                 seed=seed + i)
        refs = [vocab.encode(tokenize(c)) for c in clip["captions"]]
        clip_refs.append((pools, refs))
        for ids in refs:
            pairs.append((pools, ids))

    opt = AdamState(lr=cfg.lr)
    history = []
    for step in range(cfg.steps):
        pools, ids = pairs[step % len(pairs)]
        with Tape() as tape:
            loss = teacher_forced_loss(pools, ids, params, vocab,
                                       cfg.l2_coeff, dropout_on=True,
                                       rng=rng, max_len=cfg.max_len)
            tape.backward(loss)
        history.append(finite_loss(loss, step))
        opt.step(params.all())
        if cfg.eval_every and (step + 1) % cfg.eval_every == 0:
            if all(decode_greedy(pools, params, vocab, cfg.max_len) in refs
                   for pools, refs in clip_refs):
                break
    return params, vocab, history
