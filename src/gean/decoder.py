"""Caption decoder: per-channel temporal attention, attention GRU, gated
aggregation, multimodal GRU, word softmax, greedy decoding, and the
captioner training loop (gaze predictor frozen)."""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .data import FEATURE_DIM
from .optim import AdamState, finite_loss, init_orthogonal, init_xavier
from .pools import (DEFAULT_LAMBDA, POOL_FOVEA, POOL_MOTION, POOL_SCENE,
                    attend_features, build_pool, fixed_gaze, spatial_attention)
from .rgp import gru_update, predict_gaze
from .tensor import Parameter, ParameterSet, Tape, Tensor, no_grad
from .text import build_vocab, tokenize

CHANNELS = ("scene", "motion", "fovea")
DROPOUT = 0.5  # rate on the fused features q while training
MAX_LEN = 80  # words a caption is cut to in training, decoded up to after
EVAL_EVERY = 100  # steps between checks that training clips decode exactly


@dataclass
class DecoderConfig:
    vocab_size: int
    embed: int = 512
    hidden: int = 512
    att: int = 64
    feat: int = FEATURE_DIM
    agg_splits: tuple = (256, 256, 512)

    @property
    def agg_dim(self):
        return sum(self.agg_splits)


class DecoderParams(ParameterSet):
    """All trainable tensors of the decoder, keyed by name."""

    def weight_matrices(self):
        return [p for n, p in self.params.items() if not n.startswith("b_")]

    @classmethod
    def create(cls, rng, config, dtype=np.float32):
        cfg = config
        v, e, h, a, f = (cfg.vocab_size, cfg.embed, cfg.hidden, cfg.att,
                         cfg.feat)
        params = {}

        def add(name, *blocks):
            data = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
            params[name] = Parameter(name, data)

        zero = lambda n: np.zeros(n, dtype=dtype)
        xavier = lambda *shape: init_xavier(shape, rng, dtype)
        add("embedding", xavier(e, v))
        for ch in CHANNELS:
            add("w_%s" % ch, xavier(a))
            add("wq_%s" % ch, xavier(a, f))
            add("uq_%s" % ch, xavier(a, h))
            add("b_q_%s" % ch, zero(a))
        for prefix, xdim in (("att", e), ("mm", cfg.agg_dim + e)):
            # one draw per gate block, z, r, h in turn; gates stack by rows
            (wz, uz), (wr, ur), (wh, uh) = [
                (xavier(h, xdim), init_orthogonal((h, h), rng, dtype))
                for _ in range(3)]
            add("%s_w_zrh" % prefix, wz, wr, wh)
            add("%s_u_zr" % prefix, uz, ur)
            add("%s_u_h" % prefix, uh)
            add("b_%s_zr" % prefix, zero(2 * h))
        for ch, dim in zip(CHANNELS, cfg.agg_splits):
            add("wg_%s" % ch, xavier(dim, f))
        add("b_g", zero(cfg.agg_dim))
        add("u_g", xavier(cfg.agg_dim, h))
        add("w_out", xavier(v, h))
        add("b_out", zero(v))
        return cls(params)


class DecoderState:
    """Hidden states after the last word of a span, and each channel's
    temporal attention weights for every word of that span, (L, T)."""

    def __init__(self, h_att, h_m, betas):
        self.h_att = h_att
        self.h_m = h_m
        self.betas = betas

    @classmethod
    def initial(cls, params):
        """Zero states, in the size and dtype of the decoder's weights."""
        u_h = params.att_u_h.data
        zero = lambda: Tensor(np.zeros(u_h.shape[0], dtype=u_h.dtype))
        return cls(zero(), zero(), {})


def gru_step(wx, h_prev, u_zr, u_h, b_zr):
    """Matrix GRU update given the input-side term wx = w_zrh @ x: bias on
    the z|r gates only."""
    return gru_update(wx, T.matmul(u_zr, h_prev) + b_zr, h_prev,
                      lambda rh: T.matmul(u_h, rh))


def _gru(params, prefix, x, h):
    """One GRU over the L columns of x: the input product w_zrh @ x for
    every word at once, then the recurrence word by word. Returns the
    (hidden, L) states and the last one."""
    p = params.params
    wx = T.matmul(p["%s_w_zrh" % prefix], x)
    recurrent = (p["%s_u_zr" % prefix], p["%s_u_h" % prefix],
                 p["b_%s_zr" % prefix])
    states = []
    for i in range(x.shape[1]):
        h = gru_step(T.column(wx, i), h, *recurrent)
        states.append(h)
    return T.stack(states, axis=1), h


def attention_keys(pools, params):
    """Per channel, (pool, pool @ Wq^T): the pool as a Tensor in the wq_*
    weight's dtype and the key term of temporal attention that no word
    changes, computed once per caption (Bahdanau et al., arXiv:1409.0473,
    App. A.1.2); the tape sums its gradient over the words. As
    (Wq @ pool^T)^T, Wq's gradient is one product written into its grad."""
    p = params.params
    keys = {}
    for ch in CHANNELS:
        wq = p["wq_%s" % ch]
        pool = pools[ch]
        if not isinstance(pool, Tensor):
            # numpy pools (build_clip_pools gives float64) run in the
            # weights' dtype, so training and decoding compute alike
            pool = Tensor(pool, dtype=wq.data.dtype)
        keys[ch] = (pool, T.transpose(T.matmul(wq, T.transpose(pool))))
    return keys


def temporal_attention(pool, pool_key, h_att, params, channel):
    """Soft attention over one (T, f) feature pool for each of L words,
    given its key term pool_key = pool @ Wq^T from `attention_keys` and
    the (hidden, L) attention-GRU states.

    Returns (u, beta), (L, f) and (L, T): u_l = sum_tau beta_l,tau v_tau
    with beta_l = softmax(w . stanh(Wq v + Uq h_l + bq)).
    """
    p = params.params
    query = T.transpose(T.matmul(p["uq_%s" % channel], h_att))
    energy = T.stanh(pool_key + T.reshape(query, (query.shape[0], 1, -1))
                     + p["b_q_%s" % channel])  # (L, T, att)
    beta = T.softmax(T.matmul(energy, p["w_%s" % channel]))
    u = T.matmul(beta, pool)
    return u, beta


def aggregate(u_s, u_m, u_f, h_att, params, dropout_on, rng):
    """Gated fusion q = stanh(([Ws u_s || Wm u_m || Wf u_f] + b_g) *
    (U_g h_att)) for L words, (agg, L); inverted dropout on the output
    when training."""
    p = params.params
    cat = T.concat([T.matmul(p["wg_scene"], T.transpose(u_s)),
                    T.matmul(p["wg_motion"], T.transpose(u_m)),
                    T.matmul(p["wg_fovea"], T.transpose(u_f))])
    q = T.stanh((cat + T.reshape(p["b_g"], (-1, 1)))
                * T.matmul(p["u_g"], h_att))
    # one mask row per word, drawn in word order as one-word spans draw them
    return T.transpose(T.dropout(T.transpose(q), DROPOUT, rng, dropout_on))


def decode_step(state, keys, words, params, dropout_on=False, rng=None):
    """Run the decoder over a span of L >= 1 known input words: embed them,
    update the attention GRU, attend each pool (`keys` from
    `attention_keys`), aggregate, update the multimodal GRU, emit logits.

    Only the two GRU recurrences run word by word; every other product
    runs once for the whole span. Returns the (V, L) logits, column l
    scoring the word after words[l], and the state after the last word.
    """
    emb = T.column(params.embedding, words)
    h_att, last_att = _gru(params, "att", emb, state.h_att)
    attended = {}
    betas = {}
    for ch in CHANNELS:
        attended[ch], betas[ch] = temporal_attention(*keys[ch], h_att,
                                                     params, ch)
    q = aggregate(attended["scene"], attended["motion"], attended["fovea"],
                  h_att, params, dropout_on, rng)
    h_m, last_m = _gru(params, "mm", T.concat([q, emb]), state.h_m)
    logits = T.matmul(params.w_out, h_m) + T.reshape(params.b_out, (-1, 1))
    return logits, DecoderState(last_att, last_m, betas)


def decode_greedy(pools, params, vocab, max_len):
    """Greedy argmax decoding from <BOS>, one one-word span per step;
    stops at <EOS> or max_len."""
    with no_grad():
        keys = attention_keys(pools, params)
        state = DecoderState.initial(params)
        word = vocab.bos
        out = []
        for _ in range(max_len):
            logits, state = decode_step(state, keys, [word], params)
            word = int(np.argmax(logits.data[:, 0]))
            if word == vocab.eos:
                break
            out.append(word)
        return out


def l2_penalty(params, coeff):
    if coeff == 0:
        return Tensor(0.0)
    return coeff * reduce(T.add, map(T.sumsq, params.weight_matrices()))


def caption_loss(logits, targets, params, l2_coeff):
    """Mean cross-entropy of (V, L) logits against L targets, one
    log_softmax over the vocabulary axis and one gather, plus l2 over
    weight matrices."""
    n = len(targets)
    picked = T.index(T.log_softmax(logits, axis=0),
                     (np.asarray(targets), np.arange(n)))
    loss = (-1.0 / n) * T.tensor_sum(picked)
    if l2_coeff:
        loss = loss + l2_penalty(params, l2_coeff)
    return loss


def teacher_forced_loss(pools, token_ids, params, vocab, l2_coeff,
                        dropout_on, rng, max_len=MAX_LEN):
    """Teacher forcing over <BOS> w1..wL with targets w1..wL <EOS>, as one
    decode_step span."""
    token_ids = list(token_ids)[:max_len]
    state = DecoderState.initial(params)
    logits, _ = decode_step(state, attention_keys(pools, params),
                            [vocab.bos] + token_ids, params, dropout_on, rng)
    return caption_loss(logits, token_ids + [vocab.eos], params, l2_coeff)


def build_clip_pools(scene, motion, fovea, rgp_params, gaze,
                     lam=DEFAULT_LAMBDA, *, seed):
    """Per-clip feature pools; motion/fovea frames are gaze-weighted.

    gaze: 'learned' (needs rgp_params) or a fixed_gaze kind.
    """
    if gaze == "learned":
        maps = predict_gaze(motion, rgp_params)
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


def train_captioner(dataset, rgp_params, *, lr, steps, seed, l2_coeff,
                    max_len, lam, gaze):
    """Train the decoder on (pools, caption) pairs with the gaze model
    frozen. Returns (params, vocab, loss history)."""
    rng = np.random.default_rng(seed)

    vocab = build_vocab([c for clip in dataset for c in clip["captions"]])
    params = DecoderParams.create(rng, DecoderConfig(vocab_size=len(vocab)))

    pairs = []
    clip_refs = []
    for i, clip in enumerate(dataset):
        pools = build_clip_pools(clip["scene"], clip["motion"], clip["fovea"],
                                 rgp_params, gaze, lam, seed=seed + i)
        refs = [vocab.encode(tokenize(c)) for c in clip["captions"]]
        clip_refs.append((pools, refs))
        for ids in refs:
            pairs.append((pools, ids))

    opt = AdamState(lr=lr)
    history = []
    for step in range(steps):
        pools, ids = pairs[step % len(pairs)]
        with Tape() as tape:
            loss = teacher_forced_loss(pools, ids, params, vocab, l2_coeff,
                                       dropout_on=True, rng=rng,
                                       max_len=max_len)
            tape.backward(loss)
        history.append(finite_loss(loss, step))
        opt.step(params.all())
        if (step + 1) % EVAL_EVERY == 0:
            if all(decode_greedy(pools, params, vocab, max_len) in refs
                   for pools, refs in clip_refs):
                break
    return params, vocab, history
