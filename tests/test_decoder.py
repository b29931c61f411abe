"""Caption-decoder tests: temporal attention, GRU steps, aggregation,
decode spans against a word-by-word reference, greedy decoding, and the
loss."""

import numpy as np
import pytest

from gean import tensor as T
from gean.decoder import (CHANNELS, DROPOUT, MAX_LEN, DecoderConfig,
                          DecoderParams, DecoderState, attention_keys,
                          build_clip_pools,
                          caption_loss, decode_greedy, decode_step, gru_step,
                          l2_penalty, teacher_forced_loss, temporal_attention)
from gean.errors import GeanError
from gean.pools import POOL_FOVEA, POOL_MOTION, POOL_SCENE
from gean.tensor import Parameter, Tape, Tensor, no_grad
from gean.text import Vocabulary

CFG = DecoderConfig(vocab_size=6, embed=4, hidden=4, att=3, feat=5,
                    agg_splits=(2, 2, 3))


def make_params(seed=0, zero=False):
    params = DecoderParams.create(np.random.default_rng(seed), CFG,
                                  dtype=np.float64)
    if zero:
        for p in params.all():
            p.data[...] = 0.0
    return params


def make_pools(seed=0, n=4):
    rng = np.random.default_rng(seed)
    return {ch: Tensor(rng.standard_normal((n, CFG.feat))) for ch in CHANNELS}


# ---------------------------------------------------------------------------
# temporal attention
# ---------------------------------------------------------------------------

def attend(pool, h, params, channel):
    """Attention for one word: h as a one-column span, u and beta as its
    rows."""
    keys = attention_keys({ch: pool for ch in CHANNELS}, params)
    u, beta = temporal_attention(*keys[channel], Tensor(h.data[:, None]),
                                 params, channel)
    assert u.shape == (1, CFG.feat) and beta.shape == (1, pool.shape[0])
    return Tensor(u.data[0]), Tensor(beta.data[0])


def test_attention_equal_vectors_returns_them():
    params = make_params()
    v = np.random.default_rng(1).standard_normal(CFG.feat)
    pool = Tensor(np.tile(v, (5, 1)))
    h = Tensor(np.random.default_rng(2).standard_normal(CFG.hidden))
    u, beta = attend(pool, h, params, "scene")
    np.testing.assert_allclose(u.data, v, atol=1e-9)
    assert beta.data.sum() == pytest.approx(1.0, abs=1e-9)


def test_attention_zero_params_uniform():
    params = make_params(zero=True)
    pool = make_pools(3)["scene"]
    h = Tensor(np.zeros(CFG.hidden))
    u, beta = attend(pool, h, params, "scene")
    np.testing.assert_allclose(beta.data, 0.25, atol=1e-12)
    np.testing.assert_allclose(u.data, pool.data.mean(axis=0), atol=1e-12)


def test_attention_permutation_equivariance():
    params = make_params(4)
    pool = make_pools(5)["motion"].data
    h = Tensor(np.random.default_rng(6).standard_normal(CFG.hidden))
    u0, b0 = attend(Tensor(pool), h, params, "motion")
    perm = np.array([2, 0, 3, 1])
    u1, b1 = attend(Tensor(pool[perm]), h, params, "motion")
    np.testing.assert_allclose(b1.data, b0.data[perm], atol=1e-9)
    np.testing.assert_allclose(u1.data, u0.data, atol=1e-9)


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

def _zero_gru_args(x, h):
    """The input term of all-zero input weights, then zero u_zr, u_h and
    b_zr."""
    z = lambda *s: Tensor(np.zeros(s))
    return T.matmul(z(3 * h, x.shape[0]), x), z(2 * h, h), z(h, h), z(2 * h)


def test_gru_zero_params_zero_state():
    x = Tensor(np.random.default_rng(7).standard_normal(4))
    wx, *recurrent = _zero_gru_args(x, 4)
    h = gru_step(wx, Tensor(np.zeros(4)), *recurrent)
    np.testing.assert_array_equal(h.data, 0.0)


def test_gru_zero_params_halve_state():
    x = Tensor(np.random.default_rng(8).standard_normal(4))
    h_prev = np.random.default_rng(9).standard_normal(4)
    wx, *recurrent = _zero_gru_args(x, 4)
    h = gru_step(wx, Tensor(h_prev), *recurrent)
    np.testing.assert_allclose(h.data, 0.5 * h_prev, atol=1e-12)


def per_gate_gru(x, h_prev, w, u, b):
    """The standard GRU, one matmul per gate and side: w, u and b map gate
    name to its block."""
    mm = T.matmul
    z = T.sigmoid(mm(w["z"], x) + mm(u["z"], h_prev) + b["z"])
    r = T.sigmoid(mm(w["r"], x) + mm(u["r"], h_prev) + b["r"])
    h_bar = T.tanh(mm(w["h"], x) + mm(u["h"], r * h_prev))
    return (1.0 - z) * h_prev + z * h_bar


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("prefix", ["att", "mm"])
def test_fused_gru_is_the_per_gate_gru(prefix):
    params = make_params(14)
    fused = [params.params[n % prefix] for n in ("%s_w_zrh", "%s_u_zr",
                                                  "%s_u_h", "b_%s_zr")]
    # the bias starts at zero; give it values so its blocks are told apart
    fused[3].data[...] = np.random.default_rng(15).standard_normal(
        fused[3].shape)
    rng = np.random.default_rng(16)
    x = Parameter("x", rng.standard_normal(fused[0].shape[1]))
    h_prev = Parameter("h", rng.standard_normal(CFG.hidden))
    c = Tensor(np.cos(np.arange(CFG.hidden)))
    # the per-gate reference is fed the sliced blocks of the fused weights
    split = lambda t, gates: {g: Parameter(g, block) for g, block in
                              zip(gates, np.split(t.data, len(gates)))}
    w, b = split(fused[0], "zrh"), split(fused[3], "zr")
    u = dict(split(fused[1], "zr"), **split(fused[2], "h"))
    results = []
    for run in (lambda: gru_step(T.matmul(fused[0], x), h_prev, *fused[1:]),
                lambda: per_gate_gru(x, h_prev, w, u, b)):
        x.grad = h_prev.grad = None
        with Tape() as tape:
            out = run()
            tape.backward(T.tensor_sum(out * c))
        results.append((out.data, x.grad, h_prev.grad))
    (out, *grads), (ref, *ref_grads) = results
    assert out.dtype == ref.dtype == np.float64
    assert rel_err(out, ref) <= 1e-12
    for g, ref_g in zip(grads, ref_grads):
        assert rel_err(g, ref_g) <= 1e-12
    reference = [np.concatenate([w[g].grad for g in "zrh"]),
                 np.concatenate([u[g].grad for g in "zr"]), u["h"].grad,
                 np.concatenate([b[g].grad for g in "zr"])]
    for param, ref_g in zip(fused, reference):
        assert rel_err(param.grad, ref_g) <= 1e-12, param.name


def test_recurrent_blocks_orthogonal_each():
    params = make_params(17)
    h = CFG.hidden
    for name in ("att_u_zr", "mm_u_zr", "att_u_h", "mm_u_h"):
        weights = params.params[name].data
        assert weights.dtype == np.float64
        for block in np.split(weights, len(weights) // h):
            np.testing.assert_allclose(block @ block.T, np.eye(h), rtol=0,
                                       atol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# decode step
# ---------------------------------------------------------------------------

def test_decode_step_deterministic_and_bounded():
    params = make_params(10)
    pools = make_pools(11)
    s0 = DecoderState.initial(params)
    keys = attention_keys(pools, params)
    l1, n1 = decode_step(s0, keys, [0], params)
    s0b = DecoderState.initial(params)
    l2, _ = decode_step(s0b, keys, [0], params)
    np.testing.assert_array_equal(l1.data, l2.data)
    probs = np.exp(l1.data - l1.data.max())
    probs /= probs.sum()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    for beta in n1.betas.values():
        assert beta.data.sum() == pytest.approx(1.0, abs=1e-6)


def test_decode_step_zero_hidden_gives_zero_fusion():
    # h_att depends on the BOS embedding; zeroing the att-GRU weights pins
    # h_att = 0, which zeroes the gated fusion q = stanh(0) = 0
    params = make_params(12)
    for name in list(params.params):
        if name.startswith(("att_", "b_att")):
            params.params[name].data[...] = 0.0
    pools = make_pools(13)
    logits, _ = decode_step(DecoderState.initial(params),
                            attention_keys(pools, params), [0], params)
    # with q = 0 and h_m starting at 0, the logits reduce to the bias path
    assert np.all(np.isfinite(logits.data))


def test_decode_step_rejects_bad_word():
    # checked before any tape node: a bad word records nothing
    params = make_params()
    keys = attention_keys(make_pools(), params)
    state = DecoderState.initial(params)
    for words, message in (([CFG.vocab_size], "span word 0 has index 6"),
                           ([0, 3, -1, 4, 2], "span word 2 has index -1"),
                           ([1, 2, 3, 4, 7], "span word 4 has index 7"),
                           ([], "non-empty"), ([1.0, 2.0], "integer")):
        with Tape() as tape:
            with pytest.raises(GeanError, match=message):
                decode_step(state, keys, words, params)
        assert tape._nodes == [], words


# ---------------------------------------------------------------------------
# greedy decoding
# ---------------------------------------------------------------------------

def _vocab():
    return Vocabulary(["a", "b", "c"])


def test_greedy_eos_immediately_empty():
    params = make_params(zero=True)
    vocab = _vocab()
    params.params["b_out"].data[vocab.eos] = 10.0
    assert decode_greedy(make_pools(), params, vocab, MAX_LEN) == []


def test_greedy_length_cap():
    params = make_params(zero=True)
    vocab = _vocab()
    params.params["b_out"].data[3] = 10.0  # always emit "a", never <EOS>
    out = decode_greedy(make_pools(), params, vocab, max_len=80)
    assert out == [3] * 80


def test_greedy_numpy_pools_decode_in_weight_dtype():
    # float32 weights, as trained; build_clip_pools returns float64 numpy
    params = DecoderParams.create(np.random.default_rng(17), CFG)
    rng = np.random.default_rng(18)
    pools = {ch: rng.standard_normal((4, CFG.feat)) for ch in CHANNELS}
    tensors = {ch: Tensor(p.astype(np.float32)) for ch, p in pools.items()}
    vocab = _vocab()
    assert (decode_greedy(pools, params, vocab, max_len=12)
            == decode_greedy(tensors, params, vocab, max_len=12))
    logits, _ = decode_step(DecoderState.initial(params),
                            attention_keys(pools, params), [0], params)
    assert logits.data.dtype == np.float32


def test_greedy_tie_lowest_index():
    # all-zero logits tie everywhere; argmax resolves to the lowest index
    params = make_params(zero=True)
    vocab = _vocab()
    out = decode_greedy(make_pools(), params, vocab, max_len=3)
    assert out == [vocab.bos] * 3


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_caption_loss_uniform_ln4():
    cfg4 = DecoderConfig(vocab_size=4, embed=2, hidden=2, att=2, feat=2,
                         agg_splits=(1, 1, 1))
    params = DecoderParams.create(np.random.default_rng(0), cfg4,
                                  dtype=np.float64)
    logits = Tensor(np.zeros((4, 3)))
    loss = caption_loss(logits, [1, 2, 3], params, l2_coeff=0.0)
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-9)


def test_caption_loss_zero_params_ln_v():
    params = make_params(zero=True)
    pools = make_pools()
    vocab = _vocab()
    loss = teacher_forced_loss(pools, [3, 4], params, vocab, l2_coeff=0.0,
                               dropout_on=False, rng=None)
    assert loss.item() == pytest.approx(np.log(CFG.vocab_size), abs=1e-9)


def test_caption_loss_empty_targets():
    with pytest.raises(GeanError, match="empty ground-truth sequence"):
        caption_loss([], [], make_params(), l2_coeff=0.0)


def test_caption_loss_rejects_length_mismatch():
    with pytest.raises(GeanError, match="for 3 targets"):
        caption_loss(Tensor(np.zeros((CFG.vocab_size, 2))), [1, 2, 3],
                     make_params(), l2_coeff=0.0)


def test_l2_term_added():
    params = make_params(14)
    logits = Tensor(np.zeros((CFG.vocab_size, 1)))
    base = caption_loss(logits, [1], params, l2_coeff=0.0).item()
    with_l2 = caption_loss(logits, [1], params, l2_coeff=1e-3).item()
    assert with_l2 > base


# ---------------------------------------------------------------------------
# pools from clips
# ---------------------------------------------------------------------------

def test_build_clip_pools_fixed_gaze_shapes():
    rng = np.random.default_rng(15)
    n = 6
    scene = rng.standard_normal((n, 8))
    motion = rng.standard_normal((n, 7, 7, 8))
    fovea = rng.standard_normal((n, 7, 7, 8))
    pools = build_clip_pools(scene, motion, fovea, None, "uniform", seed=0)
    assert pools["scene"].shape == (POOL_SCENE, 8)
    assert pools["motion"].shape == (POOL_MOTION, 8)
    assert pools["fovea"].shape == (POOL_FOVEA, 8)
    # uniform gaze averages each frame's 7x7 grid
    np.testing.assert_allclose(pools["motion"][0],
                               motion[0].mean(axis=(0, 1)), atol=1e-9)


def test_build_clip_pools_learned_requires_rgp():
    rng = np.random.default_rng(16)
    with pytest.raises(GeanError, match="learned gaze requires RGP"):
        build_clip_pools(rng.standard_normal((2, 8)),
                         rng.standard_normal((2, 7, 7, 8)),
                         rng.standard_normal((2, 7, 7, 8)),
                         None, "learned", seed=0)


# ---------------------------------------------------------------------------
# key term once per caption against the per-word key term
# ---------------------------------------------------------------------------

def _per_word_decode_step(state, word, pools, params, dropout_on=False,
                          rng=None):
    """A one-word decode_step with the key term (Wq @ pool^T)^T (and the
    pool's cast to the weights' dtype) recomputed at every word: the
    reference for attention_keys."""
    keys = {}
    for ch in CHANNELS:
        wq = params.params["wq_%s" % ch]
        pool = pools[ch]
        if not isinstance(pool, Tensor):
            pool = Tensor(pool, dtype=wq.data.dtype)
        keys[ch] = (pool, T.transpose(T.matmul(wq, T.transpose(pool))))
    return decode_step(state, keys, [word], params, dropout_on, rng)


def test_teacher_forced_keys_once_match_per_word_keys():
    params = make_params(21)
    pools = {ch: np.random.default_rng(22).standard_normal((4, CFG.feat))
             for ch in CHANNELS}
    vocab = _vocab()
    ids = [3, 5, 4, 4]

    def run(loss_fn):
        with Tape() as tape:
            loss = loss_fn(np.random.default_rng(23))
            tape.backward(loss)
        grads = {p.name: p.grad for p in params.all()}
        for p in params.all():
            p.grad = None
        return loss.item(), grads

    def reference(rng):
        state = DecoderState.initial(params)
        logits_seq = []
        for prev in [vocab.bos] + ids:
            logits, state = _per_word_decode_step(state, prev, pools, params,
                                                  True, rng)
            logits_seq.append(logits)
        return caption_loss(T.concat(logits_seq, axis=1), ids + [vocab.eos],
                            params, 1e-3)

    loss, grads = run(lambda rng: teacher_forced_loss(
        pools, ids, params, vocab, 1e-3, dropout_on=True, rng=rng))
    ref_loss, ref_grads = run(reference)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        scale = np.max(np.abs(ref_grads[name]))
        assert np.max(np.abs(g - ref_grads[name])) <= 1e-12 * scale, name


def test_greedy_keys_once_bit_identical_to_per_word_keys(monkeypatch):
    # float32 weights with float64 numpy pools, as `gean caption` decodes
    params = DecoderParams.create(np.random.default_rng(24), CFG)
    pools = {ch: np.random.default_rng(25).standard_normal((4, CFG.feat))
             for ch in CHANNELS}
    vocab = _vocab()
    params.b_out.data[vocab.eos] = -1e4  # decode all 12 words
    seen = []

    def recording_step(*args, **kwargs):
        logits, state = decode_step(*args, **kwargs)
        seen.append(logits.data)
        return logits, state

    monkeypatch.setattr("gean.decoder.decode_step", recording_step)
    ids = decode_greedy(pools, params, vocab, max_len=12)
    monkeypatch.undo()
    state = DecoderState.initial(params)
    ref_ids, ref_logits = [], []
    word = vocab.bos
    with no_grad():
        for _ in range(12):
            logits, state = _per_word_decode_step(state, word, pools, params)
            ref_logits.append(logits.data)
            word = int(np.argmax(logits.data))
            if word == vocab.eos:
                break
            ref_ids.append(word)
    assert ids == ref_ids and len(seen) == len(ref_logits) == 12
    for a, b in zip(seen, ref_logits):
        assert a.dtype == np.float32 and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# one span against the word-by-word decoder
# ---------------------------------------------------------------------------

def per_word_step(word, h_att, h_m, keys, params, dropout_on=False,
                  rng=None):
    """One word of the decoder with every product a matrix @ vector, as it
    ran before spans: returns the (V,) logits and both new states."""
    p = params.params

    def gru(prefix, x, h):
        return gru_step(T.matmul(p["%s_w_zrh" % prefix], x), h,
                        p["%s_u_zr" % prefix], p["%s_u_h" % prefix],
                        p["b_%s_zr" % prefix])

    emb = T.column(params.embedding, word)
    h_att = gru("att", emb, h_att)
    cat = []
    for ch in CHANNELS:
        pool, key = keys[ch]
        energy = T.stanh(key + T.matmul(p["uq_%s" % ch], h_att)
                         + p["b_q_%s" % ch])
        beta = T.softmax(T.matmul(energy, p["w_%s" % ch]))
        cat.append(T.matmul(p["wg_%s" % ch], T.matmul(beta, pool)))
    q = T.stanh((T.concat(cat) + p["b_g"]) * T.matmul(p["u_g"], h_att))
    q = T.dropout(q, DROPOUT, rng, dropout_on)
    h_m = gru("mm", T.concat([q, emb]), h_m)
    return T.matmul(params.w_out, h_m) + params.b_out, h_att, h_m


def per_word_loss(pools, ids, params, vocab, l2_coeff, dropout_on, rng):
    """Teacher forcing one word at a time: a per-word cross-entropy summed
    word by word."""
    keys = attention_keys(pools, params)
    h_att = h_m = Tensor(np.zeros(params.config.hidden))
    total = None
    for prev, tgt in zip([vocab.bos] + ids, ids + [vocab.eos]):
        logits, h_att, h_m = per_word_step(prev, h_att, h_m, keys, params,
                                           dropout_on, rng)
        nll = -T.index(T.log_softmax(logits), tgt)
        total = nll if total is None else total + nll
    return (1.0 / (len(ids) + 1)) * total + l2_penalty(params, l2_coeff)


def _loss_and_grads(params, loss_fn):
    for p in params.all():
        p.grad = None
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    grads = {p.name: p.grad for p in params.all()}
    for p in params.all():
        p.grad = None
    return loss.item(), grads


@pytest.mark.parametrize("dropout_on", [False, True])
@pytest.mark.parametrize("n_tokens", [1, 4, 26])
def test_span_matches_per_word_decoder(n_tokens, dropout_on):
    params = make_params(31)
    pools = {ch: np.random.default_rng(32).standard_normal((4, CFG.feat))
             for ch in CHANNELS}
    vocab = _vocab()
    # words 3..5 with repeats, so the embedding gather adds repeated columns
    ids = [int(w) for w in np.random.default_rng(33).integers(3, 6, n_tokens)]
    loss, grads = _loss_and_grads(params, lambda: teacher_forced_loss(
        pools, ids, params, vocab, 1e-3, dropout_on,
        np.random.default_rng(34)))
    ref_loss, ref_grads = _loss_and_grads(params, lambda: per_word_loss(
        pools, ids, params, vocab, 1e-3, dropout_on,
        np.random.default_rng(34)))
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert grads.keys() == ref_grads.keys() == set(params.params)
    for name, g in grads.items():
        ref = ref_grads[name]
        assert g.dtype == ref.dtype == np.float64
        scale = np.max(np.abs(ref))
        assert scale > 0, name
        assert np.max(np.abs(g - ref)) <= 1e-12 * scale, name


def test_span_keeps_every_words_betas():
    params = make_params(35)
    pools = make_pools(36, n=5)
    vocab = _vocab()
    words = [vocab.bos, 3, 5, 3, 4, 4, 5]
    with Tape() as tape:
        logits, state = decode_step(DecoderState.initial(params),
                                    attention_keys(pools, params), words,
                                    params, True, np.random.default_rng(37))
        tape.backward(caption_loss(logits, words[1:] + [vocab.eos], params,
                                   l2_coeff=0.0))
    assert logits.shape == (CFG.vocab_size, len(words))
    assert set(state.betas) == set(CHANNELS)
    for beta in state.betas.values():
        assert beta.shape == (len(words), 5)
        assert np.all(beta.data > 0)
        np.testing.assert_allclose(beta.data.sum(axis=1), 1.0, rtol=0,
                                   atol=1e-12)


def test_greedy_ids_match_per_word_decoder():
    # float32 weights and float64 numpy pools, as `gean caption` decodes
    params = DecoderParams.create(np.random.default_rng(38), CFG)
    pools = {ch: np.random.default_rng(39).standard_normal((4, CFG.feat))
             for ch in CHANNELS}
    vocab = _vocab()
    params.b_out.data[vocab.eos] = -3.0  # long enough, but <EOS> can win
    ids = decode_greedy(pools, params, vocab, max_len=20)
    ref = []
    with no_grad():
        keys = attention_keys(pools, params)
        h_att = h_m = Tensor(np.zeros(CFG.hidden, dtype=np.float32))
        word = vocab.bos
        for _ in range(20):
            logits, h_att, h_m = per_word_step(word, h_att, h_m, keys, params)
            word = int(np.argmax(logits.data))
            if word == vocab.eos:
                break
            ref.append(word)
    assert len(ref) >= 3 and len(set(ref)) >= 2
    assert ids == ref
