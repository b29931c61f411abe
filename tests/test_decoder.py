"""Caption-decoder tests: temporal attention, GRU steps, aggregation,
full decode steps, greedy decoding, and the loss."""

import numpy as np
import pytest

from gean import tensor as T
from gean.decoder import (CHANNELS, DecoderConfig, DecoderParams,
                          DecoderState, attention_keys, build_clip_pools,
                          caption_loss, decode_greedy, decode_step, gru_step,
                          teacher_forced_loss, temporal_attention)
from gean.errors import ConfigError, ContractError
from gean.pools import POOL_FOVEA, POOL_MOTION, POOL_SCENE
from gean.tensor import Tape, Tensor, no_grad
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
    keys = attention_keys({ch: pool for ch in CHANNELS}, params)
    return temporal_attention(*keys[channel], h, params, channel)


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

def _zero_gru_args(h):
    z = lambda *s: Tensor(np.zeros(s))
    return (z(h, h), z(h, h), z(h), z(h, h), z(h, h), z(h),
            z(h, h), z(h, h))


def test_gru_zero_params_zero_state():
    x = Tensor(np.random.default_rng(7).standard_normal(4))
    h = gru_step(x, Tensor(np.zeros(4)), *_zero_gru_args(4))
    np.testing.assert_array_equal(h.data, 0.0)


def test_gru_zero_params_halve_state():
    x = Tensor(np.random.default_rng(8).standard_normal(4))
    h_prev = np.random.default_rng(9).standard_normal(4)
    h = gru_step(x, Tensor(h_prev), *_zero_gru_args(4))
    np.testing.assert_allclose(h.data, 0.5 * h_prev, atol=1e-12)


# ---------------------------------------------------------------------------
# decode step
# ---------------------------------------------------------------------------

def test_decode_step_deterministic_and_bounded():
    params = make_params(10)
    pools = make_pools(11)
    s0 = DecoderState.initial(0, CFG, dtype=np.float64)
    keys = attention_keys(pools, params)
    l1, n1 = decode_step(s0, keys, params)
    s0b = DecoderState.initial(0, CFG, dtype=np.float64)
    l2, _ = decode_step(s0b, keys, params)
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
    logits, _ = decode_step(DecoderState.initial(0, CFG, dtype=np.float64),
                            attention_keys(pools, params), params)
    # with q = 0 and h_m starting at 0, the logits reduce to the bias path
    assert np.all(np.isfinite(logits.data))


def test_decode_step_rejects_bad_word():
    params = make_params()
    state = DecoderState.initial(0, CFG, dtype=np.float64)
    state.prev_word = CFG.vocab_size
    with pytest.raises(ContractError):
        decode_step(state, attention_keys(make_pools(), params), params)


# ---------------------------------------------------------------------------
# greedy decoding
# ---------------------------------------------------------------------------

def _vocab():
    return Vocabulary(["a", "b", "c"])


def test_greedy_eos_immediately_empty():
    params = make_params(zero=True)
    vocab = _vocab()
    params.params["b_out"].data[vocab.eos] = 10.0
    assert decode_greedy(make_pools(), params, vocab) == []


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
    logits, _ = decode_step(DecoderState.initial(0, CFG),
                            attention_keys(pools, params), params)
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
    logits = [Tensor(np.zeros(4)) for _ in range(3)]
    loss = caption_loss(logits, [1, 2, 3], params, l2_coeff=0.0)
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-9)


def test_caption_loss_zero_params_ln_v():
    params = make_params(zero=True)
    pools = make_pools()
    vocab = _vocab()
    loss = teacher_forced_loss(pools, [3, 4], params, vocab, l2_coeff=0.0)
    assert loss.item() == pytest.approx(np.log(CFG.vocab_size), abs=1e-9)


def test_caption_loss_empty_targets():
    with pytest.raises(ContractError):
        caption_loss([], [], make_params())


def test_l2_term_added():
    params = make_params(14)
    logits = [Tensor(np.zeros(CFG.vocab_size))]
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
    pools = build_clip_pools(scene, motion, fovea, gaze="uniform")
    assert pools["scene"].shape == (POOL_SCENE, 8)
    assert pools["motion"].shape == (POOL_MOTION, 8)
    assert pools["fovea"].shape == (POOL_FOVEA, 8)
    # uniform gaze averages each frame's 7x7 grid
    np.testing.assert_allclose(pools["motion"][0],
                               motion[0].mean(axis=(0, 1)), atol=1e-9)


def test_build_clip_pools_learned_requires_rgp():
    rng = np.random.default_rng(16)
    with pytest.raises(ConfigError):
        build_clip_pools(rng.standard_normal((2, 8)),
                         rng.standard_normal((2, 7, 7, 8)),
                         rng.standard_normal((2, 7, 7, 8)),
                         gaze="learned")


# ---------------------------------------------------------------------------
# key term once per caption against the per-word key term
# ---------------------------------------------------------------------------

def _per_word_decode_step(state, pools, params, dropout_on=False, rng=None):
    """decode_step with pool @ Wq^T (and the pool's cast to the weights'
    dtype) recomputed at every word: the reference for attention_keys."""
    keys = {}
    for ch in CHANNELS:
        wq = params.params["wq_%s" % ch]
        pool = pools[ch]
        if not isinstance(pool, Tensor):
            pool = Tensor(pool, dtype=wq.data.dtype)
        keys[ch] = (pool, T.matmul(pool, T.transpose(wq)))
    return decode_step(state, keys, params, dropout_on, rng)


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
        state = DecoderState.initial(vocab.bos, CFG, dtype=np.float64)
        logits_seq = []
        for prev in [vocab.bos] + ids:
            state.prev_word = prev
            logits, state = _per_word_decode_step(state, pools, params,
                                                  True, rng)
            logits_seq.append(logits)
        return caption_loss(logits_seq, ids + [vocab.eos], params, 1e-3)

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
    state = DecoderState.initial(vocab.bos, CFG)
    ref_ids, ref_logits = [], []
    with no_grad():
        for _ in range(12):
            logits, state = _per_word_decode_step(state, pools, params)
            ref_logits.append(logits.data)
            word = int(np.argmax(logits.data))
            if word == vocab.eos:
                break
            ref_ids.append(word)
            state.prev_word = word
    assert ids == ref_ids and len(seen) == len(ref_logits) == 12
    for a, b in zip(seen, ref_logits):
        assert a.dtype == np.float32 and np.array_equal(a, b)
