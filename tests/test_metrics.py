"""Metric oracle tests: saliency scores, the sampled evaluation
protocol, and the language metrics."""

import math
from collections import Counter

import numpy as np
import pytest

from gean.gaze import FixationRecord
from gean.metrics import (_auc, _lcs_len, auc_judd, bleu, cc,
                          cider, corpus_bleu, eval_protocol, rouge_l, sauc,
                          sim)


# ---------------------------------------------------------------------------
# Sim
# ---------------------------------------------------------------------------

def test_sim_identity():
    p = np.random.default_rng(0).random((5, 5))
    assert sim(p, p) == pytest.approx(1.0, abs=1e-12)


def test_sim_disjoint():
    p = np.array([1.0, 1.0, 0.0, 0.0])
    q = np.array([0.0, 0.0, 1.0, 1.0])
    assert sim(p, q) == 0.0


def test_sim_uniform_vs_onehot():
    p = np.full(4, 0.25)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    assert sim(p, q) == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# CC
# ---------------------------------------------------------------------------

def test_cc_affine_invariance():
    p = np.random.default_rng(1).random(20)
    assert cc(p, 3.0 * p + 2.0) == pytest.approx(1.0, abs=1e-9)


def test_cc_anticorrelation():
    p = np.random.default_rng(2).random(20)
    assert cc(p, -p + 5.0) == pytest.approx(-1.0, abs=1e-9)


def test_cc_hand_value():
    assert cc([1.0, 2.0, 3.0, 4.0],
              [1.0, 3.0, 2.0, 4.0]) == pytest.approx(0.8, abs=1e-9)


# ---------------------------------------------------------------------------
# AUC-Judd
# ---------------------------------------------------------------------------

def test_auc_perfect_separation():
    s = np.zeros((5, 5))
    s[1, 1] = s[3, 2] = 1.0
    assert auc_judd(s, [(1, 1), (3, 2)]) == pytest.approx(1.0, abs=1e-9)


def test_auc_constant_half():
    assert auc_judd(np.ones((5, 5)), [(2, 2)]) == pytest.approx(0.5, abs=1e-9)


def _loop_auc(pos, neg):
    """Reference: one np.mean per threshold."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    tpr, fpr = [0.0], [0.0]
    for th in np.unique(pos)[::-1]:
        tpr.append(float(np.mean(pos >= th)))
        fpr.append(float(np.mean(neg >= th)) if neg.size else 0.0)
    tpr.append(1.0)
    fpr.append(1.0)
    return float(np.trapezoid(tpr, fpr))


def _auc_cases():
    rng = np.random.default_rng(21)
    for trial in range(200):
        n_pos, n_neg = int(rng.integers(1, 30)), int(rng.integers(0, 40))
        if trial % 2:  # coarse levels: many ties within and across sets
            yield (rng.integers(0, 5, n_pos) / 4.0,
                   rng.integers(0, 5, n_neg) / 4.0)
        else:
            yield rng.random(n_pos), rng.random(n_neg)
    yield [0.3], [0.1, 0.3, 0.7]
    yield [0.3], []
    yield [0.2, 0.2, 0.9], []


def test_auc_equals_loop_reference():
    for pos, neg in _auc_cases():
        assert _auc(pos, [neg])[0] == _loop_auc(pos, neg)


# ---------------------------------------------------------------------------
# sAUC
# ---------------------------------------------------------------------------

def test_sauc_perfect_separation():
    s = np.zeros((6, 6))
    s[0, 0] = s[5, 5] = 1.0
    pool = [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert sauc(s, [(0, 0), (5, 5)], pool, seed=0) == pytest.approx(1.0,
                                                                    abs=1e-9)


def test_sauc_constant_half():
    s = np.ones((6, 6))
    assert sauc(s, [(0, 0)], [(3, 3), (4, 4)], seed=0) == pytest.approx(
        0.5, abs=1e-9)


def test_sauc_center_bias_near_half():
    # fixations and shuffle pool drawn from the same center-biased
    # distribution under a center-peaked saliency
    rng = np.random.default_rng(7)
    h = w = 49
    yy, xx = np.mgrid[0:h, 0:w]
    s = np.exp(-((yy - 24) ** 2 + (xx - 24) ** 2) / (2 * 10.0 ** 2))

    def draw(n):
        pts = np.clip(rng.normal(24, 8, size=(n, 2)).round().astype(int),
                      0, 48)
        return [tuple(p) for p in pts]

    scores = [sauc(s, draw(8), draw(200), n_splits=10, seed=i)
              for i in range(30)]
    assert abs(float(np.mean(scores)) - 0.5) <= 0.05


def test_sauc_equals_per_pixel_reference():
    rng = np.random.default_rng(22)
    s = rng.integers(0, 6, (12, 12)) / 5.0  # ties
    for trial in range(20):
        cells = [tuple(int(v) for v in p)
                 for p in rng.integers(0, 12, (int(rng.integers(1, 9)), 2))]
        pool = [tuple(int(v) for v in p)
                for p in rng.integers(0, 12, (int(rng.integers(1, 30)), 2))]
        pos = np.array([s[r, c] for r, c in cells])
        values = np.array([s[r, c] for r, c in pool])
        draw = np.random.default_rng(trial)
        ref = float(np.mean([
            _loop_auc(pos, draw.choice(values, size=min(len(values),
                                                        len(pos)),
                                       replace=False))
            for _ in range(10)]))
        assert sauc(s, cells, pool, n_splits=10, seed=trial) == ref


def test_sauc_equals_split_loop_over_auc():
    # float saliency with ties; fewer positives than pool entries, so each
    # split draws a strict subset of the pool
    rng = np.random.default_rng(23)
    levels = rng.random(4)
    s = np.where(rng.random((15, 15)) < 0.5, levels[rng.integers(0, 4,
                                                                 (15, 15))],
                 rng.random((15, 15)))
    for trial in range(20):
        cells = [tuple(int(v) for v in p)
                 for p in rng.integers(0, 15, (int(rng.integers(1, 12)), 2))]
        pool = [tuple(int(v) for v in p)
                for p in rng.integers(0, 15, (len(cells) + 1
                                              + int(rng.integers(0, 40)), 2))]
        pos = s[tuple(np.asarray(cells).T)]
        values = s[tuple(np.asarray(pool).T)]
        draw = np.random.default_rng(trial)
        ref = float(np.mean([
            _auc(pos, [draw.choice(values, size=len(pos), replace=False)])[0]
            for _ in range(10)]))
        assert sauc(s, cells, pool, n_splits=10, seed=trial) == ref


def test_sauc_array_pool_equals_list_pool():
    rng = np.random.default_rng(9)
    s = rng.random((9, 9))
    pool = rng.integers(0, 9, (30, 2))
    as_list = [tuple(int(v) for v in p) for p in pool]
    assert (sauc(s, [(4, 4), (2, 7)], pool, seed=3)
            == sauc(s, [(4, 4), (2, 7)], as_list, seed=3))


def test_sauc_deterministic():
    rng = np.random.default_rng(8)
    s = rng.random((9, 9))
    pool = [(i, j) for i in range(9) for j in range(0, 9, 2)]
    a = sauc(s, [(4, 4), (2, 7)], pool, seed=3)
    b = sauc(s, [(4, 4), (2, 7)], pool, seed=3)
    assert a == b


# ---------------------------------------------------------------------------
# evaluation protocol
# ---------------------------------------------------------------------------

FRAME_SIZE = (60, 60)


def _protocol_clip(seed=0, n_frames=3):
    rng = np.random.default_rng(seed)
    fixations = {}
    for fi in range(n_frames):
        fixations[fi] = [FixationRecord(fi, s, float(rng.uniform(0.2, 0.8)),
                                        float(rng.uniform(0.2, 0.8)))
                         for s in range(3)]
    return {"id": "c%d" % seed, "n_frames": n_frames, "fixations": fixations}


def test_protocol_copy_gt_is_upper_bound():
    clips = [_protocol_clip(0), _protocol_clip(1)]
    table = eval_protocol(clips, None, FRAME_SIZE, n_sets=2, set_size=4,
                          seed=0)
    assert table["Sim"] == pytest.approx(1.0, abs=1e-6)
    assert table["CC"] == pytest.approx(1.0, abs=1e-6)
    assert 0.0 <= table["AUC"] <= 1.0
    assert 0.0 <= table["sAUC"] <= 1.0


def test_protocol_deterministic():
    clips = [_protocol_clip(2), _protocol_clip(3)]

    rng = np.random.default_rng(99)
    preds = [rng.random((clip["n_frames"], 49, 49)) for clip in clips]
    preds = [m / m.sum(axis=(1, 2), keepdims=True) for m in preds]

    t1 = eval_protocol(clips, preds, FRAME_SIZE, n_sets=2, set_size=3,
                       seed=5)
    t2 = eval_protocol(clips, preds, FRAME_SIZE, n_sets=2, set_size=3,
                       seed=5)
    assert t1 == t2


def test_protocol_single_frame_matches_single_metrics():
    clip = _protocol_clip(4, n_frames=1)
    from gean.gaze import fixation_pixels, gt_eval_map, pred_eval_map
    rng = np.random.default_rng(11)
    pred = rng.random((1, 49, 49))
    pred /= pred.sum()
    table = eval_protocol([clip], [pred], FRAME_SIZE, n_sets=1,
                          set_size=1, seed=0)
    h, w = FRAME_SIZE
    fx = clip["fixations"][0]
    pe = pred_eval_map(pred[0], h, w)
    ge = gt_eval_map(fx, h, w)
    assert table["Sim"] == pytest.approx(sim(pe, ge), abs=1e-12)
    assert table["CC"] == pytest.approx(cc(pe, ge), abs=1e-12)
    pix = fixation_pixels(fx, h, w)
    assert table["AUC"] == pytest.approx(auc_judd(pe, pix), abs=1e-12)


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def test_bleu_identity():
    cand = "someone lifts the box".split()
    for n in (1, 2, 3, 4):
        assert bleu(cand, [cand], n) == pytest.approx(1.0, abs=1e-9)


def test_bleu_clipping():
    cand = ["the", "the", "the"]
    refs = [["the", "cat"]]
    assert bleu(cand, refs, 1) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_bleu_disjoint_zero():
    assert bleu(["a", "b"], [["c", "d"]], 1) == 0.0


def test_bleu_empty_candidate():
    with pytest.warns(UserWarning):
        assert bleu([], [["a"]], 1) == 0.0


def test_corpus_bleu_identity():
    cands = [["a", "b", "c"], ["d", "e"]]
    refs = [[c] for c in cands]
    for n in (1, 2):
        assert corpus_bleu(cands, refs, n) == pytest.approx(1.0, abs=1e-9)


def test_corpus_bleu_brevity_penalty():
    cands = [["a"]]
    refs = [[["a", "b", "c"]]]
    # p1 = 1, BP = exp(1 - 3/1)
    assert corpus_bleu(cands, refs, 1) == pytest.approx(math.exp(-2.0),
                                                        abs=1e-9)


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def test_rouge_identity():
    cand = "a b c".split()
    assert rouge_l(cand, [cand]) == pytest.approx(1.0, abs=1e-9)


def test_rouge_hand_value():
    f = rouge_l("a b c d".split(), ["a c d".split()])
    beta2 = 1.2 ** 2
    expect = (1 + beta2) * 1.0 * 0.75 / (1.0 + beta2 * 0.75)
    assert f == pytest.approx(expect, abs=1e-9)
    assert f == pytest.approx(0.87981, abs=1e-5)


def test_rouge_disjoint():
    assert rouge_l(["a"], [["b"]]) == 0.0


def _lcs_len_table(a, b):
    # the full (len(a)+1) x (len(b)+1) DP table, as the reference
    dp = np.zeros((len(a) + 1, len(b) + 1), dtype=np.int64)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            dp[i + 1, j + 1] = dp[i, j] + 1 if x == y else max(dp[i, j + 1],
                                                               dp[i + 1, j])
    return int(dp[len(a), len(b)])


def test_lcs_len_matches_full_table():
    rng = np.random.default_rng(24)
    words = ["w%d" % i for i in range(6)]
    for _ in range(200):
        a, b = ([str(w) for w in rng.choice(words, rng.integers(0, 31))]
                for _ in range(2))
        assert _lcs_len(a, b) == _lcs_len_table(a, b)


# ---------------------------------------------------------------------------
# CIDEr, against an independent brute-force implementation
# ---------------------------------------------------------------------------

def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _brute_force_cider(candidates, references, max_n=4):
    """Straight-line TF-IDF CIDEr computed with plain dictionaries."""
    n_docs = len(references)
    out = {}
    for cid, cand in candidates.items():
        refs = references[cid]
        per_n = []
        for n in range(1, max_n + 1):
            df = {}
            for rid in references:
                grams = set()
                for ref in references[rid]:
                    grams.update(_ngram_counts(ref, n))
                for g in grams:
                    df[g] = df.get(g, 0) + 1

            def vec(counts):
                return {g: c * math.log(n_docs / df[g])
                        for g, c in counts.items() if df.get(g)}

            max_ref = Counter()
            for ref in refs:
                for g, c in _ngram_counts(ref, n).items():
                    max_ref[g] = max(max_ref[g], c)
            cand_counts = {g: min(c, max_ref[g])
                           for g, c in _ngram_counts(cand, n).items()}
            cv = vec(cand_counts)
            sims = []
            for ref in refs:
                rv = vec(_ngram_counts(ref, n))
                dot = sum(v * rv.get(g, 0.0) for g, v in cv.items())
                na = math.sqrt(sum(v * v for v in cv.values()))
                nb = math.sqrt(sum(v * v for v in rv.values()))
                sims.append(dot / (na * nb) if na > 0 and nb > 0 else 0.0)
            per_n.append(sum(sims) / len(sims) if sims else 0.0)
        out[cid] = 10.0 * sum(per_n) / max_n
    return out


def test_cider_matches_brute_force():
    cands = {"c1": "someone lifts the box".split(),
             "c2": "someone throws the ball far away".split()}
    refs = {"c1": ["someone lifts the box".split(),
                   "someone raises the box".split()],
            "c2": ["someone throws the ball".split()]}
    per_clip, mean = cider(cands, refs)
    oracle = _brute_force_cider(cands, refs)
    for cid in cands:
        assert per_clip[cid] == pytest.approx(oracle[cid], abs=1e-9)
    assert mean == pytest.approx(float(np.mean(list(oracle.values()))),
                                 abs=1e-9)


def test_cider_unique_ngrams_two_clips():
    cands = {"a": "red fox jumps quickly".split(),
             "b": "blue bird sings loudly".split()}
    refs = {"a": ["red fox jumps quickly".split()],
            "b": ["blue bird sings loudly".split()]}
    per_clip, _ = cider(cands, refs)
    oracle = _brute_force_cider(cands, refs)
    for cid in cands:
        assert per_clip[cid] == pytest.approx(oracle[cid], abs=1e-9)
        # every n-gram is unique to its clip: cosine similarity is 1 per n
        assert per_clip[cid] == pytest.approx(10.0, abs=1e-9)


def test_cider_disjoint_zero():
    cands = {"a": ["x"], "b": ["y"]}
    refs = {"a": [["p", "q"]], "b": [["r", "s"]]}
    per_clip, mean = cider(cands, refs)
    assert per_clip["a"] == 0.0 and mean == 0.0


def test_cider_reference_scale_invariance():
    # repeating every reference the same number of times leaves the
    # per-reference cosines, and hence the score, unchanged
    cands = {"a": "one two three".split(), "b": "four five".split()}
    refs = {"a": ["one two three".split()], "b": ["four five six".split()]}
    doubled = {cid: r * 2 for cid, r in refs.items()}
    p1, _ = cider(cands, refs)
    p2, _ = cider(cands, doubled)
    for cid in cands:
        assert p1[cid] == pytest.approx(p2[cid], abs=1e-9)
