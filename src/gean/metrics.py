"""Saliency metrics (Sim, CC, AUC-Judd, shuffled AUC) with the sampled
evaluation protocol, and language metrics (BLEU-n, ROUGE-L, CIDEr)."""

import warnings
from collections import Counter, defaultdict

import numpy as np

from .errors import GeanError
from .gaze import fixation_pixels, gt_eval_map, pred_eval_map

# ---------------------------------------------------------------------------
# Saliency metrics
# ---------------------------------------------------------------------------


def sim(p, q):
    """Histogram intersection of the l1-normalized maps."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    sp, sq = p.sum(), q.sum()
    if sp <= 0 or sq <= 0:
        raise GeanError("sim of an all-zero map")
    return float(np.minimum(p / sp, q / sq).sum())


def cc(p, q):
    """Pearson correlation of the flattened maps."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.std() == 0 or q.std() == 0:
        raise GeanError("cc of a constant map")
    return float(np.corrcoef(p, q)[0, 1])


def _auc(pos, negs):
    """ROC area of the positives `pos` against each row of `negs`, one
    area per row; thresholds swept over the unique positive values, ties
    counted as >= ."""
    pos = np.asarray(pos, dtype=np.float64)
    thresholds = np.unique(pos)[::-1]
    rows = [pos, *np.asarray(negs, dtype=np.float64)]
    # rates[i, 1:-1]: the share of row i at or above each threshold
    rates = np.zeros((len(rows), thresholds.size + 2))
    rates[:, -1] = 1.0
    for rate, row in zip(rates, rows):
        below = np.searchsorted(np.sort(row), thresholds, side="left")
        rate[1:-1] = (row.size - below) / max(row.size, 1)
    return np.trapezoid(rates[0], rates[1:], axis=-1)


def auc_judd(saliency, fixations):
    """AUC with negatives = all non-fixation pixels of the map."""
    saliency = np.asarray(saliency, dtype=np.float64)
    if not fixations:
        raise GeanError("auc_judd requires at least one fixation pixel")
    mask = np.zeros(saliency.shape, dtype=bool)
    mask[tuple(np.asarray(fixations).T)] = True
    return float(_auc(saliency[mask], [saliency[~mask]])[0])


def sauc(saliency, fixations, shuffle_pool, n_splits=10, *, seed):
    """Shuffled AUC: negatives drawn from fixations of other stimuli, the
    (row, col) pixels of `shuffle_pool`, once per split."""
    saliency = np.asarray(saliency, dtype=np.float64)
    if not fixations:
        raise GeanError("sauc requires at least one fixation pixel")
    if not len(shuffle_pool):
        raise GeanError("sauc requires a non-empty shuffle pool")
    pos = saliency[tuple(np.asarray(fixations).T)]
    pool = np.asarray(shuffle_pool)
    rng = np.random.default_rng(seed)
    n_neg = min(len(pool), len(pos))
    drawn = pool[np.stack([rng.choice(len(pool), size=n_neg, replace=False)
                           for _ in range(n_splits)])]
    return float(np.mean(_auc(pos, saliency[drawn[..., 0], drawn[..., 1]])))


def eval_protocol(clips, preds, frame_size, n_sets, set_size, seed):
    """Sampled gaze-evaluation protocol.

    Draws `n_sets` uniform random sets of `set_size` eligible frames,
    scores Sim/CC/sAUC/AUC per frame on full-resolution (H, W) =
    `frame_size` eval pairs, and averages within each set, then across sets.

    clips: records with 'fixations' (frame -> fixation list) and
    'n_frames'. preds: one (n_frames, 49, 49) gaze-map array per clip, or
    None to score each GT map against itself (identity upper bound).
    """
    h, w = frame_size
    frames = []
    pixels = []  # (clip, row, col) of every fixation pixel
    for ci, clip in enumerate(clips):
        for fi in range(clip["n_frames"]):
            fx = clip["fixations"].get(fi, [])
            if fx:
                frames.append((ci, fi))
                pixels.extend((ci, r, c) for r, c in fixation_pixels(fx, h, w))
    if not frames:
        raise GeanError("no eligible frames with fixations")
    pixels = np.array(pixels, dtype=np.intp)
    # each clip's shuffle pool: the fixation pixels of every other clip
    shuffles = [pixels[pixels[:, 0] != ci, 1:] for ci in range(len(clips))]

    rng = np.random.default_rng(seed)
    cache = {}
    totals = defaultdict(list)
    for _ in range(n_sets):
        replace = set_size > len(frames)
        chosen = rng.choice(len(frames), size=set_size, replace=replace)
        per_set = defaultdict(list)
        for k in chosen:
            ci, fi = frames[k]
            if (ci, fi) not in cache:
                fx = clips[ci]["fixations"][fi]
                gt_eval = gt_eval_map(fx, h, w)
                pred_eval = gt_eval if preds is None else pred_eval_map(
                    preds[ci][fi], h, w)
                pix = fixation_pixels(fx, h, w)
                shuffle = shuffles[ci] if len(shuffles[ci]) else pix
                cache[ci, fi] = {
                    "Sim": sim(pred_eval, gt_eval),
                    "CC": cc(pred_eval, gt_eval),
                    "AUC": auc_judd(pred_eval, pix),
                    "sAUC": sauc(pred_eval, pix, shuffle, seed=seed),
                }
            for name, value in cache[ci, fi].items():
                per_set[name].append(value)
        for name, values in per_set.items():
            totals[name].append(float(np.mean(values)))
    return {name: float(np.mean(values)) for name, values in sorted(totals.items())}


# ---------------------------------------------------------------------------
# Language metrics
# ---------------------------------------------------------------------------

ROUGE_BETA = 1.2  # recall weight of the ROUGE-L F-measure
CIDER_MAX_N = 4  # CIDEr averages n-gram orders 1..4


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clip_counts(counts, references, n):
    """Clip each candidate n-gram count to its largest count in any one
    reference."""
    max_ref = Counter()
    for ref in references:
        max_ref |= _ngrams(ref, n)
    return Counter({gram: min(cnt, max_ref[gram])
                    for gram, cnt in counts.items()})


def _closest_ref_len(c, references):
    # ties broken toward the shorter reference
    return min((abs(len(r) - c), len(r)) for r in references)[1]


def bleu(candidate, references, n=4):
    """BLEU-n for one candidate: geometric mean of clipped modified
    precisions times the brevity penalty."""
    if n not in (1, 2, 3, 4):
        raise GeanError("bleu order must be in 1..4")
    if not candidate:
        warnings.warn("BLEU of an empty candidate is 0")
        return 0.0
    return corpus_bleu([candidate], [references], n)


def corpus_bleu(candidates, references_list, n):
    """Corpus-level BLEU-n with aggregated counts and lengths."""
    clipped = np.zeros(n)
    total = np.zeros(n)
    c_len = r_len = 0
    for candidate, references in zip(candidates, references_list):
        if not candidate:
            continue
        c_len += len(candidate)
        r_len += _closest_ref_len(len(candidate), references)
        for k in range(1, n + 1):
            counts = _ngrams(candidate, k)
            clipped[k - 1] += sum(_clip_counts(counts, references, k).values())
            total[k - 1] += sum(counts.values())
    if c_len == 0 or np.any(total == 0) or np.any(clipped == 0):
        return 0.0
    bp = np.exp(min(0.0, 1.0 - r_len / c_len))
    return float(bp * np.exp(np.mean(np.log(clipped / total))))


def _lcs_len(a, b):
    """Longest common subsequence length, one DP row at a time: before
    row[j + 1] is overwritten it holds the previous row's value, and
    `diag` holds the previous row's row[j]."""
    row = [0] * (len(b) + 1)
    for x in a:
        diag = 0
        for j, y in enumerate(b):
            up = row[j + 1]
            row[j + 1] = diag + 1 if x == y else max(up, row[j])
            diag = up
    return row[-1]


def rouge_l(candidate, references):
    """ROUGE-L F-measure, maximum over references."""
    if not candidate:
        warnings.warn("ROUGE-L of an empty candidate is 0")
        return 0.0
    best = 0.0
    for ref in references:
        lcs = _lcs_len(candidate, ref)
        if lcs == 0:
            continue
        rec = lcs / len(ref)
        prec = lcs / len(candidate)
        f = ((1 + ROUGE_BETA ** 2) * rec * prec
             / (rec + ROUGE_BETA ** 2 * prec))
        best = max(best, f)
    return best


def cider(candidates, references):
    """CIDEr over a corpus of clips.

    candidates: clip_id -> candidate tokens; references: clip_id ->
    list of reference token lists. Returns (per-clip scores, corpus mean).
    """
    ids = sorted(candidates)
    if len(ids) < 2:
        warnings.warn("CIDEr IDF is degenerate on a single-clip corpus")
    n_docs = len(references)
    doc_freq = [Counter() for _ in range(CIDER_MAX_N)]
    for cid in references:
        for k in range(1, CIDER_MAX_N + 1):
            grams = set()
            for ref in references[cid]:
                grams.update(_ngrams(ref, k))
            doc_freq[k - 1].update(grams)

    def tfidf(counts, k):
        vec = {}
        for gram, cnt in counts.items():
            df = doc_freq[k - 1][gram]
            idf = np.log(n_docs / df) if df else 0.0
            vec[gram] = cnt * idf
        return vec

    def cosine(a, b):
        dot = sum(v * b.get(g, 0.0) for g, v in a.items())
        na = np.sqrt(sum(v * v for v in a.values()))
        nb = np.sqrt(sum(v * v for v in b.values()))
        if na == 0 or nb == 0:
            return 0.0
        return dot / (na * nb)

    per_clip = {}
    for cid in ids:
        refs = references[cid]
        score_n = []
        for k in range(1, CIDER_MAX_N + 1):
            clipped = _clip_counts(_ngrams(candidates[cid], k), refs, k)
            cand_vec = tfidf(clipped, k)
            sims = [cosine(cand_vec, tfidf(_ngrams(ref, k), k))
                    for ref in refs]
            score_n.append(float(np.mean(sims)) if sims else 0.0)
        per_clip[cid] = 10.0 * float(np.mean(score_n))
    mean = float(np.mean([per_clip[c] for c in ids])) if ids else 0.0
    return per_clip, mean
