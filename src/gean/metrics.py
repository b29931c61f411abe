"""Saliency metrics (Sim, CC, AUC-Judd, shuffled AUC) with the sampled
evaluation protocol, and language metrics (BLEU-n, ROUGE-L, CIDEr)."""

import warnings
from collections import Counter, defaultdict

import numpy as np

from .errors import GeanError
from .gaze import GRID, fixation_pixels, gt_eval_map, pred_eval_map

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


def _auc_from_values(pos, neg):
    """ROC area; thresholds swept over unique positive values, ties >= ."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    thresholds = np.unique(pos)[::-1]
    tpr = _tpr(pos, thresholds)
    fpr = np.concatenate(([0.0], _rate_at_or_above(neg, thresholds)
                          if neg.size else np.zeros(thresholds.size), [1.0]))
    return float(np.trapezoid(tpr, fpr))


def _rate_at_or_above(values, thresholds):
    below = np.searchsorted(np.sort(values), thresholds, side="left")
    return (values.size - below) / values.size


def _tpr(pos, thresholds):
    """ROC true-positive rates at (0, each threshold, 1)."""
    return np.concatenate(([0.0], _rate_at_or_above(pos, thresholds), [1.0]))


def auc_judd(saliency, fixations):
    """AUC with negatives = all non-fixation pixels of the map."""
    saliency = np.asarray(saliency, dtype=np.float64)
    if not fixations:
        raise GeanError("auc_judd requires at least one fixation pixel")
    mask = np.zeros(saliency.shape, dtype=bool)
    for r, c in fixations:
        mask[r, c] = True
    return _auc_from_values(saliency[mask], saliency[~mask])


def sauc(saliency, fixations, shuffle_pool, n_splits=10, seed=0):
    """Shuffled AUC: negatives drawn from fixations of other stimuli."""
    saliency = np.asarray(saliency, dtype=np.float64)
    if not fixations:
        raise GeanError("sauc requires at least one fixation pixel")
    if not shuffle_pool:
        raise GeanError("sauc requires a non-empty shuffle pool")
    pos = saliency[tuple(np.asarray(fixations).T)]
    pool = saliency[tuple(np.asarray(shuffle_pool).T)]
    rng = np.random.default_rng(seed)
    n_neg = min(len(pool), len(pos))
    negs = np.stack([rng.choice(pool, size=n_neg, replace=False)
                     for _ in range(n_splits)])
    # _auc_from_values for all splits at once: the thresholds and TPR are
    # shared; row s of fpr counts split s's negatives >= each threshold
    thresholds = np.unique(pos)[::-1]
    below = (negs[:, :, None] < thresholds).sum(axis=1)
    fpr = np.zeros((n_splits, thresholds.size + 2))
    fpr[:, 1:-1] = (n_neg - below) / n_neg
    fpr[:, -1] = 1.0
    return float(np.mean(np.trapezoid(_tpr(pos, thresholds), fpr, axis=-1)))


def eval_protocol(clips, predictor, n_sets=10, set_size=3000, seed=0):
    """Sampled gaze-evaluation protocol.

    Draws `n_sets` uniform random sets of `set_size` eligible frames,
    scores Sim/CC/sAUC/AUC per frame on full-resolution eval pairs, and
    averages within each set, then across sets.

    clips: records with 'fixations' (frame -> fixation list), 'n_frames',
    'frame_size' (H, W), and whatever `predictor(clip)` needs to return a
    (N, 49, 49) gaze-map array. predictor="copy-gt" scores the GT map
    against itself (identity upper bound).
    """
    copy_gt = predictor == "copy-gt"
    if copy_gt:
        preds = [np.zeros((clip["n_frames"], GRID, GRID)) for clip in clips]
    else:
        preds = [np.asarray(predictor(clip)) for clip in clips]
    frames = []
    pools = []
    for ci, clip in enumerate(clips):
        h, w = clip["frame_size"]
        pixels = []
        for fi in range(preds[ci].shape[0]):
            fx = clip["fixations"].get(fi, [])
            if fx:
                frames.append((ci, fi))
                pixels.extend(fixation_pixels(fx, h, w))
        pools.append(pixels)
    if not frames:
        raise GeanError("no eligible frames with fixations")

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
                clip = clips[ci]
                h, w = clip["frame_size"]
                fx = clip["fixations"][fi]
                gt_eval = gt_eval_map(fx, h, w)
                pred_eval = gt_eval if copy_gt else pred_eval_map(
                    preds[ci][fi], h, w)
                pix = fixation_pixels(fx, h, w)
                shuffle = [p for cj, pool in enumerate(pools) if cj != ci
                           for p in pool]
                cache[ci, fi] = {
                    "Sim": sim(pred_eval, gt_eval),
                    "CC": cc(pred_eval, gt_eval),
                    "AUC": auc_judd(pred_eval, pix),
                    "sAUC": sauc(pred_eval, pix, shuffle or pix, seed=seed),
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


def corpus_bleu(candidates, references_list, n=4):
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
