"""Fixation records and the gaze-map pipeline.

Turns raw per-frame fixations into 49x49 training targets (binary map ->
Gaussian blur sigma=2 -> l1-normalize) and into full-resolution pairs for
saliency evaluation.
"""

import csv
import functools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import GeanError

GRID = 49
TRAIN_SIGMA = 2.0
EVAL_GT_SIGMA = 19.0


@dataclass
class FixationRecord:
    frame: int
    subject: int
    x: float  # normalized, rightward in [0,1]
    y: float  # normalized, downward in [0,1]


def read_fixations(path):
    """Load a fixation CSV (header frame,subject,x,y) grouped by frame."""
    by_frame = defaultdict(list)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            for row in reader:
                values = []
                for column, kind in (("frame", int), ("subject", int),
                                     ("x", float), ("y", float)):
                    try:
                        values.append(kind(row[column]))
                    except (KeyError, TypeError, ValueError):
                        raise GeanError(
                            "%s line %d: column %r is missing or not %s"
                            % (path, reader.line_num, column,
                               kind.__name__)) from None
                rec = FixationRecord(*values)
                if rec.frame < 0 or not (0.0 <= rec.x <= 1.0
                                         and 0.0 <= rec.y <= 1.0):
                    raise GeanError("%s line %d: negative frame or x, y "
                                    "out of [0,1]: %s"
                                    % (path, reader.line_num, rec))
                by_frame[rec.frame].append(rec)
    except (UnicodeDecodeError, csv.Error) as e:
        raise GeanError("%s is not a fixation CSV: %s" % (path, e)) from None
    return dict(by_frame)


def write_fixations(path, records):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["frame", "subject", "x", "y"])
        for r in records:
            writer.writerow([r.frame, r.subject, "%.6f" % r.x, "%.6f" % r.y])


def _bin(coord, n):
    return min(int(np.floor(coord * n)), n - 1)


def build_fixation_map(fixations, height, width):
    """Binary (height, width) map with a 1 at each fixation's cell."""
    m = np.zeros((height, width))
    for rec in fixations:
        m[_bin(rec.y, height), _bin(rec.x, width)] = 1.0
    return m


def gaussian_kernel_1d(sigma):
    radius = int(np.ceil(3.0 * sigma))
    d = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-d * d / (2.0 * sigma * sigma))
    return k / k.sum()


@functools.lru_cache(maxsize=8)
def _blur_matrix(n, sigma):
    """(n, n) zero-padded correlation with the truncated Gaussian kernel:
    (B @ v)[i] = sum_t k[t] * v[i + t - radius], v zero outside [0, n).
    Read-only, since every caller shares the cached array."""
    k = gaussian_kernel_1d(sigma)
    radius = len(k) // 2
    offset = np.arange(n)[None, :] - np.arange(n)[:, None] + radius
    inside = (offset >= 0) & (offset < len(k))
    b = np.where(inside, k[np.clip(offset, 0, len(k) - 1)], 0.0)
    b.setflags(write=False)
    return b


def gaussian_blur(m, sigma):
    """Separable Gaussian blur, kernel truncated at ceil(3*sigma), zero pad,
    as one banded matrix per axis: B_h @ m @ B_w^T."""
    m = np.asarray(m, dtype=np.float64)
    h, w = m.shape
    return _blur_matrix(h, sigma) @ m @ _blur_matrix(w, sigma).T


def normalize_l1(m):
    m = np.asarray(m, dtype=np.float64)
    return m / m.sum()


def normalize_minmax(m):
    m = np.asarray(m, dtype=np.float64)
    lo, hi = m.min(), m.max()
    if hi <= lo:
        raise GeanError("cannot min-max normalize a constant map")
    return (m - lo) / (hi - lo)


def make_training_target(fixations):
    """Per-frame GT gaze map: binary fixations -> blur -> l1-normalize."""
    binary = build_fixation_map(fixations, GRID, GRID)
    return normalize_l1(gaussian_blur(binary, TRAIN_SIGMA))


def bilinear_upsample(m, height, width):
    """Bilinear resize with half-pixel centers; edges clamped."""
    m = np.asarray(m, dtype=np.float64)
    h, w = m.shape
    ys = (np.arange(height) + 0.5) * (h / height) - 0.5
    xs = (np.arange(width) + 0.5) * (w / width) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = m[np.ix_(y0, x0)] * (1 - fx) + m[np.ix_(y0, x1)] * fx
    bot = m[np.ix_(y1, x0)] * (1 - fx) + m[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


def fixation_pixels(fixations, height, width):
    """Unique (row, col) pixels of the fixations, in first-seen order."""
    return list(dict.fromkeys((_bin(rec.y, height), _bin(rec.x, width))
                              for rec in fixations))


@functools.lru_cache(maxsize=8)
def _pred_eval_matrix(n, out):
    """(out, n) operator of one axis of pred_eval_map: the sigma=2 blur,
    then the bilinear resize n -> out. Both are linear and act on each
    axis apart; resizing the identity's rows gives the resize matrix
    exactly, since its n -> n column pass has zero weights. Read-only,
    since every caller shares the cached array."""
    resize = bilinear_upsample(np.eye(n), out, n)
    m = resize @ _blur_matrix(n, TRAIN_SIGMA)
    m.setflags(write=False)
    return m


def pred_eval_map(pred, height, width):
    """Predicted 49x49 map -> blur sigma=2 -> bilinear upsample -> min-max,
    as one cached operator per axis: M_h @ pred @ M_w^T."""
    pred = np.asarray(pred, dtype=np.float64)
    h, w = pred.shape
    return normalize_minmax(_pred_eval_matrix(h, height) @ pred
                            @ _pred_eval_matrix(w, width).T)


def gt_eval_map(fixations, height, width):
    """Subject-averaged binary fixation maps -> blur sigma=19 -> min-max."""
    subjects = defaultdict(list)
    for rec in fixations:
        subjects[rec.subject].append(rec)
    acc = np.zeros((height, width))
    for recs in subjects.values():
        acc += build_fixation_map(recs, height, width)
    acc /= len(subjects)
    return normalize_minmax(gaussian_blur(acc, EVAL_GT_SIGMA))


def mirror_augment(features, targets):
    """Horizontally flip a (N,7,7,C) feature sequence and its gaze targets."""
    features = np.asarray(features)
    targets = np.asarray(targets)
    return features[:, :, ::-1, :].copy(), targets[:, :, ::-1].copy()
