"""Visual feature pools: spatial attention from gaze maps, gaze-weighted
feature aggregation, pool-length padding/sampling, and the fixed-gaze
baselines (uniform / random / central / peripheral)."""

import numpy as np

from .data import FEATURE_GRID
from .errors import GeanError
from .gaze import GRID, gaussian_blur, normalize_l1

DEFAULT_LAMBDA = 0.6
FIXED_GAZE_SIGMA = 1.0  # blur of the fixed baselines' one-hot cell
POOL_SCENE = 20
POOL_MOTION = 35
POOL_FOVEA = 35


def spatial_attention(g, lam):
    """7x7 attention map: average-pool the 49x49 gaze map with a 7x7
    kernel, add a uniform distribution of strength lam, l1-normalize."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (GRID, GRID):
        raise GeanError("gaze map must be 49x49, got %s" % (g.shape,))
    if lam < 0:
        raise GeanError("lambda must be >= 0, got %g" % lam)
    k = GRID // FEATURE_GRID
    pooled = g.reshape(FEATURE_GRID, k, FEATURE_GRID, k).mean(axis=(1, 3))
    alpha = pooled + lam / FEATURE_GRID ** 2  # pooled sums to (sum g)/49
    return alpha / alpha.sum()


def attend_features(alpha, features):
    """Weighted sum over the 7x7 grid: v[k] = sum_ij alpha[i,j] f[i,j,k]."""
    alpha = np.asarray(alpha, dtype=np.float64)
    features = np.asarray(features)
    if alpha.shape != features.shape[:2]:
        raise GeanError("attention %s does not match feature grid %s"
                        % (alpha.shape, features.shape))
    return np.tensordot(alpha, features, axes=([0, 1], [0, 1]))


def pool_indices(n, n_max):
    """Frame indices used to fit n frames into an n_max-length pool."""
    if n < 1:
        raise GeanError("cannot build a pool from zero frames")
    if n < n_max:
        return [i % n for i in range(n_max)]
    return [(i * n) // n_max for i in range(n_max)]


def build_pool(vectors, n_max):
    """Fixed-length pool: cyclic repetition when short, uniform sampling
    when long."""
    vectors = np.asarray(vectors)
    return vectors[pool_indices(len(vectors), n_max)]


def fixed_gaze(kind, seed):
    """Fixed 7x7 attention baselines replacing the learned gaze.

    uniform: 1/49 everywhere. random: blurred one-hot at a seed-chosen
    cell. central: blurred one-hot at the center cell. peripheral:
    l1-normalized inverse (max - value) of the central map.
    """
    if kind == "uniform":
        return np.full((FEATURE_GRID, FEATURE_GRID), 1.0 / FEATURE_GRID ** 2)
    if kind == "random":
        rng = np.random.default_rng(seed)
        r, c = rng.integers(0, FEATURE_GRID, size=2)
    elif kind in ("central", "peripheral"):
        r = c = FEATURE_GRID // 2
    else:
        raise GeanError("unknown fixed gaze kind %r" % (kind,))
    onehot = np.zeros((FEATURE_GRID, FEATURE_GRID))
    onehot[r, c] = 1.0
    smoothed = normalize_l1(gaussian_blur(onehot, FIXED_GAZE_SIGMA))
    if kind == "peripheral":
        return normalize_l1(smoothed.max() - smoothed)
    return smoothed
