"""Feature-pool tests: spatial attention, gaze-weighted aggregation,
pool sizing, and the fixed-gaze baselines."""

import numpy as np
import pytest

from gean.pools import (DEFAULT_LAMBDA, attend_features, build_pool,
                        fixed_gaze, pool_indices, spatial_attention)


# ---------------------------------------------------------------------------
# spatial attention
# ---------------------------------------------------------------------------

def test_uniform_gaze_gives_uniform_attention():
    g = np.full((49, 49), 1.0 / 2401.0)
    np.testing.assert_allclose(spatial_attention(g, DEFAULT_LAMBDA),
                               1.0 / 49.0, atol=1e-12)


def test_delta_block_closed_form():
    g = np.zeros((49, 49))
    g[:7, :7] = 1.0 / 49.0  # all mass in the top-left 7x7 block
    alpha = spatial_attention(g, lam=0.6)
    assert abs(alpha[0, 0] - 1.0 / 19.0) <= 1e-9
    off = np.delete(alpha.ravel(), 0)
    np.testing.assert_allclose(off, 3.0 / 152.0, atol=1e-9)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)


def test_lambda_zero_one_hot():
    g = np.zeros((49, 49))
    g[14:21, 21:28] = 1.0 / 49.0  # block (2, 3)
    alpha = spatial_attention(g, lam=0.0)
    assert alpha[2, 3] == pytest.approx(1.0, abs=1e-12)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# attend_features
# ---------------------------------------------------------------------------

def test_attend_one_hot_selects():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((7, 7, 5))
    alpha = np.zeros((7, 7))
    alpha[2, 4] = 1.0
    np.testing.assert_allclose(attend_features(alpha, f), f[2, 4], atol=1e-12)


def test_attend_constant_features():
    alpha = np.full((7, 7), 1.0 / 49.0)
    f = np.full((7, 7, 3), 2.5)
    np.testing.assert_allclose(attend_features(alpha, f), 2.5, atol=1e-12)


def test_attend_row_index_mean():
    alpha = np.full((7, 7), 1.0 / 49.0)
    f = np.broadcast_to(np.arange(7.0)[:, None, None], (7, 7, 2)).copy()
    np.testing.assert_allclose(attend_features(alpha, f), 3.0, atol=1e-12)


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def test_pool_cyclic_repeat():
    assert pool_indices(2, 5) == [0, 1, 0, 1, 0]


def test_pool_identity_when_full():
    assert pool_indices(35, 35) == list(range(35))


def test_pool_subsample_every_second():
    assert pool_indices(70, 35) == list(range(0, 70, 2))


def test_build_pool_shapes():
    v = np.arange(12.0).reshape(4, 3)
    out = build_pool(v, 7)
    assert out.shape == (7, 3)
    np.testing.assert_array_equal(out[4], v[0])


# ---------------------------------------------------------------------------
# fixed-gaze baselines
# ---------------------------------------------------------------------------

def test_uniform_baseline():
    np.testing.assert_allclose(fixed_gaze("uniform", seed=0), 1.0 / 49.0)


def test_central_baseline_peak():
    m = fixed_gaze("central", seed=0)
    assert np.unravel_index(m.argmax(), m.shape) == (3, 3)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)


def test_peripheral_baseline():
    m = fixed_gaze("peripheral", seed=0)
    assert np.unravel_index(m.argmin(), m.shape) == (3, 3)
    np.testing.assert_allclose(m, np.rot90(m), atol=1e-12)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)


def test_random_baseline_seeded():
    a = fixed_gaze("random", seed=5)
    b = fixed_gaze("random", seed=5)
    np.testing.assert_array_equal(a, b)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
