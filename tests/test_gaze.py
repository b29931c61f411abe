"""Gaze-map pipeline tests: binning, blurring, normalization, training
targets, evaluation maps, and mirroring."""

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from gean.errors import GeanError
from gean.gaze import (GRID, FixationRecord, bilinear_upsample,
                       build_fixation_map, fixation_pixels, gaussian_blur,
                       gaussian_kernel_1d, gt_eval_map, make_training_target,
                       mirror_augment, normalize_l1, normalize_minmax,
                       pred_eval_map, read_fixations, write_fixations)


def fix(frame, subject, x, y):
    return FixationRecord(frame, subject, x, y)


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

def test_center_fixation_bin():
    m = build_fixation_map([fix(0, 0, 0.5, 0.5)], GRID, GRID)
    assert m.sum() == 1.0
    assert m[24, 24] == 1.0


def test_boundary_fixation_clamped():
    m = build_fixation_map([fix(0, 0, 1.0, 1.0)], GRID, GRID)
    assert m[48, 48] == 1.0


def test_two_subjects_two_cells():
    m = build_fixation_map([fix(0, 0, 0.1, 0.1), fix(0, 1, 0.9, 0.9)],
                           GRID, GRID)
    assert m.sum() == 2.0


# ---------------------------------------------------------------------------
# blur and normalization
# ---------------------------------------------------------------------------

def test_blur_delta_matches_2d_kernel():
    sigma = 2.0
    m = np.zeros((49, 49))
    m[24, 24] = 1.0
    out = gaussian_blur(m, sigma)
    k = gaussian_kernel_1d(sigma)
    r = len(k) // 2
    # separable blur of a delta reproduces the outer-product kernel
    np.testing.assert_allclose(out[24 - r:24 + r + 1, 24 - r:24 + r + 1],
                               np.outer(k, k), atol=1e-12)
    assert out[24, 24] == pytest.approx(k[r] ** 2, abs=1e-12)


def test_blur_constant_interior_unchanged():
    m = np.full((49, 49), 0.3)
    out = gaussian_blur(m, 2.0)
    np.testing.assert_allclose(out[10:-10, 10:-10], 0.3, atol=1e-12)


@pytest.mark.parametrize("shape, sigma", [((98, 98), 19.0), ((49, 49), 2.0),
                                          ((30, 70), 5.0)])
def test_blur_matches_scipy_correlate1d(shape, sigma):
    # scipy is the reference only; the package does not import it
    m = np.random.default_rng(1).random(shape)
    k = gaussian_kernel_1d(sigma)
    ref = correlate1d(correlate1d(m, k, axis=0, mode="constant", cval=0.0),
                      k, axis=1, mode="constant", cval=0.0)
    np.testing.assert_allclose(gaussian_blur(m, sigma), ref, rtol=0,
                               atol=1e-12)


def test_normalize_l1_halves_double_mass():
    m = np.full((7, 7), 2.0 / 49.0)
    np.testing.assert_allclose(normalize_l1(m).sum(), 1.0, atol=1e-12)
    np.testing.assert_allclose(normalize_l1(m), 1.0 / 49.0)


def test_normalize_l1_idempotent():
    m = normalize_l1(np.random.default_rng(1).random((5, 5)))
    np.testing.assert_allclose(normalize_l1(m), m, atol=1e-12)


def test_normalize_minmax_endpoints():
    np.testing.assert_allclose(normalize_minmax(np.array([1.0, 3.0])),
                               [0.0, 1.0])


def test_normalize_degenerate():
    with pytest.raises(GeanError, match="cannot min-max normalize a constant"):
        normalize_minmax(np.ones((3, 3)))


# ---------------------------------------------------------------------------
# training targets
# ---------------------------------------------------------------------------

def test_training_target_central_unimodal():
    m = make_training_target([fix(0, 0, 0.5, 0.5)])
    assert np.unravel_index(m.argmax(), m.shape) == (24, 24)
    assert m.sum() == pytest.approx(1.0, abs=1e-6)


def test_training_target_bimodal_symmetric():
    m = make_training_target([fix(0, 0, 0.2, 0.5), fix(0, 1, 0.8, 0.5)])
    # the two blurred peaks are mirror images of one another
    c1 = int(np.floor(0.2 * 49))
    c2 = 48 - c1
    np.testing.assert_allclose(m, m[:, ::-1], atol=1e-12)
    assert m[24, c1] == m.max() and m[24, c2] == m.max()


def test_training_target_random_sets_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        recs = [fix(0, s, rng.random(), rng.random()) for s in range(3)]
        assert make_training_target(recs).sum() == pytest.approx(1.0,
                                                                 abs=1e-6)


# ---------------------------------------------------------------------------
# evaluation maps
# ---------------------------------------------------------------------------

def test_upsample_peak_in_cell_block():
    pred = np.full((49, 49), 1e-4)
    pred[10, 30] = 1.0
    up = pred_eval_map(pred, 98, 98)
    r, c = np.unravel_index(up.argmax(), up.shape)
    assert 20 <= r <= 21 and 60 <= c <= 61  # the 2x2 block of cell (10,30)


def test_upsample_constant_map():
    m = np.full((7, 7), 0.25)
    up = bilinear_upsample(m, 21, 21)
    np.testing.assert_allclose(up, 0.25, atol=1e-12)
    with pytest.raises(GeanError, match="cannot min-max normalize a constant"):
        normalize_minmax(up)


def test_gt_eval_unimodal_at_shared_pixel():
    recs = [fix(0, s, 0.5, 0.5) for s in range(3)]
    gt = gt_eval_map(recs, 98, 98)
    assert np.unravel_index(gt.argmax(), gt.shape) == (49, 49)
    assert gt.min() == 0.0 and gt.max() == 1.0


def test_eval_map_shapes():
    pred = make_training_target([fix(0, 0, 0.3, 0.6)])
    pe = pred_eval_map(pred, 98, 120)
    ge = gt_eval_map([fix(0, 0, 0.3, 0.6)], 98, 120)
    assert pe.shape == ge.shape == (98, 120)


@pytest.mark.parametrize("size", [(98, 98), (98, 120)])
def test_pred_eval_map_is_blur_then_resize(size):
    rng = np.random.default_rng(17)
    for pred in (rng.random((49, 49)).astype(np.float32),
                 make_training_target([fix(0, 0, 0.3, 0.6),
                                       fix(0, 1, 0.9, 0.1)])):
        ref = normalize_minmax(bilinear_upsample(gaussian_blur(pred, 2.0),
                                                 *size))
        out = pred_eval_map(pred, *size)
        assert out.shape == size and out.dtype == np.float64
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)


def test_fixation_pixels_unique():
    recs = [fix(0, 0, 0.5, 0.5), fix(0, 1, 0.5, 0.5), fix(0, 2, 0.9, 0.1)]
    assert fixation_pixels(recs, 98, 98) == [(49, 49), (9, 88)]


# ---------------------------------------------------------------------------
# mirroring
# ---------------------------------------------------------------------------

def test_mirror_involution():
    rng = np.random.default_rng(3)
    f = rng.random((4, 7, 7, 6))
    t = rng.random((4, 49, 49))
    f2, t2 = mirror_augment(*mirror_augment(f, t))
    np.testing.assert_array_equal(f2, f)
    np.testing.assert_array_equal(t2, t)


def test_mirror_symmetric_input_unchanged():
    f = np.ones((2, 7, 7, 3))
    t = np.ones((2, 49, 49))
    f2, t2 = mirror_augment(f, t)
    np.testing.assert_array_equal(f2, f)
    np.testing.assert_array_equal(t2, t)


def test_mirror_moves_delta():
    t = np.zeros((1, 49, 49))
    t[0, 10, 3] = 1.0
    _, t2 = mirror_augment(np.zeros((1, 7, 7, 1)), t)
    assert t2[0, 10, 45] == 1.0 and t2.sum() == 1.0


def test_fixation_csv_roundtrip(tmp_path):
    recs = [fix(0, 0, 0.25, 0.75), fix(1, 2, 0.5, 0.5)]
    path = tmp_path / "fx.csv"
    write_fixations(path, recs)
    loaded = read_fixations(path)
    assert set(loaded) == {0, 1}
    assert loaded[0][0].x == pytest.approx(0.25)
    assert loaded[1][0].subject == 2
