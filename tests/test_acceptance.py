"""Acceptance gate: one test per release criterion, each enforcing its
stated tolerance and runtime budget."""

import time

import numpy as np
import pytest

from gean import checks, data, decoder, metrics, rgp
from gean.metrics import auc_judd
from gean.pools import spatial_attention
from gean.tensor import Tensor
from gean.text import tokenize

SEED = 20260825


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synth8(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept8")
    manifest = data.make_synthetic(out, n_clips=8, n_frames=20, seed=SEED)
    _, clips = data.load_dataset(manifest)
    return manifest, clips


@pytest.fixture(scope="module")
def trained_rgp(synth8):
    _, clips = synth8
    train = data.gaze_training_clips(clips)
    ent = rgp.target_entropy(train)
    cfg = rgp.RgpTrainConfig(lr=1e-4, steps=800, seed=SEED,
                             target_loss=ent + 0.15)
    params, _ = rgp.train_rgp(train, cfg)
    return params


def _bleu1(clips, dparams, vocab, rgp_params, gaze):
    cands, refs = [], []
    for i, clip in enumerate(clips):
        pools = decoder.build_clip_pools(
            clip["scene"], clip["motion"], clip["fovea"], rgp_params, gaze,
            seed=SEED + i)
        pools = {k: Tensor(v.astype(np.float32)) for k, v in pools.items()}
        ids = decoder.decode_greedy(pools, dparams, vocab)
        cands.append(vocab.decode(ids))
        refs.append([tokenize(c) for c in clip["captions"]])
    return metrics.corpus_bleu(cands, refs, 1)


@pytest.fixture(scope="module")
def caption_runs(synth8, trained_rgp):
    """Identically configured captioner trainings per gaze source."""
    _, clips = synth8
    runs = {}
    frozen_before = {n: p.data.tobytes()
                     for n, p in trained_rgp.params.items()}
    for gaze in ("learned", "random", "peripheral"):
        cfg = decoder.CaptionTrainConfig(lr=1e-4, steps=5000, seed=SEED,
                                         gaze=gaze)
        rp = trained_rgp if gaze == "learned" else None
        dparams, vocab, history = decoder.train_captioner(clips, rp, cfg)
        runs[gaze] = {
            "bleu1": _bleu1(clips, dparams, vocab, rp, gaze),
            "steps": len(history),
        }
    runs["rgp_frozen"] = all(
        trained_rgp.params[n].data.tobytes() == b
        for n, b in frozen_before.items())
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_full_scale_substitution():
    # Full-corpus movie benchmarks need source videos, eye-tracking
    # recordings, and pretrained CNN features that are out of scope at
    # desk scale; the remaining criteria substitute property-based checks
    # on synthetic data. Nothing in the package pretends otherwise.
    assert not hasattr(data, "download_corpus")


def test_gradient_suite():
    start = time.time()
    report = checks.gradient_report(seed=SEED, instances=20)
    elapsed = time.time() - start
    assert set(report) == set(checks.CHECKS)
    for name, worst in report.items():
        assert worst <= 1e-4, "%s gradient error %.3g" % (name, worst)
    assert elapsed < 120.0, "gradient suite took %.0fs" % elapsed


def test_distribution_invariants():
    start = time.time()
    rng = np.random.default_rng(SEED)
    rparams = rgp.RgpParams.create(rng, checks.SMALL_RGP, dtype=np.float64)
    dparams = decoder.DecoderParams.create(rng, checks.SMALL_DECODER,
                                           dtype=np.float64)
    cin = checks.SMALL_RGP.in_channels
    for _ in range(1000):
        feats = rng.standard_normal((1, 7, 7, cin))
        gaze = rgp.predict_gaze(feats, rparams)[0]
        assert abs(gaze.sum() - 1.0) <= 1e-6
        assert gaze.min() > 0.0
        alpha = spatial_attention(gaze, lam=0.6)
        assert abs(alpha.sum() - 1.0) <= 1e-6
        assert alpha.min() > 0.0
        pools = {ch: Tensor(rng.standard_normal((3, checks.SMALL_DECODER.feat)))
                 for ch in decoder.CHANNELS}
        state = decoder.DecoderState.initial(0, checks.SMALL_DECODER,
                                             dtype=np.float64)
        _, state = decoder.decode_step(
            state, decoder.attention_keys(pools, dparams), dparams)
        for beta in state.betas.values():
            assert abs(beta.data.sum() - 1.0) <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 60.0, "distribution invariants took %.0fs" % elapsed


def test_metric_oracle_suite():
    start = time.time()
    # hand-computed oracles
    assert abs(metrics.sim(np.full(4, 0.25),
                           np.array([1.0, 0, 0, 0])) - 0.25) <= 1e-6
    assert abs(metrics.cc([1.0, 2, 3, 4], [1.0, 3, 2, 4]) - 0.8) <= 1e-6
    s = np.zeros((5, 5))
    s[1, 1] = 1.0
    assert abs(auc_judd(s, [(1, 1)]) - 1.0) <= 1e-6
    assert abs(auc_judd(np.ones((5, 5)), [(2, 2)]) - 0.5) <= 1e-6
    assert abs(metrics.bleu(["the", "the", "the"], [["the", "cat"]], 1)
               - 1.0 / 3.0) <= 1e-6
    beta2 = 1.2 ** 2
    rouge_oracle = (1 + beta2) * 0.75 / (1.0 + beta2 * 0.75)
    assert abs(metrics.rouge_l("a b c d".split(), ["a c d".split()])
               - rouge_oracle) <= 1e-6
    per_clip, _ = metrics.cider(
        {"a": "red fox jumps quickly".split(),
         "b": "blue bird sings loudly".split()},
        {"a": ["red fox jumps quickly".split()],
         "b": ["blue bird sings loudly".split()]})
    assert abs(per_clip["a"] - 10.0) <= 1e-9
    assert abs(per_clip["b"] - 10.0) <= 1e-9

    # random-saliency AUC over 10 sets of 3000 synthetic frames; 50
    # fixations per frame keep the threshold sweep's small-sample bias,
    # which decays as 1/(2(n+1)), inside the stated tolerance
    rng = np.random.default_rng(SEED)
    set_means = []
    for _ in range(10):
        scores = np.empty(3000)
        for i in range(3000):
            saliency = rng.random((49, 49))
            pix = [tuple(p) for p in rng.integers(0, 49, size=(50, 2))]
            scores[i] = auc_judd(saliency, pix)
        set_means.append(scores.mean())
    overall = float(np.mean(set_means))
    assert abs(overall - 0.500) <= 0.02, "random AUC %.4f" % overall
    elapsed = time.time() - start
    assert elapsed < 120.0, "metric suite took %.0fs" % elapsed


def test_spatial_attention_closed_form():
    g = np.zeros((49, 49))
    g[:7, :7] = 1.0 / 49.0
    alpha = spatial_attention(g, lam=0.6)
    assert abs(alpha[0, 0] - 1.0 / 19.0) <= 1e-9
    off = np.delete(alpha.ravel(), 0)
    assert np.max(np.abs(off - 3.0 / 152.0)) <= 1e-9


def test_rgp_overfit(tmp_path_factory):
    start = time.time()
    out = tmp_path_factory.mktemp("overfit3")
    manifest = data.make_synthetic(out, n_clips=3, n_frames=20, seed=SEED)
    _, clips = data.load_dataset(manifest)
    train = data.gaze_training_clips(clips)
    ent = rgp.target_entropy(train)
    cfg = rgp.RgpTrainConfig(lr=1e-4, steps=2000, seed=SEED,
                             target_loss=ent + 0.05)
    _, history = rgp.train_rgp(train, cfg)
    elapsed = time.time() - start
    recent = float(np.mean(history[-len(train):]))
    assert len(history) <= 2000
    assert recent <= ent + 0.05, "loss %.4f vs floor %.4f" % (recent, ent)
    assert elapsed < 300.0, "gaze overfit took %.0fs" % elapsed


def test_captioner_overfit(caption_runs):
    run = caption_runs["learned"]
    assert run["steps"] <= 5000
    assert run["bleu1"] == pytest.approx(1.0, abs=1e-9)
    assert caption_runs["rgp_frozen"]


def test_ablation_direction(caption_runs):
    learned = caption_runs["learned"]["bleu1"]
    assert learned >= caption_runs["random"]["bleu1"]
    assert learned >= caption_runs["peripheral"]["bleu1"]


def test_determinism(tmp_path, monkeypatch):
    from gean.cli import main
    monkeypatch.setenv("GEAN_SEED", "41")
    pairs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        main(["make-synthetic", "--out", str(root / "d"), "--clips", "2",
              "--frames", "4"])
        main(["train-rgp", "--manifest", str(root / "d" / "manifest.json"),
              "--out", str(root / "r"), "--steps", "2"])
        main(["gradcheck", "--out", str(root / "g"), "--instances", "1"])
        pairs.append(root)
    one, two = pairs
    for rel in ("d/manifest.json", "d/clip000_motion.bin",
                "d/make_synthetic.json", "r/rgp.ckpt", "r/train_rgp.json",
                "g/gradcheck.json"):
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel
