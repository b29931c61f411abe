"""The three benchmark workloads, built from a seed, with output checks.

Each workload drives the public functions the `gean` subcommands call,
in-process, at the default model sizes: 1024-channel 7x7 feature grids,
20-frame clips and 98x98 frames.  `setup()` generates the inputs, loads
them, initialises the models and runs one warm-up operation; `op(i)` runs
item i of the workload's fixed cycle and raises CheckFailed when an output
is wrong.
"""

import hashlib
import json
import shutil
import warnings

import numpy as np

from gean import data, decoder, gaze, metrics, optim, rgp, text
from gean.tensor import Tape, Tensor, no_grad

F32_EPS = float(np.finfo(np.float32).eps)

# Model and dataset sizes.  "tiny" keeps the 1024-channel features the
# manifest reader requires and shrinks everything else; only the smoke test
# uses it.
SIZES = {
    "default": {"clips": 4, "frames": 20, "rgp": rgp.RgpConfig(),
                "decoder": {}},
    "tiny": {"clips": 4, "frames": 4,
             "rgp": rgp.RgpConfig(proj_channels=16, hidden=8,
                                  readout_channels=(4, 4, 2)),
             "decoder": {"embed": 16, "hidden": 16, "att": 8,
                         "agg_splits": (8, 8, 16)}},
}

# caption-train: one caption length per (clip, caption) pair, permuted by
# the seed.  The template gives 4 tokens; the mix has a long tail to 26 so
# both per-word work and per-step work (Adam) weigh in.  A fixed multiset
# keeps the step-time distribution, and the exact counts, the same for
# every seed.  The middle four lengths are equal so that the median step
# falls inside one group of like steps, not on the edge between two; the
# top two are equal for the same reason at p90.  The mix is an assumption,
# not derived from caption data or a published length distribution: a
# quarter of the steps are 26-token captions, carrying 58% of the tokens.
CAPTION_LENGTHS = (4, 5, 7, 7, 7, 7, 26, 26)
CAPTIONS_PER_CLIP = 2
FILLERS = ("slowly", "quickly", "then", "again", "near", "under", "over",
           "across", "table", "floor", "window", "door", "and", "with", "his",
           "her", "hand", "hands", "while", "looking", "at", "it", "from",
           "into", "a", "small", "large", "red", "blue", "green", "old",
           "new", "kitchen", "room", "chair", "shelf", "carefully", "back",
           "down", "up")
VOCAB_CORPUS = [" ".join(("someone", "the") + tuple(data.VERBS)
                         + tuple(data.NOUNS) + FILLERS)]

# caption-infer: every clip emits exactly this many words.  An untrained
# decoder stops at a seed-dependent word, so its <EOS> logit is pushed down
# at set-up; the per-clip work then does not depend on the seed.
INFER_WORDS = 6
SAUC_SPLITS = 10


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def check_finite_loss(loss):
    value = loss.item()
    if not np.isfinite(value):
        raise CheckFailed("training loss is not finite: %r" % value)
    return value


def check_gaze_maps(maps):
    """Finite and each map sums to 1 within float32 rounding."""
    maps = np.asarray(maps)
    if not np.all(np.isfinite(maps)):
        raise CheckFailed("gaze map has non-finite values")
    per_map = maps.reshape(maps.shape[0], -1)
    err = np.abs(per_map.sum(axis=1, dtype=np.float64) - 1.0).max()
    if err > per_map.shape[1] * F32_EPS:
        raise CheckFailed("gaze map sums differ from 1 by %g" % err)


def check_range(name, value, lo, hi):
    if not (lo - 1e-9 <= value <= hi + 1e-9):
        raise CheckFailed("%s = %r outside [%g, %g]" % (name, value, lo, hi))


class Workload:
    """Common set-up: synthetic dataset on disk, read back like the CLI."""

    name = None

    def __init__(self, size, seed, workdir, plant_nan=False):
        self.size = SIZES[size]
        self.seed = seed
        self.workdir = workdir
        self.plant_nan = plant_nan

    def _dataset(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        manifest = data.make_synthetic(self.workdir,
                                       n_clips=self.size["clips"],
                                       n_frames=self.size["frames"],
                                       seed=self.seed)
        self.rewrite_captions(manifest)
        meta, clips = data.load_dataset(manifest)
        if self.plant_nan:
            # one whole motion frame of the last clip; the warm-up uses clip 0
            last = clips[-1]["motion"]
            last[min(1, len(last) - 1)] = np.nan
        return meta, clips

    def rewrite_captions(self, manifest):
        """Hook for workloads that need other captions than the template."""

    def _rgp_params(self, rng):
        """A seeded gaze predictor, saved and loaded back as the CLI does."""
        params = rgp.RgpParams.create(rng, self.size["rgp"])
        path = self.workdir / "rgp.ckpt"
        data.save_checkpoint(path, params.state_dict())
        params.load_state_dict(data.load_checkpoint(path))
        return params

    def _decoder_params(self, rng, vocab):
        cfg = decoder.DecoderConfig(vocab_size=len(vocab),
                                    **self.size["decoder"])
        return decoder.DecoderParams.create(rng, cfg)

    def setup(self):
        self.prepare()
        self.op(0)

    def cycle(self):
        return len(self.items)


class GazeTrain(Workload):
    """One op = one train_rgp step on one clip (forward, loss, backward,
    Adam over the 2.9M RGP parameters)."""

    name = "gaze-train"

    def prepare(self):
        _, clips = self._dataset()
        self.items = data.gaze_training_clips(clips)
        self.rng = np.random.default_rng(self.seed)
        self.params = rgp.RgpParams.create(self.rng, self.size["rgp"])
        self.opt = optim.AdamState(lr=1e-4)

    def op(self, i):
        clip = self.items[i]
        feats, gts = clip["motion"], clip["targets"]
        if self.rng.random() < 0.5:  # train_rgp's mirror_prob
            feats, gts = gaze.mirror_augment(feats, gts)
        with Tape() as tape:
            scores = rgp.rgp_forward_scores(feats.astype(np.float32),
                                            self.params)
            loss = rgp.rgp_loss_from_scores(scores, gts, clip["mask"])
            tape.backward(loss)
        self.opt.step(self.params.all())
        value = check_finite_loss(loss)
        return len(feats), 0, np.float64(value).tobytes()


class CaptionTrain(Workload):
    """One op = one teacher-forced captioner step (dropout, l2, backward,
    Adam over the >= 6.6M decoder parameters); pools are built once at
    set-up from a seeded RGP's learned gaze."""

    name = "caption-train"

    def rewrite_captions(self, manifest):
        rng = np.random.default_rng(self.seed + 1)
        meta = json.loads(manifest.read_text(encoding="utf-8"))
        lengths = list(rng.permutation(CAPTION_LENGTHS))
        for clip in meta["clips"]:
            base = clip["captions"][0].rstrip(".")
            clip["captions"] = [
                " ".join([base] + list(rng.choice(FILLERS,
                                                  size=lengths.pop() - 4)))
                for _ in range(CAPTIONS_PER_CLIP)]
        manifest.write_text(json.dumps(meta, indent=2, sort_keys=True),
                            encoding="utf-8")

    def prepare(self):
        _, clips = self._dataset()
        self.rng = np.random.default_rng(self.seed)
        rgp_params = self._rgp_params(self.rng)
        self.vocab = text.build_vocab(VOCAB_CORPUS)
        self.params = self._decoder_params(self.rng, self.vocab)
        self.items = []
        for i, clip in enumerate(clips):
            pools = decoder.build_clip_pools(clip["scene"], clip["motion"],
                                             clip["fovea"], rgp_params,
                                             "learned", seed=self.seed + i)
            pools = {k: Tensor(v.astype(np.float32)) for k, v in pools.items()}
            for caption in clip["captions"]:
                ids = self.vocab.encode(text.tokenize(caption))
                self.items.append((pools, ids, clip["n_frames"]))
        self.opt = optim.AdamState(lr=1e-4)

    def op(self, i):
        pools, ids, n_frames = self.items[i]
        with Tape() as tape:
            loss = decoder.teacher_forced_loss(pools, ids, self.params,
                                               self.vocab, l2_coeff=1e-5,
                                               dropout_on=True, rng=self.rng)
            tape.backward(loss)
        self.opt.step(self.params.all())
        value = check_finite_loss(loss)
        return n_frames, len(ids) + 1, np.float64(value).tobytes()


class CaptionInfer(Workload):
    """One op = one clip through the read path under no_grad:
    predict_gaze, build_clip_pools, decode_greedy, then the per-frame
    saliency scores eval_protocol computes, with a shuffle pool from the
    other clips, and BLEU-4 / ROUGE-L of the caption."""

    name = "caption-infer"

    def prepare(self):
        meta, clips = self._dataset()
        self.height, self.width = meta["frame_size"]
        self.rng = np.random.default_rng(self.seed)
        self.rgp = self._rgp_params(self.rng)
        self.vocab = text.build_vocab(VOCAB_CORPUS)
        params = self._decoder_params(self.rng, self.vocab)
        params.b_out.data[self.vocab.eos] = -1e4
        path = self.workdir / "decoder.ckpt"
        data.save_checkpoint(path, params.state_dict())
        params.load_state_dict(data.load_checkpoint(path))
        self.params = params
        pixels = [[p for fx in clip["fixations"].values()
                   for p in gaze.fixation_pixels(fx, self.height, self.width)]
                  for clip in clips]
        self.items = []
        for i, clip in enumerate(clips):
            shuffle = [p for j, pool in enumerate(pixels) if j != i
                       for p in pool]
            refs = [text.tokenize(c) for c in clip["captions"]]
            self.items.append((clip, shuffle, refs))

    def op(self, i):
        clip, shuffle, refs = self.items[i]
        h, w = self.height, self.width
        with no_grad():
            maps = rgp.predict_gaze(clip["motion"].astype(np.float32),
                                    self.rgp)
            check_gaze_maps(maps)
            pools = decoder.build_clip_pools(clip["scene"], clip["motion"],
                                             clip["fovea"], self.rgp,
                                             "learned", seed=self.seed + i)
            ids = decoder.decode_greedy(pools, self.params, self.vocab,
                                        INFER_WORDS)
        if not all(0 <= k < len(self.vocab) for k in ids):
            raise CheckFailed("caption id outside the vocabulary: %s" % ids)
        words = self.vocab.decode(ids)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty-candidate warnings
            scores = [metrics.bleu(words, refs), metrics.rouge_l(words, refs)]
        for fi in sorted(clip["fixations"]):
            fx = clip["fixations"][fi]
            gt_eval = gaze.gt_eval_map(fx, h, w)
            pred_eval = gaze.pred_eval_map(maps[fi], h, w)
            pix = gaze.fixation_pixels(fx, h, w)
            frame = (metrics.sim(pred_eval, gt_eval),
                     metrics.cc(pred_eval, gt_eval),
                     metrics.auc_judd(pred_eval, pix),
                     metrics.sauc(pred_eval, pix, shuffle or pix,
                                  n_splits=SAUC_SPLITS, seed=self.seed))
            for name, value, lo in zip(("Sim", "CC", "AUC", "sAUC"), frame,
                                       (0.0, -1.0, 0.0, 0.0)):
                check_range(name, value, lo, 1.0)
            scores.extend(frame)
        record = (np.asarray(ids, dtype=np.int64).tobytes()
                  + np.asarray(scores, dtype=np.float64).tobytes())
        return clip["n_frames"], len(ids), record


WORKLOADS = {w.name: w for w in (GazeTrain, CaptionTrain, CaptionInfer)}


def digest(records):
    """Short sha256 of an operation's output records."""
    h = hashlib.sha256()
    for rec in records:
        h.update(rec)
    return h.hexdigest()[:16]
