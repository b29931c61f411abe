"""Command-line entry point wiring the modules into train / predict /
evaluate / verify workflows."""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data, decoder, metrics, rgp
from .errors import GeanError
from .optim import resolve_seed
from .pools import DEFAULT_LAMBDA
from .tensor import require_parameters
from .text import Vocabulary, tokenize

GAZE_KINDS = ("learned", "uniform", "random", "central", "peripheral")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError("%s\n%s" % (message, self.format_usage()))


def _fixed(value, key=None):
    """Render a report value with 6-decimal fixed floats; a NaN or infinite
    float raises ValueError naming its key, since JSON has no such number."""
    if isinstance(value, float):
        if not np.isfinite(value):
            raise ValueError("report value %r for key %r is not finite"
                             % (value, key))
        return format(value, ".6f")
    if isinstance(value, dict):
        return "{" + ", ".join('"%s": %s' % (k, _fixed(v, k))
                               for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fixed(v, key) for v in value) + "]"
    return json.dumps(value)


def write_report(path, obj):
    """Format the whole report first, so a refused one leaves no file."""
    text = _fixed(obj) + "\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sizing(arrays, names, ndim):
    """Check the checkpoint arrays a config's sizes are read from: each
    must be there, with `ndim` axes, before its shape is unpacked."""
    require_parameters(names, arrays)
    for name in names:
        if arrays[name].ndim != ndim:
            raise GeanError("checkpoint array %r has %d axes, not %d"
                            % (name, arrays[name].ndim, ndim))


def _load_rgp(path):
    arrays = data.load_checkpoint(path)
    try:
        _sizing(arrays, rgp.RgpParams.NAMES, 4)
        kh, kw, cin, cp = arrays["p_in"].shape
        cfg = rgp.RgpConfig(in_channels=cin, proj_channels=cp,
                            hidden=arrays["u_h"].shape[-1],
                            readout_channels=(arrays["d1"].shape[2],
                                              arrays["d2"].shape[2],
                                              arrays["d3"].shape[2]))
        params = rgp.RgpParams.create(np.random.default_rng(0), cfg)
        params.load_state_dict(arrays)
    except GeanError as e:  # name the file, as the format errors do
        raise GeanError("%s: %s" % (path, e)) from None
    return params


def _load_decoder(ckpt_path, meta_path):
    meta = data.load_json(meta_path, "decoder meta")
    words = meta.get("words") if isinstance(meta, dict) else None
    if not (isinstance(words, list)
            and all(isinstance(w, str) for w in words)):
        raise GeanError("decoder meta %s: 'words' is missing or not a "
                        "list of strings" % meta_path)
    vocab = Vocabulary(words)
    arrays = data.load_checkpoint(ckpt_path)
    wg = ["wg_%s" % ch for ch in decoder.CHANNELS]
    try:
        _sizing(arrays, ["embedding", "uq_scene", "wq_scene"] + wg, 2)
        embed, vocab_size = arrays["embedding"].shape
        if vocab_size != len(vocab):
            raise GeanError("%d embedding columns, but decoder meta %s "
                            "gives %d words + 3 reserved"
                            % (vocab_size, meta_path, len(vocab) - 3))
        att, hidden = arrays["uq_scene"].shape
        cfg = decoder.DecoderConfig(
            vocab_size=vocab_size, embed=embed, hidden=hidden, att=att,
            feat=arrays["wq_scene"].shape[1],
            agg_splits=tuple(arrays[n].shape[0] for n in wg))
        params = decoder.DecoderParams.create(np.random.default_rng(0), cfg)
        params.load_state_dict(arrays)
    except GeanError as e:
        raise GeanError("%s: %s" % (ckpt_path, e)) from None
    return params, vocab


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_make_synthetic(args):
    out = _out_dir(args)
    path = data.make_synthetic(out, n_clips=args.clips, n_frames=args.frames,
                               seed=resolve_seed(args.seed))
    write_report(out / "make_synthetic.json",
                 {"manifest": path.name, "clips": args.clips,
                  "frames": args.frames})
    return 0


def cmd_train_rgp(args):
    out = _out_dir(args)
    _, clips = data.load_dataset(args.manifest)
    train_clips = data.gaze_training_clips(clips)
    cfg = rgp.RgpTrainConfig(lr=args.lr, steps=args.steps,
                             seed=resolve_seed(args.seed),
                             target_loss=args.target_loss)
    params, history = rgp.train_rgp(train_clips, cfg)
    data.save_checkpoint(out / "rgp.ckpt", params.state_dict())
    write_report(out / "train_rgp.json", {
        "steps": len(history),
        "final_loss": history[-1],
        "target_entropy": rgp.target_entropy(train_clips),
    })
    return 0


def cmd_predict_gaze(args):
    out = _out_dir(args)
    params = _load_rgp(args.rgp)
    _, clips = data.load_dataset(args.manifest)
    index = {}
    for clip in clips:
        maps = rgp.predict_gaze(clip["motion"].astype(np.float32), params)
        rel = "%s_gaze.bin" % clip["id"]
        data.write_feature_file(out / rel, maps.astype(np.float64))
        index[clip["id"]] = rel
    write_report(out / "predict_gaze.json", index)
    return 0


def cmd_train_captioner(args):
    out = _out_dir(args)
    _, clips = data.load_dataset(args.manifest)
    rgp_params = _load_rgp(args.rgp) if args.rgp else None
    cfg = decoder.CaptionTrainConfig(lr=args.lr, steps=args.steps,
                                     seed=resolve_seed(args.seed),
                                     l2_coeff=args.l2, max_len=args.max_len,
                                     lam=args.lam, gaze=args.gaze)
    params, vocab, history = decoder.train_captioner(clips, rgp_params, cfg)
    data.save_checkpoint(out / "decoder.ckpt", params.state_dict())
    with open(out / "decoder_meta.json", "w", encoding="utf-8") as f:
        json.dump({"words": vocab.words[3:]}, f, sort_keys=True)
        f.write("\n")
    write_report(out / "train_captioner.json",
                 {"steps": len(history), "final_loss": history[-1],
                  "gaze": args.gaze})
    return 0


def cmd_caption(args):
    out = _out_dir(args)
    _, clips = data.load_dataset(args.manifest)
    params, vocab = _load_decoder(args.decoder, args.decoder_meta)
    rgp_params = _load_rgp(args.rgp) if args.rgp else None
    seed = resolve_seed(args.seed)
    captions = {}
    for i, clip in enumerate(clips):
        pools = decoder.build_clip_pools(
            clip["scene"], clip["motion"], clip["fovea"], rgp_params,
            args.gaze, args.lam, seed=seed + i)
        ids = decoder.decode_greedy(pools, params, vocab, args.max_len)
        captions[clip["id"]] = " ".join(vocab.decode(ids))
    write_report(out / "captions.json", captions)
    return 0


def cmd_eval_gaze(args):
    out = _out_dir(args)
    manifest, clips = data.load_dataset(args.manifest)
    frame_size = manifest.get("frame_size")
    if not (isinstance(frame_size, list) and len(frame_size) == 2
            and all(type(v) is int and v > 0 for v in frame_size)):
        raise GeanError("manifest %s: 'frame_size' is missing or not 2 "
                        "positive integers" % args.manifest)
    frame_size = tuple(frame_size)
    for clip in clips:
        clip["frame_size"] = frame_size
    if args.copy_gt:
        predictor = "copy-gt"
    else:
        if not args.rgp:
            raise _UsageError("eval-gaze requires --rgp or --copy-gt")
        params = _load_rgp(args.rgp)
        predictor = lambda clip: rgp.predict_gaze(
            clip["motion"].astype(np.float32), params)
    table = metrics.eval_protocol(clips, predictor,
                                  n_sets=args.protocol_sets,
                                  set_size=args.protocol_frames,
                                  seed=resolve_seed(args.seed))
    write_report(out / "eval_gaze.json", table)
    return 0


def cmd_eval_captions(args):
    out = _out_dir(args)
    _, clips = data.load_dataset(args.manifest)
    captions = data.load_json(args.captions, "captions")
    if not (isinstance(captions, dict)
            and all(isinstance(c, str) for c in captions.values())):
        raise GeanError("captions %s is not an object of strings"
                        % args.captions)
    cands = {c["id"]: tokenize(captions.get(c["id"], "")) for c in clips}
    refs = {c["id"]: [tokenize(r) for r in c["captions"]] for c in clips}
    ids = sorted(cands)
    report = {}
    for n in (1, 2, 3, 4):
        report["bleu%d" % n] = metrics.corpus_bleu(
            [cands[i] for i in ids], [refs[i] for i in ids], n)
    report["rouge_l"] = float(np.mean(
        [metrics.rouge_l(cands[i], refs[i]) for i in ids]))
    _, report["cider"] = metrics.cider(cands, refs)
    write_report(out / "eval_captions.json", report)
    return 0


def cmd_gradcheck(args):
    from .checks import gradient_report
    out = _out_dir(args)
    report = gradient_report(seed=resolve_seed(args.seed),
                             instances=args.instances)
    write_report(out / "gradcheck.json", report)
    worst = max(v for v in report.values())
    return 0 if worst <= 1e-4 else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _count(text):
    """argparse type of a count flag: a positive int, so that a zero count
    cannot end in an empty report or a vacuous pass."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text) \
            from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def build_parser():
    parser = _Parser(prog="gean", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest=True):
        if manifest:
            p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("make-synthetic")
    common(p, manifest=False)
    p.add_argument("--clips", type=_count, default=8)
    p.add_argument("--frames", type=_count, default=20)
    p.set_defaults(func=cmd_make_synthetic)

    p = sub.add_parser("train-rgp")
    common(p)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--steps", type=_count, default=2000)
    p.add_argument("--target-loss", type=float, default=None)
    p.set_defaults(func=cmd_train_rgp)

    p = sub.add_parser("predict-gaze")
    common(p)
    p.add_argument("--rgp", required=True)
    p.set_defaults(func=cmd_predict_gaze)

    p = sub.add_parser("train-captioner")
    common(p)
    p.add_argument("--rgp", default=None)
    p.add_argument("--gaze", choices=GAZE_KINDS, default="learned")
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--steps", type=_count, default=5000)
    p.add_argument("--l2", type=float, default=1e-5)
    p.add_argument("--max-len", type=_count, default=decoder.MAX_LEN)
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.set_defaults(func=cmd_train_captioner)

    p = sub.add_parser("caption")
    common(p)
    p.add_argument("--rgp", default=None)
    p.add_argument("--decoder", required=True)
    p.add_argument("--decoder-meta", required=True)
    p.add_argument("--gaze", choices=GAZE_KINDS, default="learned")
    p.add_argument("--max-len", type=_count, default=decoder.MAX_LEN)
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("eval-gaze")
    common(p)
    p.add_argument("--rgp", default=None)
    p.add_argument("--copy-gt", action="store_true",
                   help="score the GT maps against themselves")
    p.add_argument("--protocol-sets", type=_count, default=10)
    p.add_argument("--protocol-frames", type=_count, default=3000)
    p.set_defaults(func=cmd_eval_gaze)

    p = sub.add_parser("eval-captions")
    common(p)
    p.add_argument("--captions", required=True)
    p.set_defaults(func=cmd_eval_captions)

    p = sub.add_parser("gradcheck")
    common(p, manifest=False)
    p.add_argument("--instances", type=_count, default=20)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (GeanError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures exit 2
        print("failure: %r" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
