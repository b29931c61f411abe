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
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


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
        cfg = rgp.RgpConfig(
            in_channels=cin, proj_channels=cp, hidden=arrays["u_h"].shape[-1],
            readout_channels=tuple(arrays[d].shape[2]
                                   for d in ("d1", "d2", "d3")))
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


def _load_captions(path):
    captions = data.load_json(path, "captions")
    if not (isinstance(captions, dict)
            and all(isinstance(c, str) for c in captions.values())):
        raise GeanError("captions %s is not an object of strings" % path)
    return captions


# ---------------------------------------------------------------------------
# Subcommands: `main` has made `args.out`, read --manifest into
# `args.dataset` and `args.frame_size`, and loaded --rgp, --decoder (with
# --decoder-meta, as (params, vocab)) and --captions in place of their paths
# ---------------------------------------------------------------------------

def cmd_make_synthetic(args):
    path = data.make_synthetic(args.out, n_clips=args.clips,
                               n_frames=args.frames, seed=args.seed)
    write_report(args.out / "make_synthetic.json",
                 {"manifest": path.name, "clips": args.clips,
                  "frames": args.frames})
    return 0


def cmd_train_rgp(args):
    train_clips = data.gaze_training_clips(args.dataset)
    params, history = rgp.train_rgp(train_clips, lr=args.lr, steps=args.steps,
                                    seed=args.seed,
                                    target_loss=args.target_loss)
    data.save_checkpoint(args.out / "rgp.ckpt", params.state_dict())
    write_report(args.out / "train_rgp.json", {
        "steps": len(history),
        "final_loss": history[-1],
        "target_entropy": rgp.target_entropy(train_clips),
    })
    return 0


def cmd_predict_gaze(args):
    index = {}
    for clip in args.dataset:
        maps = rgp.predict_gaze(clip["motion"], args.rgp)
        rel = "%s_gaze.bin" % clip["id"]
        data.write_feature_file(args.out / rel, maps.astype(np.float64))
        index[clip["id"]] = rel
    write_report(args.out / "predict_gaze.json", index)
    return 0


def cmd_train_captioner(args):
    params, vocab, history = decoder.train_captioner(
        args.dataset, args.rgp, lr=args.lr, steps=args.steps, seed=args.seed,
        l2_coeff=args.l2, max_len=args.max_len, lam=args.lam, gaze=args.gaze)
    data.save_checkpoint(args.out / "decoder.ckpt", params.state_dict())
    write_report(args.out / "decoder_meta.json", {"words": vocab.words[3:]})
    write_report(args.out / "train_captioner.json",
                 {"steps": len(history), "final_loss": history[-1],
                  "gaze": args.gaze})
    return 0


def cmd_caption(args):
    params, vocab = args.decoder
    captions = {}
    for i, clip in enumerate(args.dataset):
        pools = decoder.build_clip_pools(
            clip["scene"], clip["motion"], clip["fovea"], args.rgp,
            args.gaze, args.lam, seed=args.seed + i)
        ids = decoder.decode_greedy(pools, params, vocab, args.max_len)
        captions[clip["id"]] = " ".join(vocab.decode(ids))
    write_report(args.out / "captions.json", captions)
    return 0


def cmd_eval_gaze(args):
    preds = None if args.copy_gt else [
        rgp.predict_gaze(clip["motion"], args.rgp) for clip in args.dataset]
    table = metrics.eval_protocol(args.dataset, preds, args.frame_size,
                                  n_sets=args.protocol_sets,
                                  set_size=args.protocol_frames,
                                  seed=args.seed)
    write_report(args.out / "eval_gaze.json", table)
    return 0


def cmd_eval_captions(args):
    cands = {c["id"]: tokenize(args.captions.get(c["id"], ""))
             for c in args.dataset}
    refs = {c["id"]: [tokenize(r) for r in c["captions"]]
            for c in args.dataset}
    ids = sorted(cands)
    report = {}
    for n in (1, 2, 3, 4):
        report["bleu%d" % n] = metrics.corpus_bleu(
            [cands[i] for i in ids], [refs[i] for i in ids], n)
    report["rouge_l"] = float(np.mean(
        [metrics.rouge_l(cands[i], refs[i]) for i in ids]))
    _, report["cider"] = metrics.cider(cands, refs)
    write_report(args.out / "eval_captions.json", report)
    return 0


def cmd_gradcheck(args):
    from .checks import gradient_report
    report = gradient_report(seed=args.seed, instances=args.instances)
    write_report(args.out / "gradcheck.json", report)
    worst = max(v for v in report.values())
    return 0 if worst <= 1e-4 else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _number(cast, minimum):
    """argparse type of a numeric flag: finite and at least `minimum`. A zero
    count ends in an empty report or a vacuous pass; a NaN, an infinite or
    a negative rate, in a bare FloatingPointError or rewarded weight growth."""
    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not a valid %s"
                                             % (text, cast.__name__)) from None
        if cast is float and not np.isfinite(value):
            raise argparse.ArgumentTypeError("must be finite, got %s" % text)
        if value < minimum:
            raise argparse.ArgumentTypeError("must be at least %g, got %s"
                                             % (minimum, text))
        return value
    return parse


_count = _number(int, 1)
_rate = _number(float, 0)
_finite = _number(float, -np.inf)


def build_parser():
    parser = argparse.ArgumentParser(prog="gean", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest=True):
        if manifest:
            p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True, type=Path)
        p.add_argument("--seed", type=_number(int, 0), default=None)

    def captioner(p):  # the flags train-captioner and caption share
        common(p)
        p.add_argument("--rgp")
        p.add_argument("--gaze", choices=GAZE_KINDS, default="learned")
        p.add_argument("--max-len", type=_count, default=decoder.MAX_LEN)
        p.add_argument("--lambda", dest="lam", type=_rate,
                       default=DEFAULT_LAMBDA)
        p.set_defaults(error=p.error)

    p = sub.add_parser("make-synthetic")
    common(p, manifest=False)
    p.add_argument("--clips", type=_count, default=8)
    p.add_argument("--frames", type=_count, default=20)
    p.set_defaults(func=cmd_make_synthetic)

    p = sub.add_parser("train-rgp")
    common(p)
    p.add_argument("--lr", type=_rate, default=1e-4)
    p.add_argument("--steps", type=_count, default=2000)
    p.add_argument("--target-loss", type=_finite, default=None)
    p.set_defaults(func=cmd_train_rgp)

    p = sub.add_parser("predict-gaze")
    common(p)
    p.add_argument("--rgp", required=True)
    p.set_defaults(func=cmd_predict_gaze)

    p = sub.add_parser("train-captioner")
    captioner(p)
    p.add_argument("--lr", type=_rate, default=1e-4)
    p.add_argument("--steps", type=_count, default=5000)
    p.add_argument("--l2", type=_rate, default=1e-5)
    p.set_defaults(func=cmd_train_captioner)

    p = sub.add_parser("caption")
    captioner(p)
    p.add_argument("--decoder", required=True)
    p.add_argument("--decoder-meta", required=True)
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("eval-gaze")
    common(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--rgp")
    source.add_argument("--copy-gt", action="store_true",
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
    """Refuse every usage error before any file is read: argparse prints
    the usage line and the message, and its exit becomes exit 1."""
    try:
        args = build_parser().parse_args(argv)
        if "gaze" in args and args.gaze == "learned" and not args.rgp:
            args.error("argument --gaze: 'learned' requires --rgp")
        args.seed = resolve_seed(args.seed)
        if "manifest" in args:
            manifest, args.dataset = data.load_dataset(args.manifest)
            args.frame_size = manifest["frame_size"]
        if args.func in (cmd_train_captioner, cmd_eval_captions):
            for clip in args.dataset:
                if not clip["captions"]:
                    raise GeanError("manifest %s, clip %s: field 'captions' "
                                    "is missing or empty"
                                    % (args.manifest, clip["id"]))
        if "rgp" in args and args.rgp:
            args.rgp = _load_rgp(args.rgp)
        if "decoder" in args:
            args.decoder = _load_decoder(args.decoder, args.decoder_meta)
        if "captions" in args:
            args.captions = _load_captions(args.captions)
        args.out.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except SystemExit as e:  # argparse has printed the usage and message
        return 1 if e.code else 0
    except (GeanError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures exit 2
        print("failure: %r" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
