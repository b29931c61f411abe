"""End-to-end command-line tests on a tiny synthetic dataset."""

import json
import shutil

import numpy as np
import pytest

from gean import data, decoder
from gean.cli import main, write_report

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    rc = main(["make-synthetic", "--out", str(out), "--clips", "2",
               "--frames", "4", "--seed", "3"])
    assert rc == 0
    return out / "manifest.json"


def test_make_synthetic_report(dataset):
    report = json.loads((dataset.parent / "make_synthetic.json").read_text())
    assert report["clips"] == 2 and report["frames"] == 4


def test_missing_manifest_exit_1(tmp_path):
    rc = main(["train-rgp", "--manifest", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o"), "--steps", "1"])
    assert rc == 1


def test_missing_subcommand_exit_1(capsys):
    assert main([]) == 1
    assert main(["train-rgp"]) == 1  # missing required args


@pytest.mark.parametrize("argv", [
    ["make-synthetic", "--clips", "0"],
    ["make-synthetic", "--frames", "0"],
    ["train-rgp", "--manifest", "{manifest}", "--steps", "0"],
    ["train-captioner", "--manifest", "{manifest}", "--steps", "0"],
    ["train-captioner", "--manifest", "{manifest}", "--max-len", "0"],
    ["caption", "--manifest", "{manifest}", "--decoder", "d.ckpt",
     "--decoder-meta", "d.json", "--max-len", "0"],
    ["eval-gaze", "--manifest", "{manifest}", "--copy-gt",
     "--protocol-sets", "0"],
    ["eval-gaze", "--manifest", "{manifest}", "--copy-gt",
     "--protocol-frames", "0"],
    ["gradcheck", "--instances", "0"],
])
def test_non_positive_count_flag_exit_1(dataset, tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [a.format(manifest=dataset) for a in argv] + ["--out", str(out)]
    assert main(argv) == 1
    flag = argv[argv.index("0") - 1]
    assert ("argument %s: must be at least 1, got 0" % flag
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["train-captioner", "--l2", "-1"], "--l2: must be at least 0, got -1"),
    (["train-captioner", "--l2", "nan"], "--l2: must be finite, got nan"),
    (["train-captioner", "--l2", "inf"], "--l2: must be finite, got inf"),
    (["train-captioner", "--lr", "nan"], "--lr: must be finite, got nan"),
    (["train-captioner", "--lr", "inf"], "--lr: must be finite, got inf"),
    (["train-captioner", "--lambda", "nan"],
     "--lambda: must be finite, got nan"),
    (["train-rgp", "--lr", "nan"], "--lr: must be finite, got nan"),
    (["train-rgp", "--lr", "inf"], "--lr: must be finite, got inf"),
    (["train-rgp", "--target-loss", "nan"],
     "--target-loss: must be finite, got nan"),
    (["caption", "--decoder", "d.ckpt", "--decoder-meta", "d.json",
      "--gaze", "uniform", "--lambda", "nan"],
     "--lambda: must be finite, got nan"),
    (["train-captioner", "--seed", "-1"], "--seed: must be at least 0, got -1"),
], ids=["l2-negative", "l2-nan", "l2-inf", "lr-nan", "lr-inf", "lambda-nan",
        "rgp-lr-nan", "rgp-lr-inf", "target-loss-nan", "caption-lambda-nan",
        "seed-negative"])
def test_bad_float_flag_exit_1(dataset, tmp_path, capsys, argv, message):
    # two steps of uniform-gaze training, so that a run that gets past the
    # parser ends quickly and without needing an RGP checkpoint
    out = tmp_path / "out"
    extra = {"train-captioner": ["--gaze", "uniform", "--steps", "2"],
             "train-rgp": ["--steps", "2"]}.get(argv[0], [])
    argv = argv + extra + ["--manifest", str(dataset), "--out", str(out)]
    assert main(argv) == 1
    assert "argument " + message in capsys.readouterr().err
    assert not out.exists()


def test_gradcheck_exit_0(tmp_path):
    rc = main(["gradcheck", "--out", str(tmp_path), "--instances", "2",
               "--seed", "0"])
    assert rc == 0
    report = json.loads((tmp_path / "gradcheck.json").read_text())
    assert max(report.values()) <= 1e-4


def test_train_predict_eval_pipeline(dataset, tmp_path):
    root = dataset.parent
    rgp_out = tmp_path / "rgp"
    rc = main(["train-rgp", "--manifest", str(dataset), "--out", str(rgp_out),
               "--steps", "2", "--seed", "0"])
    assert rc == 0
    ckpt = rgp_out / "rgp.ckpt"
    assert ckpt.exists()
    report = json.loads((rgp_out / "train_rgp.json").read_text())
    assert report["steps"] == 2

    pred_out = tmp_path / "pred"
    rc = main(["predict-gaze", "--manifest", str(dataset), "--rgp", str(ckpt),
               "--out", str(pred_out), "--seed", "0"])
    assert rc == 0
    index = json.loads((pred_out / "predict_gaze.json").read_text())
    assert len(index) == 2

    eval_out = tmp_path / "eval"
    rc = main(["eval-gaze", "--manifest", str(dataset), "--rgp", str(ckpt),
               "--out", str(eval_out), "--protocol-sets", "2",
               "--protocol-frames", "3", "--seed", "0"])
    assert rc == 0
    table = json.loads((eval_out / "eval_gaze.json").read_text())
    assert set(table) == {"Sim", "CC", "AUC", "sAUC"}


def test_eval_gaze_copy_gt(dataset, tmp_path):
    out = tmp_path / "copygt"
    rc = main(["eval-gaze", "--manifest", str(dataset), "--copy-gt",
               "--out", str(out), "--protocol-sets", "2",
               "--protocol-frames", "3", "--seed", "0"])
    assert rc == 0
    table = json.loads((out / "eval_gaze.json").read_text())
    assert table["Sim"] == pytest.approx(1.0, abs=1e-6)
    assert table["CC"] == pytest.approx(1.0, abs=1e-6)


def test_eval_gaze_requires_predictor(tmp_path, capsys):
    # a flag rule is refused at parse time: the manifest, which does not
    # exist, is never read and --out is never made
    missing = str(tmp_path / "nope.json")
    out = tmp_path / "x"
    for argv, flags in [
            (["eval-gaze"], "one of the arguments --rgp --copy-gt"),
            (["eval-gaze", "--rgp", "r.ckpt", "--copy-gt"],
             "argument --copy-gt: not allowed with argument --rgp"),
            (["train-captioner"], "argument --gaze: 'learned' requires --rgp"),
            (["caption", "--decoder", "d.ckpt", "--decoder-meta", "d.json"],
             "argument --gaze: 'learned' requires --rgp")]:
        rc = main(argv + ["--manifest", missing, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1, argv
        assert err.startswith("usage: gean %s " % argv[0]) and flags in err
        assert "No such file" not in err and "nope.json" not in err
        assert not out.exists()


def test_caption_workflow(dataset, tmp_path):
    cap_out = tmp_path / "cap"
    rc = main(["train-captioner", "--manifest", str(dataset),
               "--gaze", "uniform", "--steps", "3", "--seed", "0",
               "--out", str(cap_out)])
    assert rc == 0
    rc = main(["caption", "--manifest", str(dataset),
               "--decoder", str(cap_out / "decoder.ckpt"),
               "--decoder-meta", str(cap_out / "decoder_meta.json"),
               "--gaze", "uniform", "--out", str(tmp_path / "caps"),
               "--seed", "0"])
    assert rc == 0
    captions = json.loads((tmp_path / "caps" / "captions.json").read_text())
    assert set(captions) == {"clip000", "clip001"}
    # the checkpoint's shapes are the only record of the decoder's sizes
    meta = json.loads((cap_out / "decoder_meta.json").read_text())
    assert set(meta) == {"words"}

    rc = main(["eval-captions", "--manifest", str(dataset),
               "--captions", str(tmp_path / "caps" / "captions.json"),
               "--out", str(tmp_path / "capeval"), "--seed", "0"])
    assert rc == 0
    report = json.loads((tmp_path / "capeval" / "eval_captions.json")
                        .read_text())
    for key in ("bleu1", "bleu4", "rouge_l", "cider"):
        assert key in report


def _per_gate(arrays, fused, names, axis):
    """`arrays` with the fused GRU array `fused` split into the per-gate
    arrays `names`, the layout checkpoints had before the gates were
    stacked."""
    out = {k: v for k, v in arrays.items() if k != fused}
    out.update(zip(names, np.split(arrays[fused], len(names), axis=axis)))
    return out


def test_caption_rejects_wrong_shaped_checkpoint(dataset, tmp_path, capsys):
    cfg = {"embed": 4, "hidden": 4, "att": 3, "feat": 1024,
           "agg_splits": [2, 2, 3]}
    meta = tmp_path / "decoder_meta.json"
    # an older meta's "config" is ignored: the sizes come from the arrays
    meta.write_text(json.dumps({"words": ["a", "b"], "config": cfg}))
    params = decoder.DecoderParams.create(
        np.random.default_rng(0), decoder.DecoderConfig(vocab_size=5, **cfg))
    wrong_shape = params.state_dict()
    wrong_shape["w_out"] = wrong_shape["w_out"][:, :-1]
    per_gate = params.state_dict()
    for pre in ("att", "mm"):
        for fused, names in (("%s_w_zrh", "%s_wz %s_wr %s_wh"),
                             ("%s_u_zr", "%s_uz %s_ur"), ("%s_u_h", "%s_uh"),
                             ("b_%s_zr", "b_%s_z b_%s_r")):
            per_gate = _per_gate(per_gate, fused % pre,
                                 [n % pre for n in names.split()], 0)
    ckpt = tmp_path / "decoder.ckpt"
    for arrays, named in ((wrong_shape, "'w_out'"), (per_gate, "'att_u_h'")):
        data.save_checkpoint(ckpt, arrays)
        rc = main(["caption", "--manifest", str(dataset),
                   "--decoder", str(ckpt),
                   "--decoder-meta", str(meta), "--gaze", "uniform",
                   "--out", str(tmp_path / "caps")])
        assert rc == 1
        err = capsys.readouterr().err
        assert named in err and str(ckpt) in err


@pytest.mark.parametrize("edit, n_words, message", [
    (lambda a: a.pop("wg_fovea"), 2, "'wg_fovea'"),
    (lambda a: a.update(embedding=a["embedding"].ravel()), 2,
     "'embedding' has 1 axes"),
    (lambda a: None, 3, "5 embedding columns"),
    (lambda a: a.pop("w_out"), 2, "lacks parameter 'w_out'"),
    (lambda a: a.update(extra=np.zeros(2)), 2, "unknown parameter 'extra'"),
], ids=["missing-sizing-parameter", "one-axis-embedding",
        "word-count-mismatch", "missing-parameter", "unknown-parameter"])
def test_caption_sizes_decoder_from_checkpoint(dataset, tmp_path, capsys,
                                               edit, n_words, message):
    cfg = decoder.DecoderConfig(vocab_size=5, embed=4, hidden=4, att=3,
                                feat=1024, agg_splits=(2, 2, 3))
    arrays = decoder.DecoderParams.create(np.random.default_rng(0),
                                          cfg).state_dict()
    edit(arrays)
    ckpt, meta = tmp_path / "decoder.ckpt", tmp_path / "decoder_meta.json"
    data.save_checkpoint(ckpt, arrays)
    meta.write_text(json.dumps({"words": ["a", "b", "c"][:n_words]}))
    rc = main(["caption", "--manifest", str(dataset), "--decoder", str(ckpt),
               "--decoder-meta", str(meta), "--gaze", "uniform",
               "--out", str(tmp_path / "caps")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and str(ckpt) in err
    # a wrong word count is a mismatch between the two files
    assert n_words == 2 or str(meta) in err


def test_predict_gaze_rejects_checkpoint_missing_sizing_parameter(
        dataset, tmp_path, capsys):
    rc = main(["train-rgp", "--manifest", str(dataset), "--out",
               str(tmp_path / "rgp"), "--steps", "1", "--seed", "0"])
    assert rc == 0
    arrays = data.load_checkpoint(tmp_path / "rgp" / "rgp.ckpt")
    no_d2 = {k: v for k, v in arrays.items() if k != "d2"}
    per_gate = _per_gate(_per_gate(arrays, "w_zrh", ["w_z", "w_r", "w_h"], 3),
                         "u_zr", ["u_z", "u_r"], 3)
    one_axis = dict(arrays, p_in=arrays["p_in"].ravel())
    no_r = {k: v for k, v in arrays.items() if k != "r"}
    extra = dict(arrays, extra=np.zeros(2))
    narrow_r = dict(arrays, r=arrays["r"][:, :, :-1])
    capsys.readouterr()
    ckpt = tmp_path / "rgp.ckpt"
    for arrays, named in ((no_d2, "'d2'"), (per_gate, "'u_zr'"),
                          (one_axis, "'p_in' has 1 axes"),
                          (no_r, "lacks parameter 'r'"),
                          (extra, "unknown parameter 'extra'"),
                          (narrow_r, "for 'r'")):
        data.save_checkpoint(ckpt, arrays)
        rc = main(["predict-gaze", "--manifest", str(dataset),
                   "--rgp", str(ckpt), "--out", str(tmp_path / "pred")])
        assert rc == 1
        err = capsys.readouterr().err
        assert named in err and str(ckpt) in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_train_rgp_non_finite_loss_exit_2(dataset, tmp_path, capsys):
    # Adam moves each weight by about lr on the first step, so at lr 1e30
    # the second forward overflows float32 and the loss is NaN
    out = tmp_path / "rgp"
    rc = main(["train-rgp", "--manifest", str(dataset), "--out", str(out),
               "--steps", "3", "--seed", "0", "--lr", "1e30"])
    assert rc == 2
    assert "non-finite loss nan at training step 2" in capsys.readouterr().err
    assert not (out / "train_rgp.json").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_file_exit_1(dataset, tmp_path, capsys, value):
    root = _copy_dataset(dataset, tmp_path)
    path = root / "clip000_motion.bin"
    motion = data.read_feature_file(path)
    motion[1, 0, 0, 3] = value
    data.write_feature_file(path, motion)
    out = tmp_path / "rgp"
    rc = main(["train-rgp", "--manifest", str(root / "manifest.json"),
               "--out", str(out), "--steps", "1", "--seed", "0"])
    err = capsys.readouterr().err
    index = np.ravel_multi_index((1, 0, 0, 3), motion.shape)
    assert rc == 1
    assert "at flat index %d in %s" % (index, path) in err
    assert not (out / "train_rgp.json").exists()


def test_non_finite_checkpoint_exit_1(dataset, tmp_path, capsys):
    path = tmp_path / "rgp.ckpt"
    data.save_checkpoint(path, {"b": np.zeros(3, dtype=np.float32),
                                "w": np.array([[0.0, 1.0], [np.inf, 0.0]])})
    rc = main(["predict-gaze", "--manifest", str(dataset), "--rgp", str(path),
               "--out", str(tmp_path / "pred")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "non-finite value inf at flat index 2 in %s" % path in err


def test_feature_path_is_directory_exit_1(dataset, tmp_path, capsys):
    root = _copy_dataset(dataset, tmp_path)
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["clips"][0]["features"]["scene"] = "."
    path.write_text(json.dumps(manifest))
    rc = main(["train-rgp", "--manifest", str(path), "--out",
               str(tmp_path / "o"), "--steps", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Is a directory" in err and str(root) in err


def test_non_finite_report_value_refused(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="'loss'"):
        write_report(path, {"step": 3, "loss": float("nan")})
    with pytest.raises(ValueError, match="'losses'"):
        write_report(path, {"losses": [0.5, float("inf")]})
    assert not path.exists()
    write_report(path, {"step": 3, "loss": 0.25})
    assert json.loads(path.read_text()) == {"step": 3, "loss": 0.25}


def test_non_finite_report_value_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gean.checks.gradient_report",
                        lambda seed, instances: {"loss": float("nan")})
    rc = main(["gradcheck", "--out", str(tmp_path), "--instances", "1"])
    assert rc == 2
    assert "'loss'" in capsys.readouterr().err
    assert not (tmp_path / "gradcheck.json").exists()


def test_reports_use_fixed_decimals(tmp_path):
    rc = main(["gradcheck", "--out", str(tmp_path), "--instances", "1",
               "--seed", "1"])
    assert rc == 0
    text = (tmp_path / "gradcheck.json").read_text()
    import re
    numbers = re.findall(r"\d+\.\d+", text)
    assert numbers and all(len(n.split(".")[1]) == 6 for n in numbers)


def test_seed_env_overrides_flag(dataset, tmp_path, monkeypatch):
    out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
    monkeypatch.setenv("GEAN_SEED", "7")
    main(["train-rgp", "--manifest", str(dataset), "--out", str(out1),
          "--steps", "2", "--seed", "0"])
    main(["train-rgp", "--manifest", str(dataset), "--out", str(out2),
          "--steps", "2", "--seed", "99"])
    monkeypatch.delenv("GEAN_SEED")
    main(["train-rgp", "--manifest", str(dataset), "--out", str(out3),
          "--steps", "2", "--seed", "7"])
    b1 = (out1 / "rgp.ckpt").read_bytes()
    assert b1 == (out2 / "rgp.ckpt").read_bytes()
    assert b1 == (out3 / "rgp.ckpt").read_bytes()


def test_malformed_seed_env_exit_1(tmp_path, capsys, monkeypatch):
    for value, message in (("abc", "is not an integer"),
                           ("-5", "is negative")):
        monkeypatch.setenv("GEAN_SEED", value)
        rc = main(["make-synthetic", "--out", str(tmp_path / "d"),
                   "--clips", "1", "--frames", "1"])
        assert rc == 1
        assert ("GEAN_SEED=%r %s" % (value, message)
                in capsys.readouterr().err)
        assert not (tmp_path / "d").exists()


def _copy_dataset(dataset, tmp_path):
    root = tmp_path / "data"
    shutil.copytree(dataset.parent, root)
    return root


@pytest.mark.parametrize("mutate, message", [
    (lambda b: b[:11] + b"\x07" + b[12:], "unknown dtype code 7"),
    (lambda b: b[:-1], "payload"),
    (lambda b: b + b"\x00", "truncated parameter name"),
    (lambda b: json.dumps({"w": {"offset": 0, "dtype": 0, "dims": [1, 2]}})
     .encode() + b"\n" + bytes(8), "parameter name"),
], ids=["dtype-7", "truncated", "trailing-byte", "old-json-index"])
def test_malformed_checkpoint_exit_1(dataset, tmp_path, capsys, mutate,
                                     message):
    path = tmp_path / "rgp.ckpt"
    data.save_checkpoint(path, {"w": np.zeros((1, 2), dtype=np.float32)})
    path.write_bytes(mutate(path.read_bytes()))
    rc = main(["predict-gaze", "--manifest", str(dataset), "--rgp", str(path),
               "--out", str(tmp_path / "pred")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and str(path) in err and "byte offset" in err
    assert not (tmp_path / "pred").exists()


def _drop(key):
    def edit(manifest):
        del manifest[key]
    return edit


def _edit_clip(key, value):
    def edit(manifest):
        if value is None:
            del manifest["clips"][0][key]
        else:
            manifest["clips"][0][key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop("clips"), "field 'clips'"),
    (lambda manifest: manifest.update(clips=[]), "field 'clips' is empty"),
    (_edit_clip("n_frames", None), "clip clip000: field 'n_frames'"),
    (_edit_clip("n_frames", "3"), "clip clip000: field 'n_frames'"),
    (_edit_clip("id", None), "clip 0: field 'id'"),
    (_edit_clip("id", "clip001"), "clip 1: field 'id' 'clip001' repeats"),
    (_edit_clip("id", "../../escaped"),
     "clip 0: field 'id' '../../escaped' is not a plain file name"),
    (_edit_clip("features", {"scene": "clip000_scene.bin"}),
     "clip clip000, features: field 'motion'"),
    (_edit_clip("captions", "a caption"), "field 'captions'"),
    (_edit_clip("captions", ["a box", "..."]),
     "clip clip000: field 'captions' holds a caption with no word"),
    (_drop("frame_size"), "'frame_size'"),
    (lambda manifest: manifest.update(frame_size=[1, 1]),
     "field 'frame_size' is not 2 positive integers with at least 2"),
    (None, "is not JSON"),
], ids=["no-clips", "empty-clips", "no-n-frames", "string-n-frames", "no-id",
        "repeated-id", "path-id", "no-motion-features", "string-captions",
        "wordless-caption", "no-frame-size", "one-pixel-frame", "not-json"])
def test_malformed_manifest_exit_1(dataset, tmp_path, capsys, edit, message):
    root = _copy_dataset(dataset, tmp_path)
    path = root / "manifest.json"
    if edit is None:
        path.write_text('{"clips": [')
    else:
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    rc = main(["eval-gaze", "--manifest", str(path), "--copy-gt",
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and str(path) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, captions", [
    (["eval-captions", "--captions", "{captions}"], None),
    (["train-captioner", "--gaze", "uniform", "--steps", "2"], []),
], ids=["eval-captions-absent", "train-captioner-empty"])
def test_clip_without_captions_exit_1(dataset, tmp_path, capsys, argv,
                                      captions):
    # the captions field is optional, but these two commands score or
    # train on every clip's captions
    root = _copy_dataset(dataset, tmp_path)
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    for clip in manifest["clips"]:
        if captions is None:
            del clip["captions"]
        else:
            clip["captions"] = captions
    path.write_text(json.dumps(manifest))
    cands = tmp_path / "captions.json"
    cands.write_text('{"clip000": "a box"}')
    out = tmp_path / "o"
    rc = main([a.format(captions=cands) for a in argv]
              + ["--manifest", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "clip clip000: field 'captions' is missing or empty" in err
    assert str(path) in err
    assert not out.exists()


def test_missing_fixation_file_exit_1(dataset, tmp_path, capsys):
    root = _copy_dataset(dataset, tmp_path)
    path = root / "clip001_fixations.csv"
    path.unlink()
    rc = main(["eval-gaze", "--manifest", str(root / "manifest.json"),
               "--copy-gt", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "No such file" in err and str(path) in err


def test_train_rgp_rejects_non_positive_frame_size(dataset, tmp_path, capsys):
    root = _copy_dataset(dataset, tmp_path)
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["frame_size"] = [0, 98]
    path.write_text(json.dumps(manifest))
    out = tmp_path / "rgp"
    rc = main(["train-rgp", "--manifest", str(path), "--out", str(out),
               "--steps", "1", "--seed", "0"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "'frame_size'" in err and str(path) in err
    assert not (out / "rgp.ckpt").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace(",0.", ",abc", 1), "line 2: column 'x'"),
    (lambda text: text.replace(",y", ",z", 1), "line 2: column 'y'"),
    (lambda text: text.replace("\n0,", "\n-1,", 1), "line 2: negative frame"),
    (lambda text: text + "99,0,0.5,0.5\n",
     "fixation frame 99 is not below the clip's n_frames 4"),
], ids=["x-abc", "no-y-column", "negative-frame", "frame-past-clip"])
def test_malformed_fixation_csv_exit_1(dataset, tmp_path, capsys, edit,
                                       message):
    root = _copy_dataset(dataset, tmp_path)
    path = root / "clip000_fixations.csv"
    path.write_text(edit(path.read_text()))
    rc = main(["eval-gaze", "--manifest", str(root / "manifest.json"),
               "--copy-gt", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and str(path) in err


@pytest.mark.parametrize("meta, message", [
    ({"config": {}}, "'words'"),
    (None, "is not JSON"),
], ids=["no-words", "not-json"])
def test_malformed_decoder_meta_exit_1(dataset, tmp_path, capsys, meta,
                                       message):
    path = tmp_path / "decoder_meta.json"
    path.write_text("words: a" if meta is None else json.dumps(meta))
    ckpt = tmp_path / "decoder.ckpt"
    data.save_checkpoint(ckpt, {"w": np.zeros(1)})
    rc = main(["caption", "--manifest", str(dataset), "--decoder", str(ckpt),
               "--decoder-meta", str(path), "--gaze", "uniform",
               "--out", str(tmp_path / "caps")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and str(path) in err
    assert not (tmp_path / "caps").exists()


@pytest.mark.parametrize("text, message", [
    ("clip000: a box", "is not JSON"),
    ('["a box"]', "not an object of strings"),
    ('{"clip000": 5}', "not an object of strings"),
], ids=["not-json", "list", "number-caption"])
def test_malformed_captions_exit_1(dataset, tmp_path, capsys, text, message):
    path = tmp_path / "captions.json"
    path.write_text(text)
    rc = main(["eval-captions", "--manifest", str(dataset),
               "--captions", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and str(path) in err
    assert not (tmp_path / "o").exists()
