"""Tokenizer, vocabulary, binary formats, manifests, and the synthetic
dataset generator."""

import json

import numpy as np
import pytest

from gean import data
from gean.data import (gaze_training_clips, load_checkpoint, load_dataset,
                       make_synthetic, read_feature_file,
                       save_checkpoint, write_feature_file)
from gean.errors import ContractError, FormatError, GeanError
from gean.text import Vocabulary, build_vocab, tokenize


# ---------------------------------------------------------------------------
# tokenizer and vocabulary
# ---------------------------------------------------------------------------

def test_tokenize_someone_caption():
    assert tokenize("SOMEONE walks away.") == ["someone", "walks", "away"]


def test_tokenize_apostrophe_split():
    assert tokenize("don't stop") == ["don", "t", "stop"]


def test_tokenize_drops_pure_punctuation():
    assert tokenize("wait... what?!") == ["wait", "what"]


def test_vocab_reserved_plus_corpus():
    vocab = build_vocab(["SOMEONE lifts the box.", "SOMEONE drops the box."])
    # someone, lifts, the, box, drops -> 5 distinct words + 3 reserved
    assert len(vocab) == 8
    assert vocab.bos == 0 and vocab.eos == 1 and vocab.unk == 2


def test_vocab_encode_decode_roundtrip():
    vocab = Vocabulary(["a", "b"])
    ids = vocab.encode(["b", "a", "zzz"])
    assert ids == [4, 3, vocab.unk]
    assert vocab.decode([3, 4]) == ["a", "b"]


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

def test_feature_file_roundtrip(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 7, 7, 16)).astype(
        np.float32)
    path = tmp_path / "t.bin"
    write_feature_file(path, arr)
    back = read_feature_file(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_feature_file_float64_roundtrip(tmp_path):
    arr = np.random.default_rng(1).standard_normal((5, 4))
    path = tmp_path / "t64.bin"
    write_feature_file(path, arr)
    np.testing.assert_array_equal(read_feature_file(path), arr)


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    write_feature_file(path, np.ones((2, 2)))
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as e:
        read_feature_file(path)
    assert e.value.offset == 0


def test_feature_file_truncated(tmp_path):
    path = tmp_path / "trunc.bin"
    write_feature_file(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_feature_file(path)


def test_feature_file_rejects_scalar(tmp_path):
    with pytest.raises(ContractError):
        write_feature_file(tmp_path / "s.bin", np.float32(1.0))
    with pytest.raises(ContractError):
        write_feature_file(tmp_path / "e.bin", np.zeros((0, 3)))
    with pytest.raises(ContractError):
        save_checkpoint(tmp_path / "e.ckpt", {"w": np.zeros((2, 0))})


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    arrays = {"w": rng.standard_normal((3, 4)).astype(np.float32),
              "b": rng.standard_normal(4)}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays)
    back = load_checkpoint(path)
    assert set(back) == {"w", "b"}
    np.testing.assert_array_equal(back["w"], arrays["w"])
    np.testing.assert_array_equal(back["b"], arrays["b"])
    assert back["w"].dtype == np.float32 and back["b"].dtype == np.float64


def test_checkpoint_deterministic_bytes(tmp_path):
    arrays = {"a": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays)
    save_checkpoint(p2, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\xff\xfe not json\n")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _old_json_index_checkpoint():
    """The retired layout: a JSON index line, then the raw payloads."""
    payload = np.arange(6, dtype="<f4").tobytes()
    index = {"w": {"offset": 0, "dtype": 0, "dims": [2, 3]}}
    return json.dumps(index).encode("utf-8") + b"\n" + payload


@pytest.mark.parametrize("mutate, message", [
    (lambda b: b[:11] + b"\x07" + b[12:], "unknown dtype code 7"),
    (lambda b: b[:-3], "payload"),
    (lambda b: b + b"\x05", "truncated parameter name"),
    (lambda b: b + b"\x01\x00v", "truncated header"),
    (lambda b: b + b, "repeated parameter 'w'"),
    (lambda b: b"\x01\x00\xff" + b[3:], "undecodable parameter name"),
    (lambda b: _old_json_index_checkpoint(), "parameter name"),
], ids=["dtype-7", "truncated", "partial-name-length", "partial-record",
        "repeated-name", "undecodable-name", "old-json-index"])
def test_checkpoint_rejects_malformed(tmp_path, mutate, message):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 3), dtype=np.float32)})
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(FormatError) as e:
        load_checkpoint(path)
    assert message in str(e.value)
    assert str(path) in str(e.value) and e.value.offset is not None


def test_checkpoint_layout_is_named_feature_records(tmp_path):
    arrays = {"b": np.arange(3.0), "a": np.ones((2, 2), dtype=np.float32)}
    save_checkpoint(tmp_path / "m.ckpt", arrays)
    blob = (tmp_path / "m.ckpt").read_bytes()
    records = []
    for name in ("a", "b"):
        write_feature_file(tmp_path / "r.bin", arrays[name])
        records.append(b"\x01\x00" + name.encode() + (tmp_path / "r.bin")
                       .read_bytes())
    assert blob == b"".join(records)


def test_feature_file_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "t.bin"
    write_feature_file(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="1 trailing bytes") as e:
        read_feature_file(path)
    assert e.value.offset == 10 + 8 + 32


def _mutants(blob, rng, n):
    """`n` seeded mutations of `blob`, in turn: one byte XORed with a
    nonzero value, a truncation, and 1 to 16 random bytes appended."""
    for i in range(n):
        if i % 3 == 0:
            out = bytearray(blob)
            out[rng.integers(len(blob))] ^= int(rng.integers(1, 256))
            yield bytes(out)
        elif i % 3 == 1:
            yield blob[:rng.integers(len(blob))]
        else:
            size = int(rng.integers(1, 17))
            yield blob + rng.integers(0, 256, size, dtype=np.uint8).tobytes()


def test_readers_survive_byte_mutations(tmp_path):
    """Every mutated feature file, checkpoint and manifest either loads or
    raises a GeanError (a manifest may also name a missing file, which the
    command line reports with exit 1 as well)."""
    rng = np.random.default_rng(0)
    manifest = make_synthetic(tmp_path, n_clips=1, n_frames=1, seed=0)
    feature = tmp_path / "f.bin"
    write_feature_file(feature, rng.standard_normal((2, 3)).astype(np.float32))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, {"w": rng.standard_normal((2, 3)),
                           "b_long_name": np.ones(4, dtype=np.float32),
                           "k": np.zeros((1, 2, 2), dtype=np.float32)})
    cases = [(feature, read_feature_file, GeanError),
             (ckpt, load_checkpoint, GeanError),
             (manifest, load_dataset, (GeanError, FileNotFoundError))]
    outcomes = {}
    for path, load, allowed in cases:
        blob = path.read_bytes()
        for mutant in _mutants(blob, rng, 3000):
            path.write_bytes(mutant)
            try:
                load(path)
                outcome = "loaded"
            except allowed as e:
                outcome = type(e).__name__
            outcomes.setdefault(path.name, set()).add(outcome)
        path.write_bytes(blob)
    for name, seen in outcomes.items():
        assert "loaded" in seen and len(seen) > 1, (name, seen)


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    manifest_path = make_synthetic(out, n_clips=3, n_frames=6, feat_dim=64,
                                   seed=0)
    return manifest_path


def test_synthetic_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    pa = make_synthetic(a, n_clips=2, n_frames=4, feat_dim=32, seed=5)
    pb = make_synthetic(b, n_clips=2, n_frames=4, feat_dim=32, seed=5)
    for rel in ("manifest.json", "clip000_motion.bin", "clip001_scene.bin",
                "clip000_fixations.csv"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    assert pa.name == pb.name


def test_synthetic_counts(synth):
    manifest = json.loads(synth.read_text())
    assert len(manifest["clips"]) == 3
    assert all(c["n_frames"] == 6 for c in manifest["clips"])


def test_synthetic_manifest_loads(tmp_path):
    # full-size features so the manifest validator accepts them
    mp = make_synthetic(tmp_path, n_clips=1, n_frames=2, seed=1)
    manifest, clips = load_dataset(mp)
    assert clips[0]["motion"].shape == (2, 7, 7, 1024)
    assert clips[0]["scene"].shape == (2, 1024)
    assert len(clips[0]["captions"]) == 1


def test_synthetic_gaze_targets_hit_planted_region(tmp_path):
    mp = make_synthetic(tmp_path, n_clips=4, n_frames=10, seed=2)
    manifest, clips = load_dataset(mp)
    train = gaze_training_clips(clips)
    hits = total = 0
    for raw, clip in zip(clips, train):
        for fi, (gt, keep) in enumerate(zip(clip["targets"], clip["mask"])):
            if not keep:
                continue
            total += 1
            # fixations jitter tightly around the planted cell's center, so
            # their mean recovers the cell of the hot 7x7 block
            recs = raw["fixations"][fi]
            hr = min(int(np.mean([r.y for r in recs]) * 7), 6)
            hc = min(int(np.mean([r.x for r in recs]) * 7), 6)
            r, c = np.unravel_index(gt.argmax(), gt.shape)
            hits += int(r // 7 == hr and c // 7 == hc)
    assert total == 40
    assert hits / total >= 0.95


def test_manifest_shape_validation(tmp_path):
    mp = make_synthetic(tmp_path, n_clips=1, n_frames=2, seed=3)
    manifest = json.loads(mp.read_text())
    # corrupt the scene feature file with wrong shape
    bad = np.zeros((2, 10), dtype=np.float32)
    write_feature_file(tmp_path / manifest["clips"][0]["features"]["scene"],
                       bad)
    with pytest.raises(ContractError):
        load_dataset(mp)


def test_dataset_reads_each_feature_file_once(tmp_path, monkeypatch):
    mp = make_synthetic(tmp_path, n_clips=2, n_frames=2, seed=4)
    reads = []

    def counting_read(path):
        reads.append(path.name)
        return read_feature_file(path)

    monkeypatch.setattr(data, "read_feature_file", counting_read)
    load_dataset(mp)
    assert sorted(reads) == sorted(p.name for p in tmp_path.glob("*.bin"))
