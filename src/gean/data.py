"""Dataset manifests, binary feature files, checkpoints, and a synthetic
desk-scale dataset generator standing in for CNN feature extraction."""

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError
from .gaze import FixationRecord, make_training_target, read_fixations, \
    write_fixations

MAGIC = b"GEAN0001"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}


# ---------------------------------------------------------------------------
# Feature files
# ---------------------------------------------------------------------------

def write_feature_file(path, tensor):
    """magic | dtype u8 | ndim u8 | dims u32 x ndim | row-major payload."""
    if np.asarray(tensor).ndim == 0:
        raise ContractError("zero-dimensional tensors are not storable")
    arr = np.ascontiguousarray(tensor)
    if arr.dtype not in _DTYPE_CODES:
        arr = arr.astype(np.float32)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
        f.write(struct.pack("<%dI" % arr.ndim, *arr.shape))
        f.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def read_feature_file(path):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise FormatError("bad magic %r in %s" % (blob[:8], path), offset=0)
    if len(blob) < 10:
        raise FormatError("truncated header in %s" % path, offset=len(blob))
    code, ndim = struct.unpack_from("<BB", blob, 8)
    if code not in _DTYPES:
        raise FormatError("unknown dtype code %d" % code, offset=8)
    if ndim == 0:
        raise FormatError("zero-dimensional tensor", offset=9)
    header_end = 10 + 4 * ndim
    if len(blob) < header_end:
        raise FormatError("truncated dims in %s" % path, offset=len(blob))
    dims = struct.unpack_from("<%dI" % ndim, blob, 10)
    if any(d == 0 for d in dims):
        raise FormatError("zero extent in dims %s" % (dims,), offset=10)
    count = int(np.prod(dims))
    dtype = _DTYPES[code]
    expected = header_end + count * dtype.itemsize
    if len(blob) != expected:
        raise FormatError("payload length %d != declared %d"
                          % (len(blob) - header_end, count * dtype.itemsize),
                          offset=header_end)
    arr = np.frombuffer(blob, dtype=dtype, count=count, offset=header_end)
    return arr.reshape(dims).copy()


# ---------------------------------------------------------------------------
# Checkpoints: one JSON index line, then concatenated payloads
# ---------------------------------------------------------------------------

def save_checkpoint(path, arrays):
    index = {}
    payloads = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype not in _DTYPE_CODES:
            arr = arr.astype(np.float32)
        blob = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
        index[name] = {"offset": offset, "dtype": int(_DTYPE_CODES[arr.dtype]),
                       "dims": list(arr.shape)}
        payloads.append(blob)
        offset += len(blob)
    with open(path, "wb") as f:
        f.write(json.dumps(index, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for blob in payloads:
            f.write(blob)


def load_checkpoint(path):
    with open(path, "rb") as f:
        header = f.readline()
        payload = f.read()
    try:
        index = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError("bad checkpoint index: %s" % e, offset=0) from None
    out = {}
    for name, meta in index.items():
        dtype = _DTYPES[meta["dtype"]]
        dims = tuple(meta["dims"])
        count = int(np.prod(dims))
        start = meta["offset"]
        end = start + count * dtype.itemsize
        if end > len(payload):
            raise FormatError("truncated payload for %r" % name,
                              offset=len(header) + start)
        out[name] = np.frombuffer(payload[start:end],
                                  dtype=dtype).reshape(dims).copy()
    return out


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def load_dataset(manifest_path):
    """Read a dataset manifest and every clip it lists, each feature file
    once; fail fast on a missing or wrongly shaped feature file.

    Returns (manifest, clips): the parsed manifest JSON and one record of
    arrays per clip.
    """
    path = Path(manifest_path)
    with open(path, encoding="utf-8") as f:
        manifest = json.load(f)
    root = path.parent
    clips = []
    for clip in manifest["clips"]:
        n = clip["n_frames"]
        if n < 1:
            raise ContractError("clip %s has no frames" % clip["id"])
        out = {"id": clip["id"], "n_frames": n}
        for channel, expect in (("scene", (n, 1024)),
                                ("motion", (n, 7, 7, 1024)),
                                ("fovea", (n, 7, 7, 1024))):
            rel = clip["features"].get(channel)
            if rel is None:
                raise ContractError("clip %s missing %s features"
                                    % (clip["id"], channel))
            arr = read_feature_file(root / rel)
            if arr.shape[0] != n or arr.shape[1:] != expect[1:]:
                raise ContractError(
                    "clip %s: %s features have shape %s, expected %s"
                    % (clip["id"], channel, arr.shape, expect))
            out[channel] = arr
        out["captions"] = clip.get("captions", [])
        out["fixations"] = {}
        if clip.get("fixations"):
            if not (root / clip["fixations"]).exists():
                raise ContractError("clip %s: fixation file missing"
                                    % clip["id"])
            out["fixations"] = read_fixations(root / clip["fixations"])
        clips.append(out)
    return manifest, clips


def gaze_training_clips(clips):
    """Attach per-frame training targets and no-fixation masks."""
    out = []
    for clip in clips:
        n = clip["n_frames"]
        targets = np.zeros((n, 49, 49))
        mask = np.zeros(n, dtype=bool)
        for fi, recs in clip["fixations"].items():
            if recs and fi < n:
                targets[fi] = make_training_target(recs)
                mask[fi] = True
        out.append({"id": clip["id"], "motion": clip["motion"],
                    "targets": targets, "mask": mask})
    return out


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------

VERBS = ["lifts", "throws", "pushes", "drops", "holds"]
NOUNS = ["box", "ball", "bottle", "book", "lamp"]
CAPTION_TEMPLATE = "SOMEONE %s the %s."

SIGNATURE_GAIN = 3.0
NOISE_SCALE = 0.1


def make_synthetic(out_dir, n_clips=8, n_frames=20, feat_dim=1024,
                   n_subjects=3, frame_size=(98, 98), seed=0):
    """Generate a desk-scale dataset with a planted moving hot region.

    Motion features carry a verb-keyed signature at the hot cell of the
    7x7 grid, fovea features a noun-keyed one; fixations track the hot
    cell; captions are built from the clip's (verb, noun) template.
    Deterministic per seed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    clips = []
    for ci in range(n_clips):
        verb = VERBS[ci % len(VERBS)]
        noun = NOUNS[(ci // len(VERBS) + ci) % len(NOUNS)]
        caption = CAPTION_TEMPLATE % (verb, noun)
        vi = VERBS.index(verb)
        ni = NOUNS.index(noun)

        # slow random walk of the hot cell over the 7x7 grid
        r, c = rng.integers(1, 6, size=2)
        path = []
        for _ in range(n_frames):
            path.append((int(r), int(c)))
            r = int(np.clip(r + rng.integers(-1, 2), 0, 6))
            c = int(np.clip(c + rng.integers(-1, 2), 0, 6))

        motion = rng.normal(0.0, NOISE_SCALE,
                            (n_frames, 7, 7, feat_dim)).astype(np.float32)
        fovea = rng.normal(0.0, NOISE_SCALE,
                           (n_frames, 7, 7, feat_dim)).astype(np.float32)
        block = feat_dim // 16
        for fi, (hr, hc) in enumerate(path):
            motion[fi, hr, hc, vi * block:(vi + 1) * block] += SIGNATURE_GAIN
            motion[fi, hr, hc, -block:] += SIGNATURE_GAIN  # generic hotness
            fovea[fi, hr, hc, ni * block:(ni + 1) * block] += SIGNATURE_GAIN
        scene_base = rng.normal(0.0, 1.0, feat_dim)
        scene = (scene_base
                 + rng.normal(0.0, NOISE_SCALE, (n_frames, feat_dim))
                 ).astype(np.float32)

        fixations = []
        for fi, (hr, hc) in enumerate(path):
            for s in range(n_subjects):
                x = (hc + 0.5) / 7.0 + rng.normal(0.0, 0.02)
                y = (hr + 0.5) / 7.0 + rng.normal(0.0, 0.02)
                fixations.append(FixationRecord(fi, s,
                                                float(np.clip(x, 0.0, 1.0)),
                                                float(np.clip(y, 0.0, 1.0))))

        cid = "clip%03d" % ci
        write_feature_file(out_dir / ("%s_scene.bin" % cid), scene)
        write_feature_file(out_dir / ("%s_motion.bin" % cid), motion)
        write_feature_file(out_dir / ("%s_fovea.bin" % cid), fovea)
        write_fixations(out_dir / ("%s_fixations.csv" % cid), fixations)
        clips.append({
            "id": cid,
            "n_frames": n_frames,
            "features": {"scene": "%s_scene.bin" % cid,
                         "motion": "%s_motion.bin" % cid,
                         "fovea": "%s_fovea.bin" % cid},
            "fixations": "%s_fixations.csv" % cid,
            "captions": [caption],
        })
    manifest = {"frame_size": list(frame_size), "stride": 5, "clips": clips}
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest_path
