"""Dataset manifests, binary feature files, checkpoints, and a synthetic
desk-scale dataset generator standing in for CNN feature extraction.

Arrays travel between stages in one binary record,

    magic "GEAN0001" | dtype u8 (0 float32, 1 float64) | ndim u8 |
    dims u32 x ndim | row-major little-endian payload,

parsed by one reader. A feature file is exactly one record. A checkpoint is,
per parameter in name order, a u16 name length, the utf-8 name and a record.
Every malformed file, one holding a NaN, an infinity or a float64 value
beyond float32's range too, raises `FormatError` naming the path and byte
offset.
"""

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, GeanError
from .gaze import GRID, FixationRecord, make_training_target, \
    read_fixations, write_fixations
from .text import tokenize

# Every clip's motion and fovea features are FEATURE_GRID x FEATURE_GRID
# cells of FEATURE_DIM channels per frame; scene features one such vector.
FEATURE_GRID = 7
FEATURE_DIM = 1024

MAGIC = b"GEAN0001"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}
_FLOAT32_MAX = float(np.finfo(np.float32).max)


# ---------------------------------------------------------------------------
# Array records: a feature file is one record, a checkpoint one per parameter
# ---------------------------------------------------------------------------

def _write_record(f, tensor):
    """magic | dtype u8 | ndim u8 | dims u32 x ndim | row-major payload."""
    if np.ndim(tensor) == 0 or 0 in np.shape(tensor):
        raise GeanError("cannot store an empty or 0-d tensor")
    arr = np.ascontiguousarray(tensor)
    if arr.dtype not in _DTYPE_CODES:
        arr = arr.astype(np.float32)
    f.write(MAGIC)
    f.write(struct.pack("<BB%dI" % arr.ndim, _DTYPE_CODES[arr.dtype],
                        arr.ndim, *arr.shape))
    f.write(memoryview(arr.astype(arr.dtype.newbyteorder("<"), copy=False)))


def _read_record(f, size, path):
    """Read the record at `f`'s position of the open file `path`, `size`
    bytes long; return (array, offset just past the payload). The payload is
    read straight into the array, once its declared end is known to lie
    inside the file."""
    pos = f.tell()
    if size < pos + 10:
        raise FormatError("truncated header in %s" % path, offset=size)
    head = f.read(10)
    if head[:8] != MAGIC:
        raise FormatError("bad magic %r in %s" % (head[:8], path),
                          offset=pos)
    code, ndim = head[8], head[9]
    if code not in _DTYPES:
        raise FormatError("unknown dtype code %d in %s" % (code, path),
                          offset=pos + 8)
    if ndim == 0:
        raise FormatError("zero-dimensional tensor in %s" % path,
                          offset=pos + 9)
    start = pos + 10 + 4 * ndim
    if size < start:
        raise FormatError("truncated dims in %s" % path, offset=size)
    dims = struct.unpack("<%dI" % ndim, f.read(4 * ndim))
    if 0 in dims:
        raise FormatError("zero extent in dims %s in %s" % (dims, path),
                          offset=pos + 10)
    count = math.prod(dims)
    end = start + count * _DTYPES[code].itemsize
    if size < end:
        raise FormatError("payload of %s ends at %d, declared to end at %d"
                          % (path, size, end), offset=start)
    arr = np.empty(count, dtype=_DTYPES[code])
    f.readinto(memoryview(arr).cast("B"))
    # min and max carry any NaN or infinity: a finite record needs no mask
    lo, hi = arr.min(), arr.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        i = int(np.argmin(np.isfinite(arr)))
        raise FormatError("non-finite value %s at flat index %d in %s"
                          % (arr[i], i, path),
                          offset=start + i * arr.itemsize)
    if max(-lo, hi) > _FLOAT32_MAX:  # the models compute in float32
        i = int(np.argmax(arr) if hi > _FLOAT32_MAX else np.argmin(arr))
        raise FormatError("value %s at flat index %d in %s does not fit "
                          "float32" % (arr[i], i, path),
                          offset=start + i * arr.itemsize)
    return arr.reshape(dims), end


def write_feature_file(path, tensor):
    with open(path, "wb") as f:
        _write_record(f, tensor)


def read_feature_file(path):
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        arr, end = _read_record(f, size, path)
    if end != size:
        raise FormatError("%d trailing bytes in %s" % (size - end, path),
                          offset=end)
    return arr


def save_checkpoint(path, arrays):
    """Per parameter, in name order: u16 name length | utf-8 name | record."""
    with open(path, "wb") as f:
        for name in sorted(arrays):
            raw = name.encode("utf-8")
            f.write(len(raw).to_bytes(2, "little") + raw)
            _write_record(f, arrays[name])


def load_checkpoint(path):
    out = {}
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        pos = 0
        while pos < size:
            name_end = pos + 2 + int.from_bytes(f.read(2), "little")
            if size < name_end:
                raise FormatError("truncated parameter name in %s" % path,
                                  offset=pos)
            try:
                name = f.read(name_end - pos - 2).decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("undecodable parameter name in %s" % path,
                                  offset=pos + 2) from None
            if name in out:
                raise FormatError("repeated parameter %r in %s" % (name, path),
                                  offset=pos + 2)
            out[name], pos = _read_record(f, size, path)
    return out


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def load_json(path, what):
    """Parse the JSON file at `path`; a file that is not JSON raises
    GeanError naming it as `what`."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise GeanError("%s %s is not JSON: %s"
                            % (what, path, e)) from None


def _field(obj, key, kind, where, optional=False):
    """`obj[key]` if it is a `kind` (not a bool); an absent optional field
    reads as None; anything else raises GeanError naming `where`."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if value is None and optional:
        return None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise GeanError("%s: field %r is missing or not %s"
                        % (where, key, kind.__name__))
    return value


def load_dataset(manifest_path):
    """Read a dataset manifest and every clip it lists, each feature file
    once; fail fast on a malformed manifest field (`frame_size` is required)
    or a missing or wrongly shaped feature file.

    Returns (manifest, clips): the parsed manifest JSON and one record of
    arrays per clip.
    """
    path = Path(manifest_path)
    manifest = load_json(path, "manifest")
    root = path.parent
    size = _field(manifest, "frame_size", list, "manifest %s" % path)
    if (len(size) != 2 or not all(type(v) is int and v > 0 for v in size)
            or size[0] * size[1] < 2):  # a min-max map needs 2 pixels
        raise GeanError("manifest %s: field 'frame_size' is not 2 positive "
                        "integers with at least 2 pixels in all" % path)
    listed = _field(manifest, "clips", list, "manifest %s" % path)
    if not listed:
        raise GeanError("manifest %s: field 'clips' is empty" % path)
    clips, ids = [], set()
    for i, clip in enumerate(listed):
        cid = _field(clip, "id", str, "manifest %s, clip %d" % (path, i))
        if cid in ids or Path(cid).name != cid:  # ids name output files
            raise GeanError("manifest %s, clip %d: field 'id' %r %s" % (
                path, i, cid, "repeats" if cid in ids else
                "is not a plain file name"))
        ids.add(cid)
        where = "manifest %s, clip %s" % (path, cid)
        n = _field(clip, "n_frames", int, where)
        if n < 1:
            raise GeanError("%s has no frames" % where)
        features = _field(clip, "features", dict, where)
        out = {"id": cid, "n_frames": n}
        cells = (n, FEATURE_GRID, FEATURE_GRID, FEATURE_DIM)
        for channel, expect in (("scene", (n, FEATURE_DIM)),
                                ("motion", cells), ("fovea", cells)):
            rel = _field(features, channel, str, where + ", features")
            arr = read_feature_file(root / rel)
            if arr.shape[0] != n or arr.shape[1:] != expect[1:]:
                raise GeanError("%s: %s features have shape %s, expected %s"
                                % (where, channel, arr.shape, expect))
            out[channel] = arr
        captions = _field(clip, "captions", list, where, optional=True) or []
        if not all(isinstance(c, str) for c in captions):
            raise GeanError("%s: field 'captions' holds a non-string" % where)
        if not all(map(tokenize, captions)):
            raise GeanError("%s: field 'captions' holds a caption with no "
                            "word" % where)
        out["captions"] = captions
        out["fixations"] = {}
        rel = _field(clip, "fixations", str, where, optional=True)
        if rel:
            csv_path = root / rel
            out["fixations"] = read_fixations(csv_path)
            last = max(out["fixations"], default=0)
            if last >= n:
                raise GeanError("%s: fixation frame %d is not below the "
                                "clip's n_frames %d" % (csv_path, last, n))
        clips.append(out)
    return manifest, clips


def gaze_training_clips(clips):
    """Attach per-frame training targets and no-fixation masks."""
    out = []
    for clip in clips:
        n = clip["n_frames"]
        targets = np.zeros((n, GRID, GRID))
        mask = np.zeros(n, dtype=bool)
        for fi, recs in clip["fixations"].items():
            if recs:
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
N_SUBJECTS = 3  # fixation records per frame, one per subject
FRAME_SIZE = (98, 98)  # the manifest's frame height and width in pixels


def make_synthetic(out_dir, n_clips=8, n_frames=20, seed=0):
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
        last = FEATURE_GRID - 1
        r, c = rng.integers(1, last, size=2)
        path = []
        for _ in range(n_frames):
            path.append((int(r), int(c)))
            r = int(np.clip(r + rng.integers(-1, 2), 0, last))
            c = int(np.clip(c + rng.integers(-1, 2), 0, last))

        cells = (n_frames, FEATURE_GRID, FEATURE_GRID, FEATURE_DIM)
        motion = rng.normal(0.0, NOISE_SCALE, cells).astype(np.float32)
        fovea = rng.normal(0.0, NOISE_SCALE, cells).astype(np.float32)
        block = FEATURE_DIM // 16
        for fi, (hr, hc) in enumerate(path):
            motion[fi, hr, hc, vi * block:(vi + 1) * block] += SIGNATURE_GAIN
            motion[fi, hr, hc, -block:] += SIGNATURE_GAIN  # generic hotness
            fovea[fi, hr, hc, ni * block:(ni + 1) * block] += SIGNATURE_GAIN
        scene_base = rng.normal(0.0, 1.0, FEATURE_DIM)
        scene = (scene_base
                 + rng.normal(0.0, NOISE_SCALE, (n_frames, FEATURE_DIM))
                 ).astype(np.float32)

        fixations = []
        for fi, (hr, hc) in enumerate(path):
            for s in range(N_SUBJECTS):
                x = (hc + 0.5) / FEATURE_GRID + rng.normal(0.0, 0.02)
                y = (hr + 0.5) / FEATURE_GRID + rng.normal(0.0, 0.02)
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
    manifest = {"frame_size": list(FRAME_SIZE), "clips": clips}
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest_path
