"""In-memory span tracer that wraps gean's public functions from outside.

A span records (operation id, span id, parent span id, name, start, end).
Spans are kept in a list while the run goes and written out once at the
end.  The wrappers are installed where each caller looks a name up: the
`rgp`, `decoder`, `data` and `metrics` modules import names with
`from .x import y`, so replacing only the defining module's attribute would
miss their calls.  Every site is checked to hold the expected function
before it is replaced; a site that does not is reported and skipped.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


def _conv_work(x, kernel, stride=1, pad=0, transpose=False):
    """Forward (GFLOP, MB of operands and result) of one convolution."""
    xs = x.shape
    n, h, w, cin = (1,) + tuple(xs) if len(xs) == 3 else tuple(xs)
    kh, kw = kernel.shape[:2]
    if transpose:
        cout = kernel.shape[2]
        ho = (h - 1) * stride + kh - 2 * pad
        wo = (w - 1) * stride + kw - 2 * pad
        flop = 2.0 * n * h * w * cin * kh * kw * cout
    else:
        cout = kernel.shape[3]
        ho = (h + 2 * pad - kh) // stride + 1
        wo = (w + 2 * pad - kw) // stride + 1
        flop = 2.0 * n * ho * wo * kh * kw * cin * cout
    # Tensor.data is an array and ndarray.data a buffer; both have itemsize
    itemsize = x.data.itemsize
    elems = n * h * w * cin + kh * kw * cin * cout + n * ho * wo * cout
    return flop / 1e9, elems * itemsize / 1e6


def _measure_conv(counts, args, kwargs):
    gflop, mb = _conv_work(*args, **kwargs)
    counts["tensor.conv.gflop"] += gflop
    counts["tensor.conv.mb"] += mb


def _measure_conv_t(counts, args, kwargs):
    gflop, mb = _conv_work(*args, transpose=True, **kwargs)
    counts["tensor.conv.gflop"] += gflop
    counts["tensor.conv.mb"] += mb


def _measure_adam(counts, args, kwargs):
    params = args[1] if len(args) > 1 else kwargs["params"]
    counts["optim.adam.elements"] += sum(p.data.size for p in params)


# Span name -> its function as "module:attr" in the defining module, then
# the modules that import it by name and call it through their own global.
SPANS = {
    "tensor.conv2d": ("gean.tensor:conv2d",),
    "tensor.conv_transpose2d": ("gean.tensor:conv_transpose2d",),
    "tensor.avg_pool2d": ("gean.tensor:avg_pool2d",),
    "tensor.backward": ("gean.tensor:Tape.backward",),
    "optim.adam": ("gean.optim:AdamState.step",),
    "optim.init_xavier": ("gean.optim:init_xavier", "gean.rgp",
                          "gean.decoder"),
    "optim.init_orthogonal": ("gean.optim:init_orthogonal", "gean.decoder"),
    "rgp.forward": ("gean.rgp:rgp_forward_scores",),
    "rgp.loss": ("gean.rgp:rgp_loss_from_scores",),
    "rgp.predict": ("gean.rgp:predict_gaze", "gean.decoder"),
    "rgp.create": ("gean.rgp:RgpParams.create",),
    "decoder.teacher_forced_loss": ("gean.decoder:teacher_forced_loss",),
    "decoder.decode_step": ("gean.decoder:decode_step",),
    "decoder.temporal_attention": ("gean.decoder:temporal_attention",),
    "decoder.aggregate": ("gean.decoder:aggregate",),
    "decoder.gru_step": ("gean.decoder:gru_step",),
    "decoder.decode_greedy": ("gean.decoder:decode_greedy",),
    "decoder.build_clip_pools": ("gean.decoder:build_clip_pools",),
    "decoder.create": ("gean.decoder:DecoderParams.create",),
    "pools.spatial_attention": ("gean.pools:spatial_attention",
                                "gean.decoder"),
    "pools.attend_features": ("gean.pools:attend_features", "gean.decoder"),
    "pools.build_pool": ("gean.pools:build_pool", "gean.decoder"),
    "gaze.gt_eval_map": ("gean.gaze:gt_eval_map", "gean.metrics"),
    "gaze.pred_eval_map": ("gean.gaze:pred_eval_map", "gean.metrics"),
    "gaze.gaussian_blur": ("gean.gaze:gaussian_blur", "gean.pools"),
    "gaze.make_training_target": ("gean.gaze:make_training_target",
                                  "gean.data"),
    "gaze.fixation_pixels": ("gean.gaze:fixation_pixels", "gean.metrics"),
    "gaze.mirror_augment": ("gean.gaze:mirror_augment", "gean.rgp"),
    "metrics.sim": ("gean.metrics:sim",),
    "metrics.cc": ("gean.metrics:cc",),
    "metrics.auc_judd": ("gean.metrics:auc_judd",),
    "metrics.sauc": ("gean.metrics:sauc",),
    "metrics.bleu": ("gean.metrics:bleu",),
    "metrics.rouge_l": ("gean.metrics:rouge_l",),
    "data.read_feature_file": ("gean.data:read_feature_file",),
    "data.load_checkpoint": ("gean.data:load_checkpoint",),
    "data.save_checkpoint": ("gean.data:save_checkpoint",),
    "data.make_synthetic": ("gean.data:make_synthetic",),
    "data.load_dataset": ("gean.data:load_dataset",),
    "data.gaze_training_clips": ("gean.data:gaze_training_clips",),
}

# Spans reported together under one group name.
GROUPS = {
    "optim.init_xavier": "optim.init",
    "optim.init_orthogonal": "optim.init",
    "metrics.sim": "metrics.sim_cc",
    "metrics.cc": "metrics.sim_cc",
    "metrics.bleu": "metrics.language",
    "metrics.rouge_l": "metrics.language",
}
TENSOR_GROUPS = {
    "matmul": ("matmul",),
    "pointwise": ("add", "mul", "sigmoid", "tanh", "stanh", "log", "dropout",
                  "tensor_sum"),
    "shape": ("reshape", "transpose", "concat", "stack", "narrow", "index",
              "column"),
    "softmax": ("softmax", "log_softmax"),
}
for _group, _names in TENSOR_GROUPS.items():
    for _name in _names:
        SPANS["tensor." + _name] = ("gean.tensor:" + _name,)
        GROUPS["tensor." + _name] = "tensor." + _group

METERS = {"tensor.conv2d": _measure_conv,
          "tensor.conv_transpose2d": _measure_conv_t,
          "optim.adam": _measure_adam}


def _sites(spec):
    """Every 'module:attr' site of a SPANS entry, the defining one first."""
    defining, importers = spec[0], spec[1:]
    attr = defining.split(":")[1]
    return [defining] + ["%s:%s" % (m, attr) for m in importers]


# Wrapped without a span: only the number of calls is kept.
COUNTERS = {
    "tensor.tape_nodes": "gean.tensor:Tape.record",
    "tensor.accumulate.calls": "gean.tensor:Tensor.accumulate",
}


def _resolve(site):
    """(owner object, attribute name) of a 'module:Class.attr' site."""
    modname, path = site.split(":")
    owner = importlib.import_module(modname)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _raw(owner, attr):
    """The stored attribute, descriptors (classmethod) included."""
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


class Tracer:
    """Records spans and counters for the operation that is current."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # op id -> counter name -> value
        self.op = None
        self.missing = []
        self._stack = []
        self._next = 0
        self._reads = {}  # path -> bytes, for the distinct-file read ratio
        self._sites = self._plan()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, meter):
        stack = self._stack
        spans = self.spans
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            if meter is not None:
                meter(counts[self.op], args, kwargs)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((self.op, sid, parent, name, t0, t1))
        return traced

    def _read_wrapper(self, fn):
        """read_feature_file: also count MB read and MB of distinct files."""
        inner = self._span_wrapper(fn, "data.read_feature_file", None)

        @functools.wraps(fn)
        def traced(path):
            arr = inner(path)
            self.counts[self.op]["data.read_feature_file.bytes"] += arr.nbytes
            self._reads[str(path)] = arr.nbytes
            return arr
        return traced

    def _count_wrapper(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[self.op][key] += 1
            return fn(*args, **kwargs)
        return counted

    def distinct_read_bytes(self):
        return sum(self._reads.values())

    def _plan(self):
        """(owner, attribute, original, wrapper) for every site that holds
        the expected function; the others are reported and left alone."""
        plan = []
        for name, spec in SPANS.items():
            meter = METERS.get(name)
            plan.extend((site, name, meter) for site in _sites(spec))
        plan.extend((site, key, "count") for key, site in COUNTERS.items())
        originals = {}
        out = []
        for site, name, kind in plan:
            owner, attr = _resolve(site)
            raw = _raw(owner, attr)
            target = raw.__func__ if isinstance(raw, classmethod) else raw
            expect = originals.setdefault(name, target)
            if target is None or target is not expect:
                self.missing.append(site)
                print("trace: site %s not found or not the expected function; "
                      "its calls are not traced" % site, file=sys.stderr)
                continue
            if kind == "count":
                wrapped = self._count_wrapper(target, name)
            elif name == "data.read_feature_file":
                wrapped = self._read_wrapper(target)
            else:
                wrapped = self._span_wrapper(target, name, kind)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            out.append((owner, attr, raw, wrapped))
        return out

    def install(self):
        """Replace every site with its wrapper; undo with `uninstall`."""
        for owner, attr, _, wrapped in self._sites:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw, _ in self._sites:
            setattr(owner, attr, raw)

    # -- spans opened by the benchmark itself -------------------------------

    def run(self, op, name, fn, *args):
        """Run fn(*args) as the root span `name` of operation `op`."""
        self.op = op
        return self._span_wrapper(fn, name, None)(*args)

    # -- output -------------------------------------------------------------

    def aggregate(self, ops):
        """Totals over the spans and counters of the operation ids `ops`.

        Returns {key: value}: for each span group `<group>.calls` and
        `<group>.s` (time in spans of the group that no span of the same
        group encloses), `<module>.self_s` (span duration minus the time
        its child spans cover, summed per module), `wall_s` (root spans),
        and every counter.
        """
        ops = set(ops)
        info = {}
        child = Counter()
        for op, sid, parent, name, t0, t1 in self.spans:
            if op in ops:
                info[sid] = (parent, name, t1 - t0)
                child[parent] += t1 - t0
        out = Counter()
        for sid, (parent, name, dur) in info.items():
            group = GROUPS.get(name, name)
            out[group + ".calls"] += 1
            anc = parent
            while anc in info:
                if GROUPS.get(info[anc][1], info[anc][1]) == group:
                    break
                anc = info[anc][0]
            else:
                out[group + ".s"] += dur
            out[name.split(".")[0] + ".self_s"] += dur - child[sid]
            if parent == -1:
                out["wall_s"] += dur
        for op in ops:
            out.update(self.counts.get(op, {}))
        return out

    def write(self, path):
        """Write every span as one tab-separated line, times in µs."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            f.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for op, sid, parent, name, t0, t1 in sorted(self.spans,
                                                        key=lambda s: s[1]):
                f.write("%s\t%d\t%d\t%s\t%.1f\t%.1f\n"
                        % (op, sid, parent, name, (t0 - base) * 1e6,
                           (t1 - base) * 1e6))
