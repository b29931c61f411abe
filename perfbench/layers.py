"""Per-layer metrics of a traced run, derived from the tracer's spans.

Values named after a function or span group are per operation of the
traced phase (calls, or seconds in spans of the group not enclosed by
another span of the same group).  `<module>.self_s` is the module's self
time per operation: span durations minus the time their child spans
cover; with `bench` (the benchmark's own code) they sum to `op.s`.
The `setup.*`, `data.*` and `gaze.make_training_target.s` values are per
set-up, where that work happens; set-up includes one warm-up operation.
"""

MODULES = ("tensor", "optim", "rgp", "decoder", "pools", "gaze", "metrics",
           "data", "bench")

# (name, unit, better); per operation of the traced phase
PER_OP = [
    ("tensor.conv2d.calls", "count", "lower"),
    ("tensor.conv2d.s", "s", "lower"),
    ("tensor.conv_transpose2d.calls", "count", "lower"),
    ("tensor.conv_transpose2d.s", "s", "lower"),
    ("tensor.avg_pool2d.s", "s", "lower"),
    ("tensor.conv.gflop", "GFLOP", "lower"),
    ("tensor.conv.mb", "MB", "lower"),
    ("tensor.matmul.calls", "count", "lower"),
    ("tensor.matmul.s", "s", "lower"),
    ("tensor.pointwise.calls", "count", "lower"),
    ("tensor.pointwise.s", "s", "lower"),
    ("tensor.shape.calls", "count", "lower"),
    ("tensor.shape.s", "s", "lower"),
    ("tensor.softmax.calls", "count", "lower"),
    ("tensor.softmax.s", "s", "lower"),
    ("tensor.backward.s", "s", "lower"),
    ("tensor.tape_nodes", "count", "lower"),
    ("tensor.accumulate.calls", "count", "lower"),
    ("optim.adam.s", "s", "lower"),
    ("optim.adam.elements", "count", "lower"),
    ("rgp.forward.s", "s", "lower"),
    ("rgp.loss.s", "s", "lower"),
    ("rgp.predict.s", "s", "lower"),
    ("decoder.teacher_forced_loss.s", "s", "lower"),
    ("decoder.decode_step.calls", "count", "lower"),
    ("decoder.decode_step.s", "s", "lower"),
    ("decoder.temporal_attention.s", "s", "lower"),
    ("decoder.aggregate.s", "s", "lower"),
    ("decoder.gru_step.s", "s", "lower"),
    ("decoder.decode_greedy.s", "s", "lower"),
    ("decoder.build_clip_pools.s", "s", "lower"),
    ("pools.spatial_attention.s", "s", "lower"),
    ("pools.attend_features.s", "s", "lower"),
    ("gaze.gt_eval_map.s", "s", "lower"),
    ("gaze.pred_eval_map.s", "s", "lower"),
    ("gaze.gaussian_blur.calls", "count", "lower"),
    ("gaze.gaussian_blur.s", "s", "lower"),
    ("metrics.sim_cc.s", "s", "lower"),
    ("metrics.auc_judd.s", "s", "lower"),
    ("metrics.sauc.s", "s", "lower"),
    ("metrics.language.s", "s", "lower"),
] + [("%s.self_s" % m, "s", "lower") for m in MODULES]

# (name, unit, better); per set-up
PER_SETUP = [
    ("setup.s", "s", "lower"),
] + [("setup.%s.self_s" % m, "s", "lower") for m in MODULES] + [
    ("data.read_feature_file.calls", "count", "lower"),
    ("data.read_feature_file.mb", "MB", "lower"),
    ("data.read_feature_file.s", "s", "lower"),
    ("data.read_ratio", "ratio", "lower"),
    ("data.load_checkpoint.s", "s", "lower"),
    ("data.save_checkpoint.s", "s", "lower"),
    ("data.make_synthetic.s", "s", "lower"),
    ("gaze.make_training_target.s", "s", "lower"),
]

TRACE = [
    ("op.s", "s", "lower"),
    ("trace.step_ms.p50", "ms", "lower"),
    ("trace.untraced_step_ms.p50", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.module_share", "frac", "higher"),
]

PER_LAYER = PER_OP + PER_SETUP + TRACE


def layer_metrics(tracer, ops, traced_loop, plain_loop):
    """{name: (value, unit)} for every PER_LAYER metric."""
    n = len(ops)
    per_op = tracer.aggregate(ops)
    setup = tracer.aggregate(["setup"])
    values = {name: per_op.get(name, 0.0) / n for name, _, _ in PER_OP}
    values["setup.s"] = setup["wall_s"]
    for m in MODULES:
        values["setup.%s.self_s" % m] = setup.get("%s.self_s" % m, 0.0)
    for name, _, _ in PER_SETUP[1 + len(MODULES):]:
        values[name] = setup.get(name, 0.0)
    read = setup["data.read_feature_file.bytes"]
    distinct = tracer.distinct_read_bytes()
    values["data.read_feature_file.mb"] = read / 1e6
    values["data.read_ratio"] = read / distinct if distinct else 0.0
    wall = per_op["wall_s"]
    traced_p50 = traced_loop.quantiles_ms()[0]
    plain_p50 = plain_loop.quantiles_ms()[0]
    values["op.s"] = wall / n
    values["trace.step_ms.p50"] = traced_p50
    values["trace.untraced_step_ms.p50"] = plain_p50
    values["trace.overhead_ms"] = traced_p50 - plain_p50
    values["trace.module_share"] = (wall - per_op["bench.self_s"]) / wall
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
