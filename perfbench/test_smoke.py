"""Smoke test of the benchmark itself at tiny model sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=3, extra=(), cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0.5", "--trace",
           str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170,
                          check=False)
    return proc, proc.stdout.strip().splitlines()


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def digest_of(lines):
    return next(line.split()[1] for line in lines
                if line.strip().startswith("digest "))


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc, lines = run(workload)
    assert proc.returncode == 0, proc.stderr
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result["metrics"]) == {m["name"]: m["unit"]
                                        for m in SPEC["end_to_end"]}
    for m in result["metrics"].values():
        assert m["value"] > 0
    text = "\n".join(lines)
    for printed in ("tokens_per_s:", "failed_frac: 0.000000", "machine {"):
        assert printed in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    proc, lines = run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = result_of(lines)
    assert result["correct"]
    # a wrapper site that is gone or holds another function is reported
    assert "untraced sites:" not in proc.stdout + proc.stderr
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert units(result["metrics"]) == {m["name"]: m["unit"]
                                        for m in SPEC["per_layer"]}
    # every wrapper on the workload's path fired
    expect = {
        "gaze-train": ["tensor.conv2d.calls", "tensor.conv_transpose2d.calls",
                       "tensor.backward.s", "tensor.tape_nodes",
                       "optim.adam.elements", "rgp.forward.s", "rgp.loss.s",
                       "gaze.make_training_target.s"],
        "caption-train": ["decoder.teacher_forced_loss.s",
                          "decoder.decode_step.calls", "decoder.gru_step.s",
                          "decoder.temporal_attention.s",
                          "tensor.matmul.calls",
                          "tensor.accumulate.calls", "optim.adam.s",
                          "setup.pools.self_s", "data.load_checkpoint.s"],
        "caption-infer": ["rgp.predict.s", "decoder.build_clip_pools.s",
                          "decoder.decode_greedy.s", "pools.attend_features.s",
                          "gaze.gt_eval_map.s", "gaze.gaussian_blur.calls",
                          "metrics.sim_cc.s", "metrics.sauc.s",
                          "metrics.language.s"],
    }[workload]
    for name in expect + ["data.read_feature_file.calls", "op.s"]:
        assert metrics[name] > 0, name
    if workload == "caption-infer":
        for name in ("tensor.tape_nodes", "tensor.backward.s", "optim.adam.s"):
            assert metrics[name] == 0, name
    assert metrics["data.read_ratio"] >= 1.0
    self_sum = sum(metrics["%s.self_s" % m] for m in
                   ("tensor", "optim", "rgp", "decoder", "pools", "gaze",
                    "metrics", "data", "bench"))
    assert self_sum == pytest.approx(metrics["op.s"], rel=1e-6)


@pytest.mark.parametrize("workload", ["gaze-train", "caption-infer"])
def test_planted_nan_counts_as_failed(workload):
    proc, lines = run(workload, extra=["--plant-nan"])
    assert proc.returncode == 0, proc.stderr
    result = result_of(lines)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "failed_frac: 0.000000" not in "\n".join(lines)


def test_same_seed_same_digest_and_counts():
    _, first = run("caption-train", trace=1, seed=5)
    _, second = run("caption-train", trace=1, seed=5)
    _, plain = run("caption-train", trace=0, seed=5)
    assert digest_of(first) == digest_of(second) == digest_of(plain)
    a, b = result_of(first)["metrics"], result_of(second)["metrics"]
    for name in ("tensor.tape_nodes", "tensor.accumulate.calls",
                 "decoder.decode_step.calls", "optim.adam.elements"):
        assert a[name]["value"] == b[name]["value"], name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run("gaze-train", cwd=tmp_path)
    assert proc.returncode != 0
    assert not lines or not lines[-1].startswith("{")
