"""Shared pytest configuration: prints one pass/fail line per
acceptance criterion at the end of the run."""

CRITERIA = {
    "test_full_scale_substitution": "full-scale results substituted by property-based acceptance",
    "test_gradient_suite": "gradient suite: all primitives and composite steps <= 1e-4",
    "test_distribution_invariants": "distribution invariants over 1000 forward passes",
    "test_metric_oracle_suite": "metric oracle suite incl. random-saliency AUC 0.500 +/- 0.02",
    "test_spatial_attention_closed_form": "spatial-attention closed form 1/19 and 3/152",
    "test_rgp_overfit": "gaze-predictor overfit within 0.05 nats of target entropy",
    "test_captioner_overfit": "captioner overfit to BLEU-1 = 1.0 with frozen gaze model",
    "test_ablation_direction": "ablation: learned gaze >= random and peripheral baselines",
    "test_determinism": "byte-identical reports and checkpoints per seed",
    "test_determinism_across_processes": "byte-identical across processes at one BLAS thread; checkpoints close across thread counts",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "location", (None, None, ""))[2]
            base = name.split("[")[0]
            if base in CRITERIA and "test_acceptance" in rep.location[0]:
                verdict = "PASS" if status == "passed" else "FAIL"
                lines.append("%s  %s" % (verdict, CRITERIA[base]))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(lines, key=lambda s: s.split(None, 1)[1]):
            terminalreporter.write_line(line)
