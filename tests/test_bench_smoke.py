"""Smoke test of the benchmark: one short run of each workload must pass the
benchmark's own correctness checks, which recompute the logged kinematics,
clearances and integration of playback, and the training loss and forecast
report of train-eval, apart from the program."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["playback-stir", "playback-handover", "playback-tableset",
                                      "train-eval"])
def test_bench_workload_reports_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
        check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, "\n".join(lines)
    assert result["failed"] == 0


def test_traced_train_eval_reports_correct():
    # the traced run wraps program functions by the names they are bound to
    # (bench/spans.py), so a renamed binding fails here; the whole-set passes
    # and the training step, batch draw and episode decoding must show up in
    # the spans
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "train-eval",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
        check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, "\n".join(lines)
    assert result["failed"] == 0
    for name in ("forecast.val_loss.ms", "metrics.evaluate_forecaster.ms",
                 "forecast.WindowSet.gather.ms", "forecast.batch_loss_and_grad.ms",
                 "forecast.sample_batch.ms", "motion.load_episode.ms"):
        assert result["metrics"][name]["value"] > 0, name


def test_traced_playback_reports_correct():
    # the traced playback finds the planner's scoring and stepping under the
    # names bench/spans.py wraps: a refactor that scored plans through an
    # untraced name would read 0 here and zero every planner and cost layer.
    # fk_batch runs once per MPPI iteration (2 a tick) plus once per
    # playback for the logged kinematics, so 2 + 1/ticks calls a tick
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "playback-handover",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
        check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, "\n".join(lines)
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["cost.total_cost_batch.ms"] > 0
    assert metrics["cost.collision_terms_batch.calls_per_tick"] == 2
    assert metrics["robot.step.calls_per_tick"] == 1
    assert metrics["cost.grasp_pose.calls_per_tick"] > 0
    assert 2 < metrics["robot.fk_batch.calls_per_tick"] < 3
