"""The benchmark's correctness checks accept real program outputs and reject
each kind of perturbed output.

The outputs come from short runs of the real program: playbacks with a
small MPPI sample count, and a small gen / train / eval-forecast pipeline.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from costcast import cli, datagen, forecast, planner  # noqa: E402
from costcast.cost import CostWeights  # noqa: E402
from costcast.robot import ArmModel  # noqa: E402

ARM = ArmModel()
WEIGHTS = CostWeights()
DT = 0.04
FAST_MPPI = planner.MppiConfig(n_samples=4, n_iterations=1, seed=0)


def _playback(task, episode_s, seed):
    episode = datagen.GENERATORS[task](
        datagen.GenConfig(seed=seed, episode_len_s=episode_s, n_interactions=1))
    spec = planner.build_task_spec(episode, ARM, dt=DT)
    logs = {name: planner.run_episode(episode, forecast.make_forecaster(name), spec, WEIGHTS,
                                      FAST_MPPI, model=ARM, model_name=name)
            for name in ("fut", "cur")}
    return episode, spec, logs


@pytest.fixture(scope="module")
def stir():
    return _playback("stir", 6.0, seed=1)


@pytest.fixture(scope="module")
def handover():
    return _playback("handover", 8.0, seed=2)


def _problems(kind, problems):
    return [p for p in problems if p.startswith(kind + ":")]


def _perturb(logs, name, key, fn, index=40):
    logs = copy.deepcopy(logs)
    rec = logs[name].records[index]
    rec[key] = fn(rec[key], rec["step"])
    return logs


def test_playback_checks_accept_real_outputs(stir, handover):
    for episode, spec, logs in (stir, handover):
        assert checks.check_playback(episode, spec.rest_config, logs, ARM, DT) == []
    assert checks.check_stir(stir[0], stir[2], WEIGHTS.eps_pot, DT) == []
    assert checks.check_handover(handover[0], handover[2]) == []


@pytest.mark.parametrize("key, kind, fn", [
    ("ee_pos", "ee_pos", lambda v, t: [v[0] + 1e-3, v[1], v[2]]),
    ("min_sep", "min_sep", lambda v, t: v + 1e-3),
    ("q", "integration", lambda v, t: [v[0] + 1e-6] + v[1:]),
    ("qd", "integration", lambda v, t: [v[0] + 1e-6] + v[1:]),
    ("q", "limits", lambda v, t: [ARM.joint_limits[0][1] + 0.01] + v[1:]),
    ("cost", "cost", lambda v, t: -1e-6),
    ("cost", "cost", lambda v, t: float("nan")),
])
def test_playback_checks_reject_perturbed_records(stir, key, kind, fn):
    episode, spec, logs = stir
    bad = _perturb(logs, "cur", key, fn)
    assert _problems(kind, checks.check_playback(episode, spec.rest_config, bad, ARM, DT))


def test_tick_count_check_rejects_a_dropped_tick(stir):
    episode, spec, logs = stir
    bad = copy.deepcopy(logs)
    del bad["fut"].records[-1]
    assert _problems("ticks", checks.check_playback(episode, spec.rest_config, bad, ARM, DT))


def test_stir_check_rejects_an_oracle_one_frame_late(stir):
    episode, _spec, logs = stir
    bad = copy.deepcopy(logs)
    flags = [r["branch_active"] for r in bad["fut"].records]
    for r, f in zip(bad["fut"].records, [flags[0]] + flags[:-1]):
        r["branch_active"] = f
    problems = checks.check_stir(episode, bad, WEIGHTS.eps_pot, DT)
    assert _problems("branch", problems)


def test_stir_check_rejects_a_missed_incursion(stir):
    episode, _spec, logs = stir
    bad = copy.deepcopy(logs)
    for name in ("fut", "cur"):
        for r in bad[name].records:
            r["gt_near_pot"] = False
    assert _problems("gt_near_pot", checks.check_stir(episode, bad, WEIGHTS.eps_pot, DT))


def test_handover_check_rejects_a_forecast_wrist_one_frame_late(handover):
    episode, _spec, logs = handover
    late = lambda v, t: episode.frames[t + 26, 1].tolist()  # noqa: E731
    # pick a tick where the wrist moves, so one frame makes a difference
    moving = next(i for i, r in enumerate(logs["fut"].records)
                  if np.linalg.norm(episode.frames[r["step"] + 26, 1]
                                    - episode.frames[r["step"] + 25, 1]) > 1e-3)
    bad = _perturb(logs, "fut", "forecast_final_wrist", late, index=moving)
    assert _problems("forecast_final_wrist", checks.check_handover(episode, bad))


def test_handover_check_rejects_a_wrong_in_hand_flag(handover):
    episode, _spec, logs = handover
    bad = _perturb(logs, "cur", "object_in_hand", lambda v, t: not v)
    assert _problems("object_in_hand", checks.check_handover(episode, bad))


def test_handover_check_rejects_a_missed_goal(handover):
    episode, _spec, logs = handover
    bad = copy.deepcopy(logs)
    for r in bad["fut"].records:
        r["forecast_final_wrist"] = [0.0, 0.0, 0.0]
    assert _problems("correct_goal", checks.check_handover(episode, bad))


# --- train-eval ------------------------------------------------------------

SEED = 4
EPOCHS = 1


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run directory of a small gen / train / eval-forecast pipeline, plus the
    number of batches the training ran."""
    root = tmp_path_factory.mktemp("train-eval")
    config = root / "run.json"
    config.write_text(json.dumps({
        "seed": SEED, "out_root": str(root / "runs"),
        "counts": {"stir": 10, "handover": 10, "tableset": 10},
        "gen": {"episode_len_s": 10.5, "n_interactions": 1},
        "train": {"epochs": EPOCHS}, "preset": "manicast", "models": ["cur", "cvm", "manicast"]}))
    calls = []
    original = forecast.sample_batch
    forecast.sample_batch = lambda *a, **k: calls.append(1) or original(*a, **k)
    try:
        for command in ("gen", "train", "eval-forecast"):
            assert cli.main([command, "--config", str(config)]) == 0
    finally:
        forecast.sample_batch = original
    return cli.RunConfig.load(config).run_dir(), len(calls)


def _check(run_dir, batches):
    return checks.check_train_eval(run_dir, SEED, "manicast", 1.0, ("cur", "cvm", "manicast"),
                                   64, EPOCHS, [batches])


def _edited_copy(pipeline, tmp_path, name, edit):
    run_dir, _batches = pipeline
    copy_dir = tmp_path / "run"
    shutil.copytree(run_dir, copy_dir)
    path = copy_dir / name
    path.write_text(edit(path.read_text()))
    return copy_dir


def test_train_eval_check_accepts_real_outputs(pipeline):
    assert _check(*pipeline) == []


@pytest.mark.parametrize("row, key, factor", [
    ("cur/stir", "ade", 1 + 1e-6),
    ("cvm/handover", "fde", 1 - 1e-6),
    ("manicast/tableset", "ade", 1 + 1e-6),
    ("manicast/stir", "n_windows", None),
])
def test_report_check_rejects_a_perturbed_row(pipeline, tmp_path, row, key, factor):
    def edit(text):
        doc = json.loads(text)
        entry = doc["forecasting"][row]
        entry[key] = entry[key] + 1 if factor is None else entry[key] * factor
        return json.dumps(doc)

    run_dir = _edited_copy(pipeline, tmp_path, "forecast_report.json", edit)
    assert _problems("report", _check(run_dir, pipeline[1]))


def test_loss_check_rejects_a_perturbed_checkpoint(pipeline, tmp_path):
    def edit(text):
        doc = json.loads(text)
        doc["M"]["data"][0] += 1e-4
        return json.dumps(doc)

    run_dir = _edited_copy(pipeline, tmp_path, "checkpoint_manicast.json", edit)
    problems = _check(run_dir, pipeline[1])
    assert _problems("history", problems) and _problems("report", problems)


def test_loss_check_rejects_a_best_loss_not_below_epoch_zero(pipeline, tmp_path):
    def edit(text):
        header, first, *rest = text.splitlines()
        best = min(float(line.split(",")[2]) for line in rest)
        return "\n".join([header, f"0,,{best}", *rest]) + "\n"

    run_dir = _edited_copy(pipeline, tmp_path, "history_manicast.csv", edit)
    assert _problems("history", _check(run_dir, pipeline[1]))


def test_batch_count_check_rejects_a_missing_batch(pipeline):
    run_dir, batches = pipeline
    assert _problems("batches", _check(run_dir, batches - 1))
