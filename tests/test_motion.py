"""Tests for the core skeletal-motion types, window cutting (forecast.WindowSet)
and the episode file format."""

import json

import numpy as np
import pytest

from conftest import BASE_POSE, linear_episode
from costcast.forecast import WindowSet
from costcast.motion import (
    Context,
    Episode,
    HISTORY_LEN,
    HORIZON_LEN,
    MotionError,
    N_JOINTS,
    Trajectory,
    episode_from_dict,
    episode_to_dict,
    load_episode,
    save_episode,
)


# --- containers -----------------------------------------------------------

def test_pose_shape_and_finiteness_enforced():
    # every frame of an episode is a (7, 3) pose with finite coordinates
    with pytest.raises(MotionError):
        Episode(fps=25.0, frames=np.zeros((40, N_JOINTS - 1, 3)))
    bad = np.repeat(BASE_POSE[None], 40, axis=0)
    bad[5, 0, 0] = np.nan
    with pytest.raises(MotionError):
        Episode(fps=25.0, frames=bad)


def test_containers_are_immutable():
    ctx = Context(np.repeat(BASE_POSE[None], HISTORY_LEN, axis=0))
    with pytest.raises(ValueError):
        ctx.frames[0, 0, 0] = 1.0


def test_context_and_trajectory_length_enforced():
    with pytest.raises(MotionError):
        Context(np.repeat(BASE_POSE[None], HISTORY_LEN - 1, axis=0))
    with pytest.raises(MotionError):
        Trajectory(np.repeat(BASE_POSE[None], HORIZON_LEN + 1, axis=0))
    with pytest.raises(MotionError):
        Context(np.repeat(BASE_POSE[None], HISTORY_LEN, axis=0), dt=0.0)
    # leading batch dimensions stack contexts; the trailing three are checked
    assert Context(np.zeros((4, HISTORY_LEN, N_JOINTS, 3))).frames.shape[0] == 4
    assert Trajectory(np.zeros((2, 3, HORIZON_LEN, N_JOINTS, 3))).frames.ndim == 5
    with pytest.raises(MotionError):
        Context(np.zeros((4, HISTORY_LEN - 1, N_JOINTS, 3)))
    with pytest.raises(MotionError):
        Trajectory(np.zeros((N_JOINTS, 3)))


def test_episode_rejects_bad_transitions():
    frames = np.repeat(BASE_POSE[None], 50, axis=0)
    with pytest.raises(MotionError):
        Episode(fps=25.0, frames=frames, transitions=((10, 60),))
    with pytest.raises(MotionError):
        Episode(fps=25.0, frames=frames, transitions=((10, 20), (15, 30)))
    ep = Episode(fps=25.0, frames=frames, transitions=((10, 20), (30, 40)))
    assert ep.transitions == ((10, 20), (30, 40))


# --- windows (forecast.WindowSet) ---------------------------------------

def test_window_count_45_frames():
    ep = linear_episode(45, (0.0, 0.0, 0.0))
    assert len(WindowSet([ep])) == 11


def test_window_count_formula(rng):
    for _ in range(20):
        lengths = rng.integers(35, 200, size=int(rng.integers(1, 4)))
        eps = [linear_episode(int(n), (0.0, 0.0, 0.0)) for n in lengths]
        expected = sum(int(n) - HISTORY_LEN - HORIZON_LEN + 1 for n in lengths)
        assert len(WindowSet(eps)) == expected


def test_transition_flag_from_future_overlap():
    ep = linear_episode(45, (0.0, 0.0, 0.0), transitions=((20, 30),))
    # window 0's future covers frames 10..34, overlapping (20, 30)
    assert WindowSet([ep]).flags[0]
    ep2 = linear_episode(45, (0.0, 0.0, 0.0), transitions=((0, 5),))
    # futures start at frame 10; an early-context-only interval never flags
    assert not WindowSet([ep2]).flags.any()


def test_transition_flags_match_interval_overlap_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(40, 120))
        cuts = np.sort(rng.choice(n, size=4, replace=False))
        transitions = ((int(cuts[0]), int(cuts[1])), (int(cuts[2]), int(cuts[3])))
        ep = linear_episode(n, (0.01, 0.0, 0.0), transitions=transitions)
        for i, flag in enumerate(WindowSet([ep]).flags):
            fut = range(i + HISTORY_LEN, i + HISTORY_LEN + HORIZON_LEN)
            oracle = any(s <= f <= e for f in fut for s, e in transitions)
            assert flag == oracle


def test_short_episode_rejected():
    with pytest.raises(MotionError):
        WindowSet([linear_episode(30, (0.0, 0.0, 0.0))])
    with pytest.raises(MotionError):
        WindowSet([linear_episode(45, (0.0, 0.0, 0.0)), linear_episode(34, (0.0, 0.0, 0.0))])


def test_mixed_frame_rates_rejected():
    eps = [linear_episode(60, (0.1, 0.0, 0.0), fps=25.0),
           linear_episode(120, (0.1, 0.0, 0.0), fps=50.0)]
    with pytest.raises(MotionError, match="rate"):
        WindowSet(eps)
    assert WindowSet(eps[1:]).dt == pytest.approx(1 / 50.0)


# --- episode file format --------------------------------------------------

def test_episode_json_round_trip(tmp_path, rng):
    frames = BASE_POSE[None] + rng.normal(0, 0.01, size=(40, N_JOINTS, 3))
    ep = Episode(fps=25.0, frames=frames, transitions=((3, 9),), task="handover",
                 extras={"goals": [[0.5, 0.1, 1.0]]})
    path = tmp_path / "ep.json"
    save_episode(ep, path)
    # the frames are written as the same text as one float per coordinate
    per_value = dict(episode_to_dict(ep),
                     frames=[[list(map(float, p)) for p in frame] for frame in ep.frames])
    assert path.read_text() == json.dumps(per_value)
    back = load_episode(path)
    np.testing.assert_allclose(back.frames, ep.frames, atol=1e-15)
    assert back.transitions == ep.transitions
    assert back.task == ep.task
    assert back.extras == ep.extras


def test_episode_reader_rejects_malformed_documents():
    doc = episode_to_dict(linear_episode(40, (0.0, 0.0, 0.0)))
    bad = dict(doc, frames=[[row for row in f[:6]] for f in doc["frames"]])
    with pytest.raises(MotionError):
        episode_from_dict(bad)
    bad = dict(doc)
    bad["frames"] = [list(f) for f in doc["frames"]]
    bad["frames"][0][0] = [float("inf"), 0.0, 0.0]
    with pytest.raises(MotionError):
        episode_from_dict(bad)
    with pytest.raises(MotionError):
        episode_from_dict(dict(doc, joint_names=["a"] * 7))
