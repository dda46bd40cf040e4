"""Tests for the core skeletal-motion types, resampling and the episode file format."""

import numpy as np
import pytest

from conftest import BASE_POSE, linear_episode, random_pose
from costcast.forecast import WindowSet
from costcast.motion import (
    Context,
    Episode,
    HISTORY_LEN,
    HORIZON_LEN,
    MotionError,
    N_JOINTS,
    Pose,
    Trajectory,
    episode_from_dict,
    episode_to_dict,
    load_episode,
    pose_distance,
    resample,
    save_episode,
)


# --- containers -----------------------------------------------------------

def test_pose_shape_and_finiteness_enforced():
    with pytest.raises(MotionError):
        Pose(np.zeros((6, 3)))
    bad = BASE_POSE.copy()
    bad[0, 0] = np.nan
    with pytest.raises(MotionError):
        Pose(bad)


def test_pose_bone_check_flags_degenerate_arms():
    Pose(BASE_POSE).check_bones()
    collapsed = BASE_POSE.copy()
    collapsed[0] = collapsed[2]  # left wrist onto left elbow
    with pytest.raises(MotionError):
        Pose(collapsed).check_bones()


def test_containers_are_immutable():
    p = Pose(BASE_POSE)
    with pytest.raises(ValueError):
        p.joints[0, 0] = 1.0
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


# --- pose_distance --------------------------------------------------------

def test_pose_distance_identity_and_uniform_offset():
    p = Pose(BASE_POSE)
    assert pose_distance(p, p) == 0.0
    q = Pose(BASE_POSE + np.array([0.005, 0.0, 0.0]))
    assert pose_distance(p, q) == pytest.approx(0.005, abs=1e-15)


def test_pose_distance_matches_hand_sum(rng):
    a, b = random_pose(rng), random_pose(rng)
    oracle = sum(np.linalg.norm(a.joints[j] - b.joints[j]) for j in range(N_JOINTS)) / N_JOINTS
    assert pose_distance(a, b) == pytest.approx(oracle, abs=1e-15)
    assert pose_distance(a, b) == pose_distance(b, a)


def test_pose_distance_triangle_inequality(rng):
    for _ in range(50):
        a, b, c = (random_pose(rng) for _ in range(3))
        assert pose_distance(a, c) <= pose_distance(a, b) + pose_distance(b, c) + 1e-12


# --- resample -------------------------------------------------------------

def test_resample_integer_decimation():
    ep = linear_episode(100, (0.1, 0.0, 0.0), fps=50.0)
    out = resample(ep, 25.0)
    assert len(out) == 50
    for i in range(50):
        np.testing.assert_allclose(out.frames[i], ep.frames[2 * i], atol=1e-12)


def test_resample_constant_pose_any_rate():
    frames = np.repeat(BASE_POSE[None], 40, axis=0)
    ep = Episode(fps=25.0, frames=frames)
    for fps in (10.0, 30.0, 120.0):
        out = resample(ep, fps)
        np.testing.assert_allclose(
            out.frames, np.repeat(BASE_POSE[None], len(out), axis=0), atol=1e-12)


def test_resample_linear_motion_matches_line():
    v = np.array([0.2, -0.1, 0.05])
    ep = linear_episode(60, v, fps=25.0)
    out = resample(ep, 50.0)
    t = np.arange(len(out)) / 50.0
    expected = BASE_POSE[None] + t[:, None, None] * v
    np.testing.assert_allclose(out.frames, expected, atol=1e-12)


def test_resample_round_trip_recovers_original_frames(rng):
    frames = BASE_POSE[None] + rng.normal(0, 0.01, size=(40, N_JOINTS, 3))
    ep = Episode(fps=25.0, frames=frames, transitions=((5, 12),))
    back = resample(resample(ep, 50.0), 25.0)
    assert len(back) == len(ep)
    np.testing.assert_allclose(back.frames, ep.frames, atol=1e-12)


def test_resample_transitions_rounded_outward():
    ep = linear_episode(100, (0.01, 0.0, 0.0), fps=50.0, transitions=((11, 29), (61, 75)))
    out = resample(ep, 25.0)
    for (s, e), (ns, ne) in zip(ep.transitions, out.transitions):
        # remapped interval must cover the original one in time
        assert ns / out.fps <= s / ep.fps + 1e-12
        assert ne / out.fps >= e / ep.fps - 1e-12


def test_resample_rejects_bad_rate():
    ep = linear_episode(40, (0.0, 0.0, 0.0))
    with pytest.raises(MotionError):
        resample(ep, 0.0)


# --- episode file format --------------------------------------------------

def test_episode_json_round_trip(tmp_path, rng):
    frames = BASE_POSE[None] + rng.normal(0, 0.01, size=(40, N_JOINTS, 3))
    ep = Episode(fps=25.0, frames=frames, transitions=((3, 9),), task="handover",
                 extras={"goals": [[0.5, 0.1, 1.0]]})
    path = tmp_path / "ep.json"
    save_episode(ep, path)
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
