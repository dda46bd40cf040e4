"""Tests for the procedural episode generator and dataset splitting."""

import numpy as np
import pytest

from costcast.datagen import (
    ARM_BONE_LEN,
    ARM_REACH,
    GENERATORS,
    GenConfig,
    HANDOVER_BOX,
    N_TABLE_WAYPOINTS,
    RIGHT_SHOULDER,
    ScheduleError,
    TABLE_BOX,
    TABLE_Z,
    _frames_from_wrist_path,
    gen_handover,
    gen_stirring,
    gen_tableset,
    min_jerk,
    split_dataset,
    tableset_tour,
)
from costcast.motion import ARM_BONES, MotionError, episode_to_dict

SMALL = dict(episode_len_s=16.0, n_interactions=2)


def test_min_jerk_matches_quintic_oracle():
    p0, p1 = np.array([0.0, 1.0, -2.0]), np.array([3.0, -1.0, 0.5])
    path = min_jerk(p0, p1, 50)
    for i, u in enumerate(np.linspace(0.0, 1.0, 50)):
        s = 10 * u**3 - 15 * u**4 + 6 * u**5
        np.testing.assert_allclose(path[i], p0 + s * (p1 - p0), atol=1e-12)
    np.testing.assert_allclose(path[0], p0, atol=0)
    np.testing.assert_allclose(path[-1], p1, atol=0)


def test_stirring_has_one_transition_per_interaction():
    ep = gen_stirring(GenConfig(seed=0, **SMALL))
    assert len(ep.transitions) == 2
    assert ep.task == "stir"
    assert ep.extras["pot_position"] == [0.55, 0.0, 0.95]


def test_stirring_wrist_rests_outside_transitions_without_jitter():
    cfg = GenConfig(seed=1, jitter_sigma=0.0, **SMALL)
    ep = gen_stirring(cfg)
    rest = np.asarray(cfg.rest_wrist)
    mask = np.ones(len(ep), dtype=bool)
    for s, e in ep.transitions:
        mask[s:e + 1] = False
    np.testing.assert_allclose(ep.frames[mask, 1],
                               np.broadcast_to(rest, (mask.sum(), 3)), atol=1e-12)


def test_stirring_reach_ends_exactly_at_pot():
    cfg = GenConfig(seed=2, jitter_sigma=0.0, **SMALL)
    ep = gen_stirring(cfg)
    reach_n = int(round(cfg.reach_duration_s * cfg.fps))
    pot = np.asarray(cfg.pot_position)
    for s, _e in ep.transitions:
        np.testing.assert_allclose(ep.frames[s + reach_n, 1], pot, atol=1e-9)


def test_handover_object_in_hand_and_goal_metadata():
    cfg = GenConfig(seed=3, **SMALL)
    ep = gen_handover(cfg)
    flags = ep.extras["object_in_hand"]
    for s, _e in ep.transitions:
        assert flags[s] is True
    assert len(ep.extras["goals"]) == cfg.n_interactions
    for g in ep.extras["goals"]:
        assert all(HANDOVER_BOX[i, 0] <= g[i] <= HANDOVER_BOX[i, 1] for i in range(3))


def test_handover_held_wrist_matches_stored_goal():
    cfg = GenConfig(seed=4, **SMALL)
    ep = gen_handover(cfg)
    for (hs, he), goal in zip(ep.extras["hold_intervals"], ep.extras["goals"]):
        d = np.linalg.norm(ep.frames[hs:he + 1, 1] - np.asarray(goal), axis=-1)
        assert d.max() <= 3 * cfg.jitter_sigma


def test_handover_seeded_reproducibility():
    a = gen_handover(GenConfig(seed=5, **SMALL))
    b = gen_handover(GenConfig(seed=5, **SMALL))
    assert (a.frames == b.frames).all()
    assert a.extras == b.extras


def test_tableset_single_full_length_transition_and_waypoint_bounds():
    cfg = GenConfig(seed=6, jitter_sigma=0.0, **SMALL)
    ep = gen_tableset(cfg)
    assert ep.transitions == ((0, len(ep) - 1),)
    assert ep.extras == {}
    # each dwell holds the right wrist still at a waypoint on the table
    _, reach_n, dwell_n = tableset_tour(cfg)
    for k in range(N_TABLE_WAYPOINTS):
        start = (k + 1) * reach_n + k * dwell_n
        dwell = ep.frames[start:start + dwell_n + 1, 1]
        assert (dwell == dwell[0]).all()
        assert TABLE_BOX[0, 0] <= dwell[0, 0] <= TABLE_BOX[0, 1]
        assert TABLE_BOX[1, 0] <= dwell[0, 1] <= TABLE_BOX[1, 1]
        assert dwell[0, 2] == TABLE_Z


def test_tableset_dwell_frames_are_static_without_jitter():
    cfg = GenConfig(seed=7, jitter_sigma=0.0, **SMALL)
    ep = gen_tableset(cfg)
    speed = np.linalg.norm(np.diff(ep.frames[:, 1], axis=0), axis=-1)
    reach_n = int(round(cfg.reach_duration_s * cfg.fps))
    dwell_n = int(round(0.5 * cfg.fps))
    i = reach_n  # first dwell starts after the first reach
    assert (speed[i:i + dwell_n - 1] < 1e-6).all()


def test_all_tasks_satisfy_bone_invariants():
    # every arm bone of every frame stays within (0.15, 0.45) m
    bones = np.array(ARM_BONES)
    for task, gen in GENERATORS.items():
        ep = gen(GenConfig(seed=8, **SMALL))
        lengths = np.linalg.norm(ep.frames[:, bones[:, 0]] - ep.frames[:, bones[:, 1]], axis=-1)
        assert ((lengths > 0.15) & (lengths < 0.45)).all(), task


def scalar_elbow(wrist):
    """Per-frame two-link elbow, written one point at a time: on the downward
    side of the shoulder-wrist axis, or toward -x where that axis is vertical."""
    d = wrist - RIGHT_SHOULDER
    r = np.linalg.norm(d)
    u = d / max(r, 1e-9)
    down = np.array([0.0, 0.0, -1.0])
    perp = down - np.dot(down, u) * u
    if np.linalg.norm(perp) < 1e-6:
        perp = np.array([-1.0, 0.0, 0.0]) - np.dot([-1.0, 0.0, 0.0], u) * u
    perp = perp / np.linalg.norm(perp)
    bulge = np.sqrt(max(ARM_BONE_LEN**2 - (r / 2) ** 2, 0.0))
    return RIGHT_SHOULDER + 0.5 * d + bulge * perp


def test_path_elbows_are_the_per_frame_solutions(rng):
    # the same arithmetic in the same order, so the frames are equal bit for bit
    dirs = rng.normal(size=(300, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    path = RIGHT_SHOULDER + dirs * rng.uniform(0.0, ARM_REACH - 2e-6, size=(300, 1))
    path[:3] = RIGHT_SHOULDER + np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.3], [0.0, 0.0, 0.0]])
    frames = _frames_from_wrist_path(path)
    np.testing.assert_array_equal(frames[:, 3], [scalar_elbow(w) for w in path])
    np.testing.assert_array_equal(frames[:, 1], path)
    far = path.copy()
    far[7] = RIGHT_SHOULDER + [0.0, ARM_REACH, 0.0]
    with pytest.raises(MotionError, match=f"wrist target at {ARM_REACH:.3f} m"):
        _frames_from_wrist_path(far)


def test_wrist_stays_near_rest_outside_transitions():
    for gen in (gen_stirring, gen_handover):
        cfg = GenConfig(seed=9, **SMALL)
        ep = gen(cfg)
        rest = np.asarray(cfg.rest_wrist)
        mask = np.ones(len(ep), dtype=bool)
        for s, e in ep.transitions:
            mask[s:e + 1] = False
        d = np.linalg.norm(ep.frames[mask, 1] - rest, axis=-1)
        assert d.max() <= 3 * cfg.jitter_sigma + 0.01


def test_generation_is_bitwise_deterministic():
    for gen in GENERATORS.values():
        a = episode_to_dict(gen(GenConfig(seed=10, **SMALL)))
        b = episode_to_dict(gen(GenConfig(seed=10, **SMALL)))
        assert a == b


def test_infeasible_schedule_rejected():
    with pytest.raises(ScheduleError):
        GenConfig(seed=0, episode_len_s=5.0, n_interactions=4)
    with pytest.raises(ScheduleError, match="margins"):
        # 4 x 3.2 s fit in 13 s, but not inside its 1 s margins
        GenConfig(seed=0, episode_len_s=13.0, n_interactions=4)


@pytest.mark.parametrize("field", ["reach_duration_s", "hold_duration_s"])
def test_durations_under_one_frame_rejected(field):
    # at 25 fps, 0.02 s rounds to 0 frames and 0.021 s to 1
    for seconds in (0.01, 0.02, 0.0, -1.0):
        with pytest.raises(MotionError, match=field):
            GenConfig(**{field: seconds})
    ep = gen_handover(GenConfig(seed=0, **SMALL, **{field: 0.021}))
    assert all(start <= end for start, end in ep.extras["hold_intervals"])


def test_split_sizes_8_1_1():
    eps = [gen_stirring(GenConfig(seed=s, **SMALL)) for s in range(20)]
    train, val, test = split_dataset(eps, seed=0)
    assert (len(train), len(val), len(test)) == (16, 2, 2)


def test_split_is_a_seeded_partition():
    eps = [gen_stirring(GenConfig(seed=s, **SMALL)) for s in range(11)]
    a = split_dataset(eps, seed=3)
    b = split_dataset(eps, seed=3)
    for pa, pb in zip(a, b):
        assert [id(e) for e in pa] == [id(e) for e in pb]
    ids = [id(e) for part in a for e in part]
    assert sorted(ids) == sorted(id(e) for e in eps)
    with pytest.raises(Exception):
        split_dataset(eps[:9], seed=0)
