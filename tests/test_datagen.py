"""Tests for the procedural episode generator and dataset splitting."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from costcast import datagen
from costcast.datagen import (
    ARM_BONE_LEN,
    ARM_REACH,
    GENERATORS,
    GenConfig,
    HANDOVER_BOX,
    HOLD_DURATION_S,
    INTERACTION_LEN_S,
    JITTER_SIGMA,
    N_TABLE_WAYPOINTS,
    POT_POSITION,
    REACH_DURATION_S,
    REST_WRIST,
    RIGHT_SHOULDER,
    SCHEDULE_MARGIN_S,
    ScheduleError,
    TABLE_BOX,
    TABLE_Z,
    _check_reach,
    _frames_from_wrist_path,
    gen_handover,
    gen_stirring,
    gen_tableset,
    min_jerk,
    split_dataset,
    tableset_tour,
)
from costcast.motion import ARM_BONES, DEFAULT_FPS, MIN_FPS, MotionError, episode_to_dict

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


@pytest.fixture
def no_jitter(monkeypatch):
    monkeypatch.setattr(datagen, "JITTER_SIGMA", 0.0)


def test_stirring_wrist_rests_outside_transitions_without_jitter(no_jitter):
    ep = gen_stirring(GenConfig(seed=1, **SMALL))
    mask = np.ones(len(ep), dtype=bool)
    for s, e in ep.transitions:
        mask[s:e + 1] = False
    np.testing.assert_allclose(ep.frames[mask, 1],
                               np.broadcast_to(REST_WRIST, (mask.sum(), 3)), atol=1e-12)


def test_stirring_reach_ends_exactly_at_pot(no_jitter):
    cfg = GenConfig(seed=2, **SMALL)
    ep = gen_stirring(cfg)
    reach_n = int(round(REACH_DURATION_S * cfg.fps))
    for s, _e in ep.transitions:
        np.testing.assert_allclose(ep.frames[s + reach_n, 1], POT_POSITION, atol=1e-9)


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
        assert d.max() <= 3 * JITTER_SIGMA


def test_handover_seeded_reproducibility():
    a = gen_handover(GenConfig(seed=5, **SMALL))
    b = gen_handover(GenConfig(seed=5, **SMALL))
    assert (a.frames == b.frames).all()
    assert a.extras == b.extras


def test_tableset_single_full_length_transition_and_waypoint_bounds(no_jitter):
    cfg = GenConfig(seed=6, **SMALL)
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


def test_tableset_dwell_frames_are_static_without_jitter(no_jitter):
    cfg = GenConfig(seed=7, **SMALL)
    ep = gen_tableset(cfg)
    speed = np.linalg.norm(np.diff(ep.frames[:, 1], axis=0), axis=-1)
    reach_n = int(round(REACH_DURATION_S * cfg.fps))
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
        mask = np.ones(len(ep), dtype=bool)
        for s, e in ep.transitions:
            mask[s:e + 1] = False
        d = np.linalg.norm(ep.frames[mask, 1] - REST_WRIST, axis=-1)
        assert d.max() <= 3 * JITTER_SIGMA + 0.01


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
    with pytest.raises(ScheduleError, match="4 interactions of 6 frames do not fit in 18 frames"):
        # 3.2 s slots, but at 1.25 fps an interaction spans 6 frames, 4.8 s
        GenConfig(seed=0, episode_len_s=14.8, n_interactions=4, fps=1.25)


def test_an_interaction_that_would_share_a_frame_starts_on_the_next():
    # at the defaults, seed 141 draws starts on frames 420 and 500, and the
    # interaction from frame 420 ends on frame 500
    assert gen_stirring(GenConfig(seed=141)).transitions[1:3] == ((420, 500), (501, 581))
    # slots of exactly one interaction: each draw starts the second
    # interaction on the last frame of the first
    for seed in range(3):
        ep = gen_handover(GenConfig(seed=seed, episode_len_s=8.4, n_interactions=2))
        assert ep.transitions == ((25, 105), (106, 186))
        assert ep.extras["hold_intervals"] == [[55, 74], [136, 155]]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_interactions=st.integers(1, 12),
       fps=st.one_of(st.sampled_from([MIN_FPS, 1.25, 2.5, 7.3, DEFAULT_FPS]),
                     st.floats(MIN_FPS, 60.0)),
       slack_s=st.one_of(st.just(0.0), st.floats(0.0, 0.1), st.floats(0.0, 30.0)))
def test_every_accepted_config_generates_stir_and_handover(seed, n_interactions, fps, slack_s):
    # episodes from as short as their interactions allow; rounding to frames
    # must never make two interactions share a frame or run past the end
    length = 2 * SCHEDULE_MARGIN_S + n_interactions * INTERACTION_LEN_S + slack_s
    try:
        config = GenConfig(seed=seed, episode_len_s=length, n_interactions=n_interactions,
                           fps=fps)
    except ScheduleError:
        assume(False)
    for gen in (gen_stirring, gen_handover):
        ep = gen(config)   # Episode refuses overlapping or out-of-range transitions
        assert len(ep.transitions) == n_interactions


def test_fixed_geometry_and_timings_fit_every_config():
    # the rest point and the pot lie in the arm's reach, each duration lasts
    # a frame at the lowest frame rate, and the default episode holds the
    # tableset tour
    for point in (POT_POSITION, REST_WRIST):
        _check_reach(point, "point")
    for seconds in (REACH_DURATION_S, HOLD_DURATION_S):
        assert int(round(seconds * MIN_FPS)) >= 1
    tableset_tour(GenConfig())   # raises ScheduleError when the tour does not fit


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
