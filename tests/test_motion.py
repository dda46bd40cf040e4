"""Tests for the core skeletal-motion types, window cutting (forecast.WindowSet)
and the episode file format."""

import json

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BASE_POSE, GOAL, linear_episode, task_episode
from costcast.datagen import GENERATORS, GenConfig
from costcast.forecast import WindowSet
from costcast.motion import (
    MAX_COORDINATE,
    TASKS,
    Context,
    Episode,
    HISTORY_LEN,
    HORIZON_LEN,
    MotionError,
    N_JOINTS,
    Trajectory,
    episode_from_dict,
    episode_to_dict,
    finite_point,
    load_episode,
    save_episode,
)
from costcast.planner import build_task_spec
from costcast.robot import ArmModel


# --- containers -----------------------------------------------------------

def test_pose_shape_and_finiteness_enforced():
    # every frame of an episode is a (7, 3) pose with finite coordinates
    # within MAX_COORDINATE of the origin on each axis
    with pytest.raises(MotionError):
        task_episode(np.zeros((40, N_JOINTS - 1, 3)))
    for value in (np.nan, -np.inf, np.nextafter(MAX_COORDINATE, np.inf)):
        bad = np.repeat(BASE_POSE[None], 40, axis=0)
        bad[5, 0, 0] = value
        with pytest.raises(MotionError, match="within 1e\\+06 m"):
            task_episode(bad)
    # finite frames whose squares overflow in the metrics
    far = np.repeat(BASE_POSE[None], 60, axis=0)
    far[-20:] *= 1e200
    with pytest.raises(MotionError, match="within 1e\\+06 m"):
        task_episode(far)
    edge = np.repeat(BASE_POSE[None], 40, axis=0)
    edge[5, 0] = (MAX_COORDINATE, -MAX_COORDINATE, 0.0)
    assert task_episode(edge).frames[5, 0, 1] == -MAX_COORDINATE


def test_containers_are_immutable():
    ctx = Context(np.repeat(BASE_POSE[None], HISTORY_LEN, axis=0))
    with pytest.raises(ValueError):
        ctx.frames[0, 0, 0] = 1.0


def test_context_and_trajectory_length_enforced():
    with pytest.raises(MotionError):
        Context(np.repeat(BASE_POSE[None], HISTORY_LEN - 1, axis=0))
    with pytest.raises(MotionError):
        Trajectory(np.repeat(BASE_POSE[None], HORIZON_LEN + 1, axis=0))
    # leading batch dimensions stack contexts; the trailing three are checked
    assert Context(np.zeros((4, HISTORY_LEN, N_JOINTS, 3))).frames.shape[0] == 4
    assert Trajectory(np.zeros((2, 3, HORIZON_LEN, N_JOINTS, 3))).frames.ndim == 5
    with pytest.raises(MotionError):
        Context(np.zeros((4, HISTORY_LEN - 1, N_JOINTS, 3)))
    with pytest.raises(MotionError):
        Trajectory(np.zeros((N_JOINTS, 3)))


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), -25.0, 0.0, True, "25"])
def test_episode_requires_a_finite_positive_fps(fps, tmp_path):
    frames = np.repeat(BASE_POSE[None], 50, axis=0)
    with pytest.raises(MotionError, match="fps"):
        task_episode(frames, fps=fps)
    # a file with such a rate fails to load, naming the file
    path = tmp_path / "ep.json"
    path.write_text(json.dumps(dict(episode_to_dict(task_episode(frames)), fps=fps)))
    with pytest.raises(MotionError, match="ep.json"):
        load_episode(path)


def test_episode_rejects_bad_transitions():
    frames = np.repeat(BASE_POSE[None], 50, axis=0)
    with pytest.raises(MotionError):
        task_episode(frames, transitions=((10, 60),))
    with pytest.raises(MotionError):
        task_episode(frames, transitions=((10, 20), (15, 30)))
    for bad in ([(10.0, 20)], [(True, 20)], [("10", "20")], [(10,)], [10, 20], 10):
        with pytest.raises(MotionError, match="transitions must be"):
            task_episode(frames, transitions=bad)
    ep = task_episode(frames, transitions=((10, 20), (30, 40)))
    assert ep.transitions == ((10, 20), (30, 40))


# --- task metadata ------------------------------------------------------

HOLD = {"goals": [GOAL], "hold_intervals": [[5, 9]]}


@pytest.mark.parametrize("extras, message", [
    ([], "extras must be an object"),
    ({"goals": [GOAL]}, "one hold per goal"),
    ({"goals": [GOAL], "hold_intervals": [[5, 9], [12, 15]]}, "one hold per goal"),
    ({"goals": [GOAL, [0.5, float("nan"), 1.0]], "hold_intervals": [[5, 9], [12, 15]]},
     r"goals\[1\] must be 3 finite numbers"),
    ({"goals": [GOAL], "hold_intervals": [[5.0, 9]]}, r"\[start, end\] pairs"),
    ({"goals": [GOAL], "hold_intervals": [[True, 9]]}, r"\[start, end\] pairs"),
    ({"goals": [GOAL], "hold_intervals": [[9, 5]]}, "outside frame range"),
    ({"goals": [GOAL, GOAL], "hold_intervals": [[5, 12], [9, 15]]}, "sorted"),
    ({}, "goals and hold_intervals"),
    (HOLD, "object_in_hand must be a list of 40 true/false flags"),
    (dict(HOLD, object_in_hand=["false"] * 40), "object_in_hand"),
    (dict(HOLD, object_in_hand=[0] * 40), "object_in_hand"),
    (dict(HOLD, object_in_hand=[False] * 39), "object_in_hand"),
])
def test_handover_episode_rejects_bad_metadata(extras, message):
    frames = np.repeat(BASE_POSE[None], 40, axis=0)
    with pytest.raises(MotionError, match=message):
        Episode(fps=25.0, frames=frames, task="handover", extras=extras)
    # a tableset episode requires no metadata and ignores these fields
    if isinstance(extras, dict):
        Episode(fps=25.0, frames=frames, task="tableset", extras=extras)


@pytest.mark.parametrize("pot", [None, [0.5, 0.0], "abc", [0.5, float("nan"), 1.0],
                                 [0.5, True, 1.0]])
def test_stir_episode_requires_a_pot_position(pot):
    frames = np.repeat(BASE_POSE[None], 40, axis=0)
    extras = {} if pot is None else {"pot_position": pot}
    with pytest.raises(MotionError, match="episode extras pot_position must be 3 finite"):
        Episode(fps=25.0, frames=frames, task="stir", extras=extras)


def test_a_point_lies_within_the_coordinate_bound():
    assert finite_point([MAX_COORDINATE, -MAX_COORDINATE, 0], "p") == (1e6, -1e6, 0.0)
    frames = np.repeat(BASE_POSE[None], 40, axis=0)
    for bad in ([1e200, 0.0, 0.0], [0.0, -np.nextafter(MAX_COORDINATE, np.inf), 0.0],
                [0, 0, 10**7]):
        with pytest.raises(MotionError, match=r"p must be 3 finite numbers within 1e\+06 m"):
            finite_point(bad, "p")
        with pytest.raises(MotionError, match="episode extras pot_position"):
            task_episode(frames, pot_position=bad)
        with pytest.raises(MotionError, match=r"episode extras goals\[0\]"):
            task_episode(frames, "handover", goals=[bad])


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
    assert len(WindowSet(eps[1:])) == 120 - HISTORY_LEN - HORIZON_LEN + 1


# --- episode file format --------------------------------------------------

def test_episode_json_round_trip(tmp_path, rng):
    frames = BASE_POSE[None] + rng.normal(0, 0.01, size=(40, N_JOINTS, 3))
    ep = task_episode(frames, "handover", transitions=((3, 9),), hold_intervals=[[20, 30]])
    path = tmp_path / "ep.json"
    save_episode(ep, path)
    # any JSON parser reads the file as one float per coordinate
    per_value = dict(episode_to_dict(ep),
                     frames=[[list(map(float, p)) for p in frame] for frame in ep.frames])
    assert json.loads(path.read_text()) == per_value
    back = load_episode(path)
    np.testing.assert_array_equal(back.frames, ep.frames)
    assert back.transitions == ep.transitions
    assert back.task == ep.task
    assert back.extras == ep.extras


def test_saved_episode_has_the_bytes_of_its_per_value_document(tmp_path, rng):
    # orjson writes the frames array as it writes their nested lists; a
    # strided read-only frame array is written from a contiguous copy
    frames = BASE_POSE[None] + rng.normal(0, 0.01, size=(80, N_JOINTS, 3))
    frames[0, 0] = (-0.0, 5e-324, -MAX_COORDINATE)
    strided = frames[::2]
    strided.flags.writeable = False
    for ep in (task_episode(frames, "handover"), task_episode(strided)):
        assert ep.frames.flags.c_contiguous == (ep.task == "handover")
        path = tmp_path / "ep.json"
        save_episode(ep, path)
        assert path.read_bytes() == orjson.dumps(episode_to_dict(ep))


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX_COORDINATE,
               -MAX_COORDINATE, 1e-300, -1e-300)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_edge=st.integers(0, 60),
       scale=st.sampled_from([1e-300, 1e-5, 1.0, 1e5]))
def test_saved_episode_reads_back_bit_identical(tmp_path_factory, seed, n_edge, scale):
    # normals of any scale an episode holds, with signed zeros, subnormals,
    # the smallest normal, +-1e-300 and +-MAX_COORDINATE scattered in: both
    # stdlib json and load_episode read back the very same doubles
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(HISTORY_LEN + HORIZON_LEN, N_JOINTS, 3)) * scale
    frames.flat[rng.choice(frames.size, n_edge, replace=False)] = rng.choice(EDGE_FLOATS, n_edge)
    ep = task_episode(frames)
    path = tmp_path_factory.mktemp("ep") / "ep.json"
    save_episode(ep, path)
    assert same_bits(json.loads(path.read_text())["frames"], frames)
    assert same_bits(load_episode(path).frames, frames)


def test_episode_file_of_the_stdlib_writer_still_loads(tmp_path, rng):
    # datasets written before orjson: stdlib json text with spaces after
    # separators and exponents spelled 1e-05
    frames = BASE_POSE[None] + rng.normal(0, 0.01, size=(40, N_JOINTS, 3))
    frames[0, 0] = (1e-5, MAX_COORDINATE, -0.0)
    ep = Episode(fps=25.0, frames=frames, transitions=((3, 9),), task="stir",
                 extras={"pot_position": [0.55, 0.0, 0.95]})
    path = tmp_path / "old.json"
    path.write_text(json.dumps(episode_to_dict(ep)))
    back = load_episode(path)
    assert same_bits(back.frames, ep.frames)
    assert (back.fps, back.transitions, back.task, back.extras) == (
        ep.fps, ep.transitions, ep.task, ep.extras)


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


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
                | st.floats(allow_nan=False, allow_infinity=False))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda xs: st.lists(xs) | st.dictionaries(st.text(), xs))
EXTRAS_FIELDS = {"stir": ("pot_position",),
                 "handover": ("goals", "hold_intervals", "object_in_hand"),
                 "tableset": ()}


@pytest.fixture(scope="module")
def saved_episodes():
    """The JSON document of one generated episode of each task."""
    config = GenConfig(episode_len_s=12.0, n_interactions=1)
    return {task: episode_to_dict(GENERATORS[task](config)) for task in TASKS}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_a_random_field_loads_a_plannable_episode_or_raises_motion_error(
        saved_episodes, tmp_path_factory, data, value):
    # one field of a valid file replaced with any JSON value: the loader
    # either refuses the file or returns an episode the planner accepts
    task = data.draw(st.sampled_from(TASKS))
    field = data.draw(st.sampled_from(("transitions", "fps", "extras", *EXTRAS_FIELDS[task])))
    doc = dict(saved_episodes[task], extras=dict(saved_episodes[task]["extras"]))
    (doc["extras"] if field in EXTRAS_FIELDS[task] else doc)[field] = value
    path = tmp_path_factory.getbasetemp() / "random_field.json"
    path.write_text(json.dumps(doc))
    try:
        episode = load_episode(path)
    except MotionError:
        return
    build_task_spec(episode, ArmModel())
