"""Core skeletal-motion types: contexts, trajectories and episodes, and the
episode file format.

All containers are immutable after construction (arrays are marked
read-only) so they can be shared freely across workers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import orjson

# Upper-body skeleton layout. The order is fixed so that serialized
# episodes and per-joint weight vectors index consistently.
JOINT_NAMES = (
    "left_wrist",
    "right_wrist",
    "left_elbow",
    "right_elbow",
    "left_shoulder",
    "right_shoulder",
    "upper_back",
)
N_JOINTS = 7
WRIST_INDICES = (0, 1)

# Working rates: 10 frames (0.4 s) of history predict 25 frames (1 s).
HISTORY_LEN = 10
HORIZON_LEN = 25
DEFAULT_FPS = 25.0

# (shoulder->elbow, elbow->wrist) index pairs per arm.
ARM_BONES = ((4, 2), (2, 0), (5, 3), (3, 1))

TASKS = ("stir", "handover", "tableset")

# Largest coordinate of a task point (a pot, a goal) or a frame, in metres:
# far outside any workspace, and small enough that the squares and sums of
# squares that the planner and the metrics take of such points stay finite.
MAX_COORDINATE = 1e6


class MotionError(ValueError):
    """Raised for malformed contexts, episodes or window requests."""


def is_finite_number(value) -> bool:
    """True for a finite real number that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def finite_point(value, name: str) -> tuple:
    """A 3-vector of finite, non-bool numbers within ``MAX_COORDINATE`` of
    the origin on each axis, as a tuple of floats."""
    if (not isinstance(value, (list, tuple, np.ndarray)) or len(value) != 3
            or not all(is_finite_number(v) and abs(v) <= MAX_COORDINATE for v in value)):
        raise MotionError(f"{name} must be 3 finite numbers within {MAX_COORDINATE:g} m of "
                          f"the origin on each axis, got {value!r}")
    return tuple(float(v) for v in value)


def check_field_types(config) -> None:
    """Reject a config dataclass field whose value does not fit its default.

    A field with an int default takes a non-bool int.  A field with a float
    default takes a finite, non-bool number; an int is accepted there and
    stored as a float, so ``100`` and ``100.0`` give equal, equally
    serialised configs.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if type(f.default) is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise MotionError(f"{f.name} must be an integer, got {value!r}")
        elif type(f.default) is float:
            if not is_finite_number(value):
                raise MotionError(f"{f.name} must be a finite number, got {value!r}")
            object.__setattr__(config, f.name, float(value))


def _check_intervals(pairs, n: int, name: str) -> None:
    """Closed [start, end] frame intervals of an n-frame episode must be
    integer pairs that lie in the episode, sorted and non-overlapping."""
    if not isinstance(pairs, (list, tuple)):
        raise MotionError(f"{name} must be a list of [start, end] pairs, got {pairs!r}")
    prev_end = -1
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                        for v in pair)):
            raise MotionError(f"{name} must be [start, end] pairs of frame indices, "
                              f"got {pair!r}")
        s, e = pair
        if not (0 <= s <= e < n):
            raise MotionError(f"{name} ({s}, {e}) outside frame range [0, {n})")
        if s <= prev_end:
            raise MotionError(f"{name} intervals must be sorted and non-overlapping")
        prev_end = e


def _check_handover(extras: dict, n: int) -> None:
    """Handover metadata: one goal point per hold interval, the holds integer
    [start, end] frame pairs inside the episode, and one in-hand flag per frame."""
    goals, holds = extras.get("goals"), extras.get("hold_intervals")
    if not (isinstance(goals, list) and isinstance(holds, list) and len(goals) == len(holds)):
        got = [len(v) if isinstance(v, list) else type(v).__name__ for v in (goals, holds)]
        raise MotionError("episode extras goals and hold_intervals must be lists with one "
                          f"hold per goal, got {got[0]} goals and {got[1]} holds")
    for i, goal in enumerate(goals):
        finite_point(goal, f"episode extras goals[{i}]")
    _check_intervals(holds, n, "episode extras hold_intervals")
    flags = extras.get("object_in_hand")
    if not (isinstance(flags, list) and len(flags) == n
            and all(isinstance(f, bool) for f in flags)):
        raise MotionError(f"episode extras object_in_hand must be a list of {n} true/false "
                          "flags, one per frame")


def _readonly(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    arr = arr.copy() if arr.flags.writeable else arr
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Context:
    """The forecaster input: the last `HISTORY_LEN` poses, oldest first.

    Context and Trajectory hold frames only; the rate is ``Episode.fps``.
    Leading batch dimensions stack several contexts; the planner passes one.
    """

    frames: np.ndarray  # (..., k, J, 3)

    def __post_init__(self):
        frames = _readonly(self.frames)
        if frames.shape[-3:] != (HISTORY_LEN, N_JOINTS, 3):
            raise MotionError(f"context must have shape (..., {HISTORY_LEN}, {N_JOINTS}, 3), got {frames.shape}")
        object.__setattr__(self, "frames", frames)


@dataclass(frozen=True)
class Trajectory:
    """A `HORIZON_LEN`-frame future of poses."""

    frames: np.ndarray  # (..., T, J, 3)

    def __post_init__(self):
        frames = _readonly(self.frames)
        if frames.shape[-3:] != (HORIZON_LEN, N_JOINTS, 3):
            raise MotionError(f"trajectory must have shape (..., {HORIZON_LEN}, {N_JOINTS}, 3), got {frames.shape}")
        object.__setattr__(self, "frames", frames)


@dataclass(frozen=True)
class Episode:
    """A recorded (or generated) sequence of poses with transition annotations.

    ``transitions`` are closed [start, end] frame-index intervals marking the
    close-proximity interaction windows.  ``extras`` carries the task
    metadata, checked here once: stir needs a ``pot_position`` point
    (``finite_point``); handover needs ``goals`` of such points, one
    ``hold_intervals`` [start, end] frame pair per goal and one
    ``object_in_hand`` bool per frame; tableset needs nothing.
    """

    fps: float
    frames: np.ndarray  # (n, J, 3)
    transitions: tuple = ()
    task: str = "stir"
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        frames = _readonly(self.frames)
        if frames.ndim != 3 or frames.shape[1:] != (N_JOINTS, 3):
            raise MotionError(f"episode frames must have shape (n, {N_JOINTS}, 3), got {frames.shape}")
        if not (np.abs(frames) <= MAX_COORDINATE).all():  # false for NaN and inf too
            raise MotionError("episode frames must hold finite coordinates within "
                              f"{MAX_COORDINATE:g} m of the origin on each axis")
        if not (is_finite_number(self.fps) and self.fps > 0):
            raise MotionError(f"fps must be a finite positive number, got {self.fps!r}")
        if self.task not in TASKS:
            raise MotionError(f"unknown task {self.task!r}")
        if not isinstance(self.extras, dict):
            raise MotionError("episode extras must be an object, "
                              f"got {type(self.extras).__name__}")
        n = frames.shape[0]
        _check_intervals(self.transitions, n, "transitions")
        if self.task == "stir":
            finite_point(self.extras.get("pot_position"), "episode extras pot_position")
        elif self.task == "handover":
            _check_handover(self.extras, n)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "transitions",
                           tuple((int(s), int(e)) for s, e in self.transitions))

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dt(self) -> float:
        return 1.0 / self.fps


def _episode_doc(episode: Episode, frames) -> dict:
    return {
        "fps": episode.fps,
        "joint_names": list(JOINT_NAMES),
        "frames": frames,
        "transitions": [[s, e] for s, e in episode.transitions],
        "task": episode.task,
        "extras": episode.extras,
    }


def episode_to_dict(episode: Episode) -> dict:
    """The episode file's document, with the frames as nested lists."""
    return _episode_doc(episode, episode.frames.tolist())


def episode_from_dict(doc: dict) -> Episode:
    names = doc.get("joint_names")
    if names is not None and list(names) != list(JOINT_NAMES):
        raise MotionError(f"unexpected joint names {names}")
    frames = np.array(doc["frames"], dtype=float)
    frames.flags.writeable = False  # freshly decoded: Episode checks it and keeps it
    return Episode(
        fps=doc["fps"],
        frames=frames,
        transitions=doc.get("transitions", []),
        task=doc.get("task", "stir"),
        extras=doc.get("extras", {}),
    )


def save_episode(episode: Episode, path) -> None:
    """Write the episode file.  orjson writes the frames array itself, in the
    same bytes as its nested lists, and needs it C-contiguous."""
    write_json(path, _episode_doc(episode, np.ascontiguousarray(episode.frames)))


def write_json(path, doc, option: int = 0) -> None:
    """Write a file of the run as JSON.  numpy scalars and C-contiguous
    arrays are written as the numbers they hold, and NaN or infinite floats
    as ``null``.  ``option`` adds orjson layout flags, such as
    ``orjson.OPT_INDENT_2``."""
    Path(path).write_bytes(orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY | option))


def read_json(path, what: str):
    """Parse a JSON file of the run; a missing, unreadable or truncated file
    raises a MotionError that names it as the ``what`` file."""
    try:
        return orjson.loads(Path(path).read_bytes())
    except FileNotFoundError as exc:
        raise MotionError(f"no {what} file at {path}") from exc
    except (OSError, ValueError) as exc:
        raise MotionError(f"{what} file {path}: {exc}") from exc


def load_episode(path) -> Episode:
    """Read an episode file; a missing, truncated or malformed file raises a
    MotionError that names it."""
    doc = read_json(path, "episode")
    try:
        if not isinstance(doc, dict):
            raise MotionError("not a JSON object")
        return episode_from_dict(doc)
    except KeyError as exc:
        raise MotionError(f"episode file {path} has no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise MotionError(f"episode file {path}: {exc}") from exc
