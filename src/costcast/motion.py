"""Core skeletal-motion types: contexts, trajectories and episodes, and the
episode file format.

All containers are immutable after construction (arrays are marked
read-only) so they can be shared freely across workers.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

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
DEFAULT_DT = 0.04
DEFAULT_FPS = 25.0

# (shoulder->elbow, elbow->wrist) index pairs per arm.
ARM_BONES = ((4, 2), (2, 0), (5, 3), (3, 1))

TASKS = ("stir", "handover", "tableset")


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


def _readonly(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    arr = arr.copy() if arr.flags.writeable else arr
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Context:
    """The forecaster input: the last `HISTORY_LEN` poses, oldest first.

    Leading batch dimensions stack several contexts; the planner passes one.
    """

    frames: np.ndarray  # (..., k, J, 3)
    dt: float = DEFAULT_DT

    def __post_init__(self):
        frames = _readonly(self.frames)
        if frames.shape[-3:] != (HISTORY_LEN, N_JOINTS, 3):
            raise MotionError(f"context must have shape (..., {HISTORY_LEN}, {N_JOINTS}, 3), got {frames.shape}")
        if self.dt <= 0:
            raise MotionError("context dt must be positive")
        object.__setattr__(self, "frames", frames)


@dataclass(frozen=True)
class Trajectory:
    """A `HORIZON_LEN`-frame future of poses."""

    frames: np.ndarray  # (..., T, J, 3)
    dt: float = DEFAULT_DT

    def __post_init__(self):
        frames = _readonly(self.frames)
        if frames.shape[-3:] != (HORIZON_LEN, N_JOINTS, 3):
            raise MotionError(f"trajectory must have shape (..., {HORIZON_LEN}, {N_JOINTS}, 3), got {frames.shape}")
        object.__setattr__(self, "frames", frames)


@dataclass(frozen=True)
class Episode:
    """A recorded (or generated) sequence of poses with transition annotations.

    ``transitions`` are closed [start, end] frame-index intervals marking the
    close-proximity interaction windows.  ``extras`` carries task metadata
    (pot position, handover goals, per-frame object-in-hand flags).
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
        if not np.isfinite(frames).all():
            raise MotionError("episode contains non-finite coordinates")
        if self.fps <= 0:
            raise MotionError("fps must be positive")
        if self.task not in TASKS:
            raise MotionError(f"unknown task {self.task!r}")
        n = frames.shape[0]
        trans = tuple((int(s), int(e)) for s, e in self.transitions)
        prev_end = -1
        for s, e in trans:
            if not (0 <= s <= e < n):
                raise MotionError(f"transition ({s}, {e}) outside frame range [0, {n})")
            if s <= prev_end:
                raise MotionError("transition intervals must be sorted and non-overlapping")
            prev_end = e
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "transitions", trans)

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dt(self) -> float:
        return 1.0 / self.fps


def episode_to_dict(episode: Episode) -> dict:
    return {
        "fps": episode.fps,
        "joint_names": list(JOINT_NAMES),
        "frames": episode.frames.tolist(),
        "transitions": [[s, e] for s, e in episode.transitions],
        "task": episode.task,
        "extras": episode.extras,
    }


def episode_from_dict(doc: dict) -> Episode:
    names = doc.get("joint_names")
    if names is not None and list(names) != list(JOINT_NAMES):
        raise MotionError(f"unexpected joint names {names}")
    frames = np.array(doc["frames"], dtype=float)
    frames.flags.writeable = False  # freshly decoded: Episode checks it and keeps it
    return Episode(
        fps=float(doc["fps"]),
        frames=frames,
        transitions=tuple((int(s), int(e)) for s, e in doc.get("transitions", [])),
        task=doc.get("task", "stir"),
        extras=doc.get("extras", {}),
    )


def save_episode(episode: Episode, path) -> None:
    Path(path).write_text(json.dumps(episode_to_dict(episode)))


def read_json(path, what: str):
    """Parse a JSON file of the run; a missing, unreadable or truncated file
    raises a MotionError that names it as the ``what`` file."""
    try:
        return json.loads(Path(path).read_text())
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
