"""Cost-aware human-motion forecasting and sampling-based MPC for
collaborative manipulation."""

from .motion import (
    Context,
    Episode,
    Pose,
    Trajectory,
    pose_distance,
    resample,
)
from .robot import ArmModel, ArmState

__all__ = [
    "ArmModel",
    "ArmState",
    "Context",
    "Episode",
    "Pose",
    "Trajectory",
    "pose_distance",
    "resample",
]

__version__ = "0.1.0"
