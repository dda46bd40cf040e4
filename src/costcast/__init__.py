"""Cost-aware human-motion forecasting and sampling-based MPC for
collaborative manipulation."""

from .motion import (
    Context,
    Episode,
    Pose,
    Trajectory,
    pose_distance,
    resample,
    slide_windows,
)
from .robot import ArmModel, ArmState, RigidPose

__all__ = [
    "ArmModel",
    "ArmState",
    "Context",
    "Episode",
    "Pose",
    "RigidPose",
    "Trajectory",
    "pose_distance",
    "resample",
    "slide_windows",
]

__version__ = "0.1.0"
