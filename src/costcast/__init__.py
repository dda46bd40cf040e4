"""Cost-aware human-motion forecasting and sampling-based MPC for
collaborative manipulation."""

from .motion import Context, Episode, Trajectory
from .robot import ArmModel, ArmState

__all__ = [
    "ArmModel",
    "ArmState",
    "Context",
    "Episode",
    "Trajectory",
]

__version__ = "0.1.0"
