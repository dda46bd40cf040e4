"""Shared helpers for the test suite: random valid poses, contexts, small
hand-built episodes with valid task metadata, and kinematics oracles written
apart from the package's batch code."""

import numpy as np
import pytest

from costcast.motion import (
    ARM_BONES,
    Context,
    Episode,
    HISTORY_LEN,
    HORIZON_LEN,
    N_JOINTS,
    Trajectory,
)
from costcast.robot import HUMAN_CAPSULE_RADIUS

BASE_POSE = np.array([
    [0.05, -0.40, 0.60],   # left wrist
    [0.30, -0.05, 0.85],   # right wrist
    [0.10, -0.55, 0.78],   # left elbow
    [0.45, -0.05, 0.80],   # right elbow
    [0.20, -0.50, 1.05],   # left shoulder
    [0.45, -0.20, 1.05],   # right shoulder
    [0.30, -0.35, 1.25],   # upper back
])


def random_pose_array(rng, scale=0.03):
    """A valid pose: small perturbation of a fixed skeleton (bones stay legal)."""
    return BASE_POSE + rng.normal(0.0, scale, size=(N_JOINTS, 3))


def random_context(rng):
    frames = np.stack([random_pose_array(rng, 0.005) for _ in range(HISTORY_LEN)])
    return Context(frames)


def random_trajectory(rng):
    frames = np.stack([random_pose_array(rng, 0.005) for _ in range(HORIZON_LEN)])
    return Trajectory(frames)


def window_last(frames):
    """Batch-first frames (B, n, J, 3) as the forecaster's window-last rows
    (n, B, 3J)."""
    return np.swapaxes(frames, 0, 1).reshape(frames.shape[1], frames.shape[0], -1)


POT = [0.55, 0.0, 0.95]
GOAL = [0.5, 0.1, 1.0]


def task_episode(frames, task="stir", fps=25.0, transitions=(), **extras):
    """An episode of ``task`` with the metadata it requires: the pot for stir;
    for handover one goal held at the middle frame, with the object in hand
    until then.  Keyword arguments replace metadata fields."""
    n = len(frames)
    required = {
        "stir": {"pot_position": POT},
        "handover": {"goals": [GOAL], "hold_intervals": [[n // 2, n // 2]],
                     "object_in_hand": [t <= n // 2 for t in range(n)]},
        "tableset": {},
    }[task]
    return Episode(fps=fps, frames=frames, transitions=transitions, task=task,
                   extras={**required, **extras})


def linear_episode(n_frames, velocity, fps=25.0, transitions=()):
    """Every joint translates at a constant velocity (m/s)."""
    v = np.asarray(velocity, dtype=float)
    t = np.arange(n_frames)[:, None, None] / fps
    frames = BASE_POSE[None] + t * v[None, None, :]
    return task_episode(frames, fps=fps, transitions=transitions)


def fk_oracle(model, q):
    """Independent forward kinematics via explicit homogeneous matrices.

    Returns the 4x4 end-effector transform and the 7 joint-frame transforms.
    """
    T = np.eye(4)
    T[:3, 3] = model.base_position
    frames = []
    for (a, d, alpha), theta in zip(model.dh, q):
        ca, sa = np.cos(alpha), np.sin(alpha)
        ct, st = np.cos(theta), np.sin(theta)
        A = np.array([
            [ct, -st, 0.0, a],
            [st * ca, ct * ca, -sa, -sa * d],
            [st * sa, ct * sa, ca, ca * d],
            [0.0, 0.0, 0.0, 1.0],
        ])
        T = T @ A
        frames.append(T.copy())
    ee = T.copy()
    ee[:3, 3] += model.flange_offset * T[:3, 2]
    return ee, frames


def oracle_manipulability(model, q):
    """sqrt(det(J J^T)) with the linear Jacobian J built from ``fk_oracle``."""
    ee, frames = fk_oracle(model, q)
    J = np.stack([np.cross(T[:3, 2], ee[:3, 3] - T[:3, 3]) for T in frames], axis=1)
    return float(np.sqrt(max(np.linalg.det(J @ J.T), 0.0)))


def brute_force_separation(model, q, human):
    """Exhaustive scalar scan of signed clearance over robot spheres x human
    arm capsules.

    The spheres sit at 1/3 and 2/3 of each segment between consecutive
    ``fk_oracle`` origins, base included; ``human`` is a (J, 3) joint array.
    """
    ee, frames = fk_oracle(model, q)
    origins = [np.asarray(model.base_position, dtype=float)]
    origins += [T[:3, 3] for T in frames] + [ee[:3, 3]]
    best = np.inf
    for a0, b0 in zip(origins[:-1], origins[1:]):
        for c in (a0 + (b0 - a0) / 3.0, a0 + 2.0 * (b0 - a0) / 3.0):
            for i, j in ARM_BONES:
                a, ab = human[i], human[j] - human[i]
                denom = float(ab @ ab)
                t = 0.0 if denom < 1e-18 else float(np.clip((c - a) @ ab / denom, 0.0, 1.0))
                d = np.linalg.norm(c - (a + t * ab))
                best = min(best, d - model.sphere_radius - HUMAN_CAPSULE_RADIUS)
    return best


def homogeneous(R, p):
    """4x4 transform from a rotation matrix and a translation."""
    T = np.eye(4)
    T[:3, :3], T[:3, 3] = R, p
    return T


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
