"""Simulated 7-DoF serial arm: kinematics, Jacobian, manipulability and
collision geometry against the human.

The default model approximates a Franka-class arm via modified-DH parameters.
Geometry lives in the config; algorithms do not depend on the exact plant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from .motion import ARM_BONES, MotionError, Pose

N_DOF = 7

# Default modified-DH table (Craig convention): row i holds
# (a_{i-1}, d_i, alpha_{i-1}).
DEFAULT_DH = (
    (0.0, 0.333, 0.0),
    (0.0, 0.0, -np.pi / 2),
    (0.0, 0.316, np.pi / 2),
    (0.0825, 0.0, np.pi / 2),
    (-0.0825, 0.384, -np.pi / 2),
    (0.0, 0.0, np.pi / 2),
    (0.088, 0.0, np.pi / 2),
)
DEFAULT_FLANGE = 0.107
DEFAULT_JOINT_LIMITS = (
    (-2.7, 2.7), (-1.7, 1.7), (-2.7, 2.7), (-1.7, 1.7),
    (-2.7, 2.7), (-1.7, 1.7), (-2.7, 2.7),
)
DEFAULT_VEL_LIMIT = 2.0

# Where the arm is mounted in the shared world frame.
DEFAULT_BASE_POS = (1.0, 0.0, 0.5)

ROBOT_SPHERE_RADIUS = 0.06
HUMAN_CAPSULE_RADIUS = 0.05


@dataclass(frozen=True)
class RigidPose:
    """Position (m) + unit quaternion orientation (x, y, z, w)."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        quat = np.asarray(self.orientation, dtype=float)
        if pos.shape != (3,) or quat.shape != (4,):
            raise MotionError("RigidPose needs a 3-vector position and 4-vector quaternion")
        if abs(np.linalg.norm(quat) - 1.0) > 1e-9:
            raise MotionError("quaternion must be unit norm")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", quat)

    @classmethod
    def from_matrix(cls, T: np.ndarray) -> "RigidPose":
        return cls(T[:3, 3], Rotation.from_matrix(T[:3, :3]).as_quat())

    def rotation(self) -> Rotation:
        return Rotation.from_quat(self.orientation)


@dataclass(frozen=True)
class ArmModel:
    dh: tuple = DEFAULT_DH
    flange_offset: float = DEFAULT_FLANGE
    joint_limits: tuple = DEFAULT_JOINT_LIMITS
    vel_limits: tuple = (DEFAULT_VEL_LIMIT,) * N_DOF
    base_position: tuple = DEFAULT_BASE_POS
    sphere_radius: float = ROBOT_SPHERE_RADIUS

    def __post_init__(self):
        if len(self.dh) != N_DOF or len(self.joint_limits) != N_DOF:
            raise MotionError("arm model needs 7 DH rows and 7 joint limits")
        for lo, hi in self.joint_limits:
            if lo >= hi:
                raise MotionError("joint limit lo must be < hi")
        if self.sphere_radius <= 0:
            raise MotionError("collision sphere radius must be positive")

    @property
    def lo(self) -> np.ndarray:
        return np.array([l for l, _ in self.joint_limits])

    @property
    def hi(self) -> np.ndarray:
        return np.array([h for _, h in self.joint_limits])

    @property
    def vel(self) -> np.ndarray:
        return np.asarray(self.vel_limits, dtype=float)

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @classmethod
    def from_json(cls, path) -> "ArmModel":
        doc = json.loads(Path(path).read_text())
        kwargs = {}
        if "dh" in doc:
            kwargs["dh"] = tuple(tuple(row) for row in doc["dh"])
        if "flange_offset" in doc:
            kwargs["flange_offset"] = float(doc["flange_offset"])
        if "joint_limits" in doc:
            kwargs["joint_limits"] = tuple(tuple(row) for row in doc["joint_limits"])
        if "vel_limits" in doc:
            kwargs["vel_limits"] = tuple(doc["vel_limits"])
        if "base_position" in doc:
            kwargs["base_position"] = tuple(doc["base_position"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ArmState:
    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        qd = np.asarray(self.qd, dtype=float)
        if q.shape != (N_DOF,) or qd.shape != (N_DOF,):
            raise MotionError("arm state needs 7 joint angles and velocities")
        if not (np.isfinite(q).all() and np.isfinite(qd).all()):
            raise MotionError("arm state must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qd", qd)


def fk_batch(model: ArmModel, Q: np.ndarray):
    """Forward kinematics for a batch of configurations.

    Q has shape (..., 7).  Returns (R, p): rotation matrices (..., 8, 3, 3)
    and origins (..., 8, 3) for the 7 joint frames plus the flanged
    end-effector frame, all in the world frame.
    """
    Q = np.asarray(Q, dtype=float)
    batch = Q.shape[:-1]
    R = np.empty(batch + (8, 3, 3))
    p = np.empty(batch + (8, 3))
    Rcur = np.broadcast_to(np.eye(3), batch + (3, 3)).copy()
    pcur = np.broadcast_to(np.asarray(model.base_position, dtype=float), batch + (3,)).copy()
    for i, (a, d, alpha) in enumerate(model.dh):
        ca, sa = np.cos(alpha), np.sin(alpha)
        Rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
        # T = RotX(alpha) TransX(a) RotZ(theta) TransZ(d)
        th = Q[..., i]
        ct, st = np.cos(th), np.sin(th)
        Rz = np.zeros(batch + (3, 3))
        Rz[..., 0, 0] = ct
        Rz[..., 0, 1] = -st
        Rz[..., 1, 0] = st
        Rz[..., 1, 1] = ct
        Rz[..., 2, 2] = 1.0
        Rlink = Rcur @ Rx
        pcur = pcur + Rlink @ np.array([a, 0.0, 0.0])
        Rcur = Rlink @ Rz
        pcur = pcur + d * Rcur[..., :, 2]
        R[..., i, :, :] = Rcur
        p[..., i, :] = pcur
    R[..., 7, :, :] = Rcur
    p[..., 7, :] = pcur + model.flange_offset * Rcur[..., :, 2]
    return R, p


def fk(model: ArmModel, q: np.ndarray):
    """End-effector pose plus the 8 chain frames for one configuration."""
    q = np.asarray(q, dtype=float)
    if q.shape != (N_DOF,):
        raise MotionError("q must have 7 entries")
    R, p = fk_batch(model, q)
    frames = tuple(
        RigidPose(p[i], Rotation.from_matrix(R[i]).as_quat()) for i in range(8)
    )
    return frames[7], frames


def jacobian(model: ArmModel, q: np.ndarray) -> np.ndarray:
    """Geometric Jacobian (6x7: linear on top, angular below) at the end effector."""
    R, p = fk_batch(model, np.asarray(q, dtype=float))
    ee = p[7]
    J = np.zeros((6, N_DOF))
    for i in range(N_DOF):
        z = R[i][:, 2]
        J[:3, i] = np.cross(z, ee - p[i])
        J[3:, i] = z
    return J


def manipulability(model: ArmModel, q: np.ndarray) -> float:
    """Yoshikawa measure sqrt(det(J_lin J_lin^T)); zero at singularities."""
    Jl = jacobian(model, q)[:3]
    return float(np.sqrt(max(np.linalg.det(Jl @ Jl.T), 0.0)))


def manipulability_batch(frames) -> np.ndarray:
    """Yoshikawa measure per configuration from ``fk_batch`` frames (R, p)."""
    R, p = frames
    z = R[..., :7, :, 2]  # (..., 7, 3) joint axes
    arm = p[..., 7, :][..., None, :] - p[..., :7, :]
    Jl = np.swapaxes(np.cross(z, arm), -1, -2)  # (..., 3, 7) linear Jacobian
    dets = np.linalg.det(Jl @ np.swapaxes(Jl, -1, -2))
    return np.sqrt(np.clip(dets, 0.0, None))


def collision_sphere_centers(model: ArmModel, frames) -> np.ndarray:
    """World centers of the robot collision spheres, shape (..., 16, 3).

    ``frames`` is the (R, p) pair of ``fk_batch``.  Two spheres per chain
    segment, at 1/3 and 2/3 of the straight segment between consecutive frame
    origins (base included).
    """
    _, p = frames
    base = np.broadcast_to(np.asarray(model.base_position, dtype=float), p.shape[:-2] + (1, 3))
    pts = np.concatenate([base, p], axis=-2)  # (..., 9, 3)
    a, b = pts[..., :-1, :], pts[..., 1:, :]
    s1 = a + (b - a) / 3.0
    s2 = a + 2.0 * (b - a) / 3.0
    return np.concatenate([s1, s2], axis=-2)


def human_capsules(pose: Pose):
    """Arm capsules (p0, p1, radius) for the human collision body."""
    return [(pose.joints[i], pose.joints[j], HUMAN_CAPSULE_RADIUS) for i, j in ARM_BONES]


def _point_segment_dist(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point (..., 3) to segment a-b."""
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom < 1e-18:
        return np.linalg.norm(points - a, axis=-1)
    t = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.linalg.norm(points - proj, axis=-1)


def min_separation(model: ArmModel, q: np.ndarray, human: Pose,
                   margin_spheres=None) -> float:
    """Minimum signed clearance between robot spheres and the human body.

    Negative values are penetration depth.  When ``margin_spheres`` is given
    as a list of (center, radius), those spheres replace the human capsules
    (conservative safety-volume forecasts).
    """
    centers = collision_sphere_centers(model, fk_batch(model, np.asarray(q, dtype=float)))
    best = np.inf
    if margin_spheres is not None:
        for c, r in margin_spheres:
            d = np.linalg.norm(centers - np.asarray(c, dtype=float), axis=-1)
            best = min(best, float(d.min()) - model.sphere_radius - float(r))
    else:
        for a, b, r in human_capsules(human):
            d = _point_segment_dist(centers, a, b)
            best = min(best, float(d.min()) - model.sphere_radius - r)
    return best


def separation_batch(model: ArmModel, centers: np.ndarray, human_frames: np.ndarray) -> np.ndarray:
    """Minimum clearance per (plan, step) against per-step human poses.

    centers: (N, H, 16, 3) robot sphere centers.
    human_frames: (H, J, 3) human poses per step.
    Returns (N, H).
    """
    sep = np.full(centers.shape[:2], np.inf)
    for i, j in ARM_BONES:
        a = human_frames[:, i]            # (H, 3)
        ab = human_frames[:, j] - a       # (H, 3)
        denom = np.einsum("hk,hk->h", ab, ab)  # (H,)
        rel = centers - a[None, :, None, :]    # (N, H, 16, 3)
        t = np.einsum("nhsk,hk->nhs", rel, ab) / np.maximum(denom, 1e-18)[None, :, None]
        t = np.clip(t, 0.0, 1.0)
        proj = a[None, :, None, :] + t[..., None] * ab[None, :, None, :]
        d = np.linalg.norm(centers - proj, axis=-1)
        sep = np.minimum(sep, d.min(axis=-1) - model.sphere_radius - HUMAN_CAPSULE_RADIUS)
    return sep


def separation_batch_spheres(model: ArmModel, centers: np.ndarray,
                             vol_centers: np.ndarray, vol_radii: np.ndarray) -> np.ndarray:
    """Clearance against per-step safety-volume spheres.

    vol_centers: (H, S, 3), vol_radii: (H, S).  Returns (N, H).
    """
    d = np.linalg.norm(centers[:, :, :, None, :] - vol_centers[None, :, None, :, :], axis=-1)
    d = d - vol_radii[None, :, None, :] - model.sphere_radius
    return d.min(axis=(-1, -2))


def step(model: ArmModel, state: ArmState, qd_cmd: np.ndarray, dt: float) -> ArmState:
    """Kinematic integration with velocity and joint-limit clamping.

    Velocity commands are clamped to the limits; joints that hit a position
    limit are clamped there with their velocity zeroed.
    """
    qd = np.clip(np.asarray(qd_cmd, dtype=float), -model.vel, model.vel)
    q = state.q + qd * dt
    lo, hi = model.lo, model.hi
    clamped = (q < lo) | (q > hi)
    q = np.clip(q, lo, hi)
    qd = np.where(clamped, 0.0, qd)
    return ArmState(q=q, qd=qd)


def rollout_arrays(model: ArmModel, q0: np.ndarray, controls: np.ndarray, dt: float):
    """Vectorized rollout of (N, H, 7) velocity controls from one start config.

    Returns (Q, Qd): positions and applied velocities, each (N, H, 7).
    Mirrors `step` exactly (clamping included).
    """
    controls = np.asarray(controls, dtype=float)
    N, H, _ = controls.shape
    lo, hi, vel = model.lo, model.hi, model.vel
    Q = np.empty((N, H, N_DOF))
    Qd = np.empty((N, H, N_DOF))
    q = np.broadcast_to(np.asarray(q0, dtype=float), (N, N_DOF)).copy()
    for t in range(H):
        qd = np.clip(controls[:, t], -vel, vel)
        q = q + qd * dt
        clamped = (q < lo) | (q > hi)
        q = np.clip(q, lo, hi)
        qd = np.where(clamped, 0.0, qd)
        Q[:, t] = q
        Qd[:, t] = qd
    return Q, Qd
