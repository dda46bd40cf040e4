"""Simulated 7-DoF serial arm: batch kinematics, manipulability, collision
geometry against the human, and clamped velocity integration.

``fk_batch`` maps joint configurations of any batch shape, one configuration
included, to world-frame (R, p) frames; the linear Jacobian, manipulability
and collision spheres are all computed from those frames.  The default model
approximates a Franka-class arm via modified-DH parameters.  Geometry lives
in the config; algorithms do not depend on the exact plant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .motion import ARM_BONES, MotionError

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

    Each frame is carried as its three world-frame axes ``x, y, z``, arrays of
    shape (..., 3), so a DH row is two plane rotations of axis pairs and two
    translations along an axis, all elementwise.
    """
    Q = np.asarray(Q, dtype=float)
    batch = Q.shape[:-1]
    R = np.empty(batch + (8, 3, 3))
    p = np.empty(batch + (8, 3))
    cos_q, sin_q = np.cos(Q)[..., None], np.sin(Q)[..., None]  # (..., 7, 1)
    x, y, z = (np.broadcast_to(axis, batch + (3,)) for axis in np.eye(3))
    pos = np.broadcast_to(np.asarray(model.base_position, dtype=float), batch + (3,))
    for i, (a, d, alpha) in enumerate(model.dh):
        # T = RotX(alpha) TransX(a) RotZ(theta) TransZ(d)
        if alpha:
            ca, sa = np.cos(alpha), np.sin(alpha)
            y, z = ca * y + sa * z, ca * z - sa * y
        if a:
            pos = pos + a * x
        ct, st = cos_q[..., i, :], sin_q[..., i, :]
        x, y = ct * x + st * y, ct * y - st * x
        if d:
            pos = pos + d * z
        R[..., i, :, 0] = x
        R[..., i, :, 1] = y
        R[..., i, :, 2] = z
        p[..., i, :] = pos
    R[..., 7, :, :] = R[..., 6, :, :]
    p[..., 7, :] = pos + model.flange_offset * z
    return R, p


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (x, y, z, w) of a 3x3 rotation matrix (Shepperd's method).

    The component of largest magnitude is computed from the diagonal and
    kept positive; the other three follow from off-diagonal sums and
    differences.
    """
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    i = int(np.argmax([R[0, 0], R[1, 1], R[2, 2], tr]))
    if i == 3:
        q = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1], 1.0 + tr])
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q = np.empty(4)
        q[i] = 1.0 - tr + 2.0 * R[i, i]
        q[j] = R[j, i] + R[i, j]
        q[k] = R[k, i] + R[i, k]
        q[3] = R[k, j] - R[j, k]
    return q / np.linalg.norm(q)


def linear_jacobian(frames) -> np.ndarray:
    """Linear Jacobian columns cross(z_i, p_ee - p_i) from ``fk_batch`` frames.

    ``frames`` is the (R, p) pair.  The result is component-major, shape
    (3, 7, ...): row k holds the k-th coordinate of every joint's column, so
    for one configuration it is the 3x7 matrix.
    """
    R, p = frames
    z = np.ascontiguousarray(np.moveaxis(R[..., :7, :, 2], (-1, -2), (0, 1)))
    e = np.ascontiguousarray(np.moveaxis(p[..., 7:8, :] - p[..., :7, :], (-1, -2), (0, 1)))
    return np.stack([z[1] * e[2] - z[2] * e[1],
                     z[2] * e[0] - z[0] * e[2],
                     z[0] * e[1] - z[1] * e[0]])


def manipulability_batch(frames) -> np.ndarray:
    """Yoshikawa measure per configuration from ``fk_batch`` frames (R, p).

    The 3x3 Gram matrix J_lin J_lin^T is summed from the Jacobian components
    and its determinant expanded in closed form.
    """
    jx, jy, jz = linear_jacobian(frames)
    gxx, gyy, gzz = (jx * jx).sum(0), (jy * jy).sum(0), (jz * jz).sum(0)
    gxy, gxz, gyz = (jx * jy).sum(0), (jx * jz).sum(0), (jy * jz).sum(0)
    det = (gxx * (gyy * gzz - gyz * gyz) - gxy * (gxy * gzz - gyz * gxz)
           + gxz * (gxy * gyz - gyy * gxz))
    return np.sqrt(np.clip(det, 0.0, None))


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


def separation_batch(model: ArmModel, centers: np.ndarray, human_frames: np.ndarray) -> np.ndarray:
    """Minimum clearance per (plan, step) against per-step human poses.

    centers: (N, H, 16, 3) robot sphere centers.
    human_frames: (H, J, 3) human poses per step.
    Returns (N, H).

    The centers are laid out step-major as three (H, N*16) coordinate
    planes, so each bone is elementwise work against per-step scalars.  The
    minimum is taken over squared distances, with one square root at the end.
    """
    N, H = centers.shape[:2]
    cx, cy, cz = np.moveaxis(centers, (3, 1), (0, 1)).reshape(3, H, -1)
    best = np.full(cx.shape, np.inf)
    for i, j in ARM_BONES:
        a = human_frames[:, i]            # (H, 3)
        ab = human_frames[:, j] - a       # (H, 3)
        denom = np.maximum(np.einsum("hk,hk->h", ab, ab), 1e-18)[:, None]
        (ax, ay, az), (bx, by, bz) = a.T[..., None], ab.T[..., None]  # (H, 1) each
        rx, ry, rz = cx - ax, cy - ay, cz - az
        t = (rx * bx + ry * by + rz * bz) / denom
        np.clip(t, 0.0, 1.0, out=t)
        rx -= t * bx
        ry -= t * by
        rz -= t * bz
        np.minimum(best, rx * rx + ry * ry + rz * rz, out=best)
    dist = np.sqrt(best.reshape(H, N, -1).min(axis=-1).T)
    return dist - model.sphere_radius - HUMAN_CAPSULE_RADIUS


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
