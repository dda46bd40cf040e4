"""Simulated 7-DoF serial arm: batch kinematics, manipulability, collision
geometry against the human, and clamped velocity integration.

``fk_batch`` maps joint configurations of any batch shape, one configuration
included, to world-frame (R, p) frames; the linear Jacobian, manipulability
and collision spheres are all computed from those frames.  Every kinematics
array puts the batch axes last: frames are (8, 3, 3, *batch) and (8, 3,
*batch), sphere centers (16, 3, *batch), so each coordinate is a contiguous
(*batch) plane and one configuration gives the plain (8, 3, 3), (8, 3) and
(16, 3) arrays.  The kernels follow the dtype of their input: float32
configurations give float32 frames, Jacobian, manipulability, sphere centers
and clearances, and any other input is computed in float64.  The default
model approximates a Franka-class arm via modified-DH parameters.  Geometry
lives in the config; algorithms do not depend on the exact plant.

The human is a set of per-step capsules, and ``separation_batch`` is the one
clearance kernel against them: ``arm_capsules`` turns poses into the
``ARM_BONES`` capsules.  ``rollout_arrays`` is the one clamped integrator;
``step`` is its single-step call.

Every element takes the same operations whatever the batch, so a subset of
sphere rows is bit for bit those rows, and a batched row is bit for bit its
one-row call: column i of ``fk_batch`` over (T, 7) configurations is
``fk_batch`` of row i, and a (16, 3, 1, T) ``separation_batch`` is its T
per-step (16, 3, 1, 1) calls.

Sampled plans live in step-major, joint-planar (H, 7, N) memory:
``rollout_arrays`` integrates there and returns (N, H, 7) views of it, with
the sample axis innermost.  NumPy keeps an input's memory order (K-order) in
elementwise results and casts, so every consumer of the plans, from the
float32 casts of the planner to the cost terms, broadcasts its per-joint
constants (limits, mid-range, rest pose, stir reference) along the N samples
rather than along the 7 joints.

An ``ArmModel`` is frozen, so its limit arrays ``lo``, ``hi``, ``vel`` and
``mid()`` are built once per model, cached on the instance and read-only;
``dataclasses.replace`` gives a new model with its own.  ``memo`` holds what
callers derive from a model, such as the cost's limit hinge in a dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
_BONE_STARTS, _BONE_ENDS = np.array(ARM_BONES).T   # joint indices, (4,) each


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

    @cached_property
    def lo(self) -> np.ndarray:
        return _read_only(np.array([l for l, _ in self.joint_limits]))

    @cached_property
    def hi(self) -> np.ndarray:
        return _read_only(np.array([h for _, h in self.joint_limits]))

    @cached_property
    def vel(self) -> np.ndarray:
        return _read_only(np.array(self.vel_limits, dtype=float))

    @cached_property
    def _mid(self) -> np.ndarray:
        return _read_only(0.5 * (self.lo + self.hi))

    def mid(self) -> np.ndarray:
        return self._mid

    @cached_property
    def memo(self) -> dict:
        """Constants that callers derive from this model, each under its
        caller's key; computed once per model, which is frozen."""
        return {}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def fk_batch(model: ArmModel, Q: np.ndarray):
    """Forward kinematics for a batch of configurations.

    Q has shape (*batch, 7).  Returns (R, p): rotation matrices (8, 3, 3,
    *batch) and origins (8, 3, *batch) for the 7 joint frames plus the
    flanged end-effector frame, all in the world frame.  One configuration
    (batch ``()``) gives the plain (8, 3, 3) and (8, 3) arrays.  A float32 Q
    gives float32 frames; any other Q gives float64 frames.

    Each frame is carried as its three world-frame axes ``x, y, z``, arrays of
    shape (3, *batch), so a DH row is two plane rotations of axis pairs and
    two translations along an axis, all elementwise against per-joint
    (*batch) planes.  Each joint's cosine and sine come from one tangent of
    the half angle, tau = tan(q/2): cos q = (1 - tau^2)/(1 + tau^2) and
    sin q = 2 tau/(1 + tau^2).  A twist of exactly +-pi/2 is the exact axis
    swap y, z <- +-z, -+y; any other twist is a plane rotation.
    """
    Q = np.asarray(Q)
    dtype = np.result_type(Q, np.float32)
    batch = Q.shape[:-1]
    R = np.empty((8, 3, 3) + batch, dtype)
    p = np.empty((8, 3) + batch, dtype)
    tau = np.tan(np.multiply(np.moveaxis(Q, -1, 0), 0.5, order="C"))   # (7, *batch) planes
    tau2 = tau * tau
    scale = 1.0 / (1.0 + tau2)
    cos_q = (1.0 - tau2) * scale
    sin_q = 2.0 * tau * scale
    # (3, 1, ...) columns, which the joint planes broadcast to (3, *batch)
    column = (3,) + (1,) * len(batch)
    x, y, z = np.eye(3, dtype=dtype).reshape((3,) + column)
    pos = np.asarray(model.base_position, dtype).reshape(column)
    for i, (a, d, alpha) in enumerate(model.dh):
        # T = RotX(alpha) TransX(a) RotZ(theta) TransZ(d)
        if alpha == np.pi / 2:
            y, z = z, -y
        elif alpha == -np.pi / 2:
            y, z = -z, y
        elif alpha:
            # Python floats, which leave a float32 batch float32
            ca, sa = float(np.cos(alpha)), float(np.sin(alpha))
            y, z = ca * y + sa * z, ca * z - sa * y
        if a:
            pos = pos + a * x
        ct, st = cos_q[i], sin_q[i]
        x, y = ct * x + st * y, ct * y - st * x
        if d:
            pos = pos + d * z
        R[i, :, 0], R[i, :, 1], R[i, :, 2], p[i] = x, y, z, pos
    R[7] = R[6]
    p[7] = pos + model.flange_offset * z
    return R, p


def linear_jacobian(frames) -> np.ndarray:
    """Linear Jacobian columns cross(z_i, p_ee - p_i) from ``fk_batch`` frames.

    ``frames`` is the (R, p) pair.  The result is component-major, shape
    (3, 7, *batch): row k holds the k-th coordinate of every joint's column,
    so for one configuration it is the 3x7 matrix.
    """
    R, p = frames
    z = R[:7, :, 2]        # (7, 3, *batch)
    e = p[7] - p[:7]       # (7, 3, *batch)
    J = np.empty((3,) + z.shape[:1] + z.shape[2:], z.dtype)
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        np.subtract(z[:, i] * e[:, j], z[:, j] * e[:, i], out=J[k])
    return J


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


def collision_sphere_centers(model: ArmModel, frames, rows=range(16)) -> np.ndarray:
    """World centers of robot collision spheres, shape (len(rows), 3, *batch).

    ``frames`` is the (R, p) pair of ``fk_batch``.  Two spheres per chain
    segment, at 1/3 and 2/3 of the straight segment between consecutive frame
    origins (base included): rows 0-7 hold the 1/3 points and rows 8-15 the
    2/3 points of segments 0-7.  Only the requested rows are built, in the
    order given.  Each run of consecutive rows of segments 1-7 is built as one
    slice, and the base segment's row on its own; every element takes the same
    operations, so a subset is bit for bit those rows of the full set.
    """
    _, p = frames
    batch = p.shape[2:]
    base = np.asarray(model.base_position, p.dtype).reshape((1, 3) + (1,) * len(batch))
    rows = list(rows)
    centers = np.empty((len(rows), 3) + batch, p.dtype)
    i = 0
    while i < len(rows):
        first = rows[i] % 8
        j = i + 1
        if first:
            while j < len(rows) and rows[j] == rows[j - 1] + 1 and rows[j] % 8:
                j += 1
        c = centers[i:j]
        a = p[first - 1:first - 1 + j - i] if first else base
        np.subtract(p[first:first + j - i], a, out=c)
        if rows[i] >= 8:
            c *= 2.0
        c /= 3.0
        c += a
        i = j
    return centers


def sphere_row_boxes(model: ArmModel, frames):
    """Lower and upper corners (2, 16, 3) of a box around each collision
    sphere row's centers over the whole batch, from the boxes of the frame
    origins; float64 whatever the frames' dtype.

    The row at fraction k/3 of the segment from origin a to origin b gets
    ``((3 - k) lo_a + k lo_b) / 3`` to ``((3 - k) hi_a + k hi_b) / 3``, which
    holds its centers up to rounding.
    """
    _, p = frames
    origins = p.reshape(8, 3, -1)
    ends = np.empty((2, 9, 3))     # lower and upper corners, base first
    ends[:, 0] = model.base_position
    ends[0, 1:] = origins.min(axis=-1)
    ends[1, 1:] = origins.max(axis=-1)
    a, b = ends[:, :-1], ends[:, 1:]
    return np.concatenate([(2.0 * a + b) / 3.0, (a + 2.0 * b) / 3.0], axis=1)


def arm_capsules(frames: np.ndarray):
    """The ``ARM_BONES`` capsule axes of human poses (H, J, 3): starts and
    ends (H, 4, 3).  Every human capsule has ``HUMAN_CAPSULE_RADIUS``."""
    return frames[:, _BONE_STARTS], frames[:, _BONE_ENDS]


def separation_batch(model: ArmModel, centers: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
    """Minimum clearance per (plan, step) against per-step human capsules.

    centers: (rows, 3, N, H) robot sphere centers from ``collision_sphere_centers``.
    starts, ends: (H, P, 3) the two ends of each of P capsule axes per step,
    every capsule of radius ``HUMAN_CAPSULE_RADIUS``.  Returns (N, H) in the
    dtype of the centers.

    Each coordinate of the centers is a (rows, N, H) plane, so each capsule is
    elementwise work against its per-step scalars, spread once into (N, H)
    planes, with every temporary in a scratch buffer allocated once per call.
    Each capsule's squared distances are reduced over the sphere rows into
    its own (N, H) plane; then one square root is taken of every plane, and
    the robot sphere radius and then the capsule radius, a float64 operand,
    are subtracted before the minimum over capsules.
    """
    cx, cy, cz = centers.swapaxes(0, 1)   # (rows, N, H) each
    rx, ry, rz, t, tmp = (np.empty(cx.shape, cx.dtype) for _ in range(5))
    planes = np.empty((7,) + cx.shape[1:], cx.dtype)
    # step-major memory, so the caller's sum over steps adds in step order
    dist = np.empty((starts.shape[1],) + cx.shape[:0:-1], cx.dtype)   # (P, H, N)
    for a, b, d in zip(starts.swapaxes(0, 1), ends.swapaxes(0, 1), dist):   # (H, 3), (H, N)
        ab = b - a
        planes[:3] = a.T[:, None]
        planes[3:6] = ab.T[:, None]
        planes[6] = np.maximum(np.einsum("hk,hk->h", ab, ab), 1e-18)
        ax, ay, az, bx, by, bz, denom = planes   # (N, H) each
        np.subtract(cx, ax, out=rx)
        np.subtract(cy, ay, out=ry)
        np.subtract(cz, az, out=rz)
        # t = (r . ab) / |ab|^2, clipped onto the axis
        np.multiply(rx, bx, out=t)
        t += np.multiply(ry, by, out=tmp)
        t += np.multiply(rz, bz, out=tmp)
        t /= denom
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        rx -= np.multiply(t, bx, out=tmp)
        ry -= np.multiply(t, by, out=tmp)
        rz -= np.multiply(t, bz, out=tmp)
        np.multiply(rx, rx, out=t)
        t += np.multiply(ry, ry, out=tmp)
        t += np.multiply(rz, rz, out=tmp)
        t.min(axis=0, out=d.T)
    np.sqrt(dist, out=dist)
    dist -= model.sphere_radius
    dist -= np.float64(HUMAN_CAPSULE_RADIUS)
    return dist.min(axis=0, initial=np.inf).T


def rollout_arrays(model: ArmModel, q0: np.ndarray, controls: np.ndarray, dt: float):
    """Vectorized rollout of (N, H, 7) velocity controls from one start config.

    Returns (Q, Qd): positions and applied velocities, each (N, H, 7).
    Velocity commands are clipped to the limits up front, each step's
    position is integrated (U) and then clamped to the joint limits (Q), and
    a joint's velocity is zeroed wherever its integrated position left the
    limits.

    The work runs in step-major, joint-planar (H, 7, N) memory: each step is
    an add, a maximum and a minimum on one contiguous (7, N) slab, against
    the limits spread once into (7, N) slabs, so every per-joint constant
    broadcasts along the N samples.  Q and Qd are (N, H, 7) views of that
    memory, with the sample axis innermost; elementwise work on them keeps
    that layout.
    """
    controls = np.asarray(controls, dtype=float)
    n, h, _ = controls.shape
    vel = model.vel[:, None]
    Qd = np.empty((h, N_DOF, n))
    np.clip(controls.transpose(1, 2, 0), -vel, vel, out=Qd)
    delta = Qd * dt
    U = np.empty_like(Qd)
    Q = np.empty_like(Qd)
    # the limits as whole (7, N) slabs: one contiguous inner loop per ufunc
    lo_n, hi_n = (np.repeat(c[:, None], n, axis=1) for c in (model.lo, model.hi))
    q = np.asarray(q0, dtype=float)[:, None]
    for d, u, q_t in zip(delta, U, Q):
        np.add(q, d, out=u)
        q = np.minimum(np.maximum(u, lo_n, out=q_t), hi_n, out=q_t)
    np.putmask(Qd, (U < lo_n) | (U > hi_n), 0.0)
    return Q.transpose(2, 0, 1), Qd.transpose(2, 0, 1)


def step(model: ArmModel, q: np.ndarray, qd_cmd: np.ndarray, dt: float):
    """One clamped integration step, ``rollout_arrays`` at N = H = 1, from
    configuration q: the next configuration and the applied velocity, (q, qd),
    each (7,)."""
    Q, Qd = rollout_arrays(model, q, np.asarray(qd_cmd, dtype=float)[None, None], dt)
    return Q[0, 0], Qd[0, 0]
