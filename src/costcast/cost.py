"""Planner cost function: base arm-quality terms plus per-task terms.

Every term scores a batch of N plans, (N, H, 7) joint arrays, so the planner
scores all its samples at once; a single plan is a batch of one.  The terms
read their task's ``TaskSpec`` fields unchecked; the spec checks them.
``total_cost_batch`` runs forward kinematics and the collision sum once and
hands both to every term.

The per-step work follows the plans' dtype: float32 plans get float32
kinematics, clearances and per-step terms, with the model, spec and forecast
constants cast to that dtype where they meet (N, H, .) arrays.  Each term's
sum over steps accumulates in float64, and the weights multiply those float64
sums, so every cost is float64 and a weight anywhere in float64's range
behaves as it does on float64 plans.

A forecast is a point forecast, the predicted ``Trajectory``.  The collision
path sees it as the per-step ``ARM_BONES`` capsules of ``arm_capsules``, and
every capsule goes through the one clearance kernel, ``separation_batch``.

The collision sum sum_t hinge(D_SAFE - sep)^2 gets nothing from a robot
sphere that stays more than D_SAFE from the human, so ``collision_terms_batch``
first runs a reach test on boxes.  Each sphere row's box over every plan and
step comes from the boxes of the two frame origins it lies between, and each
human capsule gets one box over the horizon.  A (row, part) pair whose boxes
are farther apart than D_SAFE plus the sphere radius (and a slack of
``REACH_SLACK``) on some axis cannot change a cost.  Centers are built only
for the rows with some pair in reach, and the exact clearance kernel runs
only on the parts with some pair in reach, so every sum is bit for bit the
full one.  A NaN in the forecast keeps every pair it touches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .motion import TASKS, MotionError, WRIST_INDICES, Trajectory, check_field_types
from .robot import (
    HUMAN_CAPSULE_RADIUS,
    N_DOF,
    ArmModel,
    arm_capsules,
    collision_sphere_centers,
    fk_batch,
    manipulability_batch,
    separation_batch,
    sphere_row_boxes,
)

D_SAFE = 0.05
ORIENTATION_WEIGHT = 0.3  # rad <-> m tradeoff in the pose cost
STOP_WINDOW = 5           # final steps penalized for nonzero velocity
JOINT_MARGIN = 0.9        # fraction of half-range before the limit hinge activates
REACH_SLACK = 1e-6        # m; ten times the rounding of a float32 clearance (~1e-7 m)


@dataclass(frozen=True)
class CostWeights:
    alpha_s: float = 1.0
    alpha_j: float = 10.0
    alpha_m: float = 0.5
    alpha_c: float = 100.0
    alpha_t: float = 50.0
    beta: float = 5.0
    eps_pot: float = 0.15
    manip_floor: float = 0.05

    def __post_init__(self):
        check_field_types(self)
        for name in ("alpha_s", "alpha_j", "alpha_m", "alpha_c", "alpha_t", "beta"):
            if getattr(self, name) < 0:
                raise MotionError(f"{name} must be nonnegative")
        if self.eps_pot <= 0:
            raise MotionError("eps_pot must be positive")


# Every task needs rest_config, because playback starts the arm there.
TASK_FIELDS = {
    "stir": ("rest_config", "pot_position", "stir_reference"),
    "handover": ("rest_config",),
    "tableset": ("rest_config", "table_goal"),
}


@dataclass(frozen=True)
class TaskSpec:
    """What one task's cost and playback read, checked here once: the task's
    ``TASK_FIELDS`` are required, ``rest_config``, where playback starts the
    arm, is 7 finite joint angles, and ``table_goal`` is a 4x4 rigid transform."""

    task: str
    pot_position: np.ndarray | None = None
    rest_config: np.ndarray | None = None       # joint-space retract target
    stir_reference: np.ndarray | None = None    # (n, 7) joint-space stirring cycle
    object_in_hand: bool = False
    table_goal: np.ndarray | None = None       # 4x4 homogeneous end-effector goal

    def __post_init__(self):
        if self.task not in TASKS:
            raise MotionError(f"unknown task {self.task!r}")
        for name in TASK_FIELDS[self.task]:
            if getattr(self, name) is None:
                raise MotionError(f"task {self.task!r} requires spec field {name!r}")
        for name in ("pot_position", "rest_config", "stir_reference"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.rest_config.shape != (N_DOF,) or not np.isfinite(self.rest_config).all():
            raise MotionError("rest_config must be 7 finite joint angles")
        if self.table_goal is not None:
            T = np.asarray(self.table_goal, dtype=float)
            if (T.shape != (4, 4) or not np.array_equal(T[3], [0.0, 0.0, 0.0, 1.0])
                    or not np.allclose(T[:3, :3].T @ T[:3, :3], np.eye(3), rtol=0, atol=1e-9)
                    or np.linalg.det(T[:3, :3]) <= 0):
                raise MotionError("table_goal must be a 4x4 rigid transform")
            object.__setattr__(self, "table_goal", T)


def _first_steps(steps: np.ndarray, H: int) -> np.ndarray:
    """The first H steps of a per-step forecast array."""
    if steps.shape[0] < H:
        raise MotionError("forecast horizon shorter than plan horizon")
    return steps[:H]


def hinge(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


# --- terms ---------------------------------------------------------------
#
# ``frames`` is the (R, p) pair that ``fk_batch`` returns for Q: rotations
# (8, 3, 3, N, H) and origins (8, 3, N, H), end effector at index 7, with the
# batch axes last.  The pose terms score the end effector straight from the
# (3, 3, N, H) and (3, N, H) planes ``R[7]`` and ``p[7]``.

def base_terms_batch(model: ArmModel, Q: np.ndarray, Qd: np.ndarray, frames,
                     weights: CostWeights) -> np.ndarray:
    """alpha_s*C_stop + alpha_j*C_joint + alpha_m*C_manip per plan, shape (N,)."""
    stop = np.sum(Qd[:, -STOP_WINDOW:] ** 2, axis=(1, 2), dtype=float)
    mid = model.mid().astype(Q.dtype)
    half = 0.5 * (model.hi - model.lo)
    margin = (JOINT_MARGIN * half).astype(Q.dtype)
    joint = np.sum(hinge(np.abs(Q - mid) - margin) ** 2, axis=(1, 2), dtype=float)
    # float64, because the floor is a weight and may lie beyond float32's range
    manip = np.sum(hinge(np.subtract(weights.manip_floor, manipulability_batch(frames),
                                     dtype=float)), axis=1)
    return weights.alpha_s * stop + weights.alpha_j * joint + weights.alpha_m * manip


def _pairs_in_reach(model: ArmModel, frames, capsules):
    """Indices of the sphere rows and of the human capsules that may come
    within D_SAFE of each other at some plan and step.

    A (row, part) pair is out of reach when, on some axis, the row's box over
    all plans and steps is more than D_SAFE + sphere radius + ``REACH_SLACK``
    from the capsule's box over the horizon.  The largest gap over the axes
    is taken with NaN propagating, so a NaN in either box keeps the pair.
    """
    starts, ends = capsules
    r = np.float64(HUMAN_CAPSULE_RADIUS)
    part_lo = (np.minimum(starts, ends) - r).min(axis=0)   # (parts, 3)
    part_hi = (np.maximum(starts, ends) + r).max(axis=0)
    row_lo, row_hi = sphere_row_boxes(model, frames)
    gap = np.maximum(row_lo[:, None] - part_hi, part_lo - row_hi[:, None]).max(axis=-1)
    near = ~(gap > D_SAFE + model.sphere_radius + REACH_SLACK)   # (16, parts)
    return np.flatnonzero(near.any(axis=1)), np.flatnonzero(near.any(axis=0))


def collision_terms_batch(model: ArmModel, frames, forecast: Trajectory) -> np.ndarray:
    """Unweighted collision sum, sum_t hinge(D_SAFE - sep)^2 per plan (N,).

    Only the sphere rows and human capsules in reach of each other are
    built and go to the clearance kernel; with none in reach the sum is zero
    and no centers are built.
    """
    capsules = arm_capsules(_first_steps(forecast.frames, frames[1].shape[-1]))
    rows, parts = _pairs_in_reach(model, frames, capsules)
    if not rows.size:
        return np.zeros(frames[1].shape[2])
    centers = collision_sphere_centers(model, frames, rows)
    sep = separation_batch(model, centers, *(c[:, parts] for c in capsules))
    return np.sum(hinge(D_SAFE - sep) ** 2, axis=1, dtype=float)


def wrist_pot_distance(frames: np.ndarray, pot: np.ndarray) -> np.ndarray:
    """Per-frame distance of the nearer wrist to the pot, (n,) for frames (n, J, 3)."""
    return np.linalg.norm(frames[:, list(WRIST_INDICES)] - pot, axis=-1).min(axis=-1)


def stir_retract_mask(frames: np.ndarray, spec: TaskSpec, weights: CostWeights) -> np.ndarray:
    """Whether the stir term retracts at each of frames (n, J, 3), shape (n,):
    a wrist lies within ``eps_pot`` of the pot."""
    return wrist_pot_distance(frames, spec.pot_position) <= weights.eps_pot


# Every task term takes (Q, frames, coll, forecast, spec, weights), where
# ``coll`` is the collision sum of ``collision_terms_batch``, and returns (N,).

def stir_terms_batch(Q: np.ndarray, frames, coll: np.ndarray, forecast: Trajectory,
                     spec: TaskSpec, weights: CostWeights) -> np.ndarray:
    """Retract to rest while the forecast wrist is near the pot, else track the stir cycle."""
    N, H, _ = Q.shape
    near = stir_retract_mask(_first_steps(forecast.frames, H), spec, weights)
    ref = spec.stir_reference
    ref_h = ref[np.arange(H) % ref.shape[0]].astype(Q.dtype)                 # (H, 7)
    d_rest = np.linalg.norm(Q - spec.rest_config.astype(Q.dtype), axis=-1)   # (N, H)
    d_stir = np.linalg.norm(Q - ref_h[None], axis=-1)                        # (N, H)
    return np.sum(np.where(near[None], d_rest, d_stir), axis=1, dtype=float)


def _batch_last(target, like: np.ndarray) -> np.ndarray:
    """``target`` in the dtype of ``like``, with trailing unit axes up to
    ``like.ndim`` axes, so it broadcasts against the batch-last array ``like``
    from the leading batch axis on."""
    target = np.asarray(target, like.dtype)
    return target.reshape(target.shape + (1,) * (like.ndim - target.ndim))


def pose_error_batch(ee_pos: np.ndarray, ee_R: np.ndarray, target_pos: np.ndarray,
                     target_R: np.ndarray) -> np.ndarray:
    """Position + weighted geodesic-orientation error per configuration.

    ee_pos (3, *batch) and ee_R (3, 3, *batch) are batch-last end-effector
    frames, the ``p[7]`` and ``R[7]`` of ``fk_batch``.  The target position
    (3, *lead) and rotation (3, 3, *lead) take the leading batch axes they
    vary over: ``lead`` is () for a constant target and (N,) for per-plan
    targets.  The position error is a norm over 3 planes, and
    tr(ee_R^T target_R) a sum of 9 elementwise products.  Returns (*batch).
    """
    dp = np.linalg.norm(ee_pos - _batch_last(target_pos, ee_pos), axis=0)
    tr = np.einsum("ij...,ij...->...", ee_R, _batch_last(target_R, ee_R))
    ang = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
    return dp + ORIENTATION_WEIGHT * ang


def _skew(k: np.ndarray) -> np.ndarray:
    """Cross-product matrices [k]x of vectors (..., 3), shape (..., 3, 3)."""
    K = np.zeros(k.shape + (3,))
    K[..., 0, 1], K[..., 0, 2] = -k[..., 2], k[..., 1]
    K[..., 1, 0], K[..., 1, 2] = k[..., 2], -k[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -k[..., 1], k[..., 0]
    return K


def grasp_pose(ee_pos: np.ndarray, ee_R: np.ndarray, wrist_final: np.ndarray) -> np.ndarray:
    """Handover grasp orientations (N, 3, 3) at the forecast final wrist.

    ee_pos (N, 3) and ee_R (N, 3, 3) are the current end-effector poses; the
    grasp position is the wrist itself.  The approach axis (end-effector
    local +z) is carried by the minimal rotation onto the line from the end
    effector to the wrist (Rodrigues' formula); roll about the approach axis
    is unchanged.
    """
    line = np.asarray(wrist_final, dtype=float) - ee_pos
    norm = np.linalg.norm(line, axis=-1)
    if (norm <= 1e-6).any():
        raise MotionError("grasp target coincides with the current end effector")
    target_axis = line / norm[:, None]
    approach = ee_R[:, :, 2]
    c = np.einsum("nk,nk->n", approach, target_axis)
    axis = np.cross(approach, target_axis)
    s = np.linalg.norm(axis, axis=-1)
    parallel = s < 1e-12
    # antiparallel: rotate pi about any axis orthogonal to the approach
    ortho = np.cross(approach, [1.0, 0.0, 0.0])
    near_x = np.linalg.norm(ortho, axis=-1) < 1e-6
    ortho[near_x] = np.cross(approach[near_x], [0.0, 1.0, 0.0])
    ortho /= np.linalg.norm(ortho, axis=-1, keepdims=True)
    k = np.where(parallel[:, None], ortho, axis / np.where(parallel, 1.0, s)[:, None])
    sin_a = np.where(parallel, 0.0, s)
    one_minus_cos = np.where(parallel, np.where(c > 0, 0.0, 2.0), 1.0 - c)
    K = _skew(k)
    align = np.eye(3) + sin_a[:, None, None] * K + one_minus_cos[:, None, None] * (K @ K)
    return align @ ee_R


def handover_terms_batch(Q: np.ndarray, frames, coll: np.ndarray, forecast: Trajectory,
                         spec: TaskSpec, weights: CostWeights) -> np.ndarray:
    """Track the grasp pose at the forecast final wrist while the object is in hand."""
    if not spec.object_in_hand:
        return np.zeros(Q.shape[0])
    # the moving (right) wrist is the handover hand
    wrist = forecast.frames[-1, WRIST_INDICES[1]]
    R, p = frames
    target_R = grasp_pose(p[7, :, :, 0].T, np.moveaxis(R[7, :, :, :, 0], -1, 0), wrist)
    return np.sum(pose_error_batch(p[7], R[7], wrist, np.moveaxis(target_R, 0, -1)), axis=1,
                  dtype=float)


def tableset_terms_batch(Q: np.ndarray, frames, coll: np.ndarray, forecast: Trajectory,
                         spec: TaskSpec, weights: CostWeights) -> np.ndarray:
    """Goal reaching plus beta-weighted collision avoidance."""
    T = spec.table_goal
    R, p = frames
    goal = np.sum(pose_error_batch(p[7], R[7], T[:3, 3], T[:3, :3]), axis=1, dtype=float)
    return goal + weights.beta * coll


TASK_TERMS = {
    "stir": stir_terms_batch,
    "handover": handover_terms_batch,
    "tableset": tableset_terms_batch,
}


def total_cost_batch(model: ArmModel, Q: np.ndarray, Qd: np.ndarray,
                     forecast: Trajectory, spec: TaskSpec,
                     weights: CostWeights) -> np.ndarray:
    """base + alpha_c * collision + alpha_t * task term, per plan (N,).

    Forward kinematics and the collision sum are computed once and shared by
    every term.  The kinematics and per-step terms run in the dtype of Q and
    Qd; the result is float64 either way.
    """
    frames = fk_batch(model, Q)
    coll = collision_terms_batch(model, frames, forecast)
    total = base_terms_batch(model, Q, Qd, frames, weights)
    total = total + weights.alpha_c * coll
    total = total + weights.alpha_t * TASK_TERMS[spec.task](Q, frames, coll, forecast,
                                                            spec, weights)
    return total
