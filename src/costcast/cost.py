"""Planner cost function: base arm-quality terms plus per-task terms.

Every term scores a batch of N plans, (N, H, 7) joint arrays, so the planner
scores all its samples at once; a single plan is a batch of one.
``total_cost_batch`` runs forward kinematics and the collision sum once and
hands both to every term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forecast import Forecast, POINT, SAFETY_VOLUME
from .motion import MotionError, WRIST_INDICES
from .robot import (
    ArmModel,
    RigidPose,
    collision_sphere_centers,
    fk_batch,
    manipulability_batch,
    separation_batch,
    separation_batch_spheres,
)

D_SAFE = 0.05
ORIENTATION_WEIGHT = 0.3  # rad <-> m tradeoff in the pose cost
STOP_WINDOW = 5           # final steps penalized for nonzero velocity
JOINT_MARGIN = 0.9        # fraction of half-range before the limit hinge activates


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
        for name in ("alpha_s", "alpha_j", "alpha_m", "alpha_c", "alpha_t", "beta"):
            if getattr(self, name) < 0:
                raise MotionError(f"{name} must be nonnegative")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("alpha_s", "alpha_j", "alpha_m", "alpha_c", "alpha_t",
                 "beta", "eps_pot", "manip_floor")}


@dataclass(frozen=True)
class TaskSpec:
    task: str
    pot_position: np.ndarray | None = None
    rest_config: np.ndarray | None = None       # joint-space retract target
    stir_reference: np.ndarray | None = None    # (n, 7) joint-space stirring cycle
    object_in_hand: bool = False
    table_goal: RigidPose | None = None

    def __post_init__(self):
        if self.task not in ("stir", "handover", "tableset"):
            raise MotionError(f"unknown task {self.task!r}")
        if self.pot_position is not None:
            object.__setattr__(self, "pot_position", np.asarray(self.pot_position, dtype=float))
        if self.rest_config is not None:
            object.__setattr__(self, "rest_config", np.asarray(self.rest_config, dtype=float))
        if self.stir_reference is not None:
            object.__setattr__(self, "stir_reference", np.asarray(self.stir_reference, dtype=float))

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise MotionError(f"task {self.task!r} requires spec field {name!r}")


def _forecast_frames(forecast: Forecast, H: int) -> np.ndarray:
    if forecast.kind != POINT:
        raise MotionError("this operation needs a point-trajectory forecast")
    frames = forecast.trajectory.frames
    if frames.shape[0] < H:
        raise MotionError("forecast horizon shorter than plan horizon")
    return frames[:H]


def hinge(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


# --- terms ---------------------------------------------------------------
#
# ``frames`` is the (R, p) pair that ``fk_batch`` returns for Q: rotations
# (N, H, 8, 3, 3) and origins (N, H, 8, 3), end effector at index 7.

def base_terms_batch(model: ArmModel, Q: np.ndarray, Qd: np.ndarray, frames,
                     weights: CostWeights) -> np.ndarray:
    """alpha_s*C_stop + alpha_j*C_joint + alpha_m*C_manip per plan, shape (N,)."""
    stop = np.sum(Qd[:, -STOP_WINDOW:] ** 2, axis=(1, 2))
    mid = model.mid()
    half = 0.5 * (model.hi - model.lo)
    joint = np.sum(hinge(np.abs(Q - mid) - JOINT_MARGIN * half) ** 2, axis=(1, 2))
    manip = np.sum(hinge(weights.manip_floor - manipulability_batch(frames)), axis=1)
    return weights.alpha_s * stop + weights.alpha_j * joint + weights.alpha_m * manip


def separation_against_forecast(model: ArmModel, frames, forecast: Forecast) -> np.ndarray:
    """Per-step minimum clearance (N, H) against a forecast of either kind."""
    centers = collision_sphere_centers(model, frames)
    H = centers.shape[1]
    if forecast.kind == SAFETY_VOLUME:
        if forecast.centers.shape[0] < H:
            raise MotionError("forecast horizon shorter than plan horizon")
        return separation_batch_spheres(model, centers, forecast.centers[:H],
                                        forecast.radii[:H])
    return separation_batch(model, centers, _forecast_frames(forecast, H))


def collision_terms_batch(model: ArmModel, frames, forecast: Forecast) -> np.ndarray:
    """Unweighted collision sum, sum_t hinge(D_SAFE - sep)^2 per plan (N,)."""
    sep = separation_against_forecast(model, frames, forecast)
    return np.sum(hinge(D_SAFE - sep) ** 2, axis=1)


def _wrist_pot_distance(forecast: Forecast, pot: np.ndarray, H: int) -> np.ndarray:
    """Per-step distance of the nearest forecast wrist to the pot, shape (H,)."""
    if forecast.kind == SAFETY_VOLUME:
        d = np.linalg.norm(forecast.centers[:H] - pot, axis=-1) - forecast.radii[:H]
        return np.maximum(d, 0.0).min(axis=-1)
    frames = _forecast_frames(forecast, H)
    wrists = frames[:, list(WRIST_INDICES)]
    return np.linalg.norm(wrists - pot, axis=-1).min(axis=-1)


# Every task term takes (Q, frames, coll, forecast, spec, weights), where
# ``coll`` is the collision sum of ``collision_terms_batch``, and returns (N,).

def stir_terms_batch(Q: np.ndarray, frames, coll: np.ndarray, forecast: Forecast,
                     spec: TaskSpec, weights: CostWeights) -> np.ndarray:
    """Retract to rest while the forecast wrist is near the pot, else track the stir cycle."""
    spec.require("pot_position", "rest_config", "stir_reference")
    N, H, _ = Q.shape
    D = _wrist_pot_distance(forecast, spec.pot_position, H)
    near = D <= weights.eps_pot                       # (H,)
    ref = spec.stir_reference
    ref_h = ref[np.arange(H) % ref.shape[0]]          # (H, 7)
    d_rest = np.linalg.norm(Q - spec.rest_config, axis=-1)   # (N, H)
    d_stir = np.linalg.norm(Q - ref_h[None], axis=-1)        # (N, H)
    return np.sum(np.where(near[None], d_rest, d_stir), axis=1)


def pose_error_batch(ee_pos: np.ndarray, ee_R: np.ndarray, target_pos: np.ndarray,
                     target_R: np.ndarray) -> np.ndarray:
    """Position + weighted geodesic-orientation error per element.

    ee_pos: (..., 3), ee_R: (..., 3, 3); the target position (3,) and
    rotation (3, 3) broadcast against them.
    """
    dp = np.linalg.norm(ee_pos - target_pos, axis=-1)
    rel = np.swapaxes(ee_R, -1, -2) @ target_R
    tr = np.clip((np.trace(rel, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    ang = np.arccos(tr)
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


def handover_terms_batch(Q: np.ndarray, frames, coll: np.ndarray, forecast: Forecast,
                         spec: TaskSpec, weights: CostWeights) -> np.ndarray:
    """Track the grasp pose at the forecast final wrist while the object is in hand."""
    if forecast.kind == SAFETY_VOLUME:
        raise MotionError("handover cost needs a point forecast (no wrist in a safety volume)")
    if not spec.object_in_hand:
        return np.zeros(Q.shape[0])
    # the moving (right) wrist is the handover hand
    wrist = forecast.trajectory.frames[-1, WRIST_INDICES[1]]
    R, p = frames
    target_R = grasp_pose(p[:, 0, 7], R[:, 0, 7], wrist)
    return np.sum(pose_error_batch(p[:, :, 7], R[:, :, 7], wrist, target_R[:, None]), axis=1)


def tableset_terms_batch(Q: np.ndarray, frames, coll: np.ndarray, forecast: Forecast,
                         spec: TaskSpec, weights: CostWeights) -> np.ndarray:
    """Goal reaching plus beta-weighted collision avoidance."""
    spec.require("table_goal")
    R, p = frames
    target = spec.table_goal
    goal = np.sum(pose_error_batch(p[..., 7, :], R[..., 7, :, :], target.position,
                                   target.rotation().as_matrix()), axis=1)
    return goal + weights.beta * coll


TASK_TERMS = {
    "stir": stir_terms_batch,
    "handover": handover_terms_batch,
    "tableset": tableset_terms_batch,
}


def total_cost_batch(model: ArmModel, Q: np.ndarray, Qd: np.ndarray,
                     forecast: Forecast, spec: TaskSpec,
                     weights: CostWeights) -> np.ndarray:
    """base + alpha_c * collision + alpha_t * task term, per plan (N,).

    Forward kinematics and the collision sum are computed once and shared by
    every term.
    """
    frames = fk_batch(model, Q)
    coll = collision_terms_batch(model, frames, forecast)
    total = base_terms_batch(model, Q, Qd, frames, weights)
    total = total + weights.alpha_c * coll
    total = total + weights.alpha_t * TASK_TERMS[spec.task](Q, frames, coll, forecast,
                                                            spec, weights)
    return total
