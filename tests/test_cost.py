"""Tests for the planner cost terms: base arm quality, collision, per-task."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from conftest import BASE_POSE
from costcast.cost import (
    CostWeights,
    D_SAFE,
    ORIENTATION_WEIGHT,
    STOP_WINDOW,
    TaskSpec,
    base_terms_batch,
    collision_terms_batch,
    grasp_pose,
    handover_terms_batch,
    hinge,
    pose_error_batch,
    separation_against_forecast,
    stir_terms_batch,
    tableset_terms_batch,
    total_cost_batch,
    _wrist_pot_distance,
)
from costcast.forecast import Forecast, forecast_worst, point_forecast
from costcast.motion import Context, HISTORY_LEN, HORIZON_LEN, MotionError, Pose
from costcast.robot import (
    ArmModel,
    N_DOF,
    RigidPose,
    collision_sphere_centers,
    fk_batch,
    min_separation,
)

MODEL = ArmModel()
H = HORIZON_LEN


def const_plan(q, qd=None, n=H):
    """A plan holding q (and qd) for n steps, as a batch of one: (Q, Qd)."""
    qd = np.zeros(N_DOF) if qd is None else qd
    return np.tile(q, (1, n, 1)), np.tile(qd, (1, n, 1))


def plan_from_arrays(Q, Qd=None):
    """(H, 7) joint arrays as a batch of one: (Q, Qd)."""
    Qd = np.zeros_like(Q) if Qd is None else Qd
    return Q[None], Qd[None]


def base_term(plan, model, w):
    Q, Qd = plan
    return base_terms_batch(model, Q, Qd, fk_batch(model, Q), w)[0]


def collision_term(plan, fc, w):
    Q, _ = plan
    return w.alpha_c * collision_terms_batch(MODEL, fk_batch(MODEL, Q), fc)[0]


def task_term(term, plan, fc, spec, w):
    """One task term of a batch of one, given the kinematics and collision
    sum that ``total_cost_batch`` shares with it."""
    Q, _ = plan
    frames = fk_batch(MODEL, Q)
    return term(Q, frames, collision_terms_batch(MODEL, frames, fc), fc, spec, w)[0]


def far_forecast():
    """Point forecast of a human far from the workspace."""
    frames = np.repeat((BASE_POSE + np.array([0.0, -6.0, 0.0]))[None], H, axis=0)
    return point_forecast(frames)


def near_context(offset=(0.0, 0.0, 0.0)):
    frames = np.repeat((BASE_POSE + np.asarray(offset))[None], HISTORY_LEN, axis=0)
    return Context(frames)


# --- base terms -----------------------------------------------------------

def test_stop_cost_at_velocity_limit():
    w = CostWeights(alpha_j=0.0, alpha_m=0.0)
    plan = const_plan(MODEL.mid(), qd=np.full(N_DOF, 2.0))
    assert base_term(plan, MODEL, w) == pytest.approx(STOP_WINDOW * N_DOF * 4.0, rel=1e-12)
    # velocities outside the final window are free
    Qd = np.zeros((H, N_DOF))
    Qd[:-STOP_WINDOW] = 2.0
    plan = plan_from_arrays(np.repeat(MODEL.mid()[None], H, axis=0), Qd)
    assert base_term(plan, MODEL, w) == 0.0


def test_joint_limit_hinge_squared():
    w = CostWeights(alpha_s=0.0, alpha_m=0.0, alpha_j=10.0)
    assert base_term(const_plan(MODEL.mid()), MODEL, w) == 0.0
    half = 0.5 * (MODEL.hi - MODEL.lo)
    plan = const_plan(MODEL.hi)  # each joint exactly at its limit
    expected = 10.0 * H * np.sum((0.1 * half) ** 2)
    assert base_term(plan, MODEL, w) == pytest.approx(expected, rel=1e-9)


def test_manipulability_floor_penalty():
    coaxial = ArmModel(dh=tuple((0.0, 0.1, 0.0) for _ in range(N_DOF)))
    w = CostWeights(alpha_s=0.0, alpha_j=0.0, alpha_m=0.5, manip_floor=0.05)
    plan = const_plan(coaxial.mid())  # singular everywhere: manip == 0
    assert base_term(plan, coaxial, w) == pytest.approx(0.5 * H * 0.05, rel=1e-12)


# --- collision term -------------------------------------------------------

def test_collision_cost_closed_form_penetration():
    q = MODEL.mid()
    centers = collision_sphere_centers(MODEL, fk_batch(MODEL, q))
    probe = np.array([0.4, 0.0, 1.6])
    d_min = np.linalg.norm(centers - probe, axis=-1).min()
    r = d_min - MODEL.sphere_radius + 0.01   # clearance becomes exactly -0.01
    fc = Forecast(kind="safety_volume",
                  centers=np.repeat(probe[None, None], H, axis=0),
                  radii=np.full((H, 1), r))
    w = CostWeights(alpha_c=100.0)
    expected = 100.0 * H * (D_SAFE + 0.01) ** 2
    assert collision_term(const_plan(q), fc, w) == pytest.approx(expected, rel=1e-9)


def test_collision_cost_matches_per_step_oracle(rng):
    frames = BASE_POSE[None] + rng.normal(0, 0.02, size=(H, 7, 3))
    frames = frames + np.array([0.70, 0.05, 0.35])  # right wrist near the arm column
    fc = point_forecast(frames)
    Q = MODEL.mid()[None] + rng.normal(0, 0.2, size=(H, N_DOF))
    Q = np.clip(Q, MODEL.lo, MODEL.hi)
    w = CostWeights()
    oracle = sum(max(D_SAFE - min_separation(MODEL, Q[t], Pose(frames[t])), 0.0) ** 2
                 for t in range(H))
    got = collision_term(plan_from_arrays(Q), fc, w)
    assert got == pytest.approx(w.alpha_c * oracle, rel=1e-9)
    assert got > 0.0


def test_safety_volume_is_more_conservative_than_truth(rng):
    # clearance against the conservative volume never exceeds clearance
    # against any point trajectory it contains
    ctx = near_context(offset=(0.3, 0.1, 0.0))
    vol = forecast_worst(ctx)
    truth = point_forecast(np.repeat(ctx.frames[-1][None], H, axis=0))
    Q = np.clip(MODEL.mid()[None] + rng.normal(0, 0.3, size=(3, H, N_DOF)),
                MODEL.lo, MODEL.hi)
    frames = fk_batch(MODEL, Q)
    sep_vol = separation_against_forecast(MODEL, frames, vol)
    sep_pt = separation_against_forecast(MODEL, frames, truth)
    assert (sep_vol <= sep_pt + 1e-9).all()
    assert (collision_terms_batch(MODEL, frames, vol)
            >= collision_terms_batch(MODEL, frames, truth) - 1e-9).all()


# --- stirring -------------------------------------------------------------

def stir_spec():
    ref = np.stack([MODEL.mid() + 0.01 * i for i in range(40)])
    return TaskSpec(task="stir", pot_position=(0.55, 0.0, 0.95),
                    rest_config=MODEL.mid() - 0.3, stir_reference=ref)


def test_stir_tracking_branch_zero_on_reference():
    spec = stir_spec()
    Q = spec.stir_reference[np.arange(H) % 40]
    # human far from the pot: the tracking branch is active everywhere
    assert task_term(stir_terms_batch, plan_from_arrays(Q), far_forecast(), spec,
                     CostWeights()) == 0.0


def test_stir_retract_branch_zero_at_rest():
    spec = stir_spec()
    frames = np.repeat(BASE_POSE[None], H, axis=0).copy()
    frames[:, 1] = spec.pot_position  # right wrist forecast on the pot, all steps
    fc = point_forecast(frames)
    Q = np.repeat(spec.rest_config[None], H, axis=0)
    assert task_term(stir_terms_batch, plan_from_arrays(Q), fc, spec, CostWeights()) == 0.0


def test_stir_cost_matches_per_step_oracle(rng):
    spec = stir_spec()
    frames = np.repeat(BASE_POSE[None], H, axis=0).copy()
    near_steps = rng.random(H) < 0.5
    frames[near_steps, 1] = spec.pot_position
    fc = point_forecast(frames)
    Q = np.clip(MODEL.mid()[None] + rng.normal(0, 0.2, size=(H, N_DOF)),
                MODEL.lo, MODEL.hi)
    w = CostWeights()
    D = _wrist_pot_distance(fc, spec.pot_position, H)
    oracle = 0.0
    for t in range(H):
        target = spec.rest_config if D[t] <= w.eps_pot else spec.stir_reference[t % 40]
        oracle += np.linalg.norm(Q[t] - target)
    assert task_term(stir_terms_batch, plan_from_arrays(Q), fc, spec, w) == pytest.approx(
        oracle, rel=1e-12)
    assert near_steps[np.nonzero(D <= w.eps_pot)].all()


def test_stir_spec_requirements_enforced():
    spec = TaskSpec(task="stir", pot_position=(0.5, 0.0, 1.0))
    with pytest.raises(MotionError, match="rest_config"):
        task_term(stir_terms_batch, const_plan(MODEL.mid()), far_forecast(), spec,
                  CostWeights())
    with pytest.raises(MotionError):
        task_term(stir_terms_batch, const_plan(MODEL.mid()), far_forecast(),
                  TaskSpec(task="handover"), CostWeights())


# --- grasp pose and handover ----------------------------------------------

def rot(axis, degrees):
    return Rotation.from_euler(axis, degrees, degrees=True).as_matrix()


def approach_axes(G):
    return G[:, :, 2]


def unit_lines(ee_pos, wrist):
    line = wrist - ee_pos
    return line / np.linalg.norm(line, axis=-1, keepdims=True)


def test_grasp_pose_identity_when_already_aligned():
    # each start pose already points its local +z straight at the wrist
    wrist = np.array([0.0, 0.0, 0.7])
    ee_pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.7], [-0.3, 0.0, 0.7]])
    ee_R = np.stack([np.eye(3), rot("x", 90), rot("y", 90)])
    G = grasp_pose(ee_pos, ee_R, wrist)
    np.testing.assert_allclose(G, ee_R, atol=1e-12)


def test_grasp_pose_quarter_turn():
    # the new approach axis points along the line, exactly 90 degrees away
    wrist = np.array([0.5, 0.0, 0.0])
    ee_pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.4, 0.0], [0.9, -0.2, 0.0]])
    G = grasp_pose(ee_pos, np.repeat(np.eye(3)[None], 3, axis=0), wrist)
    np.testing.assert_allclose(approach_axes(G)[0], [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(approach_axes(G), unit_lines(ee_pos, wrist), atol=1e-12)
    np.testing.assert_allclose(Rotation.from_matrix(G).magnitude(), np.pi / 2, atol=1e-12)


def test_grasp_pose_always_aligns_approach_axis(rng):
    ee_R = Rotation.random(50, random_state=rng).as_matrix()
    ee_pos = rng.normal(size=(50, 3))
    wrist = rng.normal(size=3)
    keep = np.linalg.norm(wrist - ee_pos, axis=-1) >= 1e-3
    G = grasp_pose(ee_pos[keep], ee_R[keep], wrist)
    np.testing.assert_allclose(approach_axes(G), unit_lines(ee_pos[keep], wrist), atol=1e-9)
    np.testing.assert_allclose(G @ np.swapaxes(G, -1, -2),
                               np.broadcast_to(np.eye(3), G.shape), atol=1e-12)


def test_grasp_pose_antiparallel_and_degenerate():
    # approach axes +z and +x both pointing away from the wrist, next to an
    # aligned row: each row takes its own branch
    wrist = np.array([0.0, 0.0, -1.0])
    ee_pos = np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 0.0, -1.5]])
    approach_x = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])  # exact
    ee_R = np.stack([np.eye(3), approach_x, np.eye(3)])
    G = grasp_pose(ee_pos, ee_R, wrist)
    np.testing.assert_allclose(approach_axes(G)[0], [0.0, 0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(approach_axes(G), unit_lines(ee_pos, wrist), atol=1e-12)
    np.testing.assert_allclose(G[2], np.eye(3), atol=1e-12)
    with pytest.raises(MotionError):
        grasp_pose(ee_pos, ee_R, ee_pos[1])


def test_handover_cost_gated_by_object_in_hand(rng):
    fc = far_forecast()
    idle = TaskSpec(task="handover", object_in_hand=False)
    plan = const_plan(np.clip(MODEL.mid() + rng.normal(0, 0.3, N_DOF),
                              MODEL.lo, MODEL.hi))
    assert task_term(handover_terms_batch, plan, fc, idle, CostWeights()) == 0.0
    active = TaskSpec(task="handover", object_in_hand=True)
    assert task_term(handover_terms_batch, plan, fc, active, CostWeights()) > 0.0
    ctx = near_context()
    with pytest.raises(MotionError):
        task_term(handover_terms_batch, plan, forecast_worst(ctx), active, CostWeights())


def test_handover_grasp_target_at_start_pose_rejected():
    from costcast.robot import fk

    q = MODEL.mid()
    ee, _ = fk(MODEL, q)
    frames = np.repeat(BASE_POSE[None], H, axis=0).copy()
    frames[:, 1] = ee.position  # forecast final wrist exactly at the end effector
    # target would coincide with the start pose -> the grasp pose is undefined
    with pytest.raises(MotionError):
        task_term(handover_terms_batch, const_plan(q), point_forecast(frames),
                  TaskSpec(task="handover", object_in_hand=True), CostWeights())


# --- tableset -------------------------------------------------------------

def test_pose_error_closed_form():
    target = RigidPose(position=np.array([0.1, 0.2, 0.3]),
                       orientation=np.array([0.0, 0.0, 0.0, 1.0]))
    pos = np.array([[0.1, 0.2, 0.8]])
    Rz90 = Rotation.from_euler("z", 90, degrees=True).as_matrix()
    err = pose_error_batch(pos, Rz90[None], target.position, target.rotation().as_matrix())
    assert err[0] == pytest.approx(0.5 + ORIENTATION_WEIGHT * np.pi / 2, abs=1e-12)


def test_tableset_cost_is_affine_in_beta(rng):
    goal_q = MODEL.mid()
    from costcast.robot import fk

    ee, _ = fk(MODEL, goal_q)
    spec_b = lambda beta: TaskSpec(task="tableset", table_goal=ee)
    Q = np.clip(MODEL.mid()[None] + rng.normal(0, 0.2, size=(H, N_DOF)),
                MODEL.lo, MODEL.hi)
    plan = plan_from_arrays(Q)
    frames = np.repeat((BASE_POSE + np.array([0.35, 0.0, 0.0]))[None], H, axis=0)
    fc = point_forecast(frames)
    c1 = task_term(tableset_terms_batch, plan, fc, spec_b(1.0), CostWeights(beta=1.0))
    c5 = task_term(tableset_terms_batch, plan, fc, spec_b(5.0), CostWeights(beta=5.0))
    c9 = task_term(tableset_terms_batch, plan, fc, spec_b(9.0), CostWeights(beta=9.0))
    # cost = goal + beta * collision: second differences in beta vanish
    assert c9 - c5 == pytest.approx(c5 - c1, rel=1e-9)


def test_tableset_zero_at_goal_with_far_human():
    from costcast.robot import fk

    q = MODEL.mid()
    ee, _ = fk(MODEL, q)
    spec = TaskSpec(task="tableset", table_goal=ee)
    assert task_term(tableset_terms_batch, const_plan(q), far_forecast(), spec,
                     CostWeights()) == pytest.approx(0.0, abs=1e-9)


# --- totals and plumbing --------------------------------------------------

def test_total_cost_is_sum_of_terms(rng):
    spec = stir_spec()
    frames = BASE_POSE[None] + rng.normal(0, 0.02, size=(H, 7, 3))
    fc = point_forecast(frames)
    Q = np.clip(MODEL.mid()[None] + rng.normal(0, 0.2, size=(H, N_DOF)),
                MODEL.lo, MODEL.hi)
    Qd = rng.normal(0, 1.0, size=(H, N_DOF))
    plan = plan_from_arrays(Q, Qd)
    w = CostWeights()
    expected = (base_term(plan, MODEL, w)
                + collision_term(plan, fc, w)
                + w.alpha_t * task_term(stir_terms_batch, plan, fc, spec, w))
    assert total_cost_batch(MODEL, *plan, fc, spec, w)[0] == pytest.approx(expected, rel=1e-12)


PROPERTY_SPECS = {
    "stir": stir_spec(),
    "handover": TaskSpec(task="handover", object_in_hand=True),
    "tableset": TaskSpec(task="tableset", table_goal=RigidPose(
        position=np.array([0.62, 0.25, 0.98]), orientation=np.array([0.0, 1.0, 0.0, 0.0]))),
}


@settings(max_examples=30, deadline=None)
@given(task=st.sampled_from(sorted(PROPERTY_SPECS)), n=st.integers(2, 8),
       seed=st.integers(0, 2**32 - 1))
def test_total_cost_rows_match_single_plan_evaluation(task, n, seed):
    # each row of a batch costs what that plan costs alone, as a batch of one
    rng = np.random.default_rng(seed)
    Q = rng.uniform(MODEL.lo, MODEL.hi, size=(n, H, N_DOF))
    Qd = rng.uniform(-MODEL.vel, MODEL.vel, size=(n, H, N_DOF))
    frames = BASE_POSE[None] + rng.normal(0, 0.03, size=(H, 7, 3))
    fc = point_forecast(frames + np.array([rng.uniform(0.0, 0.6), 0.0, 0.2]))
    spec, w = PROPERTY_SPECS[task], CostWeights()
    batch = total_cost_batch(MODEL, Q, Qd, fc, spec, w)
    single = [total_cost_batch(MODEL, Q[i:i + 1], Qd[i:i + 1], fc, spec, w)[0]
              for i in range(n)]
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)


def test_wrist_pot_distance_picks_nearest_wrist():
    pot = np.array([0.55, 0.0, 0.95])
    frames = np.repeat(BASE_POSE[None], H, axis=0)
    D = _wrist_pot_distance(point_forecast(frames), pot, H)
    expected = min(np.linalg.norm(BASE_POSE[0] - pot), np.linalg.norm(BASE_POSE[1] - pot))
    np.testing.assert_allclose(D, expected, atol=1e-12)


def test_cost_weights_validation():
    with pytest.raises(MotionError):
        CostWeights(alpha_c=-1.0)
    with pytest.raises(MotionError):
        TaskSpec(task="mop")
    assert hinge(np.array([-2.0, 0.0, 3.0])).tolist() == [0.0, 0.0, 3.0]
