"""Tests for the planner cost terms: base arm quality, collision, per-task."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import BASE_POSE, brute_force_separation, homogeneous
from costcast import cost
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
    stir_terms_batch,
    tableset_terms_batch,
    total_cost_batch,
    wrist_pot_distance,
)
from costcast.motion import ARM_BONES, HORIZON_LEN, MotionError, Trajectory
from costcast.robot import (
    HUMAN_CAPSULE_RADIUS,
    ArmModel,
    N_DOF,
    arm_capsules,
    collision_sphere_centers,
    fk_batch,
    manipulability_batch,
    rollout_arrays,
    separation_batch,
)

MODEL = ArmModel()
H = HORIZON_LEN
ARM_JOINTS = sorted({j for bone in ARM_BONES for j in bone})


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
    return Trajectory(frames)


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
    # every joint of the human at the probe: its bones are zero-length
    # capsules of HUMAN_CAPSULE_RADIUS there.  The probe sits on the line from
    # the sphere nearest [0.4, 0, 1.6] towards that point, that sphere stays
    # the nearest, and its clearance is exactly -0.01
    far = np.array([0.4, 0.0, 1.6])
    nearest = centers[np.linalg.norm(centers - far, axis=-1).argmin()]
    d = MODEL.sphere_radius + HUMAN_CAPSULE_RADIUS - 0.01
    probe = nearest + d * (far - nearest) / np.linalg.norm(far - nearest)
    fc = Trajectory(np.broadcast_to(probe, (H, 7, 3)))
    w = CostWeights(alpha_c=100.0)
    expected = 100.0 * H * (D_SAFE + 0.01) ** 2
    assert collision_term(const_plan(q), fc, w) == pytest.approx(expected, rel=1e-9)


def test_collision_cost_matches_per_step_oracle(rng):
    frames = BASE_POSE[None] + rng.normal(0, 0.02, size=(H, 7, 3))
    frames = frames + np.array([0.70, 0.05, 0.35])  # right wrist near the arm column
    fc = Trajectory(frames)
    Q = MODEL.mid()[None] + rng.normal(0, 0.2, size=(H, N_DOF))
    Q = np.clip(Q, MODEL.lo, MODEL.hi)
    w = CostWeights()
    oracle = sum(max(D_SAFE - brute_force_separation(MODEL, Q[t], frames[t]), 0.0) ** 2
                 for t in range(H))
    got = collision_term(plan_from_arrays(Q), fc, w)
    assert got == pytest.approx(w.alpha_c * oracle, rel=1e-9)
    assert got > 0.0


def place_at_clearance(pose, centers, axis, side, clearance, near=ARM_JOINTS):
    """A still human, pose (7, 3), shifted so that the extreme one of its
    ``near`` arm joints on one side of the arm along ``axis`` lies exactly
    beyond the arm's extreme sphere center there.  That sphere's clearance is
    then ``clearance``, and the exact boxes of that row and that joint's bones
    are D_SAFE + sphere radius + (clearance - D_SAFE) apart.  Returns
    (H, 7, 3)."""
    joints = pose[near]
    coord = centers[:, axis]
    row, n, t = np.unravel_index(coord.argmax() if side > 0 else coord.argmin(), coord.shape)
    edge = joints[:, axis] - side * HUMAN_CAPSULE_RADIUS
    joint = edge.argmin() if side > 0 else edge.argmax()
    target = centers[row, :, n, t].copy()
    target[axis] += side * (clearance + MODEL.sphere_radius + HUMAN_CAPSULE_RADIUS)
    return np.repeat((pose + (target - joints[joint]))[None], H, axis=0)


def full_row_collision(frames, fc):
    """The collision sum over all 16 sphere rows, with no reach test,
    accumulated over steps in float64."""
    sep = separation_batch(MODEL, collision_sphere_centers(MODEL, frames),
                           *arm_capsules(fc.frames[:frames[1].shape[-1]]))
    return np.sum(hinge(D_SAFE - sep) ** 2, axis=1, dtype=float)


def assert_same_bits(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


BOUNDARY_OFFSETS = (-1e-3, -2e-6, -1e-6, -5e-7, -1e-15, -1e-16, 0.0, 1e-16, 1e-15, 5e-7, 1e-6,
                    2e-6, 1e-3)


@settings(max_examples=40, deadline=None)
# at these draws rounding puts a clearance a few ulps under D_SAFE while its
# boxes are D_SAFE + sphere radius apart: the cases the reach slack is for
@example(place="boundary", poison=False, n=1, h=1, seed=23, dtype="float64")
@given(place=st.sampled_from(["far", "overlap", "boundary", "one far"]), poison=st.booleans(),
       n=st.integers(1, 6), h=st.integers(1, H), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from(["float64", "float32"]))
def test_reach_test_keeps_the_collision_sum_bit_identical(place, poison, n, h, seed, dtype):
    # dropping the sphere rows and human parts out of reach leaves every sum
    # bit for bit the full sum: with the human far away, overlapping the arm,
    # or with one sphere at clearance D_SAFE + offset on either side of the
    # arm along each axis, where the reach test decides.  "one far" moves one
    # arm away first, so the test on the parts decides which bones the kernel
    # sees.  A NaN gives the same NaN sums.
    # Float32 plans, whose clearances round at about 1e-7 m, keep this too.
    rng = np.random.default_rng(seed)
    Q = rng.uniform(MODEL.lo, MODEL.hi, size=(n, h, N_DOF)).astype(dtype)
    frames = fk_batch(MODEL, Q)
    humans = BASE_POSE[None] + rng.normal(0, 0.03, size=(H, 7, 3))
    if place == "far":
        placed = [humans + np.array([0.0, -6.0, 0.0])]
    elif place == "overlap":
        placed = [humans + np.array([0.70, 0.05, 0.35]) + rng.normal(0, 0.2, size=3)]
    else:
        centers = collision_sphere_centers(MODEL, frames)
        pose, near = humans[0], ARM_JOINTS
        if place == "one far":
            k = 2 * rng.integers(2)
            away = sorted({j for bone in ARM_BONES[k:k + 2] for j in bone})   # one whole arm
            pose = pose.copy()
            pose[away] += np.array([0.0, -6.0, 0.0])
            near = [j for j in ARM_JOINTS if j not in away]
        placed = [place_at_clearance(pose, centers, axis, side, D_SAFE + offset, near)
                  for offset in BOUNDARY_OFFSETS for axis in range(3) for side in (-1, 1)]
    for humans in placed:
        if poison:
            humans = humans.copy()
            humans[rng.integers(h), ARM_JOINTS[rng.integers(len(ARM_JOINTS))],
                   rng.integers(3)] = np.nan
        fc = Trajectory(humans)
        want = full_row_collision(frames, fc)
        assert_same_bits(collision_terms_batch(MODEL, frames, fc), want)
        if poison:
            assert np.isnan(want).all()


def test_collision_runs_no_kernel_on_rows_out_of_reach(monkeypatch, rng):
    # with the human out of reach the sum is zero, and neither sphere centers
    # nor clearances are computed
    Q = np.clip(MODEL.mid() + rng.normal(0, 0.2, size=(4, H, N_DOF)), MODEL.lo, MODEL.hi)
    frames = fk_batch(MODEL, Q)
    built, seen = [], []

    def centers_of(model, frames, rows):
        built.append(len(rows))
        return collision_sphere_centers(model, frames, rows)

    def kernel(model, centers, starts, ends):
        seen.append((centers.shape[0], starts.shape[1]))
        raise AssertionError("clearance kernel called")

    monkeypatch.setattr(cost, "collision_sphere_centers", centers_of)
    monkeypatch.setattr(cost, "separation_batch", kernel)
    got = collision_terms_batch(MODEL, frames, far_forecast())
    assert got.tobytes() == np.zeros(4).tobytes()
    assert built == [] and seen == []
    # a human with one arm at the arm column sends some rows, but not all 16,
    # and only that arm's bones to the kernel.  A human whose four bones lie
    # along the first plan's chain at its first step (base and frame origins
    # 0-3 at even steps, origins 3-7 at odd steps) holds a center of every
    # sphere row, so it sends all 16 rows and all four bones
    near = BASE_POSE[None].repeat(H, axis=0) + np.array([0.70, 0.05, 0.35])
    chain = np.concatenate([[MODEL.base_position], frames[1][:, :, 0, 0]])   # (9, 3)
    # joint order: wrists, elbows, shoulders, back; the left wrist meets the
    # right shoulder, so the two arms are four consecutive segments
    along = np.stack([chain[4 * (t % 2) + np.array([2, 4, 1, 3, 0, 2, 0])] for t in range(H)])
    for fc in (Trajectory(near), Trajectory(along)):
        with pytest.raises(AssertionError, match="kernel called"):
            collision_terms_batch(MODEL, frames, fc)
    assert built == [rows for rows, _ in seen]
    (rows, bones), (all_rows, all_bones) = seen
    assert 0 < rows < 16 and bones == 2
    assert all_rows == 16 and all_bones == 4


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
    fc = Trajectory(frames)
    Q = np.repeat(spec.rest_config[None], H, axis=0)
    assert task_term(stir_terms_batch, plan_from_arrays(Q), fc, spec, CostWeights()) == 0.0


def test_stir_cost_matches_per_step_oracle(rng):
    spec = stir_spec()
    frames = np.repeat(BASE_POSE[None], H, axis=0).copy()
    near_steps = rng.random(H) < 0.5
    frames[near_steps, 1] = spec.pot_position
    fc = Trajectory(frames)
    Q = np.clip(MODEL.mid()[None] + rng.normal(0, 0.2, size=(H, N_DOF)),
                MODEL.lo, MODEL.hi)
    w = CostWeights()
    D = wrist_pot_distance(fc.frames, spec.pot_position)
    oracle = 0.0
    for t in range(H):
        target = spec.rest_config if D[t] <= w.eps_pot else spec.stir_reference[t % 40]
        oracle += np.linalg.norm(Q[t] - target)
    assert task_term(stir_terms_batch, plan_from_arrays(Q), fc, spec, w) == pytest.approx(
        oracle, rel=1e-12)
    assert near_steps[np.nonzero(D <= w.eps_pot)].all()


def test_stir_spec_requirements_enforced():
    # a spec is refused where it is built, not where a term reads it
    with pytest.raises(MotionError, match="rest_config"):
        TaskSpec(task="stir", pot_position=(0.5, 0.0, 1.0))
    with pytest.raises(MotionError, match="stir_reference"):
        TaskSpec(task="stir", pot_position=(0.5, 0.0, 1.0), rest_config=MODEL.mid())
    with pytest.raises(MotionError, match="pot_position"):
        TaskSpec(task="stir", rest_config=MODEL.mid(), stir_reference=MODEL.mid()[None])
    with pytest.raises(MotionError, match="rest_config"):
        TaskSpec(task="handover")
    with pytest.raises(MotionError, match="table_goal"):
        TaskSpec(task="tableset", rest_config=MODEL.mid())
    for rest in (MODEL.mid()[:6], np.where(np.arange(7) == 3, np.nan, MODEL.mid()),
                 MODEL.mid()[None]):
        with pytest.raises(MotionError, match="rest_config must be 7 finite joint angles"):
            TaskSpec(task="handover", rest_config=rest)


# --- grasp pose and handover ----------------------------------------------

def rot(axis, degrees):
    """Rotation matrix about a coordinate axis ("x", "y" or "z")."""
    c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))
    i, j = {"x": (1, 2), "y": (2, 0), "z": (0, 1)}[axis]
    R = np.eye(3)
    R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
    return R


def rotation_angle(R):
    """Rotation angle of matrices (..., 3, 3), arccos((tr - 1) / 2)."""
    return np.arccos(np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0))


def random_rotations(rng, n):
    """n random rotation matrices from QR of Gaussian matrices, det +1."""
    Qm, Rm = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    Qm = Qm * np.sign(np.diagonal(Rm, axis1=-2, axis2=-1))[:, None, :]
    Qm[np.linalg.det(Qm) < 0, :, 0] *= -1.0
    return Qm


def ee_transform(q):
    """4x4 end-effector pose of one configuration."""
    R, p = fk_batch(MODEL, q)
    return homogeneous(R[7], p[7])


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
    np.testing.assert_allclose(rotation_angle(G), np.pi / 2, atol=1e-12)


def test_grasp_pose_always_aligns_approach_axis(rng):
    ee_R = random_rotations(rng, 50)
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
    idle = TaskSpec(task="handover", rest_config=MODEL.mid(), object_in_hand=False)
    plan = const_plan(np.clip(MODEL.mid() + rng.normal(0, 0.3, N_DOF),
                              MODEL.lo, MODEL.hi))
    assert task_term(handover_terms_batch, plan, fc, idle, CostWeights()) == 0.0
    active = TaskSpec(task="handover", rest_config=MODEL.mid(), object_in_hand=True)
    assert task_term(handover_terms_batch, plan, fc, active, CostWeights()) > 0.0


def test_handover_grasp_target_at_start_pose_rejected():
    q = MODEL.mid()
    frames = np.repeat(BASE_POSE[None], H, axis=0).copy()
    frames[:, 1] = fk_batch(MODEL, q)[1][7]  # forecast final wrist exactly at the end effector
    # target would coincide with the start pose -> the grasp pose is undefined
    with pytest.raises(MotionError):
        task_term(handover_terms_batch, const_plan(q), Trajectory(frames),
                  TaskSpec(task="handover", rest_config=MODEL.mid(), object_in_hand=True),
                  CostWeights())


# --- tableset -------------------------------------------------------------

def test_pose_error_closed_form():
    # one batch-last configuration: position (3, 1), rotation (3, 3, 1)
    pos = np.array([[0.1], [0.2], [0.8]])
    err = pose_error_batch(pos, rot("z", 90)[..., None], np.array([0.1, 0.2, 0.3]), np.eye(3))
    assert err[0] == pytest.approx(0.5 + ORIENTATION_WEIGHT * np.pi / 2, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(per_plan=st.booleans(), n=st.integers(1, 6), h=st.integers(1, H),
       seed=st.integers(0, 2**32 - 1))
@example(per_plan=False, n=5, h=19, seed=4294967295)
def test_pose_error_matches_component_last_oracle(per_plan, n, h, seed):
    # the batch-last error against explicit ee_R^T @ target_R, trace and
    # arccos on component-last poses, for one target or one target per plan.
    # arccos has slope 1/sqrt(1 - c^2), so near c = +-1 a last-bit difference
    # in the trace moves the angle by ~1e-12: the oracle compares the two
    # well-conditioned parts, the position norm and the cosine (tr - 1) / 2
    rng = np.random.default_rng(seed)
    ee_R = random_rotations(rng, n * h).reshape(n, h, 3, 3)
    ee_pos = rng.normal(size=(n, h, 3))
    lead = (n,) if per_plan else ()
    target_R = random_rotations(rng, n if per_plan else 1).reshape(lead + (3, 3))
    target_pos = rng.normal(size=lead + (3,))
    plan_axis = (slice(None), None) if per_plan else ()
    rel = np.swapaxes(ee_R, -1, -2) @ target_R[plan_axis]
    cos = np.clip((np.trace(rel, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    dp = np.linalg.norm(ee_pos - target_pos[plan_axis], axis=-1)

    def error(ee_R, target_R):
        return pose_error_batch(np.moveaxis(ee_pos, -1, 0), np.moveaxis(ee_R, (-2, -1), (0, 1)),
                                np.moveaxis(target_pos, -1, 0),
                                np.moveaxis(target_R, (-2, -1), (0, 1)))

    got = error(ee_R, target_R)
    assert got.shape == (n, h)
    np.testing.assert_allclose(np.cos((got - dp) / ORIENTATION_WEIGHT), cos, rtol=0, atol=1e-12)
    # identity rotations have trace 3 exactly, so the angle is exactly 0
    eye = np.broadcast_to(np.eye(3), ee_R.shape), np.broadcast_to(np.eye(3), target_R.shape)
    np.testing.assert_allclose(error(*eye), dp, rtol=0, atol=1e-12)


def test_tableset_cost_is_affine_in_beta(rng):
    ee = ee_transform(MODEL.mid())
    spec_b = lambda beta: TaskSpec(task="tableset", rest_config=MODEL.mid(), table_goal=ee)
    Q = np.clip(MODEL.mid()[None] + rng.normal(0, 0.2, size=(H, N_DOF)),
                MODEL.lo, MODEL.hi)
    plan = plan_from_arrays(Q)
    frames = np.repeat((BASE_POSE + np.array([0.35, 0.0, 0.0]))[None], H, axis=0)
    fc = Trajectory(frames)
    c1 = task_term(tableset_terms_batch, plan, fc, spec_b(1.0), CostWeights(beta=1.0))
    c5 = task_term(tableset_terms_batch, plan, fc, spec_b(5.0), CostWeights(beta=5.0))
    c9 = task_term(tableset_terms_batch, plan, fc, spec_b(9.0), CostWeights(beta=9.0))
    # cost = goal + beta * collision: second differences in beta vanish
    assert c9 - c5 == pytest.approx(c5 - c1, rel=1e-9)


def test_tableset_zero_at_goal_with_far_human():
    q = MODEL.mid()
    spec = TaskSpec(task="tableset", rest_config=MODEL.mid(), table_goal=ee_transform(q))
    assert task_term(tableset_terms_batch, const_plan(q), far_forecast(), spec,
                     CostWeights()) == pytest.approx(0.0, abs=1e-9)


# --- totals and plumbing --------------------------------------------------

def test_total_cost_is_sum_of_terms(rng):
    spec = stir_spec()
    frames = BASE_POSE[None] + rng.normal(0, 0.02, size=(H, 7, 3))
    fc = Trajectory(frames)
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
    "handover": TaskSpec(task="handover", rest_config=MODEL.mid(), object_in_hand=True),
    "tableset": TaskSpec(task="tableset", rest_config=MODEL.mid(),
                         table_goal=homogeneous(rot("y", 180), [0.62, 0.25, 0.98])),
}


def test_plan_longer_than_the_forecast_horizon_is_rejected():
    # a plan of HORIZON_LEN + 1 steps has no forecast for its last step
    plan = const_plan(MODEL.mid(), n=H + 1)
    with pytest.raises(MotionError, match="forecast horizon shorter than plan horizon"):
        total_cost_batch(MODEL, *plan, far_forecast(), PROPERTY_SPECS["tableset"],
                         CostWeights())


@settings(max_examples=30, deadline=None)
@given(task=st.sampled_from(sorted(PROPERTY_SPECS)), n=st.integers(2, 8),
       seed=st.integers(0, 2**32 - 1))
def test_total_cost_rows_match_single_plan_evaluation(task, n, seed):
    # each row of a batch costs what that plan costs alone, as a batch of one
    rng = np.random.default_rng(seed)
    Q = rng.uniform(MODEL.lo, MODEL.hi, size=(n, H, N_DOF))
    Qd = rng.uniform(-MODEL.vel, MODEL.vel, size=(n, H, N_DOF))
    frames = BASE_POSE[None] + rng.normal(0, 0.03, size=(H, 7, 3))
    fc = Trajectory(frames + np.array([rng.uniform(0.0, 0.6), 0.0, 0.2]))
    spec, w = PROPERTY_SPECS[task], CostWeights()
    batch = total_cost_batch(MODEL, Q, Qd, fc, spec, w)
    single = [total_cost_batch(MODEL, Q[i:i + 1], Qd[i:i + 1], fc, spec, w)[0]
              for i in range(n)]
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(task=st.sampled_from(sorted(PROPERTY_SPECS)), n=st.integers(1, 8),
       h=st.integers(1, H), seed=st.integers(0, 2**32 - 1))
def test_batch_last_kinematics_match_single_configurations(task, n, h, seed):
    # every (plan, step) element of a batched kinematics call is bit for bit
    # the N = H = 1 call on that configuration alone
    rng = np.random.default_rng(seed)
    Q = rng.uniform(MODEL.lo, MODEL.hi, size=(n, h, N_DOF))
    Qd = rng.uniform(-MODEL.vel, MODEL.vel, size=(n, h, N_DOF))
    humans = BASE_POSE[None] + rng.normal(0, 0.03, size=(H, 7, 3))
    humans = humans + np.array([rng.uniform(0.0, 0.6), 0.0, 0.2])

    def kinematics(Q, steps):
        frames = fk_batch(MODEL, Q)
        centers = collision_sphere_centers(MODEL, frames)
        return (*frames, manipulability_batch(frames), centers,
                separation_batch(MODEL, centers, *arm_capsules(humans[steps])))

    batch = kinematics(Q, slice(0, h))
    assert [a.shape for a in batch] == [(8, 3, 3, n, h), (8, 3, n, h), (n, h),
                                        (16, 3, n, h), (n, h)]
    for i in range(n):
        for t in range(h):
            single = kinematics(Q[i:i + 1, t:t + 1], slice(t, t + 1))
            for got, one in zip(batch, single):
                assert np.array_equal(got[..., i, t], one[..., 0, 0])
    # the total cost of each plan matches that plan scored alone
    fc = Trajectory(humans)
    spec, w = PROPERTY_SPECS[task], CostWeights()
    costs = total_cost_batch(MODEL, Q, Qd, fc, spec, w)
    alone = [total_cost_batch(MODEL, Q[i:i + 1], Qd[i:i + 1], fc, spec, w)[0] for i in range(n)]
    np.testing.assert_allclose(costs, alone, rtol=1e-12, atol=0)


def sampled_plans(rng, n=64):
    """n noisy velocity plans rolled out from mid-range, as the planner samples
    them: (Q, Qd), each (n, H, 7) float64."""
    controls = rng.normal(0.0, 0.3, size=(n, H, N_DOF)) + rng.normal(0.0, 0.5, size=N_DOF)
    return rollout_arrays(MODEL, MODEL.mid(), controls, 0.04)


def near_forecast(rng):
    """A point forecast of a human whose right wrist reaches into the arm."""
    offset = np.array([0.70, 0.05, 0.35]) + rng.normal(0.0, 0.05, size=3)
    return Trajectory(BASE_POSE[None] + offset + rng.normal(0, 0.02, size=(H, 7, 3)))


@pytest.mark.parametrize("task", sorted(PROPERTY_SPECS))
def test_float32_plans_cost_within_1e_4_relative_of_float64(task, rng):
    # scoring float32 copies of sampled plans returns float64 costs within
    # 1e-4 relative of the float64 call, with the collision term in play
    Q, Qd = sampled_plans(rng)
    fc, spec, w = near_forecast(rng), PROPERTY_SPECS[task], CostWeights()
    plans = {dtype: (Q.astype(dtype), Qd.astype(dtype)) for dtype in (np.float32, np.float64)}
    assert (collision_terms_batch(MODEL, fk_batch(MODEL, Q), fc) > 0).any()
    got = total_cost_batch(MODEL, *plans[np.float32], fc, spec, w)
    want = total_cost_batch(MODEL, *plans[np.float64], fc, spec, w)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=0)


@settings(max_examples=30, deadline=None)
@given(task=st.sampled_from(sorted(PROPERTY_SPECS)),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_sample_innermost_plans_cost_what_contiguous_copies_cost(task, dtype, seed):
    # the rollout's sample-innermost views and C-ordered copies of the same
    # plans differ only in how the sums over steps and joints round
    rng = np.random.default_rng(seed)
    views = [a.astype(dtype) for a in sampled_plans(rng)]
    copies = [np.ascontiguousarray(a) for a in views]
    fc, spec, w = near_forecast(rng), PROPERTY_SPECS[task], CostWeights()
    np.testing.assert_allclose(total_cost_batch(MODEL, *views, fc, spec, w),
                               total_cost_batch(MODEL, *copies, fc, spec, w), rtol=1e-14, atol=0)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(CostWeights)])
def test_weights_at_1e300_give_finite_costs_on_float32_plans(field, rng):
    # every weight multiplies a sum accumulated in float64, so a weight far
    # beyond float32's range gives the finite costs it gives float64 plans
    Q, Qd = (a.astype(np.float32) for a in sampled_plans(rng))
    w = CostWeights(**{field: 1e300})
    for task, spec in PROPERTY_SPECS.items():
        costs = total_cost_batch(MODEL, Q, Qd, near_forecast(rng), spec, w)
        assert np.isfinite(costs).all(), task


def test_wrist_pot_distance_picks_nearest_wrist():
    pot = np.array([0.55, 0.0, 0.95])
    frames = np.repeat(BASE_POSE[None], H, axis=0)
    D = wrist_pot_distance(frames, pot)
    expected = min(np.linalg.norm(BASE_POSE[0] - pot), np.linalg.norm(BASE_POSE[1] - pot))
    np.testing.assert_allclose(D, expected, atol=1e-12)


def test_cost_weights_validation():
    with pytest.raises(MotionError):
        CostWeights(alpha_c=-1.0)
    with pytest.raises(MotionError):
        TaskSpec(task="mop")
    assert hinge(np.array([-2.0, 0.0, 3.0])).tolist() == [0.0, 0.0, 3.0]


def test_table_goal_must_be_a_rigid_transform():
    goal = homogeneous(rot("z", 30), [0.62, 0.25, 0.98])
    spec = TaskSpec(task="tableset", rest_config=MODEL.mid(), table_goal=goal)
    np.testing.assert_array_equal(spec.table_goal, goal)
    bottom = goal.copy()
    bottom[3, 0] = 0.1
    sheared = goal.copy()
    sheared[0, 1] += 1e-6
    scaled = goal.copy()
    scaled[:3, :3] *= 1.1
    for bad in (goal[:3], np.eye(3), bottom, sheared, scaled,
                homogeneous(np.diag([1.0, 1.0, -1.0]), [0.0, 0.0, 0.0]),  # a reflection
                homogeneous(np.full((3, 3), np.nan), [0.0, 0.0, 0.0])):
        with pytest.raises(MotionError, match="table_goal must be a 4x4 rigid transform"):
            TaskSpec(task="tableset", rest_config=MODEL.mid(), table_goal=bad)
