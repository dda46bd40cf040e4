"""Tests for arm kinematics, Jacobian, manipulability and collision geometry."""

import numpy as np
import pytest

from conftest import random_pose
from costcast.motion import MotionError, Pose
from costcast.robot import (
    ArmModel,
    ArmState,
    HUMAN_CAPSULE_RADIUS,
    N_DOF,
    RigidPose,
    collision_sphere_centers,
    fk,
    fk_batch,
    human_capsules,
    jacobian,
    manipulability,
    min_separation,
    rollout_arrays,
    step,
)

MODEL = ArmModel()


def fk_oracle(model, q):
    """Independent forward kinematics via explicit homogeneous matrices."""
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


def random_q(rng, model=MODEL):
    return rng.uniform(model.lo, model.hi)


# --- forward kinematics ---------------------------------------------------

def test_fk_matches_matrix_composition_oracle(rng):
    for q in [np.zeros(N_DOF)] + [random_q(rng) for _ in range(20)]:
        ee, frames = fk(MODEL, q)
        ee_T, chain = fk_oracle(MODEL, q)
        np.testing.assert_allclose(ee.position, ee_T[:3, 3], atol=1e-10)
        np.testing.assert_allclose(ee.rotation().as_matrix(), ee_T[:3, :3], atol=1e-10)
        for i in range(N_DOF):
            np.testing.assert_allclose(frames[i].position, chain[i][:3, 3], atol=1e-10)


def test_base_joint_rotation_preserves_ee_height(rng):
    q = random_q(rng)
    z0 = fk(MODEL, q)[0].position[2]
    q2 = q.copy()
    q2[0] = q[0] + np.pi if q[0] < 0 else q[0] - np.pi
    assert fk(MODEL, q2)[0].position[2] == pytest.approx(z0, abs=1e-12)


def test_fk_batch_agrees_with_single(rng):
    Q = np.stack([random_q(rng) for _ in range(5)]).reshape(5, 1, N_DOF)
    R, p = fk_batch(MODEL, Q)
    for n in range(5):
        ee, frames = fk(MODEL, Q[n, 0])
        np.testing.assert_allclose(p[n, 0, 7], ee.position, atol=1e-12)
        np.testing.assert_allclose(R[n, 0, 7], ee.rotation().as_matrix(), atol=1e-12)


def test_fk_is_lipschitz_in_joint_angles(rng):
    total_len = sum(abs(a) + abs(d) for a, d, _ in MODEL.dh) + MODEL.flange_offset
    for _ in range(20):
        q1, q2 = random_q(rng), random_q(rng)
        d = np.linalg.norm(fk(MODEL, q1)[0].position - fk(MODEL, q2)[0].position)
        assert d <= total_len * np.abs(q1 - q2).sum() + 1e-9


# --- jacobian and manipulability ------------------------------------------

def test_jacobian_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(100):
        q = random_q(rng)
        J = jacobian(MODEL, q)
        for i in range(N_DOF):
            dq = np.zeros(N_DOF)
            dq[i] = h
            dp = (fk(MODEL, q + dq)[0].position - fk(MODEL, q - dq)[0].position) / (2 * h)
            denom = max(np.linalg.norm(J[:3, i]), 1e-8)
            assert np.linalg.norm(dp - J[:3, i]) / denom < 1e-4


def test_jacobian_column_vanishes_when_axis_hits_ee():
    # all joint axes coincide with the world z line through the base, and the
    # end effector stays on that line: every linear column must vanish
    coaxial = ArmModel(dh=tuple((0.0, 0.1, 0.0) for _ in range(N_DOF)))
    J = jacobian(coaxial, np.linspace(-1.0, 1.0, N_DOF))
    np.testing.assert_allclose(J[:3], 0.0, atol=1e-12)


def test_manipulability_positive_at_generic_config(rng):
    for _ in range(10):
        assert manipulability(MODEL, random_q(rng)) > 0.0


def test_manipulability_zero_at_singular_config():
    coaxial = ArmModel(dh=tuple((0.0, 0.1, 0.0) for _ in range(N_DOF)))
    assert manipulability(coaxial, np.ones(N_DOF) * 0.3) < 1e-6


def test_manipulability_invariant_to_base_rotation(rng):
    q = random_q(rng)
    q2 = q.copy()
    q2[0] += 0.6
    assert manipulability(MODEL, q2) == pytest.approx(manipulability(MODEL, q), rel=1e-9)


# --- collision geometry ---------------------------------------------------

def brute_force_separation(model, q, human):
    """Exhaustive scalar scan over spheres x capsules."""
    centers = collision_sphere_centers(model, fk_batch(model, q))
    best = np.inf
    for c in centers:
        for a, b, r in human_capsules(human):
            ab = b - a
            denom = float(ab @ ab)
            t = 0.0 if denom < 1e-18 else float(np.clip((c - a) @ ab / denom, 0.0, 1.0))
            d = np.linalg.norm(c - (a + t * ab))
            best = min(best, d - model.sphere_radius - r)
    return best


def test_min_separation_matches_brute_force(rng):
    for _ in range(200):
        q = random_q(rng)
        human = random_pose(rng, scale=0.05)
        assert min_separation(MODEL, q, human) == pytest.approx(
            brute_force_separation(MODEL, q, human), abs=1e-9)


def test_far_human_clears_by_over_a_meter(rng):
    q = random_q(rng)
    far = Pose(random_pose(rng).joints + np.array([5.0, 5.0, 0.0]))
    assert min_separation(MODEL, q, far) > 1.0


def test_wrist_on_robot_sphere_center_penetrates_fully(rng):
    q = random_q(rng)
    centers = collision_sphere_centers(MODEL, fk_batch(MODEL, q))
    # put the right elbow-wrist capsule degenerately on the nearest sphere
    human = random_pose(rng).joints.copy()
    base = min_separation(MODEL, q, Pose(human + np.array([0.0, -3.0, 0.0])))
    c = centers[np.linalg.norm(centers - human[1], axis=-1).argmin()]
    human += np.array([0.0, -3.0, 0.0])  # move everything far away first
    human[1] = c
    human[3] = c
    sep = min_separation(MODEL, q, Pose(human))
    assert sep == pytest.approx(-(MODEL.sphere_radius + HUMAN_CAPSULE_RADIUS), abs=1e-9)
    assert base > sep


def test_margin_spheres_replace_human_capsules(rng):
    q = random_q(rng)
    centers = collision_sphere_centers(MODEL, fk_batch(MODEL, q))
    c = np.array([0.5, 0.0, 1.0])
    r = 0.2
    expected = np.linalg.norm(centers - c, axis=-1).min() - MODEL.sphere_radius - r
    human = random_pose(rng)
    got = min_separation(MODEL, q, human, margin_spheres=[(c, r)])
    assert got == pytest.approx(expected, abs=1e-12)


# --- integration ----------------------------------------------------------

def test_step_zero_command_is_identity():
    s = ArmState(q=MODEL.mid(), qd=np.zeros(N_DOF))
    out = step(MODEL, s, np.zeros(N_DOF), 0.04)
    np.testing.assert_array_equal(out.q, s.q)
    np.testing.assert_array_equal(out.qd, s.qd)


def test_step_clamps_velocity_to_limits():
    s = ArmState(q=MODEL.mid(), qd=np.zeros(N_DOF))
    out = step(MODEL, s, np.full(N_DOF, 10.0), 0.04)
    np.testing.assert_allclose(out.qd, MODEL.vel, atol=0)
    np.testing.assert_allclose(out.q, s.q + MODEL.vel * 0.04, atol=1e-15)


def test_constant_command_integrates_linearly():
    qd = np.full(N_DOF, 0.5)
    s = ArmState(q=MODEL.mid(), qd=np.zeros(N_DOF))
    for _ in range(25):
        s = step(MODEL, s, qd, 0.04)
    np.testing.assert_allclose(s.q, MODEL.mid() + 25 * 0.04 * qd, atol=1e-12)


def test_step_never_exceeds_joint_limits(rng):
    s = ArmState(q=MODEL.hi - 0.01, qd=np.zeros(N_DOF))
    for _ in range(30):
        s = step(MODEL, s, rng.uniform(-3, 3, N_DOF), 0.04)
        assert (s.q >= MODEL.lo).all() and (s.q <= MODEL.hi).all()
    # a joint held at its limit reports zero velocity
    s = ArmState(q=MODEL.hi, qd=np.zeros(N_DOF))
    out = step(MODEL, s, np.ones(N_DOF), 0.04)
    np.testing.assert_array_equal(out.q, MODEL.hi)
    np.testing.assert_array_equal(out.qd, 0.0)


def test_rollout_arrays_mirrors_sequential_stepping(rng):
    controls = rng.normal(0.0, 1.5, size=(4, 12, N_DOF))
    q0 = random_q(rng)
    Q, Qd = rollout_arrays(MODEL, q0, controls, 0.04)
    for n in range(4):
        s = ArmState(q=q0, qd=np.zeros(N_DOF))
        for t in range(12):
            s = step(MODEL, s, controls[n, t], 0.04)
            np.testing.assert_allclose(Q[n, t], s.q, atol=1e-15)
            np.testing.assert_allclose(Qd[n, t], s.qd, atol=1e-15)


# --- model plumbing -------------------------------------------------------

def test_arm_model_validation():
    with pytest.raises(MotionError):
        ArmModel(joint_limits=((1.0, -1.0),) * N_DOF)
    with pytest.raises(MotionError):
        ArmModel(sphere_radius=0.0)


def test_arm_model_from_json(tmp_path):
    path = tmp_path / "arm.json"
    path.write_text('{"flange_offset": 0.2, "base_position": [0.0, 0.0, 0.0]}')
    m = ArmModel.from_json(path)
    assert m.flange_offset == 0.2
    assert m.base_position == (0.0, 0.0, 0.0)


def test_rigid_pose_requires_unit_quaternion():
    with pytest.raises(MotionError):
        RigidPose(position=np.zeros(3), orientation=np.array([0.0, 0.0, 0.0, 1.1]))
