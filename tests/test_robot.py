"""Tests for arm kinematics, Jacobian, manipulability, collision geometry and
clamped integration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_force_separation,
    fk_oracle,
    oracle_manipulability,
    random_pose_array,
)
from costcast.motion import MotionError
from costcast.robot import (
    ArmModel,
    ArmState,
    HUMAN_CAPSULE_RADIUS,
    N_DOF,
    arm_capsules,
    collision_sphere_centers,
    fk_batch,
    linear_jacobian,
    manipulability_batch,
    rollout_arrays,
    separation_batch,
    sphere_row_boxes,
    step,
)

MODEL = ArmModel()
# every joint axis on the world z line through the base: singular everywhere
COAXIAL = ArmModel(dh=tuple((0.0, 0.1, 0.0) for _ in range(N_DOF)))
# twists that are not quarter turns, so every joint takes the general rotation
SKEWED = ArmModel(dh=((0.05, 0.3, 0.4), (0.0, 0.1, -1.1), (0.1, 0.2, 2.0), (-0.07, 0.0, -2.9),
                      (0.0, 0.25, 0.7), (0.03, 0.0, np.pi), (0.0, 0.1, -0.2)))
# 0, +-pi/2, +-pi and +-(pi - 1e-9), where the half-angle tangent is largest;
# row r sets joint j to EDGE_ANGLES[(r + j) % 7], so each joint takes each angle
EDGE_ANGLES = np.array([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, np.pi - 1e-9, 1e-9 - np.pi])
EDGE_Q = EDGE_ANGLES[(np.arange(7)[:, None] + np.arange(N_DOF)) % 7]


def random_q(rng, model=MODEL):
    return rng.uniform(model.lo, model.hi)


def ee_position(model, q):
    return fk_batch(model, q)[1][7]


def separation(model, q, human):
    """Clearance of one configuration against one (J, 3) human pose."""
    centers = collision_sphere_centers(model, fk_batch(model, q))
    return separation_batch(model, centers[..., None, None],
                            *arm_capsules(np.asarray(human)[None]))[0, 0]


# --- forward kinematics ---------------------------------------------------

@pytest.mark.parametrize("batch", [(), (5,), (2, 3), "edge"])
def test_fk_batch_frames_match_matrix_composition_oracle(rng, batch):
    # every frame's rotation and origin, end effector included, at any batch
    # shape, through quarter-turn twists (the default arm), general twists
    # and none; the batch axes come last.  "edge" is the (7, 7) batch of
    # EDGE_ANGLES.
    for model in (MODEL, SKEWED, COAXIAL):
        Q = EDGE_Q if batch == "edge" else rng.uniform(model.lo, model.hi,
                                                       size=batch + (N_DOF,))
        R, p = fk_batch(model, Q)
        assert R.shape == (8, 3, 3) + Q.shape[:-1] and p.shape == (8, 3) + Q.shape[:-1]
        for idx in np.ndindex(*Q.shape[:-1]):
            ee_T, chain = fk_oracle(model, Q[idx])
            for i, T in enumerate(chain + [ee_T]):
                np.testing.assert_allclose(R[(i, ...) + idx], T[:3, :3], rtol=0, atol=1e-12)
                np.testing.assert_allclose(p[(i, ...) + idx], T[:3, 3], rtol=0, atol=1e-12)


def test_base_joint_rotation_preserves_ee_height(rng):
    q = random_q(rng)
    z0 = ee_position(MODEL, q)[2]
    q2 = q.copy()
    q2[0] = q[0] + np.pi if q[0] < 0 else q[0] - np.pi
    assert ee_position(MODEL, q2)[2] == pytest.approx(z0, abs=1e-12)


def test_fk_is_lipschitz_in_joint_angles(rng):
    total_len = sum(abs(a) + abs(d) for a, d, _ in MODEL.dh) + MODEL.flange_offset
    for _ in range(20):
        q1, q2 = random_q(rng), random_q(rng)
        d = np.linalg.norm(ee_position(MODEL, q1) - ee_position(MODEL, q2))
        assert d <= total_len * np.abs(q1 - q2).sum() + 1e-9


# --- jacobian and manipulability ------------------------------------------

def test_jacobian_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(100):
        q = random_q(rng)
        J = linear_jacobian(fk_batch(MODEL, q))
        for i in range(N_DOF):
            dq = np.zeros(N_DOF)
            dq[i] = h
            dp = (fk_oracle(MODEL, q + dq)[0][:3, 3] - fk_oracle(MODEL, q - dq)[0][:3, 3]) / (2 * h)
            denom = max(np.linalg.norm(J[:, i]), 1e-8)
            assert np.linalg.norm(dp - J[:, i]) / denom < 1e-4


def test_jacobian_column_vanishes_when_axis_hits_ee():
    # all joint axes coincide with the world z line through the base, and the
    # end effector stays on that line: every linear column must vanish
    J = linear_jacobian(fk_batch(COAXIAL, np.linspace(-1.0, 1.0, N_DOF)))
    np.testing.assert_allclose(J, 0.0, atol=1e-12)


def test_manipulability_positive_at_generic_config(rng):
    for _ in range(10):
        assert manipulability_batch(fk_batch(MODEL, random_q(rng))) > 0.0


def test_manipulability_zero_at_singular_config():
    assert manipulability_batch(fk_batch(COAXIAL, np.ones(N_DOF) * 0.3)) < 1e-6


def test_manipulability_invariant_to_base_rotation(rng):
    q = random_q(rng)
    q2 = q.copy()
    q2[0] += 0.6
    m = manipulability_batch(fk_batch(MODEL, np.stack([q, q2])))
    assert m[1] == pytest.approx(m[0], rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), coaxial=st.booleans())
def test_manipulability_batch_matches_scalar(n, seed, coaxial):
    model = COAXIAL if coaxial else MODEL
    Q = np.random.default_rng(seed).uniform(model.lo, model.hi, size=(n, N_DOF))
    got = manipulability_batch(fk_batch(model, Q))
    np.testing.assert_allclose(got, [oracle_manipulability(model, q) for q in Q],
                               rtol=0, atol=1e-12)


# --- collision geometry ---------------------------------------------------

def test_min_separation_matches_brute_force(rng):
    for _ in range(200):
        q = random_q(rng)
        human = random_pose_array(rng, scale=0.05)
        assert separation(MODEL, q, human) == pytest.approx(
            brute_force_separation(MODEL, q, human), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(["near", "elbow_on_wrist", "far"]))
def test_separation_batch_matches_min_separation_per_step(n, seed, case):
    rng = np.random.default_rng(seed)
    H = 6
    Q = rng.uniform(MODEL.lo, MODEL.hi, size=(n, H, N_DOF))
    # the right wrist is brought into the arm's workspace, often into contact
    humans = np.stack([random_pose_array(rng, 0.05) for _ in range(H)])
    humans += np.array([0.7, 0.05, 0.35]) + rng.normal(0.0, 0.15, size=(H, 1, 3))
    if case == "elbow_on_wrist":  # zero-length right forearm
        humans[:, 3] = humans[:, 1]
    if case == "far":
        humans += np.array([5.0, 0.0, 0.0])
    sep = separation_batch(MODEL, collision_sphere_centers(MODEL, fk_batch(MODEL, Q)),
                           *arm_capsules(humans))
    assert sep.shape == (n, H)
    expected = [[brute_force_separation(MODEL, Q[i, h], humans[h]) for h in range(H)]
                for i in range(n)]
    np.testing.assert_allclose(sep, expected, rtol=0, atol=1e-12)
    if case == "far":
        assert (sep > 3.0).all()


def test_far_human_clears_by_over_a_meter(rng):
    q = random_q(rng)
    far = random_pose_array(rng) + np.array([5.0, 5.0, 0.0])
    assert separation(MODEL, q, far) > 1.0


def test_wrist_on_robot_sphere_center_penetrates_fully(rng):
    q = random_q(rng)
    centers = collision_sphere_centers(MODEL, fk_batch(MODEL, q))
    # put the right elbow-wrist capsule degenerately on the nearest sphere
    human = random_pose_array(rng)
    base = separation(MODEL, q, human + np.array([0.0, -3.0, 0.0]))
    c = centers[np.linalg.norm(centers - human[1], axis=-1).argmin()]
    human += np.array([0.0, -3.0, 0.0])  # move everything far away first
    human[1] = c
    human[3] = c
    sep = separation(MODEL, q, human)
    assert sep == pytest.approx(-(MODEL.sphere_radius + HUMAN_CAPSULE_RADIUS), abs=1e-9)
    assert base > sep


def brute_force_capsule_clearance(model, centers, starts, ends):
    """Scalar scan of every (robot sphere, human capsule) pair per plan and
    step: centers (rows, 3, N, H) and capsule axes (H, P, 3); (N, H)."""
    _, _, N, H = centers.shape
    out = np.empty((N, H))
    for n, h in np.ndindex(N, H):
        best = np.inf
        for c in centers[:, :, n, h]:
            for a, b in zip(starts[h], ends[h]):
                ab = b - a
                denom = float(ab @ ab)
                t = 0.0 if denom < 1e-18 else float(np.clip((c - a) @ ab / denom, 0.0, 1.0))
                best = min(best, float(np.linalg.norm(c - (a + t * ab)))
                           - model.sphere_radius - HUMAN_CAPSULE_RADIUS)
        out[n, h] = best
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), h=st.integers(1, 5), bones=st.integers(0, 3),
       spheres=st.integers(0, 3), poison=st.sampled_from([None, "start", "end"]),
       seed=st.integers(0, 2**32 - 1))
def test_one_kernel_scores_bones_and_spheres_in_one_call(n, h, bones, spheres, poison, seed):
    # bone capsules and zero-length capsules (spheres), interleaved in one
    # call, against a scan of every pair; a NaN in one capsule at one step
    # makes every clearance at that step NaN
    rng = np.random.default_rng(seed)
    P = max(bones + spheres, 1)
    centers = collision_sphere_centers(MODEL, fk_batch(MODEL, rng.uniform(
        MODEL.lo, MODEL.hi, size=(n, h, N_DOF))))
    starts = np.array([0.6, 0.0, 0.8]) + rng.normal(0.0, 0.3, size=(h, P, 3))
    ends = starts + rng.normal(0.0, 0.2, size=(h, P, 3))
    sphere = rng.permutation(P) < spheres
    ends[:, sphere] = starts[:, sphere]
    if poison is not None:
        step_, part = rng.integers(h), rng.integers(P)
        target = {"start": starts, "end": ends}[poison]
        target[step_, part] = np.nan
    got = separation_batch(MODEL, centers, starts, ends)
    assert got.shape == (n, h)
    want = brute_force_capsule_clearance(MODEL, centers, starts, ends)
    if poison is not None:
        assert np.isnan(got[:, step_]).all()
        clean = np.arange(h) != step_
        got, want = got[:, clean], want[:, clean]
    assert not np.isnan(got).any()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True),
       shape=st.lists(st.integers(1, 6), min_size=0, max_size=2), seed=st.integers(0, 2**32 - 1))
def test_collision_sphere_centers_builds_any_rows_bit_for_bit(rows, shape, seed):
    # a subset of rows, in any order, is those rows of the full build bit for
    # bit; every center lies in its row's box from the frame-origin boxes
    rng = np.random.default_rng(seed)
    frames = fk_batch(MODEL, rng.uniform(MODEL.lo, MODEL.hi, size=tuple(shape) + (N_DOF,)))
    full = collision_sphere_centers(MODEL, frames)
    assert full.shape == (16, 3) + tuple(shape)
    got = collision_sphere_centers(MODEL, frames, rows)
    assert got.shape == (len(rows), 3) + tuple(shape)
    assert got.tobytes() == full[rows].tobytes()
    lo, hi = sphere_row_boxes(MODEL, frames)
    flat = full.reshape(16, 3, -1)
    assert (flat >= lo[..., None] - 1e-12).all() and (flat <= hi[..., None] + 1e-12).all()


@settings(max_examples=40, deadline=None)
@given(T=st.integers(1, 64), at_limit=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_batched_rows_equal_their_one_row_calls_bit_for_bit(T, at_limit, seed):
    # a playback log takes the FK and clearance of every tick in one call
    # each; every row of those calls must be its one-configuration call,
    # joints pinned exactly at a limit included
    rng = np.random.default_rng(seed)
    Q = rng.uniform(MODEL.lo, MODEL.hi, size=(T, N_DOF))
    pinned = rng.random((T, N_DOF)) < at_limit
    Q[pinned] = np.where(rng.random((T, N_DOF)) < 0.5, MODEL.lo, MODEL.hi)[pinned]
    humans = np.stack([random_pose_array(rng, 0.05) for _ in range(T)])
    humans += np.array([0.7, 0.05, 0.35]) + rng.normal(0.0, 0.15, size=(T, 1, 3))
    R, p = fk_batch(MODEL, Q)
    sep = separation_batch(MODEL, collision_sphere_centers(MODEL, (R, p))[:, :, None],
                           *arm_capsules(humans))
    assert sep.shape == (1, T)
    for i in range(T):
        R_i, p_i = fk_batch(MODEL, Q[i])
        assert R[..., i].tobytes() == R_i.tobytes() and p[..., i].tobytes() == p_i.tobytes()
        one = separation_batch(MODEL, collision_sphere_centers(MODEL, (R_i, p_i))[..., None, None],
                               *arm_capsules(humans[i][None]))
        assert sep[:, i:i + 1].tobytes() == one.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), h=st.integers(1, 5), arm=st.sampled_from(["default", "skewed", "coaxial"]),
       seed=st.integers(0, 2**32 - 1))
def test_kernels_follow_a_float32_input(n, h, arm, seed):
    # float32 configurations give float32 frames, Jacobian, sphere centers
    # and clearances, within 1e-6 m of the float64 kernels on the same values
    model = {"default": MODEL, "skewed": SKEWED, "coaxial": COAXIAL}[arm]
    rng = np.random.default_rng(seed)
    Q = rng.uniform(model.lo, model.hi, size=(n, h, N_DOF)).astype(np.float32)
    humans = np.stack([random_pose_array(rng, 0.05) for _ in range(h)])
    humans += np.array([0.7, 0.05, 0.35]) + rng.normal(0.0, 0.15, size=(h, 1, 3))
    results = {}
    for dtype in (np.float32, np.float64):
        frames = fk_batch(model, Q.astype(dtype))
        centers = collision_sphere_centers(model, frames)
        results[dtype] = (*frames, linear_jacobian(frames), centers,
                          separation_batch(model, centers, *arm_capsules(humans)))
    for got, want in zip(results[np.float32], results[np.float64]):
        assert got.dtype == np.float32 and want.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


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


def test_rollout_arrays_clamps_at_both_limits():
    # even joints start just under their upper limit and odd joints just over
    # their lower one; plan 0 drives every joint into its near limit and then
    # away, plan 1 the reverse, plan 2 saturates the velocity limit throughout
    outward = np.where(np.arange(N_DOF) % 2 == 0, 1.0, -1.0)
    q0 = np.where(outward > 0, MODEL.hi - 0.01, MODEL.lo + 0.01)
    controls = np.empty((3, 12, N_DOF))
    controls[0, :6], controls[0, 6:] = 5.0 * outward, -0.5 * outward
    controls[1, :6], controls[1, 6:] = -0.5 * outward, 5.0 * outward
    controls[2] = 3.0 * outward
    Q, Qd = rollout_arrays(MODEL, q0, controls, 0.04)
    for n in range(3):
        s = ArmState(q=q0, qd=np.zeros(N_DOF))
        for t in range(12):
            s = step(MODEL, s, controls[n, t], 0.04)
            np.testing.assert_array_equal(Q[n, t], s.q)
            np.testing.assert_array_equal(Qd[n, t], s.qd)
    at_hi, at_lo = Q == MODEL.hi, Q == MODEL.lo
    assert at_hi.any() and at_lo.any()
    # a joint pushed past a limit this step reports zero velocity
    assert (Qd[at_hi & (controls > 0)] == 0.0).all()
    assert (Qd[at_lo & (controls < 0)] == 0.0).all()


def test_rollout_arrays_returns_sample_innermost_views(rng):
    # Q and Qd are (N, H, 7) views of step-major, joint-planar (H, 7, N)
    # memory, and a dtype cast keeps that layout
    Q, Qd = rollout_arrays(MODEL, random_q(rng), rng.normal(0.0, 1.5, size=(5, 4, N_DOF)), 0.04)
    for A in (Q, Qd, Q.astype(np.float32), Qd.astype(np.float32)):
        assert A.shape == (5, 4, N_DOF)
        assert A.transpose(1, 2, 0).flags.c_contiguous


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), h=st.integers(1, 12), dt=st.sampled_from([0.01, 0.04, 0.1]),
       seed=st.integers(0, 2**32 - 1))
def test_rollout_arrays_matches_a_scalar_clamp_loop(n, h, dt, seed):
    # every joint starts less than a full-speed step from a limit and its
    # first command is three times its velocity limit outward, so each joint
    # clamps both its velocity and its position; later commands reach three
    # times the limit either way
    rng = np.random.default_rng(seed)
    lo, hi, vel = MODEL.lo, MODEL.hi, MODEL.vel
    outward = rng.choice([-1.0, 1.0], size=N_DOF)
    margin = rng.uniform(0.0, 0.05, size=N_DOF) * dt / 0.1
    q0 = np.where(outward > 0, hi - margin, lo + margin)
    controls = rng.uniform(-3.0, 3.0, size=(n, h, N_DOF)) * vel
    controls[:, 0] = 3.0 * vel * outward
    Q, Qd = rollout_arrays(MODEL, q0, controls, dt)
    for i in range(n):
        for j in range(N_DOF):
            q = float(q0[j])
            for t in range(h):
                qd = min(max(float(controls[i, t, j]), -float(vel[j])), float(vel[j]))
                q += qd * dt
                if q < lo[j] or q > hi[j]:
                    q, qd = min(max(q, float(lo[j])), float(hi[j])), 0.0
                assert (Q[i, t, j], Qd[i, t, j]) == (q, qd)
    assert (Qd[:, 0] == 0.0).all()


# --- model plumbing -------------------------------------------------------

def test_arm_model_validation():
    with pytest.raises(MotionError):
        ArmModel(joint_limits=((1.0, -1.0),) * N_DOF)
    with pytest.raises(MotionError):
        ArmModel(sphere_radius=0.0)
