"""Tests for the sampling-based planner: weight update, IK helpers, task
specs, and the receding-horizon loop."""

import numpy as np
import pytest

from conftest import BASE_POSE
from costcast.cost import CostWeights, TaskSpec
from costcast.datagen import GenConfig, gen_stirring
from costcast.motion import Episode, HISTORY_LEN, HORIZON_LEN, MotionError, Trajectory
from costcast.planner import (
    DEFAULT_RETRACT_POINT,
    MppiConfig,
    PlannerState,
    STIR_HEIGHT,
    STIR_PERIOD_S,
    STIR_RADIUS,
    build_task_spec,
    ik_position,
    mppi_update,
    mppi_weights,
    plan_step,
    rest_configuration,
    run_episode,
    stir_reference,
)
from costcast.robot import ArmModel, ArmState, N_DOF, fk_batch, step

MODEL = ArmModel()


# --- weight update --------------------------------------------------------

def test_weights_closed_form_two_samples():
    w = mppi_weights(np.array([0.0, 10.0]), temperature=1.0)
    z = 1.0 + np.exp(-10.0)
    np.testing.assert_allclose(w, [1.0 / z, np.exp(-10.0) / z], atol=1e-15)


def test_weights_sum_to_one_and_order(rng):
    for _ in range(20):
        costs = rng.normal(0, 50, size=16)
        w = mppi_weights(costs, temperature=0.3)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w >= 0).all()
        # lower cost always gets at least as much weight
        order = np.argsort(costs)
        assert (np.diff(w[order]) <= 1e-15).all()


def test_weights_invariant_to_cost_shift(rng):
    costs = rng.normal(0, 5, size=8)
    a = mppi_weights(costs, 0.5)
    b = mppi_weights(costs + 123.456, 0.5)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_weights_handle_infinite_costs():
    w = mppi_weights(np.array([1.0, np.inf, 2.0]), 1.0)
    assert w[1] == 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(MotionError):
        mppi_weights(np.array([np.inf, np.inf]), 1.0)
    with pytest.raises(MotionError):
        mppi_weights(np.array([1.0]), 1.0)


def test_update_with_equal_costs_returns_sample_mean(rng):
    samples = rng.normal(size=(6, 4, N_DOF))
    out = mppi_update(np.zeros(6), samples, temperature=0.7)
    np.testing.assert_allclose(out, samples.mean(axis=0), atol=1e-12)


def test_config_validation():
    with pytest.raises(MotionError):
        MppiConfig(n_samples=1)
    with pytest.raises(MotionError):
        MppiConfig(temperature=0.0)
    with pytest.raises(MotionError):
        MppiConfig(noise_sigma=-1.0)
    for bad in (dict(n_iterations=0), dict(horizon=0), dict(horizon=26), dict(dt=0.0),
                dict(dt=-0.04)):
        with pytest.raises(MotionError):
            MppiConfig(**bad)
    assert MppiConfig(n_iterations=1, horizon=1).horizon == 1


# --- IK helpers -----------------------------------------------------------

def test_ik_reaches_reachable_target():
    target = np.array([0.7, 0.1, 0.9])
    q = ik_position(MODEL, MODEL.mid(), target)
    assert np.linalg.norm(fk_batch(MODEL, q)[1][7] - target) < 1e-3
    assert (q >= MODEL.lo).all() and (q <= MODEL.hi).all()


def test_rest_configuration_hits_retract_point():
    q = rest_configuration(MODEL)
    assert np.linalg.norm(fk_batch(MODEL, q)[1][7] - np.asarray(DEFAULT_RETRACT_POINT)) < 1e-3


def test_stir_reference_tracks_the_circle():
    pot = np.array([0.55, 0.0, 0.95])
    ref = stir_reference(MODEL, pot, 0.04, q_seed=rest_configuration(MODEL))
    n = int(round(STIR_PERIOD_S / 0.04))
    assert ref.shape == (n, N_DOF)
    center = pot + np.array([0.0, 0.0, STIR_HEIGHT])
    for i in range(0, n, 10):
        ang = 2 * np.pi * i / n
        target = center + STIR_RADIUS * np.array([np.cos(ang), np.sin(ang), 0.0])
        assert np.linalg.norm(fk_batch(MODEL, ref[i])[1][7] - target) < 5e-3


def test_build_task_spec_per_task():
    small = dict(episode_len_s=16.0, n_interactions=2)
    ep = gen_stirring(GenConfig(seed=0, **small))
    spec = build_task_spec(ep, MODEL)
    assert spec.task == "stir"
    np.testing.assert_allclose(spec.pot_position, [0.55, 0.0, 0.95], atol=0)
    assert spec.stir_reference.shape[1] == N_DOF
    assert spec.rest_config.shape == (N_DOF,)


# --- receding-horizon behavior --------------------------------------------

def goal_cost_fn(goal):
    def cost_fn(Q, Qd):
        _, p = fk_batch(MODEL, Q)
        return np.sum(np.linalg.norm(p[7] - goal[:, None, None], axis=0) ** 2, axis=1)

    return cost_fn


def run_to_goal(seed, goal, max_replans=100):
    cfg = MppiConfig(seed=seed)
    ps = PlannerState.init(cfg)
    arm = ArmState(q=rest_configuration(MODEL), qd=np.zeros(N_DOF))
    cost_fn = goal_cost_fn(goal)
    trace = []
    for i in range(max_replans):
        cmd, _ = plan_step(ps, arm, None, None, None, cfg, model=MODEL, cost_fn=cost_fn)
        arm = step(MODEL, arm, cmd, cfg.dt)
        d = float(np.linalg.norm(fk_batch(MODEL, arm.q)[1][7] - goal))
        trace.append((np.asarray(cmd), d))
        if d < 0.05:
            return i, trace
    return None, trace


def test_planner_reaches_goal_within_100_replans():
    reached, _ = run_to_goal(seed=3, goal=np.array([0.6, 0.2, 0.9]))
    assert reached is not None and reached <= 100


def test_planner_is_seeded_deterministic():
    _, a = run_to_goal(seed=3, goal=np.array([0.6, 0.2, 0.9]), max_replans=10)
    _, b = run_to_goal(seed=3, goal=np.array([0.6, 0.2, 0.9]), max_replans=10)
    for (ca, da), (cb, db) in zip(a, b):
        np.testing.assert_array_equal(ca, cb)
        assert da == db
    _, c = run_to_goal(seed=4, goal=np.array([0.6, 0.2, 0.9]), max_replans=10)
    assert any((x[0] != y[0]).any() for x, y in zip(a, c))


def test_logged_branch_looks_only_as_far_as_the_plan_horizon():
    # the forecast wrist reaches the pot only at step 20: a 5-step plan's
    # stir cost never retracts, so the log must not report the branch either
    pot = np.array([0.55, 0.0, 0.95])
    frames = np.repeat(BASE_POSE[None], HISTORY_LEN + HORIZON_LEN + 1, axis=0)
    episode = Episode(fps=25.0, frames=frames, task="stir", extras={"pot_position": pot})
    spec = TaskSpec(task="stir", pot_position=pot, rest_config=MODEL.mid(),
                    stir_reference=MODEL.mid()[None])
    future = np.repeat(BASE_POSE[None], HORIZON_LEN, axis=0)
    future[20, 1] = pot
    fc = Trajectory(future)
    for horizon, fired in ((5, False), (HORIZON_LEN, True)):
        cfg = MppiConfig(horizon=horizon, n_samples=4, n_iterations=1)
        log = run_episode(episode, lambda ctx, truth: fc, spec, CostWeights(), cfg, model=MODEL)
        assert [rec["branch_active"] for rec in log.records] == [fired, fired]
