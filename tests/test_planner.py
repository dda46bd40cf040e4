"""Tests for the sampling-based planner: weight update, IK helpers, task
specs, and the receding-horizon loop."""

import ctypes
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BASE_POSE, fk_oracle, task_episode
from costcast import _keep_freed_heap, cli, planner
from costcast.cli import RunConfig
from costcast.cost import CostWeights
from costcast.datagen import GENERATORS, GenConfig, gen_stirring
from costcast.forecast import make_forecaster
from costcast.motion import (Episode, HISTORY_LEN, HORIZON_LEN, MAX_COORDINATE, MotionError,
                             WRIST_INDICES)
from costcast.planner import (
    DEFAULT_RETRACT_POINT,
    IK_TOLERANCE,
    MAX_NOISE_SIGMA,
    MppiConfig,
    PlannerState,
    SCORE_DTYPE,
    SimLog,
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
from costcast.robot import (ArmModel, ArmState, N_DOF, arm_capsules, collision_sphere_centers,
                           fk_batch, separation_batch, step)

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


@pytest.mark.parametrize("temperature", [1e-310, 5e-324])
def test_weights_at_a_vanishing_temperature_go_to_the_least_finite_cost(temperature):
    # each gap over the temperature overflows to the limit -inf without a
    # warning (warnings are errors here): one-hot on the least finite cost,
    # shared equally between ties
    costs = np.array([3.0, np.inf, 1.0, 2.0, np.nan, 1e308])
    np.testing.assert_array_equal(mppi_weights(costs, temperature), [0, 0, 1, 0, 0, 0])
    np.testing.assert_array_equal(mppi_weights(np.array([-1e308, 2.0, -1e308]), temperature),
                                  [0.5, 0.0, 0.5])


def test_plan_step_at_a_vanishing_temperature_keeps_the_best_sample():
    seen = []

    def cost_fn(Q, Qd):
        costs = np.abs(Qd).sum(axis=(1, 2))
        seen.append(costs)
        return costs

    cfg = MppiConfig(n_samples=4, n_iterations=1, temperature=1e-310)
    ps = PlannerState.init(cfg)
    samples = ps.mean_controls + np.random.default_rng(cfg.seed).normal(
        0.0, cfg.noise_sigma, size=(cfg.n_samples, HORIZON_LEN, N_DOF))
    arm = ArmState(q=MODEL.mid(), qd=np.zeros(N_DOF))
    cmd, _ = plan_step(ps, arm, cost_fn, cfg, MODEL)
    best = samples[int(np.argmin(seen[0]))]
    np.testing.assert_array_equal(cmd, best[0])
    # the stored mean is the best sample itself, shifted by one step
    np.testing.assert_array_equal(ps.mean_controls, np.vstack([best[1:], best[-1:]]))


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
    # a larger sigma would overflow the sampled controls to +-inf
    with pytest.raises(MotionError, match="noise_sigma must be at most"):
        MppiConfig(noise_sigma=1e308)
    assert MppiConfig(noise_sigma=MAX_NOISE_SIGMA).noise_sigma == MAX_NOISE_SIGMA
    for bad in (dict(n_iterations=0), dict(dt=0.0), dict(dt=-0.04)):
        with pytest.raises(MotionError):
            MppiConfig(**bad)


# --- IK helpers -----------------------------------------------------------

def test_ik_reaches_reachable_target():
    target = np.array([0.7, 0.1, 0.9])
    q = ik_position(MODEL, MODEL.mid(), target)
    assert np.linalg.norm(fk_batch(MODEL, q)[1][7] - target) < 1e-3
    assert (q >= MODEL.lo).all() and (q <= MODEL.hi).all()


def within_limits(q):
    return bool(((q >= MODEL.lo) & (q <= MODEL.hi)).all())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 6), shared_seed=st.booleans())
def test_batched_ik_rows_are_their_one_row_calls(seed, b, shared_seed):
    rng = np.random.default_rng(seed)
    # targets that some configuration within the limits reaches
    targets = fk_batch(MODEL, rng.uniform(MODEL.lo, MODEL.hi, size=(b, N_DOF)))[1][7].T
    q0 = (MODEL.mid() if shared_seed
          else rng.uniform(MODEL.lo, MODEL.hi, size=(b, N_DOF)))
    q = ik_position(MODEL, q0, targets)
    assert q.shape == (b, N_DOF)
    assert within_limits(q)
    for i in range(b):
        row = ik_position(MODEL, q0 if shared_seed else q0[i], targets[i])
        np.testing.assert_allclose(q[i], row, rtol=0, atol=1e-12)
    # one target broadcasts against a batch of seeds, too
    np.testing.assert_array_equal(
        ik_position(MODEL, np.broadcast_to(MODEL.mid(), (2, N_DOF)), targets[0]),
        np.broadcast_to(ik_position(MODEL, MODEL.mid(), targets[0]), (2, N_DOF)))


def test_ik_stops_once_every_row_converges_or_after_iters(monkeypatch):
    calls = []

    def counted_fk(model, Q):
        calls.append(np.shape(Q)[0])
        return fk_batch(model, Q)

    monkeypatch.setattr(planner, "fk_batch", counted_fk)
    base = np.asarray(MODEL.base_position)
    far = base + np.array([[3.0, 0.0, 0.0], [0.0, -2.0, 2.0]])    # out of reach
    q = ik_position(MODEL, MODEL.mid(), far, iters=30)
    assert calls == [2] * 30
    assert within_limits(q)
    # a reachable row drops out of the batch once it converges, and the
    # loop ends with the last row
    calls.clear()
    q = ik_position(MODEL, MODEL.mid(), np.vstack([far[:1], DEFAULT_RETRACT_POINT]), iters=60)
    assert calls[0] == 2 and calls[-1] == 1 and len(calls) == 60
    calls.clear()
    ik_position(MODEL, MODEL.mid(), DEFAULT_RETRACT_POINT)
    assert len(calls) < 200


def test_rest_configuration_hits_retract_point():
    # joint 4 ends at its limit; a step that pushes it further out must not
    # stall the other joints short of the target
    q = rest_configuration(MODEL)
    ee, _ = fk_oracle(MODEL, q)
    assert np.linalg.norm(ee[:3, 3] - np.asarray(DEFAULT_RETRACT_POINT)) < IK_TOLERANCE
    assert within_limits(q)


def stir_circle(pot, n):
    center = pot + np.array([0.0, 0.0, STIR_HEIGHT])
    ang = 2 * np.pi * np.arange(n) / n
    return center + STIR_RADIUS * np.stack([np.cos(ang), np.sin(ang), np.zeros(n)], axis=-1)


def test_stir_reference_tracks_the_circle():
    pot = np.array([0.55, 0.0, 0.95])
    ref = stir_reference(MODEL, pot, 0.04, q_seed=rest_configuration(MODEL))
    n = int(round(STIR_PERIOD_S / 0.04))
    assert ref.shape == (n, N_DOF)
    for q, target in zip(ref, stir_circle(pot, n)):
        assert np.linalg.norm(fk_oracle(MODEL, q)[0][:3, 3] - target) < IK_TOLERANCE
    assert within_limits(ref)


def test_stir_reference_closes_its_period():
    # every row lies on one branch of solutions: neighbouring rows, the last
    # and the first included, are close in joint space
    ref = stir_reference(MODEL, np.array([0.55, 0.0, 0.95]), 0.04,
                         q_seed=rest_configuration(MODEL))
    assert np.abs(np.roll(ref, -1, axis=0) - ref).max() <= 0.05


def test_build_task_spec_per_task():
    small = dict(episode_len_s=16.0, n_interactions=2)
    ep = gen_stirring(GenConfig(seed=0, **small))
    spec = build_task_spec(ep, MODEL)
    assert spec.task == "stir"
    np.testing.assert_allclose(spec.pot_position, [0.55, 0.0, 0.95], atol=0)
    assert spec.stir_reference.shape[1] == N_DOF
    assert spec.rest_config.shape == (N_DOF,)


def still_stir(fps):
    return task_episode(np.repeat(BASE_POSE[None], HISTORY_LEN + HORIZON_LEN, axis=0), fps=fps)


@pytest.mark.parametrize("fps, rows", [(1.0, 4), (50.0, 200), (1000.0, 4000)])
def test_build_task_spec_takes_the_episode_rate(fps, rows):
    # one 4 s stir period in planner steps of one frame, at the lowest,
    # a doubled and the highest rate an episode may have
    spec = build_task_spec(still_stir(fps), MODEL)
    assert spec.stir_reference.shape == (rows, N_DOF)


def test_build_task_spec_rejects_a_step_other_than_the_episode_rate():
    with pytest.raises(MotionError, match="episode rate must match the planner rate"):
        build_task_spec(still_stir(50.0), MODEL, dt=0.04)


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
        cmd, _ = plan_step(ps, arm, cost_fn, cfg, MODEL)
        arm = step(MODEL, arm, cmd, cfg.dt)
        d = float(np.linalg.norm(fk_batch(MODEL, arm.q)[1][7] - goal))
        trace.append((np.asarray(cmd), d))
        if d < 0.05:
            return i, trace
    return None, trace


@pytest.mark.parametrize("non_finite", [[np.nan], [np.nan, np.inf, -np.inf]])
def test_plan_step_keeps_the_least_finite_cost(non_finite):
    # NaN at index 0 (then also +-inf at 1 and 2, leaving one finite cost):
    # the best sample is the one of least finite cost, as mppi_weights
    # ranks them, in every iteration
    seen = []

    def cost_fn(Q, Qd):
        costs = np.abs(Qd).sum(axis=(1, 2))
        costs[:len(non_finite)] = non_finite
        seen.append((costs, Qd[:, 0].copy()))
        return costs

    cfg = MppiConfig(n_samples=4, n_iterations=2)
    arm = ArmState(q=MODEL.mid(), qd=np.zeros(N_DOF))
    cmd, best_cost = plan_step(PlannerState.init(cfg), arm, cost_fn, cfg, MODEL)
    costs, first_controls = map(np.concatenate, zip(*seen))
    best = np.flatnonzero(np.isfinite(costs))[np.argmin(costs[np.isfinite(costs)])]
    assert best_cost == costs[best]
    np.testing.assert_array_equal(cmd, first_controls[best])


def test_forecasters_share_the_noise_of_one_seed():
    # plan_step draws noise of one shape whatever the costs, so playbacks of
    # two forecasters under one MPPI seed see the same draws, and their
    # closed-loop results can be paired
    def speed_cost(Q, Qd):
        return np.abs(Qd).sum(axis=(1, 2))

    cfg = MppiConfig(n_samples=8)
    cost_fns = (goal_cost_fn(np.array([0.6, 0.2, 0.9])), speed_cost)
    states = [PlannerState.init(cfg) for _ in cost_fns]
    arms = [ArmState(q=rest_configuration(MODEL), qd=np.zeros(N_DOF)) for _ in cost_fns]
    for _ in range(4):
        for i, cost_fn in enumerate(cost_fns):
            cmd, _ = plan_step(states[i], arms[i], cost_fn, cfg, MODEL)
            arms[i] = step(MODEL, arms[i], cmd, cfg.dt)
        assert states[0].rng.bit_generator.state == states[1].rng.bit_generator.state
    assert not np.array_equal(arms[0].q, arms[1].q)


def test_planner_is_seeded_deterministic():
    _, a = run_to_goal(seed=3, goal=np.array([0.6, 0.2, 0.9]), max_replans=10)
    _, b = run_to_goal(seed=3, goal=np.array([0.6, 0.2, 0.9]), max_replans=10)
    for (ca, da), (cb, db) in zip(a, b):
        np.testing.assert_array_equal(ca, cb)
        assert da == db
    _, c = run_to_goal(seed=4, goal=np.array([0.6, 0.2, 0.9]), max_replans=10)
    assert any((x[0] != y[0]).any() for x, y in zip(a, c))


def test_playback_scores_plans_in_score_dtype_and_logs_the_least_cost(monkeypatch):
    # run_episode hands plan_step a cost that casts the rollouts to
    # SCORE_DTYPE and calls total_cost_batch through the planner module
    total_cost_batch = planner.total_cost_batch
    calls = []

    def spy(model, Q, Qd, *args):
        costs = total_cost_batch(model, Q, Qd, *args)
        calls.append((Q.dtype, Qd.dtype, costs))
        return costs

    monkeypatch.setattr(planner, "total_cost_batch", spy)
    ep = gen_stirring(GenConfig(seed=0, episode_len_s=8.0, n_interactions=1))
    episode = Episode(fps=ep.fps, frames=ep.frames[:HISTORY_LEN + HORIZON_LEN + 2],
                      task="stir", extras=ep.extras)
    cfg = MppiConfig(n_samples=8)
    log = run_episode(episode, make_forecaster("cur"), build_task_spec(episode, MODEL),
                      CostWeights(), cfg, model=MODEL)
    assert len(log.records) == 3 and len(calls) == cfg.n_iterations * 3
    assert all(q == qd == SCORE_DTYPE for q, qd, _ in calls)
    for i, rec in enumerate(log.records):
        ticks = calls[i * cfg.n_iterations:(i + 1) * cfg.n_iterations]
        costs = np.concatenate([c for _, _, c in ticks]).astype(float)
        assert rec["cost"] == costs[np.isfinite(costs)].min()


def test_logged_kinematics_equal_the_one_configuration_calls():
    # run_episode computes every record's ee_pos and min_sep in one pass
    # after the last tick; each equals the FK of the record's q, and the
    # clearance of that q against the person at frame step, one call each
    cfg = MppiConfig(n_samples=8)
    for task in ("stir", "handover", "tableset"):
        ep = GENERATORS[task](GenConfig(seed=0, episode_len_s=11.0, n_interactions=2))
        log = run_episode(ep, make_forecaster("cur"), build_task_spec(ep, MODEL), CostWeights(),
                          cfg, model=MODEL)
        assert [rec["step"] for rec in log.records] == list(
            range(HISTORY_LEN - 1, len(ep) - HORIZON_LEN))
        for rec in log.records:
            frames = fk_batch(MODEL, np.array(rec["q"]))
            assert rec["ee_pos"] == frames[1][7].tolist()
            sep = separation_batch(MODEL, collision_sphere_centers(MODEL, frames)[..., None, None],
                                   *arm_capsules(ep.frames[rec["step"]][None]))
            assert rec["min_sep"] == float(sep[0, 0])


@pytest.mark.parametrize("task", ["stir", "handover"])
def test_task_points_at_the_coordinate_bound_plan_without_overflow(task):
    # a pot or goal at the bound on every axis: the set-up IK and a short
    # playback raise no RuntimeWarning (the suite makes each one an error)
    # and stay finite
    far = [MAX_COORDINATE, -MAX_COORDINATE, MAX_COORDINATE]
    field = "pot_position" if task == "stir" else "goals"
    frames = np.repeat(BASE_POSE[None], HISTORY_LEN + HORIZON_LEN + 5, axis=0)
    ep = task_episode(frames, task, **{field: far if task == "stir" else [far]})
    model = ArmModel()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = build_task_spec(ep, model)
        log = run_episode(ep, make_forecaster("cvm"), spec, CostWeights(), MppiConfig(seed=0),
                          model=model)
    assert log.records and all(np.isfinite(r["cost"]) for r in log.records)


@pytest.mark.parametrize("task", ["stir", "handover"])
def test_sim_logs_round_trip_and_stdlib_json_logs_still_load(tmp_path, task, rng):
    # a playback log read back holds equal records, and the same log in the
    # stdlib json layout, the one earlier versions wrote, loads to them too
    frames = BASE_POSE + rng.normal(0.0, 0.02, size=(HISTORY_LEN + HORIZON_LEN + 3, 7, 3))
    episode = task_episode(frames, task)
    log = run_episode(episode, make_forecaster("cvm"), build_task_spec(episode, MODEL),
                      CostWeights(), MppiConfig(n_samples=8), model=MODEL, model_name="cvm")
    run_dir = RunConfig.load(None, str(tmp_path / "runs")).run_dir()
    path = run_dir / "logs" / "cvm" / "now.jsonl"
    path.parent.mkdir(parents=True)
    log.to_jsonl(path)
    stdlib = tmp_path / "stdlib.jsonl"
    stdlib.write_text("".join(json.dumps(doc) + "\n" for doc in [
        {"meta": {"task": log.task, "model": log.model_name, "dt": log.dt}}, *log.records]))
    for written in (path, stdlib):
        back = SimLog.from_jsonl(written)
        assert (back.task, back.model_name, back.dt) == (task, "cvm", 0.04)
        assert back.records == log.records

    # records of earlier versions also carry time_s, ee_quat and gt_wrist,
    # which repeat the step, the FK of q and the episode; they load, and
    # report turns them into the same CSV
    def earlier(rec):
        out = {}
        for key, value in rec.items():
            out[key] = value
            if key == "step":
                out["time_s"] = value * log.dt
            elif key == "ee_pos":
                out["ee_quat"] = [0.0, 0.0, 0.0, 1.0]
            elif key == "min_sep":
                out["gt_wrist"] = episode.frames[rec["step"], WRIST_INDICES[1]].tolist()
        return out

    old_path = path.with_name("earlier.jsonl")
    replace(log, records=[earlier(rec) for rec in log.records]).to_jsonl(old_path)
    back = SimLog.from_jsonl(old_path)
    assert [{k: v for k, v in rec.items() if k not in ("time_s", "ee_quat", "gt_wrist")}
            for rec in back.records] == log.records
    assert cli.main(["report", "--out", str(tmp_path / "runs")]) == 0
    assert old_path.with_suffix(".csv").read_bytes() == path.with_suffix(".csv").read_bytes()


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                    reason="the C library has no mallopt")
def test_warmed_up_playback_takes_no_page_faults():
    # the freed scoring temporaries of each MPPI iteration stay mapped, so a
    # second playback reuses the first one's pages; under glibc's dynamic
    # trim rule the heap top is faulted in again some 350 times per tick
    import resource

    ep = gen_stirring(GenConfig(seed=0, episode_len_s=6.0, n_interactions=1))
    spec = build_task_spec(ep, MODEL)

    def play():
        return run_episode(ep, make_forecaster("cur"), spec, CostWeights(), MppiConfig(seed=0),
                           model=MODEL, model_name="cur")

    play()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ticks = len(play().records)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < ticks, f"{faults} minor page faults in {ticks} ticks"


def test_keep_freed_heap_sets_both_thresholds_and_skips_a_libc_without_mallopt():
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    _keep_freed_heap(Libc())
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    _keep_freed_heap(object())  # no mallopt: import leaves the allocator alone
