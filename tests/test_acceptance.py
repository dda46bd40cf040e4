"""End-to-end acceptance suite.

Each test pins one externally meaningful guarantee of the package: exact
verification of the loss bounds, oracle playback anchors, the directional
benefits of transition-upsampled and wrist-weighted training, analytic
gradients, forecaster identities, planner convergence, kinematics/cost
oracles, and byte-level reproducibility of the command-line pipeline.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    BASE_POSE,
    as_rows,
    brute_force_separation,
    fk_oracle,
    oracle_manipulability,
    random_context,
    random_pose_array,
    random_trajectory,
)
from costcast import datagen, metrics
from costcast.cli import main as cli_main
from costcast.cost import (
    CostWeights,
    D_SAFE,
    JOINT_MARGIN,
    ORIENTATION_WEIGHT,
    STOP_WINDOW,
    TaskSpec,
    grasp_pose,
    total_cost_batch,
)
from costcast.datagen import GENERATORS, GenConfig, split_dataset
from costcast.forecast import (
    ForecastModel,
    TrainConfig,
    WindowSet,
    _batch_loss_and_grad,
    default_weights,
    forecast_cur,
    forecast_cvm,
    make_forecaster,
    model_forward,
    preset_config,
    train,
    weighted_loss,
)
from costcast.motion import Context, HISTORY_LEN, HORIZON_LEN, N_JOINTS, Trajectory
from costcast.planner import (
    MppiConfig,
    PlannerState,
    build_task_spec,
    mppi_weights,
    plan_step,
    rest_configuration,
    run_episode,
)
from costcast.robot import (
    ArmModel,
    ArmState,
    N_DOF,
    arm_capsules,
    collision_sphere_centers,
    fk_batch,
    linear_jacobian,
    separation_batch,
    step,
)

MODEL = ArmModel()
FRAME_MS = 40.0


# --- 1. loss bounds hold exactly on finite problems ------------------------

def test_loss_bounds_hold_on_fixed_and_random_instances():
    t0 = time.time()
    fixed = metrics.lemma1_check(metrics.worked_toycmdp())
    assert fixed["holds_P"] and fixed["holds_Q"]
    assert fixed["eps_P"] == pytest.approx(0.04, abs=1e-12)
    assert fixed["bound_P"] == pytest.approx(0.4, abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        out = metrics.lemma1_check(metrics.random_toycmdp(rng))
        assert out["holds_P"], out
        assert out["holds_Q"], out
    assert time.time() - t0 < 10.0


# --- 2. oracle playback anchors -------------------------------------------

@pytest.fixture(scope="module")
def stir_playbacks():
    ep = datagen.gen_stirring(GenConfig(seed=5, episode_len_s=14.0, n_interactions=2))
    spec = build_task_spec(ep, MODEL)
    w, mcfg = CostWeights(), MppiConfig(seed=0)
    cur = run_episode(ep, make_forecaster("cur"), spec, w, mcfg, model=MODEL,
                      model_name="cur")
    fut = run_episode(ep, make_forecaster("fut"), spec, w, mcfg, model=MODEL,
                      model_name="fut")
    return cur, fut


@pytest.fixture(scope="module")
def handover_playbacks():
    ep = datagen.gen_handover(GenConfig(seed=7, episode_len_s=14.0, n_interactions=2))
    spec = build_task_spec(ep, MODEL)
    w, mcfg = CostWeights(), MppiConfig(seed=0)
    cur = run_episode(ep, make_forecaster("cur"), spec, w, mcfg, model=MODEL,
                      model_name="cur")
    fut = run_episode(ep, make_forecaster("fut"), spec, w, mcfg, model=MODEL,
                      model_name="fut")
    return ep, cur, fut


def test_oracle_stop_advantage_is_one_horizon(stir_playbacks):
    cur, fut = stir_playbacks
    r = metrics.stop_restart_times([fut], [cur])
    # a perfect forecast sees the incursion a full horizon (1 s) early
    assert r["stop_ms"] == pytest.approx(HORIZON_LEN * FRAME_MS, abs=FRAME_MS)
    assert r["fdr"] == 0.0
    assert r["n_incursions"] == 2


def test_baseline_self_comparison_is_exactly_zero(stir_playbacks):
    cur, _ = stir_playbacks
    r = metrics.stop_restart_times([cur], [cur])
    assert r["stop_ms"] == 0.0
    assert r["restart_ms"] == 0.0
    assert r["fdr"] == 0.0


def test_oracle_detects_every_handover_goal(handover_playbacks):
    ep, cur, fut = handover_playbacks
    r = metrics.handover_metrics([fut], [cur], [ep])
    assert r["correct_goal_rate"] == 1.0
    assert r["n_handovers"] == 2
    assert r["goal_detection_ms"] >= 0.0


# --- 3/4. transition upsampling and wrist weighting pay off ----------------

@pytest.fixture(scope="module")
def preset_sweep():
    """Train three presets for five seeds on a fixed three-task dataset and
    collect test-set displacement errors."""
    t0 = time.time()
    counts = {"stir": 19, "handover": 27, "tableset": 15}
    offsets = {"stir": 0, "handover": 1, "tableset": 2}
    eps = {task: [GENERATORS[task](GenConfig(seed=1000 * offsets[task] + i,
                                             episode_len_s=24.0, n_interactions=3))
                  for i in range(n)]
           for task, n in counts.items()}
    splits = {task: split_dataset(lst, seed=0) for task, lst in eps.items()}
    tw = WindowSet([e for task in sorted(counts) for e in splits[task][0]])
    vw = WindowSet([e for task in sorted(counts) for e in splits[task][1]])
    stir_test = WindowSet(splits["stir"][2])
    all_test = WindowSet([e for task in sorted(counts) for e in splits[task][2]])

    forecasters = {}
    for seed in range(5):
        for preset in ("scratch", "manicast", "manicast-w"):
            cfg = preset_config(preset, TrainConfig(seed=seed, epochs=15))
            model, _ = train(tw, vw, cfg)
            forecasters[preset, seed] = make_forecaster(model)
    m_stir = metrics.evaluate_forecaster(stir_test, forecasters)
    m_all = metrics.evaluate_forecaster(all_test, forecasters)
    results = {}
    for preset, seed in forecasters:
        stir, all_tasks = m_stir[preset, seed], m_all[preset, seed]
        results.setdefault(preset, []).append(
            (stir["t_wrist_fde"], all_tasks["fde"], all_tasks["wrist_fde"]))
    results["elapsed_s"] = time.time() - t0
    return results


def test_transition_upsampling_cuts_wrist_error_in_transitions(preset_sweep):
    manicast = np.median([r[0] for r in preset_sweep["manicast"]])
    scratch = np.median([r[0] for r in preset_sweep["scratch"]])
    assert manicast < scratch


def test_transition_upsampling_keeps_overall_error_competitive(preset_sweep):
    scratch = np.median([r[1] for r in preset_sweep["scratch"]])
    manicast = np.median([r[1] for r in preset_sweep["manicast"]])
    assert scratch <= 1.10 * manicast


def test_wrist_weighting_cuts_wrist_error(preset_sweep):
    weighted = np.median([r[2] for r in preset_sweep["manicast-w"]])
    unweighted = np.median([r[2] for r in preset_sweep["manicast"]])
    assert weighted < unweighted


def test_preset_sweep_runtime_budget(preset_sweep):
    assert preset_sweep["elapsed_s"] < 600.0


# --- 5. analytic gradient correctness -------------------------------------

def test_loss_gradient_matches_finite_differences_100_pairs():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(100):
        batch = [(random_context(rng), random_trajectory(rng))
                 for _ in range(int(rng.integers(1, 4)))]
        w = default_weights(float(rng.uniform(1.0, 5.0)))
        model = ForecastModel(
            S=np.eye(N_JOINTS) + rng.normal(0, 0.05, (N_JOINTS, N_JOINTS)),
            M=rng.normal(0, 0.05, (HISTORY_LEN, HORIZON_LEN)))
        _, dS, dM = _batch_loss_and_grad(model.S, model.M,
                                         as_rows(np.stack([c.frames for c, _ in batch], 1)),
                                         as_rows(np.stack([t.frames for _, t in batch], 1)), w)

        def mean_loss(m):
            return np.mean([weighted_loss(m, c, t, w) for c, t in batch])

        fdS = np.empty_like(dS)
        for i in range(N_JOINTS):
            for j in range(N_JOINTS):
                Sp, Sm = model.S.copy(), model.S.copy()
                Sp[i, j] += h
                Sm[i, j] -= h
                fdS[i, j] = (mean_loss(ForecastModel(S=Sp, M=model.M))
                             - mean_loss(ForecastModel(S=Sm, M=model.M))) / (2 * h)
        fdM = np.empty_like(dM)
        for i in range(HISTORY_LEN):
            for j in range(HORIZON_LEN):
                Mp, Mm = model.M.copy(), model.M.copy()
                Mp[i, j] += h
                Mm[i, j] -= h
                fdM[i, j] = (mean_loss(ForecastModel(S=model.S, M=Mp))
                             - mean_loss(ForecastModel(S=model.S, M=Mm))) / (2 * h)
        g = np.concatenate([dS.ravel(), dM.ravel()])
        fd = np.concatenate([fdS.ravel(), fdM.ravel()])
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-4


# --- 6. forecaster identities ---------------------------------------------

def test_constant_velocity_forecast_exact_on_affine_motion():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.normal(0, 0.2, size=3)
        t = np.arange(HISTORY_LEN + HORIZON_LEN)[:, None, None] * 0.04
        frames = BASE_POSE[None] + t * v
        ctx = Context(frames[:HISTORY_LEN])
        fc = forecast_cvm(ctx)
        assert np.abs(fc.frames - frames[HISTORY_LEN:]).max() < 1e-12


def test_untrained_model_identical_to_constant_pose_on_1000_contexts():
    rng = np.random.default_rng(2)
    model = ForecastModel.init()
    for _ in range(1000):
        ctx = random_context(rng)
        np.testing.assert_array_equal(model_forward(model, ctx).frames,
                                      forecast_cur(ctx).frames)


# --- 7. planner convergence and weight properties --------------------------

def test_planner_reaches_goal_within_100_replans():
    goal = np.array([0.6, 0.2, 0.9])

    def cost_fn(Q, Qd):
        _, p = fk_batch(MODEL, Q)
        return np.sum(np.linalg.norm(p[7] - goal[:, None, None], axis=0) ** 2, axis=1)

    cfg = MppiConfig(seed=3)
    ps = PlannerState.init(cfg)
    arm = ArmState(q=rest_configuration(MODEL), qd=np.zeros(N_DOF))
    for i in range(100):
        cmd, _ = plan_step(ps, arm, cost_fn, cfg, MODEL)
        arm = step(MODEL, arm, cmd, cfg.dt)
        if np.linalg.norm(fk_batch(MODEL, arm.q)[1][7] - goal) < 0.05:
            return
    pytest.fail("planner did not reach the goal within 100 replans")


def test_sample_weights_normalized_and_shift_invariant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        costs = rng.normal(0, 20, size=int(rng.integers(2, 64)))
        temp = float(rng.uniform(0.05, 2.0))
        w = mppi_weights(costs, temp)
        assert abs(w.sum() - 1.0) <= 1e-12
        shifted = mppi_weights(costs + float(rng.normal(0, 100)), temp)
        np.testing.assert_allclose(shifted, w, atol=1e-12)


# --- 8. kinematics and cost oracles ---------------------------------------

def test_fk_and_jacobian_match_finite_differences_100_configs():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(100):
        q = rng.uniform(MODEL.lo, MODEL.hi)
        J = linear_jacobian(fk_batch(MODEL, q))
        for i in range(N_DOF):
            dq = np.zeros(N_DOF)
            dq[i] = h
            dp = (fk_oracle(MODEL, q + dq)[0][:3, 3] - fk_oracle(MODEL, q - dq)[0][:3, 3]) / (2 * h)
            denom = max(np.linalg.norm(J[:, i]), 1e-8)
            assert np.linalg.norm(dp - J[:, i]) / denom < 1e-4


def test_min_separation_matches_brute_force_1000_scenes():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        q = rng.uniform(MODEL.lo, MODEL.hi)
        human = random_pose_array(rng, scale=0.05)
        centers = collision_sphere_centers(MODEL, fk_batch(MODEL, q))
        sep = separation_batch(MODEL, centers[..., None, None], *arm_capsules(human[None]))[0, 0]
        assert sep == pytest.approx(brute_force_separation(MODEL, q, human), abs=1e-9)


def _scripted_total_cost(Q, Qd, forecast, spec, w):
    """Independent step-by-step recomputation of the full planner cost."""
    H = len(Q)
    frames = forecast.frames
    mid, half = MODEL.mid(), 0.5 * (MODEL.hi - MODEL.lo)
    stop = float(np.sum(Qd[-STOP_WINDOW:] ** 2))
    joint = float(np.sum(np.maximum(np.abs(Q - mid) - JOINT_MARGIN * half, 0.0) ** 2))
    manip = sum(max(w.manip_floor - oracle_manipulability(MODEL, Q[t]), 0.0) for t in range(H))
    seps = [brute_force_separation(MODEL, Q[t], frames[t]) for t in range(H)]
    coll = sum(max(D_SAFE - s, 0.0) ** 2 for s in seps)

    if spec.task == "stir":
        task = 0.0
        for t in range(H):
            wrists = frames[t, [0, 1]]
            near = np.linalg.norm(wrists - spec.pot_position, axis=-1).min() <= w.eps_pot
            target = spec.rest_config if near else spec.stir_reference[
                t % len(spec.stir_reference)]
            task += float(np.linalg.norm(Q[t] - target))
    elif spec.task == "handover":
        if not spec.object_in_hand:
            task = 0.0
        else:
            ee0, _ = fk_oracle(MODEL, Q[0])
            target_R = grasp_pose(ee0[None, :3, 3], ee0[None, :3, :3], frames[-1, 1])[0]
            task = 0.0
            for t in range(H):
                ee, _ = fk_oracle(MODEL, Q[t])
                rel = ee[:3, :3].T @ target_R
                ang = np.arccos(np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0))
                task += float(np.linalg.norm(ee[:3, 3] - frames[-1, 1])
                              + ORIENTATION_WEIGHT * ang)
    else:
        task = 0.0
        for t in range(H):
            ee, _ = fk_oracle(MODEL, Q[t])
            goal = spec.table_goal
            rel = ee[:3, :3].T @ goal[:3, :3]
            ang = np.arccos(np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0))
            task += float(np.linalg.norm(ee[:3, 3] - goal[:3, 3])
                          + ORIENTATION_WEIGHT * ang)
        task += w.beta * coll  # tableset reuses the collision sum at unit weight

    return (w.alpha_s * stop + w.alpha_j * joint + w.alpha_m * manip
            + w.alpha_c * coll + w.alpha_t * task)


def test_total_cost_matches_scripted_recomputation_100_scenes():
    rng = np.random.default_rng(6)
    w = CostWeights()
    ref = np.stack([MODEL.mid() + 0.02 * np.sin(0.3 * i + np.arange(N_DOF))
                    for i in range(40)])
    goal_ee, _ = fk_oracle(MODEL, MODEL.mid() + 0.2)
    specs = {
        "stir": TaskSpec(task="stir", pot_position=(0.55, 0.0, 0.95),
                         rest_config=MODEL.mid() - 0.3, stir_reference=ref),
        "handover": TaskSpec(task="handover", rest_config=MODEL.mid(), object_in_hand=True),
        "tableset": TaskSpec(task="tableset", rest_config=MODEL.mid(), table_goal=goal_ee),
    }
    tasks = list(specs)
    for k in range(100):
        spec = specs[tasks[k % 3]]
        Q = np.clip(MODEL.mid()[None] + rng.normal(0, 0.25, size=(HORIZON_LEN, N_DOF)),
                    MODEL.lo, MODEL.hi)
        Qd = rng.normal(0, 1.0, size=(HORIZON_LEN, N_DOF))
        frames = BASE_POSE[None] + rng.normal(0, 0.03, size=(HORIZON_LEN, N_JOINTS, 3))
        frames += np.array([rng.uniform(0.0, 0.6), 0.0, 0.2])
        fc = Trajectory(frames)
        got = total_cost_batch(MODEL, Q[None], Qd[None], fc, spec, w)[0]
        want = _scripted_total_cost(Q, Qd, fc, spec, w)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# --- 9. byte-identical reruns of the pipeline ------------------------------

PIPELINE_CONFIG = {
    "seed": 3,
    "counts": {"stir": 10, "handover": 10, "tableset": 0},
    "gen": {"episode_len_s": 12.0, "n_interactions": 1},
    "train": {"epochs": 2},
    "models": ["cur", "manicast"],
    "preset": "manicast",
}


def run_pipeline(root):
    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.json"
    config.write_text(json.dumps(PIPELINE_CONFIG))
    args = ["--config", str(config), "--out", str(root / "runs")]
    for cmd in ("gen", "train", "eval-forecast"):
        assert cli_main([cmd, *args]) == 0
    run_dir = next((root / "runs").iterdir())
    log = root / "sim.jsonl"
    assert cli_main(["simulate", *args, "--episode",
                     str(run_dir / "data" / "stir_000.json"),
                     "--model", "cur", "--log-out", str(log)]) == 0
    assert cli_main(["report", *args, str(log)]) == 0
    return run_dir


def test_identical_configs_produce_byte_identical_outputs(tmp_path):
    a = run_pipeline(tmp_path / "a")
    b = run_pipeline(tmp_path / "b")
    assert a.name == b.name  # run directory is the config hash
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and len(files_a) > 20
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    for extra in ("sim.jsonl", "sim.csv"):
        assert (tmp_path / "a" / extra).read_bytes() == \
            (tmp_path / "b" / extra).read_bytes()
