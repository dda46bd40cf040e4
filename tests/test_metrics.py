"""Tests for forecasting metrics, playback planning metrics, and the
finite-problem loss-bound verifier."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import BASE_POSE, linear_episode, task_episode
from costcast import metrics
from costcast.forecast import (
    BLOCK_WINDOWS,
    ForecastModel,
    WindowSet,
    forecast_cur,
    make_forecaster,
)
from costcast.metrics import (
    METRIC_KEYS,
    MetricReport,
    ToyCMDP,
    evaluate_forecaster,
    handover_metrics,
    lemma1_check,
    random_toycmdp,
    stop_restart_times,
    worked_toycmdp,
    _displacements,
    _incursions,
)
from costcast.motion import (
    Context,
    Episode,
    HISTORY_LEN,
    HORIZON_LEN,
    MotionError,
    N_JOINTS,
    WRIST_INDICES,
    Trajectory,
)
from costcast.planner import SimLog

DT = 0.04


# --- displacement metrics -------------------------------------------------

def random_episode(rng, n=60):
    frames = BASE_POSE + rng.normal(0, 0.05, size=(n, N_JOINTS, 3))
    return task_episode(frames, transitions=((20, 30),))


def test_ade_fde_hand_oracle(rng):
    ws = WindowSet([random_episode(rng)])
    offset = np.array([0.003, 0.004, 0.0])
    m = evaluate_forecaster(ws, {"f": lambda ctx, fut: Trajectory(fut.frames + offset)})["f"]
    for key in METRIC_KEYS:
        assert m[key] == pytest.approx(5.0, abs=1e-9)   # 5 mm uniform offset


def test_ade_fde_matches_hand_sum(rng, monkeypatch):
    # the true future scaled by 1.01, scored in blocks of 7 windows
    ep = random_episode(rng)
    ws = WindowSet([ep])
    monkeypatch.setattr(metrics, "BLOCK_WINDOWS", 7)
    m = evaluate_forecaster(ws, {"f": lambda ctx, fut: Trajectory(1.01 * fut.frames)})["f"]
    fut = np.stack([ep.frames[s + HISTORY_LEN:s + HISTORY_LEN + HORIZON_LEN]
                    for s in range(len(ws))])
    d = np.linalg.norm(1.01 * fut - fut, axis=-1)   # (windows, T, J)
    flags = ws.flags
    wrists = d[:, :, list(WRIST_INDICES)]
    for key, per_window in (("ade", d.mean(axis=(1, 2))), ("fde", d[:, -1].mean(axis=1)),
                            ("wrist_ade", wrists.mean(axis=(1, 2))),
                            ("wrist_fde", wrists[:, -1].mean(axis=1))):
        assert m[key] == pytest.approx(float(per_window.mean()) * 1000, rel=1e-12)
        assert m["t_" + key] == pytest.approx(float(per_window[flags].mean()) * 1000,
                                              rel=1e-12)


def test_evaluate_forecaster_closed_form_for_constant_pose_baseline():
    speed = 0.25
    ep = linear_episode(60, (speed, 0.0, 0.0), transitions=((20, 30),))
    ws = WindowSet([ep])
    m = evaluate_forecaster(ws, {"cur": make_forecaster("cur")})["cur"]
    fde_expected = 25 * DT * speed * 1000.0
    ade_expected = np.mean(np.arange(1, 26)) * DT * speed * 1000.0
    assert m["fde"] == pytest.approx(fde_expected, rel=1e-9)
    assert m["ade"] == pytest.approx(ade_expected, rel=1e-9)
    assert m["wrist_fde"] == pytest.approx(fde_expected, rel=1e-9)
    assert m["t_fde"] == pytest.approx(fde_expected, rel=1e-9)
    assert m["fde_se"] == pytest.approx(0.0, abs=1e-9)
    assert m["n_windows"] == len(ws)
    assert 0 < m["n_transition_windows"] < len(ws)


def test_evaluate_forecaster_without_transition_windows_fails_before_scoring(rng):
    frames = BASE_POSE + rng.normal(0, 0.05, size=(60, N_JOINTS, 3))
    ws = WindowSet([task_episode(frames)])
    calls = []
    with pytest.raises(MotionError, match="no transition windows"):
        evaluate_forecaster(ws, {"f": lambda ctx, fut: calls.append(1) or forecast_cur(ctx)})
    assert calls == []
    with pytest.raises(MotionError, match="no forecasters"):
        evaluate_forecaster(WindowSet([random_episode(rng)]), {})


@st.composite
def scored_windows(draw):
    """1-3 random episodes from exactly one window long, the first with a
    transition in its first window's future, a block size of 1, 7, every
    window or more, the forecasters cur, cvm and a random linear model by
    name, and the name of one of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(HISTORY_LEN + HORIZON_LEN, 80))
        frames = BASE_POSE + rng.normal(0, 0.05, size=(n, N_JOINTS, 3))
        eps.append(task_episode(frames, transitions=((HISTORY_LEN, HISTORY_LEN + 2),)
                                if i == 0 else ()))
    ws = WindowSet(eps)
    size = draw(st.sampled_from([1, 7, len(ws)]) | st.integers(len(ws) + 1, 2 * len(ws) + 1))
    model = ForecastModel(S=np.eye(N_JOINTS) + rng.normal(0, 0.3, (N_JOINTS, N_JOINTS)),
                          M=rng.normal(0, 0.1, (HISTORY_LEN, HORIZON_LEN)))
    forecasters = {"cur": make_forecaster("cur"), "cvm": make_forecaster("cvm"),
                   "model": make_forecaster(model)}
    return eps, ws, size, forecasters, draw(st.sampled_from(sorted(forecasters)))


@settings(max_examples=60, deadline=None)
@given(case=scored_windows())
def test_evaluate_forecaster_in_blocks_matches_a_per_window_reference(case):
    eps, ws, size, forecasters, name = case
    fc = forecasters[name]
    with mock.patch.object(metrics, "BLOCK_WINDOWS", size):   # metrics' own binding
        got = evaluate_forecaster(ws, {name: fc})[name]
    per_window = []
    for ep in eps:
        for s in range(len(ep) - HISTORY_LEN - HORIZON_LEN + 1):
            ctx = Context(ep.frames[s:s + HISTORY_LEN])
            fut = Trajectory(ep.frames[s + HISTORY_LEN:s + HISTORY_LEN + HORIZON_LEN])
            d = np.linalg.norm(fc(ctx, fut).frames - fut.frames, axis=-1)   # (T, J)
            wr = d[:, list(WRIST_INDICES)]
            per_window.append((d.mean(), d[-1].mean(), wr.mean(), wr[-1].mean()))
    per_window = 1000.0 * np.array(per_window)
    flags = ws.flags
    assert got["n_windows"] == len(per_window) and got["n_transition_windows"] == flags.sum()
    for col, key in enumerate(("ade", "fde", "wrist_ade", "wrist_fde")):
        for prefix, values in (("", per_window[:, col]), ("t_", per_window[flags, col])):
            assert got[prefix + key] == pytest.approx(values.mean(), rel=1e-12)
            se = values.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
            assert got[prefix + key + "_se"] == pytest.approx(se, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       scale=st.sampled_from([1e-300, 1e-5, 1.0, 1e5, 1e150]), strided=st.booleans())
def test_displacements_are_bit_identical_to_linalg_norm(seed, shape, scale, strided):
    # contiguous operands and strided views, at scales from subnormal
    # squares to 1e300
    rng = np.random.default_rng(seed)
    a, b = (scale * rng.normal(size=(*shape, 3)) for _ in range(2))
    if strided and len(shape) > 1:
        a, b = (np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -2)), -2, 0) for x in (a, b))
    want = np.linalg.norm(a - b, axis=-1)
    got = _displacements(a, b)
    assert got.shape == want.shape and np.array_equal(got, want)


def float_bits(metrics_by_name: dict) -> dict:
    return {name: {key: float(v).hex() for key, v in m.items()}
            for name, m in metrics_by_name.items()}


@settings(max_examples=60, deadline=None)
@given(case=scored_windows())
def test_scoring_several_forecasters_together_equals_scoring_each_alone(case):
    # one pass over cur, cvm and a linear model gives each the bits of a
    # pass over it alone, at every block size
    _, ws, size, forecasters, _ = case
    with mock.patch.object(metrics, "BLOCK_WINDOWS", size):
        together = evaluate_forecaster(ws, forecasters)
        alone = {name: evaluate_forecaster(ws, {name: fc})[name]
                 for name, fc in forecasters.items()}
    assert list(together) == list(forecasters)
    assert float_bits(together) == float_bits(alone)


def test_several_forecasters_share_one_gather_per_block(rng):
    # 3 models over 3 x 100 windows: one gather per block, not one per model
    ws = WindowSet([random_episode(rng, n=134)] * 3)
    forecasters = {"cur": make_forecaster("cur"), "cvm": make_forecaster("cvm"),
                   "model": make_forecaster(ForecastModel.init())}
    calls = []
    gather = WindowSet.gather
    with mock.patch.object(WindowSet, "gather",
                           lambda self, idx: calls.append(len(idx)) or gather(self, idx)):
        evaluate_forecaster(ws, forecasters)
    assert len(calls) == math.ceil(len(ws) / BLOCK_WINDOWS) == 3
    assert sum(calls) == len(ws)


def fortran_ordered(forecaster):
    """The forecaster with each forecast copied to Fortran order: the same
    values in another memory layout, read-only so the Trajectory keeps it."""
    def fc(ctx, fut):
        frames = np.asfortranarray(forecaster(ctx, fut).frames)
        frames.flags.writeable = False
        return Trajectory(frames)
    return fc


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(HISTORY_LEN + HORIZON_LEN, 300),
       name=st.sampled_from(["cur", "cvm", "model"]))
@example(seed=0, n=300, name="cvm")
def test_metrics_do_not_depend_on_the_memory_layout_of_a_forecast(seed, n, name):
    rng = np.random.default_rng(seed)
    ws = WindowSet([random_episode(rng, n=n)])
    model = ForecastModel(S=np.eye(N_JOINTS) + rng.normal(0, 0.3, (N_JOINTS, N_JOINTS)),
                          M=rng.normal(0, 0.1, (HISTORY_LEN, HORIZON_LEN)))
    fc = make_forecaster(model if name == "model" else name)
    bits = float_bits(evaluate_forecaster(ws, {"c": fc, "fortran": fortran_ordered(fc)}))
    assert bits["c"] == bits["fortran"]


# --- stop/restart metrics from hand-built logs ----------------------------

def make_stir_log(active_steps, gt_steps, n=100):
    log = SimLog(task="stir", model_name="x", dt=DT)
    for t in range(n):
        log.records.append({
            "step": t, "branch_active": t in active_steps, "gt_near_pot": t in gt_steps,
            "ee_pos": [0.0, 0.0, 0.0],
        })
    return log


def test_stop_restart_hand_built_logs():
    gt = set(range(10, 21))
    lm = make_stir_log(set(range(5, 21)) | {50}, gt)   # early stop + one false alarm
    lc = make_stir_log(set(range(10, 26)), gt)          # on-time stop, late restart
    out = stop_restart_times([lm], [lc])
    # model activates 5 steps before the baseline: 5 * 40 ms lead
    assert out["stop_ms"] == pytest.approx(200.0, abs=1e-9)
    # model deactivates at 21, baseline at 26: 5 * 40 ms lead
    assert out["restart_ms"] == pytest.approx(200.0, abs=1e-9)
    assert out["n_incursions"] == 1
    # two rising edges, one (step 50) with no incursion in the next horizon
    assert out["n_activations"] == 2
    assert out["fdr"] == pytest.approx(0.5, abs=1e-12)


def test_stop_restart_identical_logs_are_all_zero():
    gt = set(range(30, 41))
    log = make_stir_log(set(range(28, 43)), gt)
    out = stop_restart_times([log], [log])
    assert out["stop_ms"] == 0.0
    assert out["restart_ms"] == 0.0
    assert out["fdr"] == 0.0


def test_incursions_match_run_scan_oracle(rng):
    for n in (1, 2, 7, 60):
        for _ in range(20):
            flags = rng.random(n) < 0.5
            oracle, start = [], None
            for i, f in enumerate(flags):
                if f and start is None:
                    start = i
                elif not f and start is not None:
                    oracle.append((start, i - 1))
                    start = None
            if start is not None:
                oracle.append((start, n - 1))
            assert _incursions(flags) == oracle


def test_stop_restart_requires_incursions():
    log = make_stir_log(set(), set())
    with pytest.raises(MotionError):
        stop_restart_times([log], [log])


# --- handover metrics from hand-built logs --------------------------------

def test_handover_metrics_hand_built_logs():
    goal = np.array([0.5, 0.0, 1.0])
    n = 100
    frames = np.repeat(BASE_POSE[None], n, axis=0)
    ep = task_episode(frames, "handover", goals=[goal.tolist()], hold_intervals=[[40, 80]])

    def make_log(detect_from):
        log = SimLog(task="handover", model_name="x", dt=DT)
        for t in range(n):
            ee = np.array([0.5 * t / (n - 1), 0.0, 1.0])
            w = goal if t >= detect_from else goal + np.array([1.0, 0.0, 0.0])
            log.records.append({"step": t, "ee_pos": ee.tolist(),
                                "forecast_final_wrist": w.tolist()})
        return log

    lm, lc = make_log(30), make_log(40)
    out = handover_metrics([lm], [lc], [ep])
    assert out["correct_goal_rate"] == 1.0
    assert out["goal_detection_ms"] == pytest.approx((40 - 30) * DT * 1000, abs=1e-9)
    # arrival: ||ee - goal|| = 0.5 (1 - t/99) <= 0.05 first at t = 90
    arrive, start = 90, 30
    assert out["time_to_goal_s"] == pytest.approx((arrive - start) * DT, abs=1e-12)
    step_len = 0.5 / (n - 1)
    assert out["path_length_mm"] == pytest.approx((arrive - start) * step_len * 1000,
                                                  rel=1e-9)
    assert out["n_handovers"] == 1


def scanned_detection_step(records, goal, lo, hi):
    """The per-record scan that ``_detection_step`` replaced, kept as its
    reference: the first index in [lo, hi] that starts a run of
    ``GOAL_DETECT_PERSIST`` records within the detection radius."""
    lo = max(lo, 0)
    hi = min(hi, len(records) - 1)
    run = 0
    for i in range(lo, hi + 1):
        w = np.asarray(records[i]["forecast_final_wrist"])
        run = run + 1 if np.linalg.norm(w - goal) <= metrics.GOAL_DETECT_RADIUS else 0
        if run >= metrics.GOAL_DETECT_PERSIST:
            return i - metrics.GOAL_DETECT_PERSIST + 1
    return None


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(st.sampled_from(["near", "far", "edge"]), st.integers(1, 8)),
                     max_size=8),
       lo=st.integers(-12, 40), span=st.integers(-6, 40), seed=st.integers(0, 2**32 - 1))
def test_detection_step_equals_the_per_record_scan(runs, lo, span, seed):
    # runs of records near the goal, far from it, or at the detection radius
    # along a random direction, where rounding decides; records shorter than
    # GOAL_DETECT_PERSIST included
    rng = np.random.default_rng(seed)
    goal = np.array([0.5, 0.0, 1.0])
    kinds = [kind for kind, length in runs for _ in range(length)]
    directions = rng.normal(size=(len(kinds), 3))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    distance = {"near": 0.5, "far": 2.0, "edge": 1.0}
    wrists = goal + np.array([distance[k] for k in kinds]).reshape(-1, 1) * (
        metrics.GOAL_DETECT_RADIUS * directions)
    records = [{"forecast_final_wrist": w.tolist()} for w in wrists]
    wrists = np.array([r["forecast_final_wrist"] for r in records]).reshape(-1, 3)
    assert (metrics._detection_step(wrists, goal, lo, lo + span)
            == scanned_detection_step(records, goal, lo, lo + span))


def test_handover_metrics_requires_goal_metadata():
    # the metrics read goals and holds unchecked: a handover episode without
    # them cannot be built
    with pytest.raises(MotionError, match="goals and hold_intervals"):
        Episode(fps=25.0, frames=np.repeat(BASE_POSE[None], 40, axis=0), task="handover")


# --- loss-bound verifier ---------------------------------------------------

def test_worked_instance_numbers():
    out = lemma1_check(worked_toycmdp())
    assert out["eps_P"] == pytest.approx(0.04, abs=1e-12)
    assert out["ell_theta"] == pytest.approx(0.18, abs=1e-12)
    assert out["bound_P"] == pytest.approx(0.4, abs=1e-12)
    assert out["eps_Q"] == pytest.approx(0.22, abs=1e-12)
    assert out["bound_Q"] == pytest.approx(2.2, abs=1e-12)
    assert out["holds_P"] and out["holds_Q"]


def test_bounds_hand_derived_on_a_second_instance():
    toy = ToyCMDP(
        P_phi=np.array([0.5, 0.5]),
        P_true=np.array([[0.6, 0.4, 0.0], [0.0, 1.0, 0.0]]),
        P_model=np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]),
        costs=np.array([2.0, 4.0, 8.0]),
        delta=3.0,
    )
    out = lemma1_check(toy)
    # eps_P = 0.5*0.2 + 0.5*1.0; ell = 0.5*|0.1*2-0.1*4| + 0.5*|0.5*4-0.5*8|
    assert out["eps_P"] == pytest.approx(0.6, abs=1e-12)
    assert out["ell_theta"] == pytest.approx(0.5 * 0.2 + 0.5 * 2.0, abs=1e-12)
    assert out["cmax"] == 8.0
    assert out["transition_mass"] == pytest.approx(1.0, abs=1e-12)
    assert out["holds_P"] and out["holds_Q"]


def test_identical_model_has_zero_gap_and_loss():
    P = np.array([[0.3, 0.7], [1.0, 0.0]])
    toy = ToyCMDP(P_phi=np.array([0.4, 0.6]), P_true=P, P_model=P,
                  costs=np.array([1.0, 2.0]), delta=1.0)
    out = lemma1_check(toy)
    assert out["eps_P"] == 0.0 and out["ell_theta"] == 0.0
    assert out["holds_P"] and out["holds_Q"]


def test_empty_transition_distribution_rejected():
    toy = ToyCMDP(P_phi=np.array([1.0]), P_true=np.array([[1.0, 0.0]]),
                  P_model=np.array([[0.9, 0.1]]), costs=np.array([1.0, 2.0]),
                  delta=100.0)
    with pytest.raises(MotionError):
        lemma1_check(toy)


def test_toycmdp_validation():
    with pytest.raises(MotionError):
        ToyCMDP(P_phi=np.array([0.5, 0.4]), P_true=np.eye(2), P_model=np.eye(2),
                costs=np.array([1.0, 2.0]), delta=0.5)
    with pytest.raises(MotionError):
        ToyCMDP(P_phi=np.array([1.0]), P_true=np.array([[0.5, 0.4]]),
                P_model=np.array([[1.0, 0.0]]), costs=np.array([1.0, 2.0]), delta=0.5)


def test_random_instances_always_satisfy_the_bounds(rng):
    for _ in range(300):
        out = lemma1_check(random_toycmdp(rng))
        assert out["holds_P"], out
        assert out["holds_Q"], out
        assert out["ell_theta"] <= out["bound_P"] + 1e-12


# --- report container ------------------------------------------------------

def test_metric_report_round_trip(tmp_path):
    rep = MetricReport(forecasting={"cur": {"fde": 12.5}},
                       planning={"manicast": {"stop_ms": 40.0}})
    path = tmp_path / "report.json"
    rep.to_json(path)
    back = MetricReport.from_json(path)
    assert back.forecasting == rep.forecasting
    assert back.planning == rep.planning


def test_metric_report_of_numpy_scalars_keeps_the_stdlib_json_text(tmp_path):
    # np.float64 is a float subclass that stdlib json wrote as a float; the
    # report keeps that text: sorted keys, two-space indents
    doc = {"forecasting": {"cur/stir": {"ade": np.float64(12.5), "n_windows": 532,
                                        "fde": np.float64(0.1) + np.float64(0.2)}},
           "planning": {"manicast/handover": {"correct_goal_rate": np.float64(0.75)}}}
    path = tmp_path / "report.json"
    MetricReport(**doc).to_json(path)
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True)
