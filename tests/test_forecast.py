"""Tests for the forecasting baselines, the linear model, and training."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (BASE_POSE, linear_episode, random_context, random_trajectory,
                      task_episode, window_last)
from costcast.datagen import GenConfig, gen_stirring
from costcast import forecast
from costcast.forecast import (
    ANNOTATED,
    BLOCK_WINDOWS,
    COST_PERCENTILE,
    ForecastModel,
    MAX_BATCH_SIZE,
    PRESETS,
    SafetyVolume,
    TrainConfig,
    WindowSet,
    _batch_loss_and_grad,
    _val_loss,
    build_transition_set,
    default_weights,
    forecast_cur,
    forecast_cvm,
    forecast_oracle,
    forecast_worst,
    load_checkpoint,
    make_forecaster,
    model_forward,
    preset_config,
    sample_batch,
    save_checkpoint,
    train,
    weighted_loss,
)
from costcast.motion import (
    Context,
    HISTORY_LEN,
    HORIZON_LEN,
    MotionError,
    N_JOINTS,
    Trajectory,
    WRIST_INDICES,
)


def window_from_episode(ep, start=0):
    ctx = Context(ep.frames[start:start + HISTORY_LEN])
    fut = Trajectory(ep.frames[start + HISTORY_LEN:start + HISTORY_LEN + HORIZON_LEN])
    return ctx, fut


# --- baselines ------------------------------------------------------------

def test_cur_final_error_equals_horizon_times_speed():
    speed = 0.3
    ep = linear_episode(45, (speed, 0.0, 0.0))
    ctx, fut = window_from_episode(ep)
    fc = forecast_cur(ctx)
    err = np.linalg.norm(fc.frames[-1] - fut.frames[-1], axis=-1)
    np.testing.assert_allclose(err, HORIZON_LEN * ep.dt * speed, atol=1e-12)


def test_cvm_is_exact_on_linear_motion():
    ep = linear_episode(45, (0.2, -0.1, 0.05))
    ctx, fut = window_from_episode(ep)
    fc = forecast_cvm(ctx)
    np.testing.assert_allclose(fc.frames, fut.frames, atol=1e-10)


def test_worst_volume_contains_true_wrists():
    ep = gen_stirring(GenConfig(seed=0, episode_len_s=16.0, n_interactions=2))
    for start in range(0, len(ep) - HISTORY_LEN - HORIZON_LEN, 37):
        ctx, fut = window_from_episode(ep, start)
        fc = forecast_worst(ctx)
        for t in range(HORIZON_LEN):
            for j in WRIST_INDICES:
                d = np.linalg.norm(fc.centers[t] - fut.frames[t, j], axis=-1)
                assert (d <= fc.radii[t]).any()


def test_oracle_returns_truth_and_requires_it(rng):
    fut = random_trajectory(rng)
    assert forecast_oracle(fut) is fut
    with pytest.raises(MotionError):
        forecast_oracle(None)


def test_forecast_container_validation(rng):
    with pytest.raises(MotionError):
        Trajectory(np.zeros((HORIZON_LEN - 1, N_JOINTS, 3)))
    with pytest.raises(MotionError):
        SafetyVolume(centers=np.zeros((5, 2, 3)), radii=np.ones((5, 2)))


# --- linear model ---------------------------------------------------------

def test_untrained_model_equals_constant_pose_baseline(rng):
    model = ForecastModel.init()
    for _ in range(5):
        ctx = random_context(rng)
        np.testing.assert_allclose(model_forward(model, ctx).frames,
                                   forecast_cur(ctx).frames, atol=0)


def test_constant_velocity_stencil_reproduces_cvm(rng):
    M = np.zeros((HISTORY_LEN, HORIZON_LEN))
    M[0] = -(np.arange(HORIZON_LEN) + 1) / (HISTORY_LEN - 1)
    model = ForecastModel(S=np.eye(N_JOINTS), M=M)
    for _ in range(5):
        ctx = random_context(rng)
        np.testing.assert_allclose(model_forward(model, ctx).frames,
                                   forecast_cvm(ctx).frames, atol=1e-12)


def test_weighted_loss_matches_hand_computation():
    ep = linear_episode(45, (0.0, 0.0, 0.0))
    ctx, _ = window_from_episode(ep)
    shifted = Trajectory(np.repeat((BASE_POSE + [0.003, 0.0, 0.0])[None],
                                   HORIZON_LEN, axis=0))
    model = ForecastModel.init()  # predicts the constant pose
    loss = weighted_loss(model, ctx, shifted, np.ones(N_JOINTS))
    assert loss == pytest.approx(N_JOINTS * HORIZON_LEN * 0.003**2, rel=1e-12)
    w = default_weights(5.0)
    loss_w = weighted_loss(model, ctx, shifted, w)
    assert loss_w == pytest.approx((5 + 5 + 5 * 1) * HORIZON_LEN * 0.003**2, rel=1e-12)
    with pytest.raises(MotionError):
        weighted_loss(model, ctx, shifted, np.zeros(N_JOINTS))


def test_loss_gradient_matches_finite_differences(rng):
    batch = [(random_context(rng), random_trajectory(rng)) for _ in range(3)]
    w = default_weights(2.0)
    model = ForecastModel(S=np.eye(N_JOINTS) + rng.normal(0, 0.05, (N_JOINTS, N_JOINTS)),
                          M=rng.normal(0, 0.05, (HISTORY_LEN, HORIZON_LEN)))
    _, dS, dM = _batch_loss_and_grad(model.S, model.M,
                                     window_last(np.stack([c.frames for c, _ in batch])),
                                     window_last(np.stack([t.frames for _, t in batch])), w)

    def mean_loss(m):
        return np.mean([weighted_loss(m, c, t, w) for c, t in batch])

    h = 1e-6
    for idx in [(0, 0), (3, 5), (6, 6)]:
        Sp, Sm = model.S.copy(), model.S.copy()
        Sp[idx] += h
        Sm[idx] -= h
        fd = (mean_loss(ForecastModel(S=Sp, M=model.M))
              - mean_loss(ForecastModel(S=Sm, M=model.M))) / (2 * h)
        assert fd == pytest.approx(dS[idx], rel=1e-5, abs=1e-9)
    for idx in [(0, 0), (4, 20), (9, 24)]:
        Mp, Mm = model.M.copy(), model.M.copy()
        Mp[idx] += h
        Mm[idx] -= h
        fd = (mean_loss(ForecastModel(S=model.S, M=Mp))
              - mean_loss(ForecastModel(S=model.S, M=Mm))) / (2 * h)
        assert fd == pytest.approx(dM[idx], rel=1e-5, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(B=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), wrist=st.floats(1.0, 5.0))
def test_batch_gradient_is_the_mean_of_single_window_gradients(B, seed, wrist):
    # training batch sizes: the loss and gradient of a batch are the means of
    # the per-window losses and gradients
    rng = np.random.default_rng(seed)
    ctx = BASE_POSE + rng.normal(0, 0.05, (B, HISTORY_LEN, N_JOINTS, 3))
    fut = BASE_POSE + rng.normal(0, 0.05, (B, HORIZON_LEN, N_JOINTS, 3))
    w = default_weights(wrist)
    model = ForecastModel(S=np.eye(N_JOINTS) + rng.normal(0, 0.05, (N_JOINTS, N_JOINTS)),
                          M=rng.normal(0, 0.05, (HISTORY_LEN, HORIZON_LEN)))
    loss, dS, dM = _batch_loss_and_grad(model.S, model.M, window_last(ctx), window_last(fut), w)
    losses = [weighted_loss(model, Context(ctx[i]), Trajectory(fut[i]), w) for i in range(B)]
    assert loss == pytest.approx(np.mean(losses), rel=1e-12)
    singles = [_batch_loss_and_grad(model.S, model.M, window_last(ctx[i:i + 1]),
                                    window_last(fut[i:i + 1]), w) for i in range(B)]
    for got, want in ((dS, np.mean([g[1] for g in singles], axis=0)),
                      (dM, np.mean([g[2] for g in singles], axis=0))):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def einsum_reference(S, M, ctx, fut, w):
    """pred, mean loss, dS and dM of the separable model from batch-first
    (B, k, J, 3) contexts and (B, T, J, 3) futures, each written as one einsum."""
    B = len(ctx)
    last = ctx[:, -1:]
    dX = ctx - last
    SX = np.einsum("ij,bkjc->bkic", S, dX)            # joints mixed by S
    pred = last + np.einsum("kt,bkic->btic", M, SX)   # history mapped by M
    resid = pred - fut
    loss = np.einsum("j,btjc,btjc->", w, resid, resid) / B
    G = 2.0 / B * w[:, None] * resid                  # dloss/dpred
    dM = np.einsum("bkic,btic->kt", SX, G)
    dS = np.einsum("kt,btic,bkjc->ij", M, G, dX)
    return pred, loss, dS, dM


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), wrist=st.floats(1.0, 5.0))
def test_window_last_loss_gradient_and_forward_equal_the_einsum_reference(B, seed, wrist):
    rng = np.random.default_rng(seed)
    ctx = BASE_POSE + rng.normal(0, 0.05, (B, HISTORY_LEN, N_JOINTS, 3))
    fut = BASE_POSE + rng.normal(0, 0.05, (B, HORIZON_LEN, N_JOINTS, 3))
    S = np.eye(N_JOINTS) + rng.normal(0, 0.5, (N_JOINTS, N_JOINTS))
    M = rng.normal(0, 0.1, (HISTORY_LEN, HORIZON_LEN))
    w = default_weights(wrist)
    pred, loss, dS, dM = einsum_reference(S, M, ctx, fut, w)
    got_loss, got_dS, got_dM = _batch_loss_and_grad(S, M, window_last(ctx), window_last(fut), w)
    assert got_loss == pytest.approx(loss, rel=1e-12)
    model = ForecastModel(S=S, M=M)
    batch = model_forward(model, Context(ctx)).frames
    singles = np.stack([model_forward(model, Context(c)).frames for c in ctx])
    for got, want in ((got_dS, dS), (got_dM, dM), (batch, pred), (singles, pred)):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# --- window sets and the transition distribution --------------------------

def episodes_small(n=3):
    return [gen_stirring(GenConfig(seed=s, episode_len_s=16.0, n_interactions=2))
            for s in range(n)]


@st.composite
def episodes_with_transitions(draw):
    """1-3 episodes of random length (>= 35 frames) with random sorted,
    non-overlapping transition intervals and distinct frames."""
    eps = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(HISTORY_LEN + HORIZON_LEN, 90))
        cuts = sorted(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=6)))
        transitions = tuple(zip(cuts[0::2], cuts[1::2]))
        frames = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
            size=(n, N_JOINTS, 3))
        eps.append(task_episode(frames, transitions=transitions))
    return eps


@settings(max_examples=60, deadline=None)
@given(eps=episodes_with_transitions(), data=st.data())
def test_gather_and_flags_match_episode_slicing(eps, data):
    ws = WindowSet(eps)
    ref = [(ep, s) for ep in eps for s in range(len(ep) - HISTORY_LEN - HORIZON_LEN + 1)]
    assert len(ws) == len(ref)
    for (ep, s), flag in zip(ref, ws.flags):
        future = range(s + HISTORY_LEN, s + HISTORY_LEN + HORIZON_LEN)
        assert flag == any(a <= f <= b for f in future for a, b in ep.transitions)
    idx = data.draw(st.lists(st.integers(0, len(ws) - 1), min_size=1, max_size=20))
    windows = ws.gather(idx)
    assert windows.shape == (HISTORY_LEN + HORIZON_LEN, len(idx), 3 * N_JOINTS)
    for row, wi in enumerate(idx):
        ep, s = ref[wi]
        for f in range(HISTORY_LEN + HORIZON_LEN):
            np.testing.assert_array_equal(windows[f, row], ep.frames[s + f].ravel())


def block_sizes(n):
    """A block of one window, of 7, of the whole set and past it."""
    return st.sampled_from([1, 7, n]) | st.integers(n + 1, 2 * n + 1)


@settings(max_examples=60, deadline=None)
@given(eps=episodes_with_transitions(), data=st.data())
def test_chunks_concatenate_to_the_whole_gather(eps, data):
    ws = WindowSet(eps)
    n = len(ws)
    size = data.draw(block_sizes(n))
    blocks = list(ws.chunks(size))
    assert [first for first, _ in blocks] == list(range(0, n, size))
    assert all(0 < b.shape[1] <= size and not b.flags.writeable for _, b in blocks)
    np.testing.assert_array_equal(np.concatenate([b for _, b in blocks], axis=1),
                                  ws.gather(np.arange(n)))


@pytest.mark.parametrize("size", [0, -1])
def test_chunks_need_a_positive_block_size(size):
    with pytest.raises(MotionError, match="block size"):
        next(WindowSet([linear_episode(40, (0.0, 0.0, 0.0))]).chunks(size))


@settings(max_examples=40, deadline=None)
@given(eps=episodes_with_transitions(), data=st.data(), seed=st.integers(0, 2**32 - 1),
       wrist=st.floats(1.0, 5.0))
def test_val_loss_in_blocks_is_the_mean_per_window_loss(eps, data, seed, wrist):
    rng = np.random.default_rng(seed)
    ws = WindowSet(eps)
    model = ForecastModel(S=np.eye(N_JOINTS) + rng.normal(0, 0.3, (N_JOINTS, N_JOINTS)),
                          M=rng.normal(0, 0.1, (HISTORY_LEN, HORIZON_LEN)))
    w = default_weights(wrist)
    span = HISTORY_LEN + HORIZON_LEN
    want = np.mean([weighted_loss(model, Context(ep.frames[s:s + HISTORY_LEN]),
                                  Trajectory(ep.frames[s + HISTORY_LEN:s + span]), w)
                    for ep in eps for s in range(len(ep) - span + 1)])
    with mock.patch.object(forecast, "BLOCK_WINDOWS", data.draw(block_sizes(len(ws)))):
        got = _val_loss(model, ws, w)
    assert got == pytest.approx(want, rel=1e-12)


def test_val_loss_scores_in_blocks_of_the_block_size():
    # 3 x 100 windows: the gathers are full blocks and one remainder
    ws = WindowSet([linear_episode(134, (0.1, 0.0, 0.0))] * 3)
    sizes = []
    gather = WindowSet.gather
    with mock.patch.object(WindowSet, "gather",
                           lambda self, idx: sizes.append(len(idx)) or gather(self, idx)):
        _val_loss(ForecastModel.init(), ws, default_weights())
    full, rest = divmod(len(ws), BLOCK_WINDOWS)
    assert sizes == [BLOCK_WINDOWS] * full + [rest] * (rest > 0)


def test_windowset_agrees_with_slide_windows():
    # stride-1 windows cut by slicing each episode in turn, as the former
    # per-episode window cutter did
    eps = episodes_small(2)
    ws = WindowSet(eps)
    span = HISTORY_LEN + HORIZON_LEN
    ref = [(ep.frames[s:s + HISTORY_LEN], ep.frames[s + HISTORY_LEN:s + span])
           for ep in eps for s in range(len(ep) - span + 1)]
    assert len(ws) == len(ref)
    idx = [0, 17, len(ws) - 1]
    windows = ws.gather(idx)
    for row, i in enumerate(idx):
        np.testing.assert_array_equal(windows[:HISTORY_LEN, row], ref[i][0].reshape(HISTORY_LEN, -1))
        np.testing.assert_array_equal(windows[HISTORY_LEN:, row], ref[i][1].reshape(HORIZON_LEN, -1))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_batched_forecasters_equal_per_context_calls(n, seed):
    rng = np.random.default_rng(seed)
    frames = BASE_POSE + rng.normal(0, 0.05, size=(n, HISTORY_LEN, N_JOINTS, 3))
    model = ForecastModel(S=np.eye(N_JOINTS) + rng.normal(0, 0.05, (N_JOINTS, N_JOINTS)),
                          M=rng.normal(0, 0.05, (HISTORY_LEN, HORIZON_LEN)))
    for forecaster in (forecast_cur, forecast_cvm, lambda c: model_forward(model, c)):
        batch = forecaster(Context(frames)).frames
        assert batch.shape == (n, HORIZON_LEN, N_JOINTS, 3)
        for i in range(n):
            np.testing.assert_array_equal(
                batch[i], forecaster(Context(frames[i])).frames)


def test_annotated_transition_set_matches_flags():
    ws = WindowSet(episodes_small(2))
    idx = build_transition_set(ws, mode=ANNOTATED)
    np.testing.assert_array_equal(idx, np.nonzero(ws.flags)[0])
    assert 0 < len(idx) < len(ws)


def test_cost_percentile_keeps_top_decile():
    # 100 windows of a linear episode whose scripted cost grows with the
    # window index: exactly the top 10 survive
    ws = WindowSet([linear_episode(134, (0.1, 0.0, 0.0))])
    assert len(ws) == 100
    idx = build_transition_set(ws, mode=COST_PERCENTILE, delta_percentile=0.10,
                               cost_fn=lambda c, f: float(f.frames[0, 0, 0]))
    np.testing.assert_array_equal(idx, np.arange(90, 100))
    with pytest.raises(MotionError):
        build_transition_set(ws, mode=COST_PERCENTILE)  # needs a cost_fn


def test_cost_percentile_overlaps_annotations_on_stirring():
    # selecting windows by max inducible task cost should largely agree with
    # the annotated transition windows (Jaccard overlap >= 0.5)
    from costcast.cost import CostWeights, collision_terms_batch, stir_terms_batch
    from costcast.planner import build_task_spec
    from costcast.robot import ArmModel, fk_batch

    m = ArmModel()
    ep = gen_stirring(GenConfig(seed=11, episode_len_s=25.0, n_interactions=1))
    ws = WindowSet([ep])
    spec = build_task_spec(ep, m)
    weights = CostWeights(eps_pot=0.30)
    ref = spec.stir_reference
    probe = ref[np.arange(HORIZON_LEN) % len(ref)][None]  # a batch of one plan
    frames = fk_batch(m, probe)

    def cmax(ctx, fut):
        fc = fut
        coll = collision_terms_batch(m, frames, fc)
        return stir_terms_batch(probe, frames, coll, fc, spec, weights)[0]

    ann = set(build_transition_set(ws, mode=ANNOTATED).tolist())
    cp = set(build_transition_set(ws, mode=COST_PERCENTILE, delta_percentile=0.10,
                                  cost_fn=cmax).tolist())
    assert len(ann & cp) / len(ann | cp) >= 0.5


def test_empty_transition_set_rejected():
    ep = linear_episode(60, (0.0, 0.0, 0.0))  # no annotated transitions
    with pytest.raises(MotionError):
        build_transition_set(WindowSet([ep]), mode=ANNOTATED)


def test_sample_batch_mix_composition(rng):
    tset = np.arange(500, 520)
    idx = sample_batch(1000, tset, mix=0.5, batch_size=64, rng=rng)
    assert len(idx) == 64
    assert np.isin(idx[:32], tset).all()
    # ceil: mix=0.3 of 10 -> 3 transition draws
    idx = sample_batch(1000, tset, mix=0.3, batch_size=10, rng=rng)
    assert np.isin(idx[:3], tset).all()
    # Monte-Carlo: with mix=0.5 roughly half of a large batch is from the set
    idx = sample_batch(10**6, tset, mix=0.5, batch_size=20000, rng=rng)
    frac = np.isin(idx, tset).mean()
    assert 0.45 < frac < 0.55
    with pytest.raises(MotionError):
        sample_batch(1000, np.array([], dtype=int), mix=0.5, batch_size=8, rng=rng)
    with pytest.raises(MotionError):
        sample_batch(1000, tset, mix=1.5, batch_size=8, rng=rng)


# --- training -------------------------------------------------------------

def test_training_reduces_validation_loss():
    eps = episodes_small(3)
    ws_train, ws_val = WindowSet(eps[:2]), WindowSet(eps[2:])
    cfg = TrainConfig(epochs=3, seed=0, transition_mix=0.0)
    model, history = train(ws_train, ws_val, cfg)
    assert model.trained
    assert history[-1]["val_loss"] < history[0]["val_loss"]
    # the returned model achieves the best validation loss seen
    best = min(h["val_loss"] for h in history)
    vals = [h["val_loss"] for h in history]
    assert vals.index(best) > 0


def test_zero_learning_rate_is_a_no_op():
    eps = episodes_small(2)
    ws = WindowSet(eps)
    cfg = TrainConfig(epochs=2, learning_rate=0.0, transition_mix=0.0)
    model, _ = train(ws, ws, cfg)
    np.testing.assert_array_equal(model.S, np.eye(N_JOINTS))
    np.testing.assert_array_equal(model.M, 0.0)


def test_training_is_seeded_deterministic():
    eps = episodes_small(2)
    ws = WindowSet(eps)
    cfg = TrainConfig(epochs=2, seed=7)
    a, _ = train(ws, ws, cfg)
    b, _ = train(ws, ws, cfg)
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.M, b.M)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value encountered")
def test_divergence_error_names_the_epoch():
    eps = episodes_small(2)
    ws = WindowSet(eps)
    cfg = TrainConfig(epochs=3, learning_rate=1e6, transition_mix=0.0)
    with pytest.raises(MotionError, match="epoch"):
        train(ws, ws, cfg)


def test_preset_table_and_config():
    assert set(PRESETS) == {"scratch", "manicast", "manicast-t", "manicast-w"}
    assert preset_config("scratch").transition_mix == 0.0
    cfg = preset_config("manicast-w")
    assert cfg.transition_mix == 0.5 and cfg.wrist_weight == 5.0
    assert preset_config("manicast-t").transition_mix == 1.0
    with pytest.raises(MotionError):
        preset_config("bogus")
    with pytest.raises(MotionError):
        TrainConfig(wrist_weight=0.5)
    for bad in ({"batch_size": 0}, {"batch_size": -3}, {"batch_size": MAX_BATCH_SIZE + 1},
                {"epochs": -1}, {"momentum": 1.0}, {"momentum": -0.1},
                {"learning_rate": float("nan")}, {"learning_rate": float("inf")}):
        with pytest.raises(MotionError):
            TrainConfig(**bad)
    assert TrainConfig(batch_size=MAX_BATCH_SIZE).batch_size == MAX_BATCH_SIZE


def test_checkpoint_round_trip(tmp_path, rng):
    model = ForecastModel(S=rng.normal(size=(N_JOINTS, N_JOINTS)),
                          M=rng.normal(size=(HISTORY_LEN, HORIZON_LEN)),
                          trained=True, w=default_weights(5.0))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, preset="manicast-w", seed=3)
    back = load_checkpoint(path)
    np.testing.assert_array_equal(back.S, model.S)
    np.testing.assert_array_equal(back.M, model.M)
    np.testing.assert_array_equal(back.w, model.w)
    assert back.trained


def test_checkpoint_file_keeps_the_stdlib_json_layout(tmp_path, rng):
    # the weights are np.float64 scalars; any JSON parser reads the file as
    # the document the stdlib json writer produced
    model = ForecastModel(S=rng.normal(size=(N_JOINTS, N_JOINTS)),
                          M=rng.normal(size=(HISTORY_LEN, HORIZON_LEN)),
                          trained=True, w=default_weights(5.0))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, preset="manicast-w", seed=3)
    assert isinstance(model.w[0], np.float64)
    assert json.loads(path.read_text()) == {
        "k": HISTORY_LEN, "T": HORIZON_LEN, "J": N_JOINTS, "preset": "manicast-w", "seed": 3,
        "trained": True,
        "S": {"shape": [N_JOINTS, N_JOINTS], "data": model.S.flatten().tolist()},
        "M": {"shape": [HISTORY_LEN, HORIZON_LEN], "data": model.M.flatten().tolist()},
        "w": [float(x) for x in model.w]}


def test_make_forecaster_interface(rng):
    ctx = random_context(rng)
    fut = random_trajectory(rng)
    assert isinstance(make_forecaster("cur")(ctx), Trajectory)
    assert isinstance(make_forecaster("worst")(ctx), SafetyVolume)
    np.testing.assert_array_equal(make_forecaster("fut")(ctx, fut).frames,
                                  fut.frames)
    model = ForecastModel.init()
    np.testing.assert_array_equal(make_forecaster(model)(ctx).frames,
                                  forecast_cur(ctx).frames)
    for name in ("nope", "CUR"):   # names are exact, as the CLI checks them
        with pytest.raises(MotionError):
            make_forecaster(name)
