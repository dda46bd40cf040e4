"""Tests for the forecasting baselines, the linear model, and training."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (BASE_POSE, as_rows, linear_episode, random_context, random_trajectory,
                      task_episode)
from costcast.datagen import GenConfig, gen_stirring
from costcast import forecast
from costcast.forecast import (
    BLOCK_WINDOWS,
    ForecastModel,
    MAX_BATCH_SIZE,
    PRESETS,
    TrainConfig,
    WindowSet,
    _batch_loss_and_grad,
    _val_loss,
    build_transition_set,
    default_weights,
    forecast_cur,
    forecast_cvm,
    forecast_oracle,
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


def test_oracle_returns_truth_and_requires_it(rng):
    fut = random_trajectory(rng)
    assert forecast_oracle(fut) is fut
    with pytest.raises(MotionError):
        forecast_oracle(None)


def test_forecast_container_validation(rng):
    with pytest.raises(MotionError):
        Trajectory(np.zeros((HORIZON_LEN - 1, N_JOINTS, 3)))


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
                                     as_rows(np.stack([c.frames for c, _ in batch], 1)),
                                     as_rows(np.stack([t.frames for _, t in batch], 1)), w)

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
    ctx = BASE_POSE + rng.normal(0, 0.05, (HISTORY_LEN, B, N_JOINTS, 3))
    fut = BASE_POSE + rng.normal(0, 0.05, (HORIZON_LEN, B, N_JOINTS, 3))
    w = default_weights(wrist)
    model = ForecastModel(S=np.eye(N_JOINTS) + rng.normal(0, 0.05, (N_JOINTS, N_JOINTS)),
                          M=rng.normal(0, 0.05, (HISTORY_LEN, HORIZON_LEN)))
    loss, dS, dM = _batch_loss_and_grad(model.S, model.M, as_rows(ctx), as_rows(fut), w)
    losses = [weighted_loss(model, Context(ctx[:, i]), Trajectory(fut[:, i]), w)
              for i in range(B)]
    assert loss == pytest.approx(np.mean(losses), rel=1e-12)
    assert weighted_loss(model, Context(ctx), Trajectory(fut), w) == pytest.approx(
        np.sum(losses), rel=1e-12)
    singles = [_batch_loss_and_grad(model.S, model.M, as_rows(ctx[:, i:i + 1]),
                                    as_rows(fut[:, i:i + 1]), w) for i in range(B)]
    for got, want in ((dS, np.mean([g[1] for g in singles], axis=0)),
                      (dM, np.mean([g[2] for g in singles], axis=0))):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def einsum_reference(S, M, ctx, fut, w):
    """pred, mean loss, dS and dM of the separable model from time-first
    (k, B, J, 3) contexts and (T, B, J, 3) futures, each written as one einsum."""
    B = ctx.shape[1]
    last = ctx[-1:]
    dX = ctx - last
    SX = np.einsum("ij,kbjc->kbic", S, dX)            # joints mixed by S
    pred = last + np.einsum("kt,kbic->tbic", M, SX)   # history mapped by M
    resid = pred - fut
    loss = np.einsum("j,tbjc,tbjc->", w, resid, resid) / B
    G = 2.0 / B * w[:, None] * resid                  # dloss/dpred
    dM = np.einsum("kbic,tbic->kt", SX, G)
    dS = np.einsum("kt,tbic,kbjc->ij", M, G, dX)
    return pred, loss, dS, dM


@settings(max_examples=40, deadline=None)
@given(B=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), wrist=st.floats(1.0, 5.0))
def test_window_last_loss_gradient_and_forward_equal_the_einsum_reference(B, seed, wrist):
    rng = np.random.default_rng(seed)
    ctx = BASE_POSE + rng.normal(0, 0.05, (HISTORY_LEN, B, N_JOINTS, 3))
    fut = BASE_POSE + rng.normal(0, 0.05, (HORIZON_LEN, B, N_JOINTS, 3))
    S = np.eye(N_JOINTS) + rng.normal(0, 0.5, (N_JOINTS, N_JOINTS))
    M = rng.normal(0, 0.1, (HISTORY_LEN, HORIZON_LEN))
    w = default_weights(wrist)
    pred, loss, dS, dM = einsum_reference(S, M, ctx, fut, w)
    got_loss, got_dS, got_dM = _batch_loss_and_grad(S, M, as_rows(ctx), as_rows(fut), w)
    assert got_loss == pytest.approx(loss, rel=1e-12)
    model = ForecastModel(S=S, M=M)
    batch = model_forward(model, Context(ctx)).frames
    singles = np.stack([model_forward(model, Context(ctx[:, b])).frames for b in range(B)], 1)
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
    # the batch axis follows the frame axis: batch[:, i] is the forecast of
    # context frames[:, i]
    frames = BASE_POSE + rng.normal(0, 0.05, size=(HISTORY_LEN, n, N_JOINTS, 3))
    model = ForecastModel(S=np.eye(N_JOINTS) + rng.normal(0, 0.05, (N_JOINTS, N_JOINTS)),
                          M=rng.normal(0, 0.05, (HISTORY_LEN, HORIZON_LEN)))
    for forecaster in (forecast_cur, forecast_cvm, lambda c: model_forward(model, c)):
        batch = forecaster(Context(frames)).frames
        assert batch.shape == (HORIZON_LEN, n, N_JOINTS, 3)
        for i in range(n):
            np.testing.assert_array_equal(
                batch[:, i], forecaster(Context(frames[:, i])).frames)


def test_annotated_transition_set_matches_flags():
    ws = WindowSet(episodes_small(2))
    idx = build_transition_set(ws)
    np.testing.assert_array_equal(idx, np.nonzero(ws.flags)[0])
    assert 0 < len(idx) < len(ws)


def test_empty_transition_set_rejected():
    ep = linear_episode(60, (0.0, 0.0, 0.0))  # no annotated transitions
    with pytest.raises(MotionError):
        build_transition_set(WindowSet([ep]))


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


def reference_sample_batch(n_windows, transition_set, mix, batch_size, rng):
    """The batch indices as ``rng.choice`` draws the transition windows."""
    n_trans = int(np.ceil(mix * batch_size))
    parts = []
    if n_trans > 0:
        parts.append(rng.choice(transition_set, size=n_trans, replace=True))
    if batch_size - n_trans > 0:
        parts.append(rng.integers(0, n_windows, size=batch_size - n_trans))
    return np.concatenate(parts)


@settings(max_examples=200, deadline=None)
@given(n_windows=st.integers(1, 10**6), n_set=st.integers(1, 2000), mix=st.floats(0.0, 1.0),
       batch_size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_sample_batch_draws_the_stream_of_rng_choice(n_windows, n_set, mix, batch_size, seed):
    tset = np.sort(np.random.default_rng(seed).integers(0, n_windows, size=n_set))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_batch(n_windows, tset, mix, batch_size, rng)
    want = reference_sample_batch(n_windows, tset, mix, batch_size, ref)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state  # the next batch too


# --- training -------------------------------------------------------------

def reference_train(train_ws, val_ws, config):
    """``train`` written with a fresh array for every sum, residual and
    scaling of the window passes, and ``rng.choice`` transition draws."""
    row_w = np.repeat(default_weights(config.wrist_weight), 3)
    B = config.batch_size

    def forward(S, M, ctx):
        last = ctx[-1]
        dX = ctx - last
        SX = (dX.reshape(-1, 3 * N_JOINTS) @ forecast._joint_mixer(S)).reshape(dX.shape)
        pred = last + (M.T @ SX.reshape(HISTORY_LEN, -1)).reshape(
            (HORIZON_LEN,) + dX.shape[1:])
        return pred, dX, SX

    def sse(resid):
        rows = resid.reshape(-1, 3 * N_JOINTS)
        weighted = rows * row_w
        return float(np.vdot(weighted, rows)), weighted

    def val_loss(S, M):
        total = sum(sse(forward(S, M, win[:HISTORY_LEN])[0] - win[HISTORY_LEN:])[0]
                    for _, win in val_ws.chunks(BLOCK_WINDOWS))
        return total / len(val_ws)

    tset = build_transition_set(train_ws) if config.transition_mix > 0 else None
    rng = np.random.default_rng(config.seed)
    S, M = np.eye(N_JOINTS), np.zeros((HISTORY_LEN, HORIZON_LEN))
    vS, vM = np.zeros_like(S), np.zeros_like(M)
    n_batches = max(1, len(train_ws) // B)
    best_val = val_loss(S, M)
    best = (S, M)
    history = [{"epoch": 0, "train_loss": None, "val_loss": best_val}]
    for epoch in range(1, config.epochs + 1):
        epoch_loss = 0.0
        for _ in range(n_batches):
            win = train_ws.gather(reference_sample_batch(
                len(train_ws), tset, config.transition_mix, B, rng))
            pred, dX, SX = forward(S, M, win[:HISTORY_LEN])
            loss, weighted = sse(pred - win[HISTORY_LEN:])
            G = (2.0 / B) * weighted.reshape(HORIZON_LEN, -1)
            dMix = dX.reshape(-1, 3 * N_JOINTS).T @ (M @ G).reshape(-1, 3 * N_JOINTS)
            dS = np.trace(dMix.reshape(N_JOINTS, 3, N_JOINTS, 3), axis1=1, axis2=3).T
            dM = SX.reshape(HISTORY_LEN, -1) @ G.T
            vS = config.momentum * vS - config.learning_rate * dS
            vM = config.momentum * vM - config.learning_rate * dM
            S, M = S + vS, M + vM
            epoch_loss += loss / B
        val = val_loss(S, M)
        history.append({"epoch": epoch, "train_loss": epoch_loss / n_batches, "val_loss": val})
        if val < best_val:
            best_val, best = val, (S, M)
    return best, history


@pytest.mark.parametrize("batch_size", [50, 64])
@pytest.mark.parametrize("wrist_weight", [1.0, 5.0])
def test_training_equals_the_allocating_reference_bit_for_bit(batch_size, wrist_weight):
    eps = episodes_small(3)
    ws_train, ws_val = WindowSet(eps[:2]), WindowSet(eps[2:])
    cfg = TrainConfig(epochs=2, batch_size=batch_size, wrist_weight=wrist_weight, seed=3)
    model, history = train(ws_train, ws_val, cfg)
    (S, M), want = reference_train(ws_train, ws_val, cfg)
    assert np.array_equal(model.S, S) and np.array_equal(model.M, M)
    assert history == want


def test_training_reduces_validation_loss():
    eps = episodes_small(3)
    ws_train, ws_val = WindowSet(eps[:2]), WindowSet(eps[2:])
    cfg = TrainConfig(epochs=3, seed=0, transition_mix=0.0)
    model, history = train(ws_train, ws_val, cfg)
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
                          w=default_weights(5.0))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, preset="manicast-w", seed=3)
    # earlier versions also wrote k, T and J, which repeat the shapes
    earlier = tmp_path / "earlier.json"
    earlier.write_text(json.dumps({
        "k": HISTORY_LEN, "T": HORIZON_LEN, "J": N_JOINTS, **json.loads(path.read_text())}))
    for written in (path, earlier):
        back = load_checkpoint(written)
        np.testing.assert_array_equal(back.S, model.S)
        np.testing.assert_array_equal(back.M, model.M)
        np.testing.assert_array_equal(back.w, model.w)


def test_checkpoint_file_keeps_the_stdlib_json_layout(tmp_path, rng):
    # the weights are np.float64 scalars; any JSON parser reads the file as
    # the document the stdlib json writer produced
    model = ForecastModel(S=rng.normal(size=(N_JOINTS, N_JOINTS)),
                          M=rng.normal(size=(HISTORY_LEN, HORIZON_LEN)),
                          w=default_weights(5.0))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path, preset="manicast-w", seed=3)
    assert isinstance(model.w[0], np.float64)
    assert json.loads(path.read_text()) == {
        "preset": "manicast-w", "seed": 3,
        "S": {"shape": [N_JOINTS, N_JOINTS], "data": model.S.flatten().tolist()},
        "M": {"shape": [HISTORY_LEN, HORIZON_LEN], "data": model.M.flatten().tolist()},
        "w": [float(x) for x in model.w]}


def test_make_forecaster_interface(rng):
    # every forecaster, each baseline and a learned model, gives a point
    # forecast over the horizon
    ctx = random_context(rng)
    fut = random_trajectory(rng)
    model = ForecastModel.init()
    for forecaster in [make_forecaster(name) for name in forecast.BASELINES] + [
            make_forecaster(model)]:
        fc = forecaster(ctx, fut)
        assert isinstance(fc, Trajectory)
        assert fc.frames.shape == (HORIZON_LEN, N_JOINTS, 3)
    np.testing.assert_array_equal(make_forecaster("fut")(ctx, fut).frames,
                                  fut.frames)
    np.testing.assert_array_equal(make_forecaster(model)(ctx).frames,
                                  forecast_cur(ctx).frames)
    for name in ("nope", "CUR"):   # names are exact, as the CLI checks them
        with pytest.raises(MotionError):
            make_forecaster(name)
