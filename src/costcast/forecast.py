"""Human-motion forecasters and the cost-aware training loop.

Every forecaster, baseline or learned, returns a point forecast: the
predicted ``Trajectory`` over the horizon.  The baselines and the learned
model build their forecast in a fresh array and mark it read-only, so the
``Trajectory`` keeps that array and makes no second copy.

The trainable model is a separable linear map: a joint-mixing matrix S and a
temporal matrix M act on history displacements, so the forward pass and its
gradient are closed form.  Training can upsample rare transition windows and
upweight wrist joints in the loss.

Windows are time-first: the frame is axis 0 and the windows sit in the
middle, so a batch of contexts is (k, B, J, 3), as ``Context`` holds it.  The
model's arrays flatten each frame's (joint, xyz) coordinates to one row of
width 3J, so a batch of windows is (frames, B, 3J).  ``WindowSet.gather``
returns that layout, ``model_forward`` reshapes a ``Context`` to it and its
forecast back, and every product of the forward pass and of a training step
is one 2-D matrix product over the whole batch.

A pass over a whole window set, the validation loss here and the forecasting
metrics in ``metrics.evaluate_forecaster``, loops over ``WindowSet.chunks``:
blocks of ``BLOCK_WINDOWS`` windows, each one gather small enough that it and
its temporaries stay in cache.  The metrics pass scores every model it is
given on the one gather of each block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .motion import (
    HISTORY_LEN,
    HORIZON_LEN,
    MotionError,
    N_JOINTS,
    WRIST_INDICES,
    Context,
    Trajectory,
    check_field_types,
    read_json,
    write_json,
)

# Training-configuration presets: (transition_mix, wrist_weight).
PRESETS = {
    "scratch": (0.0, 1.0),
    "manicast": (0.5, 1.0),
    "manicast-t": (1.0, 1.0),
    "manicast-w": (0.5, 5.0),
}


def _fresh_trajectory(frames: np.ndarray) -> Trajectory:
    """A Trajectory of a freshly computed frames array, or a view of one,
    that nothing else holds: the array is marked read-only, so the
    Trajectory keeps it instead of copying it."""
    frames.flags.writeable = False
    return Trajectory(frames)


def forecast_cur(ctx: Context) -> Trajectory:
    """Constant-pose baseline: the last observed pose held over the horizon."""
    return _fresh_trajectory(np.repeat(ctx.frames[-1:], HORIZON_LEN, axis=0))


def forecast_cvm(ctx: Context) -> Trajectory:
    """Constant-velocity baseline fit over the whole history window, per frame:
    future frame i = 1..HORIZON_LEN is last + i * (last - first) / (HISTORY_LEN - 1)."""
    last = ctx.frames[-1:]
    v = (last - ctx.frames[:1]) / (HISTORY_LEN - 1)
    i = np.arange(1, HORIZON_LEN + 1).reshape((-1,) + (1,) * (last.ndim - 1))
    return _fresh_trajectory(last + i * v)


def forecast_oracle(window_future: Trajectory | None) -> Trajectory:
    """Ground-truth forecast, available only in playback."""
    if window_future is None:
        raise MotionError("oracle forecast requires the recorded future (playback only)")
    return window_future


@dataclass(frozen=True)
class ForecastModel:
    """Separable linear forecaster: S mixes joints, M maps history to horizon."""

    S: np.ndarray
    M: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        S = np.asarray(self.S, dtype=float)
        M = np.asarray(self.M, dtype=float)
        if S.shape != (N_JOINTS, N_JOINTS) or M.shape != (HISTORY_LEN, HORIZON_LEN):
            raise MotionError("model matrices have wrong shapes")
        if not (np.isfinite(S).all() and np.isfinite(M).all()):
            raise MotionError("model parameters must be finite")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "M", M)

    @classmethod
    def init(cls) -> "ForecastModel":
        return cls(S=np.eye(N_JOINTS), M=np.zeros((HISTORY_LEN, HORIZON_LEN)))


# Width of one frame flattened to (joint, xyz) rows.
_ROW = 3 * N_JOINTS
# Windows per block when a whole window set is scored (the validation loss,
# the forecasting metrics).  A block of 128 is a 0.75 MB gather, so the gather
# and the temporaries made from it fit a 2 MiB L2 cache.
BLOCK_WINDOWS = 128
# Largest training batch, far above the batches of SGD: one gather of this
# many windows is 10,000 x 35 frames x 21 coordinates x 8 bytes = 59 MB.
MAX_BATCH_SIZE = 10000


def _joint_mixer(S: np.ndarray) -> np.ndarray:
    """kron(S.T, I3): ``rows @ _joint_mixer(S)`` mixes the joints of (joint,
    xyz)-flattened rows by S, so the mixing is one matrix product over all rows."""
    return (S.T[:, None, :, None] * np.eye(3)[:, None]).reshape(_ROW, _ROW)


def _forward_rows(S: np.ndarray, M: np.ndarray, ctx: np.ndarray):
    """The forward pass on time-first rows.

    ctx (k, *batch, 3J) -> forecast rows (T, *batch, 3J), plus the history
    displacements dX and their joint-mixed form SX, both (k, *batch, 3J),
    which the gradient reuses.  The joint mixing is one GEMM over every
    history row and the temporal map one GEMM over every window,
    ``M.T @ SX.reshape(k, -1)``, to whose output ``last`` is added in place.
    The forecast is a fresh, writable array that the caller may overwrite,
    as the loss passes do when they turn it into the residual.
    """
    last = ctx[-1]
    dX = ctx - last
    SX = (dX.reshape(-1, _ROW) @ _joint_mixer(S)).reshape(dX.shape)
    pred = (M.T @ SX.reshape(HISTORY_LEN, -1)).reshape((HORIZON_LEN,) + dX.shape[1:])
    pred += last
    return pred, dX, SX


def model_forward(model: ForecastModel, ctx: Context) -> Trajectory:
    """Forecast = last pose + S-mixed, M-mapped history displacements, on
    the context's (joint, xyz) axes flattened to rows and back."""
    batch = ctx.frames.shape[1:-2]
    pred = _forward_rows(model.S, model.M, ctx.frames.reshape((HISTORY_LEN,) + batch + (_ROW,)))[0]
    return _fresh_trajectory(pred.reshape((HORIZON_LEN,) + batch + (N_JOINTS, 3)))


def default_weights(wrist_weight: float = 1.0) -> np.ndarray:
    w = np.ones(N_JOINTS)
    w[list(WRIST_INDICES)] = wrist_weight
    return w


def _weighted_sse(resid: np.ndarray, w: np.ndarray):
    """Joint-weighted squared error sum(w_j * r**2) over a residual whose
    trailing axes are (J, 3) or flattened (3J,), and the weighted residual
    w_j * r as rows of width 3J."""
    rows = resid.reshape(-1, _ROW)
    weighted = rows * np.repeat(w, 3)
    return float(np.vdot(weighted, rows)), weighted


def weighted_loss(model: ForecastModel, ctx: Context, truth: Trajectory,
                  w: np.ndarray) -> float:
    """Joint-weighted squared error of the forecast against the true future,
    summed over every window of a batch."""
    w = np.asarray(w, dtype=float)
    if (w <= 0).any():
        raise MotionError("loss weights must be positive")
    return _weighted_sse(model_forward(model, ctx).frames - truth.frames, w)[0]


def _batch_loss_and_grad(S: np.ndarray, M: np.ndarray, ctx: np.ndarray, fut: np.ndarray,
                         w: np.ndarray):
    """Mean loss over a batch and its exact gradients w.r.t. S and M.

    ctx (k, B, 3J) and fut (T, B, 3J) are time-first rows, as
    ``WindowSet.gather`` returns them.  Per window pred = last + M^T SX with
    SX = dX kron(S.T, I3), so with G = dL/dpred laid out (T, B*3J), each
    product is one GEMM over the batch: M G, dM = SX G^T with SX as
    (k, B*3J), and the mixer's gradient dX^T (M G) over every history row, of
    which dS sums the xyz diagonal of each (joint, joint) block.
    """
    B = ctx.shape[1]
    resid, dX, SX = _forward_rows(S, M, ctx)
    resid -= fut
    sse, weighted = _weighted_sse(resid, w)
    weighted *= 2.0 / B
    G = weighted.reshape(HORIZON_LEN, -1)
    dMix = dX.reshape(-1, _ROW).T @ (M @ G).reshape(-1, _ROW)
    dS = np.trace(dMix.reshape(N_JOINTS, 3, N_JOINTS, 3), axis1=1, axis2=3).T
    dM = SX.reshape(HISTORY_LEN, -1) @ G.T
    return sse / B, dS, dM


class WindowSet:
    """Every stride-1 (history, future) window of a list of episodes.

    The episodes' frames are concatenated once; window i covers the
    ``HISTORY_LEN + HORIZON_LEN`` frames from ``start[i]``.  ``flags[i]`` is
    set when any future frame lies inside an annotated transition interval.
    """

    def __init__(self, episodes):
        episodes = list(episodes)
        if len({ep.fps for ep in episodes}) > 1:
            raise MotionError("episodes have mixed frame rates; windows need one rate")
        span = HISTORY_LEN + HORIZON_LEN
        starts, flags = [np.empty(0, dtype=int)], [np.empty(0, dtype=bool)]
        offset = 0
        for ep in episodes:
            n = len(ep)
            if n < span:
                raise MotionError(f"episode has {n} frames, needs at least {span} for windowing")
            start = np.arange(n - span + 1)
            trans = np.array(ep.transitions, dtype=int).reshape(-1, 2)
            overlap = ((start[:, None] + HISTORY_LEN <= trans[:, 1])
                       & (start[:, None] + span - 1 >= trans[:, 0]))
            starts.append(offset + start)
            flags.append(overlap.any(axis=1))
            offset += n
        self.rows = np.concatenate([np.empty((0, N_JOINTS, 3))]
                                   + [ep.frames for ep in episodes]).reshape(-1, _ROW)
        self.start = np.concatenate(starts)
        self.flags = np.concatenate(flags)

    def __len__(self) -> int:
        return len(self.start)

    def gather(self, idx):
        """The given windows as one read-only time-first array
        (HISTORY_LEN + HORIZON_LEN, B, 3J): frame f of window b is row
        ``[f, b]``.  ``[:HISTORY_LEN]`` is the context and ``[HISTORY_LEN:]``
        the future."""
        at = np.arange(HISTORY_LEN + HORIZON_LEN)[:, None] + self.start[np.asarray(idx, dtype=int)]
        windows = np.take(self.rows, at, axis=0)
        windows.flags.writeable = False  # Context and Trajectory keep views, not copies
        return windows

    def chunks(self, size: int):
        """Every window in order, in blocks of at most ``size``: yields each
        block's first window index and its ``gather``, (k + T, B, 3J)."""
        if size < 1:
            raise MotionError(f"block size must be at least 1, got {size}")
        n = len(self)
        for first in range(0, n, size):
            yield first, self.gather(np.arange(first, min(first + size, n)))


def build_transition_set(windows: WindowSet) -> np.ndarray:
    """Indices of the windows forming the transition distribution: those
    whose future overlaps an annotated transition interval."""
    if len(windows) == 0:
        raise MotionError("no windows given")
    idx = np.nonzero(windows.flags)[0]
    if len(idx) == 0:
        raise MotionError("transition set is empty; cannot form the transition distribution")
    return idx


def sample_batch(n_windows: int, transition_set: np.ndarray, mix: float,
                 batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Window indices for one batch: ceil(mix*B) from the transition set, rest uniform."""
    if not 0.0 <= mix <= 1.0:
        raise MotionError("mix must be in [0, 1]")
    n_trans = int(np.ceil(mix * batch_size))
    if n_trans > 0 and (transition_set is None or len(transition_set) == 0):
        raise MotionError("mix > 0 requires a non-empty transition set")
    parts = []
    if n_trans > 0:
        parts.append(transition_set[rng.integers(0, len(transition_set), size=n_trans)])
    if batch_size - n_trans > 0:
        parts.append(rng.integers(0, n_windows, size=batch_size - n_trans))
    return np.concatenate(parts)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 0.02
    momentum: float = 0.9
    transition_mix: float = 0.5
    wrist_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 0:
            raise MotionError("epochs must be >= 0")
        if not 1 <= self.batch_size <= MAX_BATCH_SIZE:
            raise MotionError(f"batch_size must be between 1 and {MAX_BATCH_SIZE}")
        if self.learning_rate < 0:
            raise MotionError("learning_rate must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise MotionError("momentum must be in [0, 1)")
        if not 0.0 <= self.transition_mix <= 1.0:
            raise MotionError("transition_mix must be in [0, 1]")
        if self.wrist_weight < 1.0:
            raise MotionError("wrist_weight must be >= 1")


def preset_config(name: str, base: TrainConfig | None = None) -> TrainConfig:
    if name not in PRESETS:
        raise MotionError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    mix, ww = PRESETS[name]
    base = base or TrainConfig()
    return replace(base, transition_mix=mix, wrist_weight=ww)


def _val_loss(model: ForecastModel, ws: WindowSet, w: np.ndarray) -> float:
    """Mean weighted loss over every window, scored in ``BLOCK_WINDOWS`` blocks."""
    total = 0.0
    for _first, block in ws.chunks(BLOCK_WINDOWS):
        frames = block.reshape(block.shape[:2] + (N_JOINTS, 3))
        total += weighted_loss(model, Context(frames[:HISTORY_LEN]),
                               Trajectory(frames[HISTORY_LEN:]), w)
    return total / len(ws)


def train(train_windows: WindowSet, val_windows: WindowSet, config: TrainConfig):
    """Momentum gradient descent on the weighted loss with transition upsampling,
    from the untrained model (``ForecastModel.init``).  Transition windows
    come from the annotated transition set of ``train_windows``.

    Returns (best_model, history) where best_model minimizes validation loss
    across epochs and history is a list of per-epoch dicts.
    """
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise MotionError("train and validation window sets must be non-empty")
    transition_set = None
    if config.transition_mix > 0:
        transition_set = build_transition_set(train_windows)
    w = default_weights(config.wrist_weight)
    rng = np.random.default_rng(config.seed)
    # plain arrays inside the batch loop; a model is built once per epoch
    init = ForecastModel.init()
    S, M = init.S, init.M
    vS, vM = np.zeros_like(S), np.zeros_like(M)
    n_batches = max(1, len(train_windows) // config.batch_size)

    best = ForecastModel(S=S, M=M, w=w)
    best_val = _val_loss(best, val_windows, w)
    history = [{"epoch": 0, "train_loss": None, "val_loss": best_val}]

    for epoch in range(1, config.epochs + 1):
        epoch_loss = 0.0
        for _ in range(n_batches):
            idx = sample_batch(len(train_windows), transition_set,
                               config.transition_mix, config.batch_size, rng)
            windows = train_windows.gather(idx)
            loss, dS, dM = _batch_loss_and_grad(S, M, windows[:HISTORY_LEN],
                                                windows[HISTORY_LEN:], w)
            if not math.isfinite(loss):
                raise MotionError(f"training diverged (non-finite loss) at epoch {epoch}")
            vS = config.momentum * vS - config.learning_rate * dS
            vM = config.momentum * vM - config.learning_rate * dM
            S = S + vS
            M = M + vM
            epoch_loss += loss
        cur = ForecastModel(S=S, M=M, w=w)
        val = _val_loss(cur, val_windows, w)
        history.append({"epoch": epoch, "train_loss": epoch_loss / n_batches, "val_loss": val})
        if val < best_val:
            best_val, best = val, cur
    return best, history


def save_checkpoint(model: ForecastModel, path, preset: str = "", seed: int = 0) -> None:
    doc = {
        "k": HISTORY_LEN,
        "T": HORIZON_LEN,
        "J": N_JOINTS,
        "preset": preset,
        "seed": seed,
        # flattened copies: orjson writes them as the same bytes as their lists
        "S": {"shape": list(model.S.shape), "data": model.S.flatten()},
        "M": {"shape": list(model.M.shape), "data": model.M.flatten()},
        "w": None if model.w is None else list(map(float, model.w)),
    }
    write_json(path, doc)


def load_checkpoint(path) -> ForecastModel:
    """Read a checkpoint; a missing, truncated or malformed file raises a
    MotionError that names it."""
    doc = read_json(path, "checkpoint")
    try:
        S = np.array(doc["S"]["data"]).reshape(doc["S"]["shape"])
        M = np.array(doc["M"]["data"]).reshape(doc["M"]["shape"])
        w = None if doc.get("w") is None else np.asarray(doc["w"], dtype=float)
        return ForecastModel(S=S, M=M, w=w)
    except KeyError as exc:
        raise MotionError(f"checkpoint file {path} has no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise MotionError(f"checkpoint file {path}: {exc}") from exc


# The baseline forecasters by name, each a callable (ctx, truth_future_or_None).
BASELINES = {
    "cur": lambda ctx, fut=None: forecast_cur(ctx),
    "cvm": lambda ctx, fut=None: forecast_cvm(ctx),
    "fut": lambda ctx, fut=None: forecast_oracle(fut),
}


def make_forecaster(name_or_model):
    """Uniform forecaster interface: callable (ctx, truth_future_or_None) -> Trajectory."""
    if isinstance(name_or_model, ForecastModel):
        model = name_or_model
        return lambda ctx, fut=None: model_forward(model, ctx)
    try:
        return BASELINES[str(name_or_model)]
    except KeyError:
        raise MotionError(f"unknown forecaster {name_or_model!r}") from None
