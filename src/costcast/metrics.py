"""Forecasting metrics (ADE/FDE and transition-window variants), planning
metrics from playback logs, and the empirical verifier of the training-
distribution loss bounds on finite toy problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import orjson

from .forecast import BLOCK_WINDOWS, WindowSet
from .motion import (
    HISTORY_LEN,
    HORIZON_LEN,
    N_JOINTS,
    WRIST_INDICES,
    Context,
    MotionError,
    Trajectory,
    read_json,
    vector_lengths,
    write_json,
)

MM = 1000.0
GOAL_DETECT_RADIUS = 0.10
GOAL_DETECT_PERSIST = 5
GOAL_ARRIVE_RADIUS = 0.05
LEMMA_TOL = 1e-12       # slack on the loss-bound comparisons
TOY_MAX_CONTEXTS = 6    # size limits of random toy instances
TOY_MAX_FUTURES = 6

METRIC_KEYS = ("ade", "fde", "wrist_ade", "wrist_fde",
               "t_ade", "t_fde", "t_wrist_ade", "t_wrist_fde")


def _displacements(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-frame, per-window, per-joint errors (T, B, J): the Euclidean norm
    over xyz as two adds of the squared components, in the order of
    ``np.linalg.norm(pred - truth, axis=-1)``, so bit-identical to it and
    about 3 times faster.  The difference is squared in place in a fresh
    C-ordered array of the truth's shape, so each window's reductions sum in
    one order whatever the memory layout of the forecast."""
    sq = np.subtract(pred, truth, out=np.empty(truth.shape))
    sq *= sq
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def _mean_se(values):
    """Mean and standard error of a sample; (nan, 0.0) for no values."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean()) if len(values) else float("nan")
    se = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return mean, se


def evaluate_forecaster(windows: WindowSet, forecasters) -> dict:
    """All eight forecasting metrics (in mm) of each forecaster over a window
    set: ``forecasters`` maps a name to a forecaster, and the result maps the
    same names to their metrics.

    The windows are scored in blocks of ``BLOCK_WINDOWS``
    (``WindowSet.chunks``).  Each block is gathered once and split on its
    frame axis into the time-first contexts and true futures, and every
    forecaster is called on them once.
    """
    n = len(windows)
    if n == 0:
        raise MotionError("no windows to evaluate")
    if not forecasters:
        raise MotionError("no forecasters to evaluate")
    flags = windows.flags
    if not flags.any():
        raise MotionError("no transition windows in the evaluation set")
    # per forecaster, the per-window ade, fde, wrist ade and wrist fde
    scores = {name: np.empty((4, n)) for name in forecasters}
    wr = list(WRIST_INDICES)
    for first, block in windows.chunks(BLOCK_WINDOWS):
        frames = block.reshape(block.shape[:2] + (N_JOINTS, 3))   # (k + T, B, J, 3)
        at = slice(first, first + frames.shape[1])
        ctx, fut = Context(frames[:HISTORY_LEN]), Trajectory(frames[HISTORY_LEN:])
        for name, forecaster in forecasters.items():
            d = _displacements(forecaster(ctx, fut).frames, fut.frames)  # (T, B, J)
            ade_w, fde_w, wade_w, wfde_w = scores[name]
            ade_w[at] = d.mean(axis=(0, 2)) * MM
            fde_w[at] = d[-1].mean(axis=1) * MM
            wade_w[at] = d[:, :, wr].mean(axis=(0, 2)) * MM
            wfde_w[at] = d[-1][:, wr].mean(axis=1) * MM
    return {name: _summary(per_window, flags) for name, per_window in scores.items()}


def _summary(per_window: np.ndarray, flags: np.ndarray) -> dict:
    """The metrics dict of one forecaster from its (4, n) per-window scores:
    the mean and standard error of each score over every window and over the
    transition windows."""
    out = {}
    for key, values in zip(("ade", "fde", "wrist_ade", "wrist_fde"), per_window):
        out[key], out[key + "_se"] = _mean_se(values)
        out["t_" + key], out["t_" + key + "_se"] = _mean_se(values[flags])
    out["n_windows"] = len(flags)
    out["n_transition_windows"] = int(flags.sum())
    return out


# --- planning metrics -----------------------------------------------------

def _incursions(flags: np.ndarray) -> list:
    """Closed [start, end] index intervals of consecutive true flags."""
    edges = np.diff(np.concatenate([[0], flags.astype(int), [0]]))
    return list(zip(np.flatnonzero(edges == 1).tolist(),
                    (np.flatnonzero(edges == -1) - 1).tolist()))


def _first_true(flags: np.ndarray, lo: int, hi: int):
    """First index in [lo, hi], clipped to the array, where ``flags`` is set."""
    lo = max(lo, 0)
    hits = np.flatnonzero(flags[lo:max(hi + 1, lo)])
    return lo + int(hits[0]) if hits.size else None


def stop_restart_times(logs_model: list, logs_cur: list) -> dict:
    """Stop/restart advantage (ms) over current-pose tracking, plus FDR.

    ``logs_model`` and ``logs_cur`` are paired per-episode playback logs from
    stir episodes.  Stop time for an incursion is the lead of the model's
    first retract-branch activation over the current-pose activation;
    restart time is the analogous lead at deactivation.  FDR counts branch
    activations with no true incursion in the following ``HORIZON_LEN`` frames.
    """
    stop_deltas, restart_deltas = [], []
    n_act, n_false = 0, 0
    total_incursions = 0
    for lm, lc in zip(logs_model, logs_cur):
        dt = lm.dt
        act_m = np.array([r["branch_active"] for r in lm.records], dtype=bool)
        act_c = np.array([r["branch_active"] for r in lc.records], dtype=bool)
        gt = np.array([r["gt_near_pot"] for r in lm.records], dtype=bool)
        incursions = _incursions(gt)
        total_incursions += len(incursions)
        for s, e in incursions:
            t_c = _first_true(act_c, s - HORIZON_LEN, e)
            t_m = _first_true(act_m, s - HORIZON_LEN, e)
            if t_c is not None and t_m is not None:
                stop_deltas.append((t_c - t_m) * dt * 1000.0)
            # deactivation after the incursion ends
            d_c = _first_true(~act_c, max(t_c if t_c is not None else s, s),
                              e + HORIZON_LEN + 1)
            d_m = _first_true(~act_m, max(t_m if t_m is not None else s, s),
                              e + HORIZON_LEN + 1)
            if d_c is not None and d_m is not None:
                restart_deltas.append((d_c - d_m) * dt * 1000.0)
        # false detections: activations with no true incursion soon after
        rising = [t for t, _ in _incursions(act_m)]
        n_act += len(rising)
        n_false += sum(not gt[t:t + HORIZON_LEN + 1].any() for t in rising)
    if total_incursions == 0:
        raise MotionError("no ground-truth incursions in the provided logs")
    stop, stop_se = _mean_se(stop_deltas)
    restart, restart_se = _mean_se(restart_deltas)
    fdr = n_false / n_act if n_act else 0.0
    return {"stop_ms": stop, "stop_ms_se": stop_se,
            "restart_ms": restart, "restart_ms_se": restart_se,
            "fdr": fdr, "n_incursions": total_incursions, "n_activations": n_act}


def _detection_step(wrists: np.ndarray, goal: np.ndarray, lo: int, hi: int):
    """First record index in [lo, hi] from which the forecast final wrists
    (n, 3) stay within the detection radius of the goal for
    ``GOAL_DETECT_PERSIST`` consecutive records, all of them in [lo, hi]."""
    near = vector_lengths(wrists - goal) <= GOAL_DETECT_RADIUS
    if len(near) < GOAL_DETECT_PERSIST:
        return None
    held = np.convolve(near, np.ones(GOAL_DETECT_PERSIST, int), "valid") == GOAL_DETECT_PERSIST
    return _first_true(held, lo, hi - GOAL_DETECT_PERSIST + 1)


def handover_metrics(logs_model: list, logs_cur: list, episodes: list) -> dict:
    """Goal-detection gain, correct-goal rate, end-effector path length and
    time to goal over paired per-episode handover playback logs."""
    gains, paths, times = [], [], []
    n_handover, n_correct = 0, 0
    for lm, lc, ep in zip(logs_model, logs_cur, episodes):
        goals, holds = ep.extras["goals"], ep.extras["hold_intervals"]
        dt = lm.dt
        step0 = lm.records[0]["step"]
        ee = np.array([r["ee_pos"] for r in lm.records])
        wrists_m, wrists_c = (np.array([r["forecast_final_wrist"] for r in log.records],
                                       dtype=float).reshape(-1, 3) for log in (lm, lc))
        for (hs, he), goal in zip(holds, goals):
            goal = np.asarray(goal, dtype=float)
            n_handover += 1
            lo = hs - step0 - 2 * HORIZON_LEN
            hi = he - step0
            t_m = _detection_step(wrists_m, goal, lo, hi)
            t_c = _detection_step(wrists_c, goal, lo, hi)
            if t_m is not None:
                n_correct += 1
            if t_m is not None and t_c is not None:
                gains.append((t_c - t_m) * dt * 1000.0)
            # arm travel from the hold start until arrival near the goal
            if t_m is None:
                continue
            start = max(t_m, 0)
            arrive = _first_true(np.linalg.norm(ee - goal, axis=-1) <= GOAL_ARRIVE_RADIUS,
                                 start, len(ee) - 1)
            if arrive is not None:
                seg = ee[start:arrive + 1]
                paths.append(float(np.sum(np.linalg.norm(np.diff(seg, axis=0), axis=-1))) * MM)
                times.append((arrive - start) * dt)
    if n_handover == 0:
        raise MotionError("no handovers in the provided episodes")
    gain, gain_se = _mean_se(gains)
    path, path_se = _mean_se(paths)
    ttg, ttg_se = _mean_se(times)
    return {"goal_detection_ms": gain, "goal_detection_ms_se": gain_se,
            "correct_goal_rate": n_correct / n_handover,
            "path_length_mm": path, "path_length_mm_se": path_se,
            "time_to_goal_s": ttg, "time_to_goal_s_se": ttg_se,
            "n_handovers": n_handover}


# --- loss-bound verifier on finite toy problems ---------------------------

@dataclass(frozen=True)
class ToyCMDP:
    """Finite context/future tables for exact verification of the loss bounds."""

    P_phi: np.ndarray    # (m,)
    P_true: np.ndarray   # (m, n) conditional rows
    P_model: np.ndarray  # (m, n) conditional rows
    costs: np.ndarray    # (n,) cost of one fixed probe plan under each future
    delta: float

    def __post_init__(self):
        P_phi = np.asarray(self.P_phi, dtype=float)
        P_true = np.asarray(self.P_true, dtype=float)
        P_model = np.asarray(self.P_model, dtype=float)
        costs = np.asarray(self.costs, dtype=float)
        if abs(P_phi.sum() - 1.0) > 1e-12:
            raise MotionError("P_phi must sum to 1")
        for name, table in (("P_true", P_true), ("P_model", P_model)):
            if np.abs(table.sum(axis=1) - 1.0).max() > 1e-12:
                raise MotionError(f"rows of {name} must sum to 1")
        object.__setattr__(self, "P_phi", P_phi)
        object.__setattr__(self, "P_true", P_true)
        object.__setattr__(self, "P_model", P_model)
        object.__setattr__(self, "costs", costs)


def lemma1_check(toy: ToyCMDP) -> dict:
    """Exact enumeration of the loss bounds under P and the mixed distribution.

    Per-context max cost is taken over the union support of the true and
    model conditionals (the futures that can carry probability mass in the
    cost-difference sum).
    """
    P, Pt, Pm, c = toy.P_phi, toy.P_true, toy.P_model, toy.costs
    support = (Pt > 0) | (Pm > 0)
    cmax_phi = np.where(support, c[None, :], -np.inf).max(axis=1)
    cmax = float(cmax_phi[P > 0].max())

    l1 = np.abs(Pt - Pm).sum(axis=1)                 # per-context L1 gap
    eps_P = float(P @ l1)
    ell = float(P @ np.abs((Pt - Pm) @ c))

    indicator = (cmax_phi >= toy.delta) & (P > 0)
    mass = float(P[indicator].sum())
    if mass <= 0:
        raise MotionError("transition distribution is empty (no context meets delta)")
    P_T = np.where(indicator, P, 0.0) / mass
    Q = 0.5 * P + 0.5 * P_T
    eps_Q = float(Q @ l1)

    bound_P = cmax * eps_P
    bound_Q = 2.0 * max(toy.delta, cmax * mass) * eps_Q
    return {
        "eps_P": eps_P,
        "eps_Q": eps_Q,
        "ell_theta": ell,
        "bound_P": bound_P,
        "bound_Q": bound_Q,
        "holds_P": ell <= bound_P + LEMMA_TOL,
        "holds_Q": ell <= bound_Q + LEMMA_TOL,
        "cmax": cmax,
        "transition_mass": mass,
    }


def worked_toycmdp() -> ToyCMDP:
    """The fixed two-context instance used as a cross-module anchor."""
    return ToyCMDP(
        P_phi=np.array([0.9, 0.1]),
        P_true=np.array([[1.0, 0.0], [1.0, 0.0]]),
        P_model=np.array([[1.0, 0.0], [0.8, 0.2]]),
        costs=np.array([1.0, 10.0]),
        delta=5.0,
    )


def random_toycmdp(rng: np.random.Generator) -> ToyCMDP:
    """A random finite instance with sparse supports and a feasible delta."""
    m = int(rng.integers(1, TOY_MAX_CONTEXTS + 1))
    n = int(rng.integers(2, TOY_MAX_FUTURES + 1))
    P_phi = rng.dirichlet(np.ones(m))

    def sparse_rows():
        rows = np.zeros((m, n))
        for i in range(m):
            k = int(rng.integers(1, n + 1))
            cols = rng.choice(n, size=k, replace=False)
            rows[i, cols] = rng.dirichlet(np.ones(k))
        return rows

    P_true = sparse_rows()
    P_model = sparse_rows()
    costs = rng.uniform(0.0, 10.0, size=n)
    support = (P_true > 0) | (P_model > 0)
    cmax_phi = np.where(support, costs[None, :], -np.inf).max(axis=1)
    feasible = cmax_phi[P_phi > 0]
    # keep the transition set non-empty
    delta = float(rng.uniform(0.0, feasible.max()))
    return ToyCMDP(P_phi=P_phi, P_true=P_true, P_model=P_model, costs=costs, delta=delta)


@dataclass
class MetricReport:
    forecasting: dict = field(default_factory=dict)  # model -> metric dict
    planning: dict = field(default_factory=dict)     # model -> metric dict

    def to_json(self, path) -> None:
        """Write the report with sorted keys; an undefined metric, a NaN
        mean over no samples, is written as ``null``."""
        write_json(path, {"forecasting": self.forecasting, "planning": self.planning},
                   option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS)

    @classmethod
    def from_json(cls, path) -> "MetricReport":
        doc = read_json(path, "report")
        if not isinstance(doc, dict):
            raise MotionError(f"report file {path} is not a JSON object")
        parts = {name: doc.get(name, {}) for name in ("forecasting", "planning")}
        for name, part in parts.items():
            if not isinstance(part, dict):
                raise MotionError(f"report file {path}: {name!r} is not a JSON object")
        return cls(**parts)
