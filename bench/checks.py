"""Correctness checks for the benchmark's workloads, computed apart from the
program.

The checks recompute what the program logged or reported with independent
code: a 4x4 modified-DH chain for the end effector, a brute-force
sphere-to-capsule clearance, step-by-step clamped integration, the baseline
forecasts and a plain forward pass of the trained model, and the weighted
validation loss.  From the program they take only parameters (the arm's DH
table and limits, the skeleton's bone pairs, the capsule radius) and, for
the two planning metrics the workloads assert on, its metric functions.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from costcast import metrics
from costcast.motion import ARM_BONES, HISTORY_LEN, HORIZON_LEN, WRIST_INDICES, MotionError
from costcast.robot import HUMAN_CAPSULE_RADIUS

TOL = 1e-9        # absolute, for positions (m), clearances (m) and joint values
REL_TOL = 1e-9    # relative, for reported forecast errors and losses


class Problems:
    """Collects failed checks, keeping the first message and a count per kind."""

    def __init__(self):
        self._first, self._count = {}, {}

    def add(self, kind: str, message: str) -> None:
        self._first.setdefault(kind, message)
        self._count[kind] = self._count.get(kind, 0) + 1

    def close(self, kind: str, got, want, tol: float, where: str) -> None:
        err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
        if not err <= tol:
            self.add(kind, f"{where}: off by {err:.3g} (tolerance {tol:g})")

    def rel_close(self, kind: str, got: float, want: float, where: str) -> None:
        if not abs(got - want) <= REL_TOL * max(abs(want), 1e-300):
            self.add(kind, f"{where}: {got!r} != recomputed {want!r}")

    def list(self) -> list:
        return [f"{k}: {self._first[k]}" + (f" (+{self._count[k] - 1} more)" if self._count[k] > 1 else "")
                for k in self._first]


# --- kinematics and clearance ----------------------------------------------

def _trans(x: float, y: float, z: float) -> np.ndarray:
    T = np.eye(4)
    T[:3, 3] = (x, y, z)
    return T


def _rotx(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])


def _rotz(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1]])


def dh_chain(arm, q) -> list:
    """World origins of the base, the seven joint frames and the flange.

    Each link is the homogeneous product RotX(alpha) TransX(a) RotZ(q) TransZ(d)
    of the modified-DH (Craig) convention; the flange sits ``flange_offset``
    along the last frame's z axis.
    """
    T = _trans(*arm.base_position)
    points = [T[:3, 3].copy()]
    for (a, d, alpha), theta in zip(arm.dh, q):
        T = T @ _rotx(alpha) @ _trans(a, 0.0, 0.0) @ _rotz(float(theta)) @ _trans(0.0, 0.0, d)
        points.append(T[:3, 3].copy())
    points.append((T @ _trans(0.0, 0.0, arm.flange_offset))[:3, 3].copy())
    return points


def _point_segment_distance(p, a, b) -> float:
    ab = [b[k] - a[k] for k in range(3)]
    ap = [p[k] - a[k] for k in range(3)]
    denom = sum(x * x for x in ab)
    t = 0.0 if denom < 1e-18 else min(1.0, max(0.0, sum(x * y for x, y in zip(ap, ab)) / denom))
    return math.sqrt(sum((ap[k] - t * ab[k]) ** 2 for k in range(3)))


def clearance(arm, q, human) -> float:
    """Smallest signed gap between the arm's collision spheres and the human's
    arm capsules, checking every sphere against every capsule.

    The spheres sit at one and two thirds of each straight segment between
    consecutive chain origins, base included.
    """
    points = dh_chain(arm, q)
    best = math.inf
    for a, b in zip(points[:-1], points[1:]):
        for k in (1.0, 2.0):
            center = a + k * (b - a) / 3.0
            for i, j in ARM_BONES:
                gap = (_point_segment_distance(center, human[i], human[j])
                       - arm.sphere_radius - HUMAN_CAPSULE_RADIUS)
                best = min(best, gap)
    return best


def integrate(arm, q, cmd, dt: float):
    """One clamped kinematic step: velocity clipped to its limit, position
    clipped to the joint range, velocity zeroed on joints that hit it."""
    q_new, qd_new = [], []
    for i, (lo, hi) in enumerate(arm.joint_limits):
        v = min(max(float(cmd[i]), -arm.vel_limits[i]), arm.vel_limits[i])
        x = float(q[i]) + v * dt
        if x < lo or x > hi:
            x, v = min(max(x, lo), hi), 0.0
        q_new.append(x)
        qd_new.append(v)
    return np.array(q_new), np.array(qd_new)


# --- playback --------------------------------------------------------------

def check_playback(episode, rest_config, logs: dict, arm, dt: float) -> list:
    """Checks that hold for every playback log, whatever the task."""
    p = Problems()
    n = len(episode)
    steps = list(range(HISTORY_LEN - 1, n - HORIZON_LEN))
    lo = np.array([l for l, _ in arm.joint_limits])
    hi = np.array([h for _, h in arm.joint_limits])
    vel = np.asarray(arm.vel_limits, dtype=float)
    for name, log in logs.items():
        recs = log.records
        if [r["step"] for r in recs] != steps:
            p.add("ticks", f"{name}: {len(recs)} ticks, expected len(episode) - 34 = {len(steps)}")
            continue
        q = np.asarray(rest_config, dtype=float)
        for r in recs:
            where = f"{name} step {r['step']}"
            q, qd = integrate(arm, q, r["cmd"], dt)
            p.close("integration", r["q"], q, TOL, where + " q")
            p.close("integration", r["qd"], qd, TOL, where + " qd")
            q_log, qd_log = np.asarray(r["q"]), np.asarray(r["qd"])
            if (q_log < lo).any() or (q_log > hi).any() or (np.abs(qd_log) > vel).any():
                p.add("limits", f"{where}: joint position or velocity outside its limits")
            p.close("ee_pos", r["ee_pos"], dh_chain(arm, r["q"])[-1], TOL, where)
            p.close("min_sep", r["min_sep"], clearance(arm, r["q"], episode.frames[r["step"]]),
                    TOL, where)
            if not (math.isfinite(r["cost"]) and r["cost"] >= 0.0):
                p.add("cost", f"{where}: logged cost {r['cost']!r} is not finite and >= 0")
    return p.list()


def _runs(flags) -> list:
    """Closed [start, end] index ranges of consecutive true flags."""
    out, start = [], None
    for i, f in enumerate(list(flags) + [False]):
        if f and start is None:
            start = i
        elif not f and start is not None:
            out.append((start, i - 1))
            start = None
    return out


def check_stir(episode, logs: dict, eps_pot: float, dt: float) -> list:
    """Oracle (``fut``) against hold-last-pose (``cur``) on a stir episode.

    The retract branch fires when a forecast wrist comes within ``eps_pot`` of
    the pot.  The oracle sees the true future, so it fires one horizon before
    ``cur`` on every incursion and never without one.
    """
    p = Problems()
    pot = np.asarray(episode.extras["pot_position"], dtype=float)
    near = np.linalg.norm(episode.frames[:, list(WRIST_INDICES)] - pot, axis=-1).min(axis=-1) <= eps_pot
    fut, cur = logs["fut"].records, logs["cur"].records
    steps = [r["step"] for r in fut]
    expected = {"fut": [bool(near[t + 1:t + 1 + HORIZON_LEN].any()) for t in steps],
                "cur": [bool(near[t]) for t in steps]}
    for name, recs in (("fut", fut), ("cur", cur)):
        if [r["branch_active"] for r in recs] != expected[name]:
            p.add("branch", f"{name}: logged retract-branch flags differ from the forecast's wrist distances")
        if [r["gt_near_pot"] for r in recs] != [bool(near[t]) for t in steps]:
            p.add("gt_near_pot", f"{name}: logged gt_near_pot differs from the episode")
    incursions = _runs([bool(near[t]) for t in steps])
    if len(incursions) != len(episode.transitions):
        p.add("incursions", f"{len(incursions)} incursions in playback, generated {len(episode.transitions)}")
    act_m = [r["branch_active"] for r in fut]
    act_c = [r["branch_active"] for r in cur]
    for s, e in incursions:
        window = range(max(s - HORIZON_LEN, 0), e + 1)
        t_m = next((i for i in window if act_m[i]), None)
        t_c = next((i for i in window if act_c[i]), None)
        if t_m is None or t_c is None or abs((t_c - t_m) - HORIZON_LEN) > 1:
            p.add("lead", f"incursion at step {steps[s]}: oracle fires at {t_m}, cur at {t_c}, "
                          f"not one horizon ({HORIZON_LEN} frames) apart")
    try:
        m = metrics.stop_restart_times([logs["fut"]], [logs["cur"]])
    except MotionError as exc:
        p.add("incursions", f"stop_restart_times: {exc}")
        return p.list()
    if m["n_incursions"] != len(episode.transitions):
        p.add("incursions", f"stop_restart_times counted {m['n_incursions']} incursions, "
                            f"generated {len(episode.transitions)}")
    if not abs(m["stop_ms"] - HORIZON_LEN * dt * 1e3) <= dt * 1e3 + 1e-9:
        p.add("lead", f"oracle stop lead {m['stop_ms']} ms, expected {HORIZON_LEN * dt * 1e3:g} ms "
                      f"within one frame")
    if m["fdr"] != 0.0:
        p.add("fdr", f"oracle false-detection rate {m['fdr']}, expected 0")
    return p.list()


def check_handover(episode, logs: dict) -> list:
    """Oracle (``fut``) against hold-last-pose (``cur``) on a handover episode."""
    p = Problems()
    in_hand = episode.extras["object_in_hand"]
    frames = episode.frames
    for name, recs in (("fut", logs["fut"].records), ("cur", logs["cur"].records)):
        for r in recs:
            t = r["step"]
            if r["object_in_hand"] != bool(in_hand[t]):
                p.add("object_in_hand", f"{name} step {t}: logged flag differs from the episode")
            # the oracle's forecast ends at the true wrist one horizon ahead;
            # hold-last-pose ends at the current wrist
            truth = frames[t + HORIZON_LEN, 1] if name == "fut" else frames[t, 1]
            p.close("forecast_final_wrist", r["forecast_final_wrist"], truth, TOL, f"{name} step {t}")
    m = metrics.handover_metrics([logs["fut"]], [logs["cur"]], [episode])
    n_goals = len(episode.extras["goals"])
    if m["n_handovers"] != n_goals:
        p.add("handovers", f"handover_metrics counted {m['n_handovers']} handovers, generated {n_goals}")
    if m["correct_goal_rate"] != 1.0:
        p.add("correct_goal", f"oracle correct-goal rate {m['correct_goal_rate']}, expected 1.0")
    return p.list()


# --- forecasting pipeline --------------------------------------------------

def _load_split(run_dir: Path, seed: int):
    """Episodes from the manifest, split 8:1:1 per task by a seeded permutation."""
    by_task = {}
    for entry in json.loads((run_dir / "manifest.json").read_text()):
        doc = json.loads((run_dir / entry["file"]).read_text())
        by_task.setdefault(entry["task"], []).append(
            (np.asarray(doc["frames"], dtype=float), 1.0 / float(doc["fps"])))
    train, val, test = [], [], {}
    for task in sorted(by_task):
        eps = by_task[task]
        order = np.random.default_rng(seed).permutation(len(eps))
        n_train, n_val = int(0.8 * len(eps)), int(0.1 * len(eps))
        train += [eps[i] for i in order[:n_train]]
        val += [eps[i] for i in order[n_train:n_train + n_val]]
        test[task] = [eps[i] for i in order[n_train + n_val:]]
    return train, val, test


def _windows(episodes):
    """Every (history, future, dt) window of every episode, stride 1."""
    ctx, fut, dts = [], [], []
    for frames, dt in episodes:
        for s in range(len(frames) - HISTORY_LEN - HORIZON_LEN + 1):
            ctx.append(frames[s:s + HISTORY_LEN])
            fut.append(frames[s + HISTORY_LEN:s + HISTORY_LEN + HORIZON_LEN])
            dts.append(dt)
    return np.array(ctx), np.array(fut), np.array(dts)


def _predict(model, ctx, dts, S=None, M=None):
    last = ctx[:, -1]
    if model == "cur":
        return np.repeat(last[:, None], HORIZON_LEN, axis=1)
    if model == "cvm":
        v = (last - ctx[:, 0]) / ((HISTORY_LEN - 1) * dts)[:, None, None]
        steps = np.arange(1, HORIZON_LEN + 1)[None, :, None, None] * dts[:, None, None, None]
        return last[:, None] + steps * v[:, None]
    # linear model: the temporal map M takes the history displacements to the
    # horizon, then the joint-mixing map S is applied frame by frame
    n = len(ctx)
    disp = (ctx - last[:, None]).reshape(n, HISTORY_LEN, -1)
    temporal = np.matmul(M.T, disp).reshape(n, HORIZON_LEN, *last.shape[1:])
    return last[:, None] + np.matmul(S, temporal)


def _read_matrix(doc) -> np.ndarray:
    return np.array(doc["data"], dtype=float).reshape(doc["shape"])


def check_train_eval(run_dir, seed: int, preset: str, wrist_weight: float, models,
                     batch_size: int, epochs: int, batches_per_train: list) -> list:
    """Recompute the forecast report and the best validation loss of a
    ``gen`` / ``train`` / ``eval-forecast`` run directory."""
    p = Problems()
    run_dir = Path(run_dir)
    train, val, test = _load_split(run_dir, seed)
    n_train_windows = sum(len(f) - HISTORY_LEN - HORIZON_LEN + 1 for f, _ in train)
    want_batches = epochs * max(1, n_train_windows // batch_size)
    if any(b != want_batches for b in batches_per_train):
        p.add("batches", f"train ran {batches_per_train} batches, expected {want_batches} per run")

    ckpt = json.loads((run_dir / f"checkpoint_{preset}.json").read_text())
    S, M = _read_matrix(ckpt["S"]), _read_matrix(ckpt["M"])
    report = json.loads((run_dir / "forecast_report.json").read_text())["forecasting"]
    for task, eps in sorted(test.items()):
        ctx, fut, dts = _windows(eps)
        for model in models:
            row = report.get(f"{model}/{task}")
            if row is None:
                p.add("report", f"no {model}/{task} row in forecast_report.json")
                continue
            pred = _predict("linear" if model == preset else model, ctx, dts, S, M)
            disp = np.linalg.norm(pred - fut, axis=-1)          # (windows, T, J)
            wrist = disp[:, :, list(WRIST_INDICES)]
            want = {"ade": disp.mean(axis=(1, 2)).mean() * 1e3,
                    "fde": disp[:, -1].mean(axis=1).mean() * 1e3,
                    "wrist_ade": wrist.mean(axis=(1, 2)).mean() * 1e3,
                    "wrist_fde": wrist[:, -1].mean(axis=1).mean() * 1e3}
            for key, value in want.items():
                p.rel_close("report", row[key], float(value), f"{model}/{task} {key}")
            if row["n_windows"] != len(ctx):
                p.add("report", f"{model}/{task} n_windows {row['n_windows']} != {len(ctx)}")

    with open(run_dir / f"history_{preset}.csv", newline="") as f:
        val_losses = [float(r["val_loss"]) for r in csv.DictReader(f)]
    if len(val_losses) != epochs + 1:
        p.add("history", f"{len(val_losses)} history rows, expected {epochs + 1}")
    best = min(val_losses)
    if not best < val_losses[0]:
        p.add("history", f"best validation loss {best} is not below the epoch-0 loss {val_losses[0]}")
    w = np.ones(S.shape[0])
    w[list(WRIST_INDICES)] = wrist_weight
    if ckpt.get("w") is not None:
        p.close("history", ckpt["w"], w, 0.0, "checkpoint loss weights")
    ctx, fut, dts = _windows(val)
    resid = _predict("linear", ctx, dts, S, M) - fut
    recomputed = float((resid ** 2 * w[None, None, :, None]).sum() / len(ctx))
    p.rel_close("history", best, recomputed, "best validation loss vs the saved checkpoint")
    return p.list()
