"""Sampling-based MPC: sample velocity plans, score them against the active
forecast, reweight, execute one step and replan.

Also hosts the playback loop that replays a recorded human episode against a
live planner and produces per-timestep simulation logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import orjson

from .cost import CostWeights, TaskSpec, stir_retract_mask, total_cost_batch, wrist_pot_distance
from .motion import (
    Context,
    Episode,
    HISTORY_LEN,
    HORIZON_LEN,
    MotionError,
    Trajectory,
    WRIST_INDICES,
    check_field_types,
    finite_point,
)
from .robot import (
    ArmModel,
    ArmState,
    N_DOF,
    arm_capsules,
    collision_sphere_centers,
    fk_batch,
    linear_jacobian,
    rollout_arrays,
    separation_batch,
    step,
)

STIR_RADIUS = 0.10
STIR_PERIOD_S = 4.0
STIR_HEIGHT = 0.05  # circle height above the pot center
DEFAULT_RETRACT_POINT = (0.80, 0.0, 0.90)
DEFAULT_TABLE_GOAL = (0.62, 0.25, 0.98)
IK_DAMPING = 0.05    # damped-least-squares lambda
IK_STEP_CLIP = 0.2   # rad, per joint per IK iteration
IK_TOLERANCE = 1e-5  # m; an IK row this close to its target stops updating
MAX_SAMPLES = 10000  # far above the samples of sampling MPC; bounds each iteration's arrays
MAX_NOISE_SIGMA = 1e6  # rad/s, far above any velocity limit; keeps every draw and mean finite
# Sampled plans are scored in this dtype, which halves the bytes each scoring
# kernel moves.  Their costs only rank the samples and set the softmax
# weights, and float32 kinematics move a cost by about 1e-5 relative.
SCORE_DTYPE = np.float32


@dataclass(frozen=True)
class MppiConfig:
    n_samples: int = 64
    dt: float = 0.04
    temperature: float = 0.2
    noise_sigma: float = 0.3
    n_iterations: int = 2
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.n_samples < 2:
            raise MotionError("need at least 2 samples")
        if self.n_samples > MAX_SAMPLES:
            raise MotionError(f"n_samples must be at most {MAX_SAMPLES}")
        if self.n_iterations < 1:
            raise MotionError("need at least 1 MPPI iteration")
        if self.dt <= 0:
            raise MotionError("dt must be positive")
        if self.temperature <= 0 or self.noise_sigma <= 0:
            raise MotionError("temperature and noise_sigma must be positive")
        if self.noise_sigma > MAX_NOISE_SIGMA:
            raise MotionError(f"noise_sigma must be at most {MAX_NOISE_SIGMA:g}")


@dataclass
class PlannerState:
    """Warm-start memory across replans."""

    mean_controls: np.ndarray  # (H, 7)
    rng: np.random.Generator

    @classmethod
    def init(cls, cfg: MppiConfig) -> "PlannerState":
        return cls(mean_controls=np.zeros((HORIZON_LEN, N_DOF)),
                   rng=np.random.default_rng(cfg.seed))


def rollout(model: ArmModel, state: ArmState, controls: np.ndarray, dt: float):
    """(q, qd) arrays, each (H, 7), of one control sequence.

    Nothing in the package calls this; the name stays bound for the
    benchmark tracer (bench/spans.py).
    """
    Q, Qd = rollout_arrays(model, state.q, np.asarray(controls)[None], dt)
    return Q[0], Qd[0]


def mppi_weights(costs: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax weights over sampled plan costs (lower cost, higher weight).

    Where a cost gap over the temperature overflows, its log-weight is the
    limit -inf, so at a vanishing temperature all the weight goes to the
    least finite cost, shared equally between ties.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.size < 2:
        raise MotionError("need at least 2 costs")
    finite = np.isfinite(costs)
    if not finite.any():
        raise MotionError("all sampled plans have infinite cost")
    cmin = costs[finite].min()
    with np.errstate(over="ignore"):
        logw = np.where(finite, -(costs - cmin) / temperature, -np.inf)
    w = np.exp(logw)
    return w / w.sum()


def mppi_update(costs: np.ndarray, samples: np.ndarray, temperature: float) -> np.ndarray:
    """Exponentiated-cost softmax update of the sampling mean."""
    w = mppi_weights(costs, temperature)
    return np.einsum("n,nhj->hj", w, samples)


def ik_position(model: ArmModel, q0: np.ndarray, target: np.ndarray,
                iters: int = 200) -> np.ndarray:
    """Damped-least-squares position IK from q0 to Cartesian targets, as one batch.

    ``q0`` (7,) or (*b, 7) broadcasts against ``target`` (3,) or (*b, 3); the
    result has the broadcast batch shape plus (7,), so one configuration and
    one target give a (7,) configuration.  Each iteration runs one
    ``fk_batch``, one ``linear_jacobian`` and one stacked 3x3 solve over the
    rows still ``IK_TOLERANCE`` or farther from their targets.  A row within
    it stops updating, and the loop ends once every row has stopped or after
    ``iters`` iterations.  A joint at a limit whose descent direction J^T err
    points out of that limit has its Jacobian column dropped for the solve,
    so the step goes to the joints that can move.  Each step is clipped to
    ``IK_STEP_CLIP`` per joint and the result to the joint limits.  Rows do
    not interact: a row of a batched call is its one-row call up to rounding.
    """
    q0 = np.asarray(q0, dtype=float)
    target = np.asarray(target, dtype=float)
    batch = np.broadcast_shapes(q0.shape[:-1], target.shape[:-1])
    q = np.array(np.broadcast_to(q0, batch + (N_DOF,))).reshape(-1, N_DOF)
    target = np.broadcast_to(target, batch + (3,)).reshape(-1, 3)
    lo, hi = model.lo, model.hi
    damping = IK_DAMPING**2 * np.eye(3)
    live = np.arange(len(q))
    for _ in range(iters):
        frames = fk_batch(model, q[live])
        err = target[live] - frames[1][7].T    # end-effector origins, (m, 3)
        moving = np.linalg.norm(err, axis=-1) >= IK_TOLERANCE
        if not moving.any():
            break
        live, err, ql = live[moving], err[moving], q[live[moving]]
        J = linear_jacobian(frames)[..., moving].transpose(2, 0, 1)   # (m, 3, 7)
        descent = np.einsum("mkj,mk->mj", J, err)
        pinned = ((ql <= lo) & (descent < 0)) | ((ql >= hi) & (descent > 0))
        J = np.where(pinned[:, None], 0.0, J)
        y = np.linalg.solve(J @ J.transpose(0, 2, 1) + damping, err[..., None])
        dq = (J.transpose(0, 2, 1) @ y)[..., 0]
        q[live] = np.clip(ql + np.clip(dq, -IK_STEP_CLIP, IK_STEP_CLIP), lo, hi)
    return q.reshape(batch + (N_DOF,))


def stir_reference(model: ArmModel, pot_position: np.ndarray, dt: float,
                   q_seed: np.ndarray) -> np.ndarray:
    """Joint-space reference tracking a circle above the pot, one full period.

    Row i reaches the circle point at angle 2 pi i / n, n = STIR_PERIOD_S / dt.
    The first point is solved from ``q_seed``; then all n points are solved
    in one ``ik_position`` call seeded from that solution, so neighbouring
    rows, the last and the first included, lie on one branch of solutions.
    """
    pot = np.asarray(pot_position, dtype=float)
    center = pot + np.array([0.0, 0.0, STIR_HEIGHT])
    n = int(round(STIR_PERIOD_S / dt))
    ang = 2 * np.pi * np.arange(n) / n
    targets = center + STIR_RADIUS * np.stack([np.cos(ang), np.sin(ang), np.zeros(n)], axis=-1)
    return ik_position(model, ik_position(model, q_seed, targets[0]), targets)


def rest_configuration(model: ArmModel) -> np.ndarray:
    """A retracted joint configuration reached by IK from mid-range."""
    return ik_position(model, model.mid(), np.asarray(DEFAULT_RETRACT_POINT, dtype=float))


def default_table_goal(model: ArmModel) -> np.ndarray:
    """4x4 goal at the table point, oriented as the arm reaches it by IK."""
    q = ik_position(model, model.mid(), np.asarray(DEFAULT_TABLE_GOAL, dtype=float))
    T = np.eye(4)
    T[:3, :3] = fk_batch(model, q)[0][7]
    T[:3, 3] = DEFAULT_TABLE_GOAL
    return T


def _check_rate(episode: Episode, dt: float) -> None:
    """The planner runs at the episode's own rate, one tick per frame."""
    if abs(episode.dt - dt) > 1e-9:
        raise MotionError("episode rate must match the planner rate")


def build_task_spec(episode: Episode, model: ArmModel, dt: float | None = None) -> TaskSpec:
    """Task spec with planner-side references derived from episode metadata,
    at the planner step ``dt``, by default the episode's own frame period."""
    dt = episode.dt if dt is None else dt
    _check_rate(episode, dt)
    rest = rest_configuration(model)
    if episode.task == "stir":
        pot = episode.extras["pot_position"]
        return TaskSpec(task="stir", pot_position=pot, rest_config=rest,
                        stir_reference=stir_reference(model, pot, dt, q_seed=rest))
    if episode.task == "handover":
        return TaskSpec(task="handover", rest_config=rest)
    return TaskSpec(task="tableset", rest_config=rest, table_goal=default_table_goal(model))


def plan_step(planner_state: PlannerState, arm_state: ArmState, cost_fn, cfg: MppiConfig,
              model: ArmModel):
    """One replanning cycle; returns (qd_cmd, best_cost).

    Samples ``n_samples`` control sequences of ``HORIZON_LEN`` steps, the
    forecast's length, around the warm-started mean for ``n_iterations``
    rounds, scores their rollouts with ``cost_fn(Q, Qd)``, and keeps the
    best sample seen across rounds: the one of least finite cost, as
    ``mppi_weights`` ranks them.  The stored mean is softmax-updated
    each round then time-shifted for the next replan.  ``qd_cmd`` is the
    first control of the best sample and ``best_cost`` that sample's cost.
    ``cost_fn`` gets the float64 rollouts as the (N, H, 7) views that
    ``rollout_arrays`` returns, of step-major (H, 7, N) memory with the
    sample axis innermost, not C-ordered arrays.
    """
    mean = planner_state.mean_controls
    best_cost = np.inf
    best_controls = None
    for _ in range(cfg.n_iterations):
        noise = planner_state.rng.normal(0.0, cfg.noise_sigma,
                                         size=(cfg.n_samples, HORIZON_LEN, N_DOF))
        samples = mean[None] + noise
        Q, Qd = rollout_arrays(model, arm_state.q, samples, cfg.dt)
        costs = np.asarray(cost_fn(Q, Qd), dtype=float)
        mean = mppi_update(costs, samples, cfg.temperature)
        i = int(np.argmin(np.where(np.isfinite(costs), costs, np.inf)))
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best_controls = samples[i]
    planner_state.mean_controls = np.vstack([mean[1:], mean[-1:]])
    return best_controls[0], best_cost


@dataclass
class SimLog:
    """Per-timestep playback records; input to the metrics module."""

    task: str
    model_name: str
    dt: float
    records: list = field(default_factory=list)

    def to_jsonl(self, path) -> None:
        meta = {"meta": {"task": self.task, "model": self.model_name, "dt": self.dt}}
        Path(path).write_bytes(b"".join(orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY)
                                        + b"\n" for doc in [meta, *self.records]))

    @classmethod
    def from_jsonl(cls, path) -> "SimLog":
        try:
            lines = Path(path).read_bytes().splitlines()
            meta = orjson.loads(lines[0])["meta"]
            log = cls(task=meta["task"], model_name=meta["model"], dt=meta["dt"],
                      records=[orjson.loads(line) for line in lines[1:]])
        except (IndexError, KeyError, OSError, TypeError, ValueError) as exc:
            raise MotionError(f"sim log {path}: {exc!r}") from exc
        for line, rec in enumerate(log.records, start=2):
            if not (isinstance(rec, dict) and {"step", "min_sep"} <= rec.keys()):
                raise MotionError(f"sim log {path}: line {line} is not a record "
                                  "with 'step' and 'min_sep'")
            for key in ("forecast_final_wrist", "gt_final_wrist"):
                if key in rec:
                    finite_point(rec[key], f"sim log {path}: line {line}: {key}")
        return log


def run_episode(episode: Episode, forecaster, spec: TaskSpec, weights: CostWeights,
                cfg: MppiConfig, model: ArmModel, model_name: str = "model") -> SimLog:
    """Replay a recorded human episode against the live planner.

    ``forecaster`` is a callable (ctx, truth_future_or_None) -> Trajectory (see
    ``make_forecaster``).  The oracle forecaster receives the true future.
    Each tick's plans are scored by ``total_cost_batch`` on the rollouts cast
    to ``SCORE_DTYPE``, against that tick's forecast and task spec.

    No control decision reads a record's ``ee_pos`` and ``min_sep``, so they
    are computed for the whole playback in one pass after the last tick: one
    float64 ``fk_batch`` of every tick's executed ``q`` and one
    ``separation_batch`` of their spheres, each row bit for bit its
    one-configuration call.  ``min_sep`` pairs the arm at q(t+1), reached by
    tick t's step, with the person at ``frames[t]``, one frame earlier.
    """
    if len(episode) < HISTORY_LEN + HORIZON_LEN:
        raise MotionError("episode too short for playback")
    _check_rate(episode, cfg.dt)
    arm = ArmState(q=spec.rest_config, qd=np.zeros(N_DOF))
    pstate = PlannerState.init(cfg)
    log = SimLog(task=episode.task, model_name=model_name, dt=cfg.dt)
    if episode.task == "stir":
        gt_near_pot = wrist_pot_distance(episode.frames, spec.pot_position) <= weights.eps_pot
    wrist = WRIST_INDICES[1]   # the right wrist, the one that moves
    ticks = range(HISTORY_LEN - 1, len(episode) - HORIZON_LEN)
    qs = []                    # each tick's executed configuration

    for t in ticks:
        ctx = Context(episode.frames[t - HISTORY_LEN + 1:t + 1])
        truth = Trajectory(episode.frames[t + 1:t + 1 + HORIZON_LEN])
        fc = forecaster(ctx, truth)
        step_spec = spec
        if episode.task == "handover":
            step_spec = replace(spec, object_in_hand=episode.extras["object_in_hand"][t])

        def cost_fn(Q, Qd):
            return total_cost_batch(model, Q.astype(SCORE_DTYPE), Qd.astype(SCORE_DTYPE),
                                    fc, step_spec, weights)

        cmd, best_cost = plan_step(pstate, arm, cost_fn, cfg, model)
        arm = step(model, arm, cmd, cfg.dt)
        qs.append(arm.q)

        rec = {
            "step": t,
            "q": arm.q.tolist(),
            "qd": arm.qd.tolist(),
            "cmd": np.asarray(cmd, dtype=float).tolist(),
            "ee_pos": None,    # filled after the last tick
            "cost": best_cost,
            "min_sep": None,   # filled after the last tick
        }
        if episode.task == "stir":
            rec["branch_active"] = bool(
                stir_retract_mask(fc, step_spec, weights, HORIZON_LEN).any())
            rec["gt_near_pot"] = bool(gt_near_pot[t])
        if episode.task == "handover":
            rec["forecast_final_wrist"] = fc.frames[-1, wrist].tolist()
            rec["gt_final_wrist"] = episode.frames[t + HORIZON_LEN, wrist].tolist()
            rec["object_in_hand"] = episode.extras["object_in_hand"][t]
        log.records.append(rec)

    frames = fk_batch(model, np.array(qs))
    sep = separation_batch(model, collision_sphere_centers(model, frames)[:, :, None],
                           *arm_capsules(episode.frames[ticks]))[0]
    for rec, ee_pos, min_sep in zip(log.records, frames[1][7].T.tolist(), sep.tolist()):
        rec["ee_pos"], rec["min_sep"] = ee_pos, min_sep
    return log
