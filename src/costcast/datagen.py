"""Procedural generation of collaborative-manipulation episodes.

Each episode records a single human partner whose right arm performs
minimum-jerk reaches between a rest point and task targets (pot, handover
goals, table stops), with the torso and left arm held fixed.  Seeded
Gaussian jitter smoothed by a 3-frame moving average adds sensor-like noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .motion import (
    DEFAULT_FPS,
    MAX_FPS,
    MIN_FPS,
    Episode,
    MotionError,
    N_JOINTS,
    check_field_types,
    finite_point,
    vector_lengths,
)

# Static skeleton layout (world frame, meters).  The right arm is the moving
# one; its elbow is solved from a two-link chain with equal bone lengths so
# the bone-length invariant holds for every reachable wrist target.
RIGHT_SHOULDER = np.array([0.45, -0.20, 1.05])
LEFT_SHOULDER = np.array([0.20, -0.50, 1.05])
LEFT_ELBOW = np.array([0.10, -0.55, 0.78])
LEFT_WRIST = np.array([0.05, -0.40, 0.60])
UPPER_BACK = np.array([0.30, -0.35, 1.25])
ARM_BONE_LEN = 0.36
ARM_REACH = 2 * ARM_BONE_LEN

HANDOVER_BOX = np.array([[0.4, 0.7], [-0.2, 0.2], [0.8, 1.2]])
TABLE_BOX = np.array([[0.3, 0.8], [-0.35, 0.35]])
TABLE_Z = 0.9
TABLE_DWELL_S = 0.5
N_TABLE_WAYPOINTS = 6
MAX_EPISODE_LEN_S = 3600.0
MAX_JITTER_SIGMA = 0.05   # metres; an order above motion-capture noise
MIN_SPLIT_EPISODES = 10   # the fewest episodes an 8:1:1 split gives a val and a test episode
SCHEDULE_MARGIN_S = 1.0   # no interaction starts or ends this close to an episode end


class ScheduleError(MotionError):
    """Raised when the requested interactions cannot fit in the episode."""


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    episode_len_s: float = 40.0
    n_interactions: int = 4
    jitter_sigma: float = 0.002
    pot_position: tuple = (0.55, 0.0, 0.95)
    rest_wrist: tuple = (0.0, -0.6, 1.0)
    reach_duration_s: float = 1.2
    hold_duration_s: float = 0.8
    fps: float = DEFAULT_FPS

    def __post_init__(self):
        check_field_types(self)
        for name in ("pot_position", "rest_wrist"):
            point = finite_point(getattr(self, name), name)
            _check_reach(np.asarray(point), name)
            object.__setattr__(self, name, point)
        if not 0.0 <= self.jitter_sigma <= MAX_JITTER_SIGMA:
            raise MotionError(f"jitter_sigma must be in [0, {MAX_JITTER_SIGMA:g}] m, "
                              f"got {self.jitter_sigma!r}")
        if self.episode_len_s > MAX_EPISODE_LEN_S:
            raise MotionError(f"episode_len_s must be at most {MAX_EPISODE_LEN_S:g} s")
        if self.n_interactions < 1:
            raise MotionError("n_interactions must be >= 1")
        if not MIN_FPS <= self.fps <= MAX_FPS:
            raise MotionError(f"fps must be in [{MIN_FPS:g}, {MAX_FPS:g}], got {self.fps!r}")
        for name in ("reach_duration_s", "hold_duration_s"):
            # int(round(d * fps)) < 1, the frame count that _reach_hold_return takes
            if getattr(self, name) * self.fps <= 0.5:
                raise MotionError(f"{name} must last at least one frame at {self.fps:g} fps, "
                                  f"got {getattr(self, name)!r} s")
        if self.slot_s < self.interaction_len_s:
            raise ScheduleError(f"a slot of {self.slot_s:.2f} s inside the "
                                f"{SCHEDULE_MARGIN_S:g} s margins cannot hold a "
                                f"{self.interaction_len_s:.2f} s interaction")

    @property
    def interaction_len_s(self) -> float:
        return 2 * self.reach_duration_s + self.hold_duration_s

    @property
    def slot_s(self) -> float:
        """Each interaction's equal share of the episode inside its margins."""
        return (self.episode_len_s - 2 * SCHEDULE_MARGIN_S) / self.n_interactions


def _check_reach(wrist: np.ndarray, name: str) -> tuple:
    """The shoulder-to-wrist vectors (..., 3) and their lengths (...), for
    right-wrist points (..., 3) the arm can reach; the error names the first
    distance out of reach."""
    d = wrist - RIGHT_SHOULDER
    r = vector_lengths(d)
    far = r >= ARM_REACH - 1e-6
    if far.any():
        raise MotionError(f"{name} at {r[far][0]:.3f} m from the right shoulder exceeds "
                          f"arm reach {ARM_REACH:.3f} m")
    return d, r


def min_jerk(p0, p1, n_steps: int) -> np.ndarray:
    """Minimum-jerk (quintic) profile from p0 to p1 over n_steps samples.

    Sample 0 is at p0 and sample n_steps-1 exactly at p1, with zero boundary
    velocity and acceleration.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    u = np.linspace(0.0, 1.0, n_steps)
    s = 10 * u**3 - 15 * u**4 + 6 * u**5
    return p0 + s[:, None] * (p1 - p0)


def _frames_from_wrist_path(wrist_path: np.ndarray) -> np.ndarray:
    """Skeleton frames (n, J, 3) for a right-wrist path (n, 3), the other
    joints held at the static layout.

    Each elbow is the two-link solution on the downward side of its
    shoulder-wrist axis (or toward -x where that axis is vertical), solved
    for the whole path at once.
    """
    d, r = _check_reach(wrist_path, "wrist target")
    u = d / np.maximum(r, 1e-9)[:, None]
    # down - (down . u) u, and the -x fallback alike; each dot is minus one coordinate
    perp = np.array([0.0, 0.0, -1.0]) + u[:, 2:] * u
    side = np.array([-1.0, 0.0, 0.0]) + u[:, :1] * u
    norm = vector_lengths(perp)
    vertical = norm < 1e-6
    perp[vertical] = side[vertical]
    norm[vertical] = vector_lengths(side[vertical])
    # float_power takes pow() of each element, as the scalar ``** 2`` did
    bulge = np.sqrt(np.maximum(ARM_BONE_LEN**2 - np.float_power(r / 2, 2), 0.0))
    frames = np.empty((len(wrist_path), N_JOINTS, 3))
    frames[:, 0] = LEFT_WRIST
    frames[:, 1] = wrist_path
    frames[:, 2] = LEFT_ELBOW
    frames[:, 3] = RIGHT_SHOULDER + 0.5 * d + bulge[:, None] * (perp / norm[:, None])
    frames[:, 4] = LEFT_SHOULDER
    frames[:, 5] = RIGHT_SHOULDER
    frames[:, 6] = UPPER_BACK
    return frames


def _apply_jitter(frames: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    if sigma <= 0:
        return frames
    noise = rng.normal(0.0, sigma, size=frames.shape)
    # 3-frame moving average along time, edges clamped.
    padded = np.concatenate([noise[:1], noise, noise[-1:]], axis=0)
    smooth = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
    return frames + smooth


def _reach_hold_return(config: GenConfig, targets, rng: np.random.Generator):
    """Wrist path for rest->target->rest interactions plus transition intervals."""
    fps = config.fps
    n_frames = int(round(config.episode_len_s * fps))
    rest = np.asarray(config.rest_wrist, dtype=float)
    wrist = np.tile(rest, (n_frames, 1))
    # seeded start times, one per equal slot inside the margins
    slot, dur = config.slot_s, config.interaction_len_s
    starts = [SCHEDULE_MARGIN_S + i * slot + rng.uniform(0.0, slot - dur)
              for i in range(config.n_interactions)]
    reach_n = int(round(config.reach_duration_s * fps))
    hold_n = int(round(config.hold_duration_s * fps))
    transitions = []
    spans = []
    for start_s, target in zip(starts, targets):
        s = int(round(start_s * fps))
        reach = min_jerk(rest, target, reach_n + 1)
        ret = min_jerk(target, rest, reach_n + 1)
        e = s + 2 * reach_n + hold_n
        if e >= n_frames:
            raise ScheduleError("interaction runs past episode end")
        wrist[s:s + reach_n + 1] = reach
        wrist[s + reach_n:s + reach_n + hold_n] = target
        wrist[s + reach_n + hold_n:e + 1] = ret
        transitions.append((s, e))
        spans.append((s, s + reach_n, s + reach_n + hold_n, e))
    return wrist, transitions, spans


def gen_stirring(config: GenConfig) -> Episode:
    """Reactive-stirring episode: repeated reaches from rest into the pot."""
    rng = np.random.default_rng(config.seed)
    pot = np.asarray(config.pot_position, dtype=float)
    targets = [pot] * config.n_interactions
    wrist, transitions, _ = _reach_hold_return(config, targets, rng)
    frames = _apply_jitter(_frames_from_wrist_path(wrist), config.jitter_sigma, rng)
    return Episode(fps=config.fps, frames=frames, transitions=tuple(transitions),
                   task="stir", extras={"pot_position": [float(x) for x in pot]})


def gen_handover(config: GenConfig) -> Episode:
    """Handover episode: reaches to per-interaction goals sampled in a box."""
    rng = np.random.default_rng(config.seed)
    lo, hi = HANDOVER_BOX[:, 0], HANDOVER_BOX[:, 1]
    goals = [rng.uniform(lo, hi) for _ in range(config.n_interactions)]
    wrist, transitions, spans = _reach_hold_return(config, goals, rng)
    n_frames = wrist.shape[0]
    object_in_hand = np.zeros(n_frames, dtype=bool)
    for (reach_start, _hold_start, hold_end, _end) in spans:
        object_in_hand[reach_start:hold_end] = True
    frames = _apply_jitter(_frames_from_wrist_path(wrist), config.jitter_sigma, rng)
    extras = {
        "goals": [[float(x) for x in g] for g in goals],
        "object_in_hand": [bool(b) for b in object_in_hand],
        "hold_intervals": [[hs, he - 1] for (_s, hs, he, _e) in spans],
    }
    return Episode(fps=config.fps, frames=frames, transitions=tuple(transitions),
                   task="handover", extras=extras)


def tableset_tour(config: GenConfig) -> tuple:
    """Frame counts (episode, reach, dwell) of a tableset episode.

    Raises ScheduleError when the episode is too short for the waypoint tour.
    """
    fps = config.fps
    n_frames = int(round(config.episode_len_s * fps))
    reach_n = int(round(config.reach_duration_s * fps))
    dwell_n = int(round(TABLE_DWELL_S * fps))
    need = N_TABLE_WAYPOINTS * (reach_n + dwell_n) + 1
    if need > n_frames:
        raise ScheduleError(f"episode of {n_frames} frames too short for waypoint tour ({need})")
    return n_frames, reach_n, dwell_n


def gen_tableset(config: GenConfig) -> Episode:
    """Table-setting episode: the wrist tours seeded stops on the table plane.

    The whole episode is one transition interval: it consists entirely of
    close-proximity arm movement over the shared table.
    """
    rng = np.random.default_rng(config.seed)
    n_frames, reach_n, dwell_n = tableset_tour(config)

    wrist = np.empty((n_frames, 3))
    pos = np.asarray(config.rest_wrist, dtype=float)
    i = 0
    for _ in range(N_TABLE_WAYPOINTS):
        wp = np.array([rng.uniform(*TABLE_BOX[0]), rng.uniform(*TABLE_BOX[1]), TABLE_Z])
        wrist[i:i + reach_n + 1] = min_jerk(pos, wp, reach_n + 1)
        i += reach_n
        wrist[i:i + dwell_n + 1] = wp
        i += dwell_n
        pos = wp
    wrist[i:] = pos
    frames = _apply_jitter(_frames_from_wrist_path(wrist), config.jitter_sigma, rng)
    return Episode(fps=config.fps, frames=frames, transitions=((0, n_frames - 1),),
                   task="tableset")


GENERATORS = {"stir": gen_stirring, "handover": gen_handover, "tableset": gen_tableset}


def split_dataset(episodes, seed: int):
    """Seeded shuffle then an 8:1:1 train/val/test partition by episode."""
    episodes = list(episodes)
    n = len(episodes)
    if n < MIN_SPLIT_EPISODES:
        raise MotionError(f"need at least {MIN_SPLIT_EPISODES} episodes to split 8:1:1, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(0.8 * n))
    n_val = int(np.floor(0.1 * n))
    train = [episodes[i] for i in order[:n_train]]
    val = [episodes[i] for i in order[n_train:n_train + n_val]]
    test = [episodes[i] for i in order[n_train + n_val:]]
    return train, val, test
