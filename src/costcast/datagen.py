"""Procedural generation of collaborative-manipulation episodes.

Each episode records a single human partner whose right arm performs
minimum-jerk reaches between the rest point ``REST_WRIST`` and task targets
(the pot at ``POT_POSITION``, handover goals in ``HANDOVER_BOX``, table stops
in ``TABLE_BOX`` at ``TABLE_Z``), with the torso and left arm held fixed.
Each interaction is a ``REACH_DURATION_S`` reach, a ``HOLD_DURATION_S`` hold
and a ``REACH_DURATION_S`` return, ``INTERACTION_LEN_S`` in all.  Seeded
Gaussian jitter of ``JITTER_SIGMA`` smoothed by a 3-frame moving average adds
sensor-like noise.  These stand in for recorded motion and are the same in
every run; a ``GenConfig`` sets only the seed, the episode length, the
number of interactions and the frame rate.
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
POT_POSITION = np.array([0.55, 0.0, 0.95])
REST_WRIST = np.array([0.0, -0.6, 1.0])
JITTER_SIGMA = 0.002      # metres, about motion-capture noise
REACH_DURATION_S = 1.2
HOLD_DURATION_S = 0.8
INTERACTION_LEN_S = 2 * REACH_DURATION_S + HOLD_DURATION_S
TABLE_DWELL_S = 0.5
N_TABLE_WAYPOINTS = 6
MAX_EPISODE_LEN_S = 3600.0
MIN_SPLIT_EPISODES = 10   # the fewest episodes an 8:1:1 split gives a val and a test episode
SCHEDULE_MARGIN_S = 1.0   # interactions are drawn this far inside either episode end


class ScheduleError(MotionError):
    """Raised when the requested interactions cannot fit in the episode."""


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    episode_len_s: float = 40.0
    n_interactions: int = 4
    fps: float = DEFAULT_FPS

    def __post_init__(self):
        check_field_types(self)
        if self.episode_len_s > MAX_EPISODE_LEN_S:
            raise MotionError(f"episode_len_s must be at most {MAX_EPISODE_LEN_S:g} s")
        # the longest episode holds at most this many interactions
        most = int(MAX_EPISODE_LEN_S / INTERACTION_LEN_S)
        if not 1 <= self.n_interactions <= most:
            raise MotionError(f"n_interactions must be from 1 to {most}, "
                              f"got {self.n_interactions}")
        if not MIN_FPS <= self.fps <= MAX_FPS:
            raise MotionError(f"fps must be in [{MIN_FPS:g}, {MAX_FPS:g}], got {self.fps!r}")
        if self.slot_s < INTERACTION_LEN_S:
            raise ScheduleError(f"a slot of {self.slot_s:.2f} s inside the "
                                f"{SCHEDULE_MARGIN_S:g} s margins cannot hold a "
                                f"{INTERACTION_LEN_S:.2f} s interaction")
        # rounded to frames, interactions may outgrow their slots; _schedule
        # fits them wherever they fit side by side, sharing no frame
        span = 2 * self.frames_of(REACH_DURATION_S) + self.frames_of(HOLD_DURATION_S) + 1
        if self.n_interactions * span > self.frames_of(self.episode_len_s):
            raise ScheduleError(f"{self.n_interactions} interactions of {span} frames do not "
                                f"fit in {self.frames_of(self.episode_len_s)} frames")

    def frames_of(self, seconds: float) -> int:
        return int(round(seconds * self.fps))

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


def _apply_jitter(frames: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    noise = rng.normal(0.0, JITTER_SIGMA, size=frames.shape)
    # 3-frame moving average along time, edges clamped.
    padded = np.concatenate([noise[:1], noise, noise[-1:]], axis=0)
    smooth = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
    return frames + smooth


def _schedule(config: GenConfig, offsets_s) -> list:
    """The (first, last) frames of each interaction, started ``offsets_s``
    into its slot.  Where rounding to frames would start an interaction on
    or before the last frame of the one before, it starts on the next frame;
    where it would end the last one past the episode, the interactions at
    the end start earlier.  Elsewhere no start moves."""
    n = 2 * config.frames_of(REACH_DURATION_S) + config.frames_of(HOLD_DURATION_S)
    starts = [config.frames_of(SCHEDULE_MARGIN_S + i * config.slot_s + offset)
              for i, offset in enumerate(offsets_s)]
    for i in range(1, len(starts)):
        starts[i] = max(starts[i], starts[i - 1] + n + 1)
    latest = config.frames_of(config.episode_len_s) - 1 - n
    for i in reversed(range(len(starts))):
        starts[i] = min(starts[i], latest)
        latest = starts[i] - n - 1
    return [(s, s + n) for s in starts]


def _reach_hold_return(config: GenConfig, targets, rng: np.random.Generator):
    """Wrist path for rest->target->rest interactions plus transition intervals."""
    wrist = np.tile(REST_WRIST, (config.frames_of(config.episode_len_s), 1))
    # seeded start times, one per equal slot inside the margins
    transitions = _schedule(config, [rng.uniform(0.0, config.slot_s - INTERACTION_LEN_S)
                                     for _ in range(config.n_interactions)])
    reach_n = config.frames_of(REACH_DURATION_S)
    hold_n = config.frames_of(HOLD_DURATION_S)
    spans = []
    for (s, e), target in zip(transitions, targets):
        wrist[s:s + reach_n + 1] = min_jerk(REST_WRIST, target, reach_n + 1)
        wrist[s + reach_n:s + reach_n + hold_n] = target
        wrist[s + reach_n + hold_n:e + 1] = min_jerk(target, REST_WRIST, reach_n + 1)
        spans.append((s, s + reach_n, s + reach_n + hold_n, e))
    return wrist, transitions, spans


def gen_stirring(config: GenConfig) -> Episode:
    """Reactive-stirring episode: repeated reaches from rest into the pot."""
    rng = np.random.default_rng(config.seed)
    targets = [POT_POSITION] * config.n_interactions
    wrist, transitions, _ = _reach_hold_return(config, targets, rng)
    frames = _apply_jitter(_frames_from_wrist_path(wrist), rng)
    return Episode(fps=config.fps, frames=frames, transitions=tuple(transitions),
                   task="stir", extras={"pot_position": [float(x) for x in POT_POSITION]})


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
    frames = _apply_jitter(_frames_from_wrist_path(wrist), rng)
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
    n_frames = config.frames_of(config.episode_len_s)
    reach_n = config.frames_of(REACH_DURATION_S)
    dwell_n = config.frames_of(TABLE_DWELL_S)
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
    pos = REST_WRIST
    i = 0
    for _ in range(N_TABLE_WAYPOINTS):
        wp = np.array([rng.uniform(*TABLE_BOX[0]), rng.uniform(*TABLE_BOX[1]), TABLE_Z])
        wrist[i:i + reach_n + 1] = min_jerk(pos, wp, reach_n + 1)
        i += reach_n
        wrist[i:i + dwell_n + 1] = wp
        i += dwell_n
        pos = wp
    wrist[i:] = pos
    frames = _apply_jitter(_frames_from_wrist_path(wrist), rng)
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
