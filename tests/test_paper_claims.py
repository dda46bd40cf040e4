"""The paper's claims as tests: each test's docstring quotes the claim it
checks.  A claim that fails today is marked ``xfail(strict=True)`` with the
measured numbers in its reason, so it shows in every run and the suite fails
once it starts to hold, until the marker comes off.

The closed-loop claims read one shared set of playbacks: the benchmark's
seed-0 episodes (stir 6 s, handover 8 s, tableset 10.5 s, each with one
interaction), played with the oracle forecaster ``fut`` at the default MPPI
for MPPI seeds 0-2.
"""

from time import perf_counter

import numpy as np
import pytest

from costcast.cost import CostWeights
from costcast.datagen import GENERATORS, GenConfig
from costcast.forecast import make_forecaster
from costcast.planner import MppiConfig, build_task_spec, run_episode
from costcast.robot import (ArmModel, arm_capsules, collision_sphere_centers, fk_batch,
                            separation_batch)

MODEL = ArmModel()
EPISODE_S = {"stir": 6.0, "handover": 8.0, "tableset": 10.5}
MPPI_SEEDS = (0, 1, 2)


class TimedForecaster:
    """Times each control tick as the interval between forecaster calls; the
    last tick ends at ``stop``, right after ``run_episode`` returns."""

    def __init__(self, forecaster):
        self.forecaster, self.ticks, self._start = forecaster, [], None

    def __call__(self, ctx, fut=None):
        now = perf_counter()
        if self._start is not None:
            self.ticks.append(now - self._start)
        self._start = now
        return self.forecaster(ctx, fut)

    def stop(self):
        self.ticks.append(perf_counter() - self._start)


@pytest.fixture(scope="module")
def oracle_playbacks():
    """task -> [(episode, log, tick seconds)], one per MPPI seed."""
    out = {}
    for task, seconds in EPISODE_S.items():
        ep = GENERATORS[task](GenConfig(seed=0, episode_len_s=seconds, n_interactions=1))
        spec = build_task_spec(ep, MODEL)
        out[task] = []
        for seed in MPPI_SEEDS:
            clock = TimedForecaster(make_forecaster("fut"))
            log = run_episode(ep, clock, spec, CostWeights(), MppiConfig(seed=seed), model=MODEL,
                              model_name="fut")
            clock.stop()
            out[task].append((ep, log, clock.ticks))
    return out


@pytest.mark.parametrize("task", list(EPISODE_S))
def test_a_control_tick_fits_in_one_frame(oracle_playbacks, task):
    """"Our framework enables fluid, real-time interactions between a human
    and a 7-DoF robot arm": the planner replans once per 25 Hz frame, so the
    raw p90 tick of a playback stays under the 40 ms frame period."""
    ticks = np.concatenate([ticks for _, _, ticks in oracle_playbacks[task]])
    budget = oracle_playbacks[task][0][0].dt
    assert np.percentile(ticks, 90) < budget


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: under the oracle forecast the arm still enters the "
    "person; minimum same-instant clearance over MPPI seeds 0-2 is stir "
    "+2.7 to +4.4 cm, handover -9.8 to -5.7 cm, tableset -3.1 to -0.1 cm"))
def test_the_oracle_forecast_keeps_the_arm_clear_of_the_person(oracle_playbacks):
    """"Seamless human-robot manipulation in close proximity relies on
    accurate forecasts of human motion": with the most accurate forecast,
    the true future, the arm never touches the person.  Each record's
    clearance pairs its q, the configuration after tick ``step``'s control
    step, with the person at frame ``step + 1``, the same instant (ROADMAP
    item 13)."""
    worst = {}
    for task, playbacks in oracle_playbacks.items():
        for ep, log, _ in playbacks:
            steps = np.array([rec["step"] for rec in log.records])
            frames = fk_batch(MODEL, np.array([rec["q"] for rec in log.records]))
            sep = separation_batch(MODEL, collision_sphere_centers(MODEL, frames)[:, :, None],
                                   *arm_capsules(ep.frames[steps + 1]))[0]
            worst[task] = min(worst.get(task, np.inf), float(sep.min()))
    assert all(sep >= 0.0 for sep in worst.values()), worst
