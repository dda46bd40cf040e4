"""Clocks for the benchmark's timed loops, and the speed probe that puts
their times on a common footing.

The benchmark's reference box is a shared two-vCPU VM whose cores slow down
by up to half again for stretches of seconds to minutes, when neighbours
load the host.  Longer runs do not average that out.  So every timed step is
paired with a run of a fixed piece of reference work (the probe) right
before it, and each step's wall time is rescaled by how slowly the probe ran
around it: ``step * REF_PROBE_S / median(nearby probe times)``.  Reported
times are therefore what the step takes when the probe runs at its idle
speed.  The probe never runs inside a timed interval.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# The probe's time on an idle core of the reference box (2 vCPU Xeon VM,
# Python 3.11, numpy 2.4, one BLAS thread).  It only sets the scale.
REF_PROBE_S = 1.25e-3
# Probes on each side of a step that set its local speed.
PROBE_WINDOW = 2
# Probes run before and after each timed set-up.
SETUP_PROBES = 5


class Probe:
    """Fixed reference work that mixes interpreter loops, small elementwise
    numpy calls and an einsum on planner-sized arrays, like the program does."""

    def __init__(self):
        self._x = np.random.default_rng(0).normal(size=(64, 25, 7))

    def __call__(self) -> float:
        """Run the reference work once; return its wall time in seconds."""
        t0 = perf_counter()
        total = 0.0
        for i in range(300):
            total += i * 0.5
        y = self._x
        for _ in range(6):
            y = np.sin(y) + np.clip(y, -1.0, 1.0) * 0.5
            np.linalg.norm(y, axis=-1)
            np.einsum("nhj,nhk->jk", y, y)
        return perf_counter() - t0


def at_reference_speed(times, probe_times) -> list:
    """Rescale ``times[i]`` by the median probe time around ``probe_times[i]``,
    the probe run just before step i."""
    out = []
    for i, t in enumerate(times):
        nearby = probe_times[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        out.append(t * REF_PROBE_S / statistics.median(nearby))
    return out


def timed_at_reference_speed(fn, probe: Probe):
    """Call ``fn()`` between two sets of probes.  Returns its result, its wall
    time and its time at the reference speed."""
    probes = [probe() for _ in range(SETUP_PROBES)]
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    probes += [probe() for _ in range(SETUP_PROBES)]
    return result, wall, wall * REF_PROBE_S / statistics.median(probes)


def repeat_rounds(run_round, seconds: float) -> list:
    """Run whole rounds, at least one, until the measured wall time is the
    nearest whole number of rounds to ``seconds``.  Returns each round's
    result."""
    out, elapsed = [], 0.0
    while True:
        t0 = perf_counter()
        out.append(run_round())
        d = perf_counter() - t0
        elapsed += d
        if elapsed + d / 2 >= seconds:
            return out


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class TickClock:
    """Forecaster wrapper that times control ticks.

    A tick runs from one call of the forecaster to the next; the last tick
    ends when ``stop`` is called, right after ``run_episode`` returns.  The
    probe runs between ticks.
    """

    def __init__(self, forecaster, probe: Probe):
        self.forecaster, self.probe = forecaster, probe
        self.ticks, self.probe_times = [], []
        self._start = None

    def __call__(self, ctx, fut=None):
        now = perf_counter()
        if self._start is not None:
            self.ticks.append(now - self._start)
        self.probe_times.append(self.probe())
        self._start = perf_counter()
        return self.forecaster(ctx, fut)

    def stop(self) -> None:
        self.ticks.append(perf_counter() - self._start)

    def scaled(self) -> list:
        return at_reference_speed(self.ticks, self.probe_times)


class BatchClock:
    """Times training steps as the interval between successive calls of
    ``forecast.sample_batch``, which ``forecast.train`` calls once per batch.

    The probe runs between steps.  The interval after the last batch of a
    ``train`` command is not a whole step and is dropped.
    """

    def __init__(self, forecast_module, probe: Probe):
        self.module, self.probe = forecast_module, probe
        self.steps, self.probe_times = [], []
        self.calls = 0

    @contextmanager
    def timing(self):
        original = self.module.sample_batch
        start = None

        def timed(*args, **kwargs):
            nonlocal start
            now = perf_counter()
            if start is not None:
                self.steps.append(now - start)
            self.calls += 1
            self.probe_times.append(self.probe())
            start = perf_counter()
            return original(*args, **kwargs)

        self.module.sample_batch = timed
        try:
            yield self
        finally:
            self.module.sample_batch = original

    def scaled(self) -> list:
        return at_reference_speed(self.steps, self.probe_times)
