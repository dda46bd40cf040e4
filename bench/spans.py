"""Span tracing from outside the program, for the benchmark's traced run.

Each traced call is wrapped at the module attribute (or dict entry, or class
attribute) that its caller looks up, so a name that a module imported by
value is wrapped in every module that binds it.  Spans stay in memory as
``[name, start, end, parent, size]`` lists and are written out once, when the
run ends.  Nothing here is active in the untraced run.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from time import perf_counter

from costcast import cli, cost, datagen, forecast, metrics, motion, planner, robot


def _configs(args, kwargs):
    """Number of joint configurations in an ``fk_batch(model, Q)`` call."""
    q = args[1] if len(args) > 1 else kwargs["Q"]
    return math.prod(getattr(q, "shape", (len(q),))[:-1])


# (owner, attribute, span name, size function or None).  An owner is a
# module, a class or a dict; every binding of one function gets the same
# span name, so calls are counted once whichever binding the caller used.
TARGETS = [
    (planner, "run_episode", "planner.run_episode", None),
    (planner, "plan_step", "planner.plan_step", None),
    (planner, "mppi_update", "planner.mppi_update", None),
    (planner, "rollout", "planner.rollout", None),
    (planner, "build_task_spec", "planner.build_task_spec", None),
    (cli, "run_episode", "planner.run_episode", None),
    (cli, "build_task_spec", "planner.build_task_spec", None),
    (robot, "fk_batch", "robot.fk_batch", _configs),
    (cost, "fk_batch", "robot.fk_batch", _configs),
    (planner, "fk_batch", "robot.fk_batch", _configs),
    (robot, "rollout_arrays", "robot.rollout_arrays", None),
    (planner, "rollout_arrays", "robot.rollout_arrays", None),
    (robot, "manipulability_batch", "robot.manipulability_batch", None),
    (cost, "manipulability_batch", "robot.manipulability_batch", None),
    (robot, "collision_sphere_centers", "robot.collision_sphere_centers", None),
    (cost, "collision_sphere_centers", "robot.collision_sphere_centers", None),
    (robot, "separation_batch", "robot.separation_batch", None),
    (cost, "separation_batch", "robot.separation_batch", None),
    (robot, "step", "robot.step", None),
    (planner, "step", "robot.step", None),
    (cost, "total_cost_batch", "cost.total_cost_batch", None),
    (planner, "total_cost_batch", "cost.total_cost_batch", None),
    (cost, "base_terms_batch", "cost.base_terms_batch", None),
    (cost, "collision_terms_batch", "cost.collision_terms_batch", None),
    (cost, "stir_terms_batch", "cost.stir_terms_batch", None),
    (cost, "handover_terms_batch", "cost.handover_terms_batch", None),
    (cost, "tableset_terms_batch", "cost.tableset_terms_batch", None),
    (cost.TASK_TERMS, "stir", "cost.stir_terms_batch", None),
    (cost.TASK_TERMS, "handover", "cost.handover_terms_batch", None),
    (cost.TASK_TERMS, "tableset", "cost.tableset_terms_batch", None),
    (cost, "grasp_pose", "cost.grasp_pose", None),
    (forecast, "_batch_loss_and_grad", "forecast.batch_loss_and_grad", None),
    (forecast.WindowSet, "gather", "forecast.WindowSet.gather", None),
    (forecast.WindowSet, "__init__", "forecast.WindowSet.init", None),
    (forecast, "sample_batch", "forecast.sample_batch", None),
    (forecast, "_val_loss", "forecast.val_loss", None),
    (metrics, "evaluate_forecaster", "metrics.evaluate_forecaster", None),
    (motion, "load_episode", "motion.load_episode", None),
    (cli, "load_episode", "motion.load_episode", None),
    (motion, "save_episode", "motion.save_episode", None),
    (cli, "save_episode", "motion.save_episode", None),
    (datagen.GENERATORS, "stir", "datagen.episode", None),
    (datagen.GENERATORS, "handover", "datagen.episode", None),
    (datagen.GENERATORS, "tableset", "datagen.episode", None),
    (cli, "cmd_gen", "cli.gen", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "cmd_eval_forecast", "cli.eval_forecast", None),
]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, size]
        self._stack = []

    def wrap(self, fn, name: str, size=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    size(args, kwargs) if size else 1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, size in TARGETS:
                original = _get(owner, attr)
                saved.append((owner, attr, original))
                _set(owner, attr, self.wrap(original, name, size))
            # The CLI builds its forecasters through its own binding of
            # make_forecaster; wrap what it returns to count calls per window.
            make = cli.make_forecaster
            saved.append((cli, "make_forecaster", make))
            cli.make_forecaster = lambda m: self.wrap(make(m), "forecast.forecaster")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                _set(owner, attr, original)

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {"names": names, "fields": ["name", "start", "end", "parent", "size"],
               "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


class SpanStats:
    """Per-name aggregates over a span list, optionally restricted to the
    spans nested inside spans of a given name (for example, the ticks of
    ``planner.run_episode`` rather than the set-up that precedes them)."""

    def __init__(self, spans, within: str | None = None):
        n = len(spans)
        inside = [within is None] * n
        child_time = [0.0] * n
        for i, (name, start, end, parent, _size) in enumerate(spans):
            if within is not None:
                inside[i] = name == within or (parent >= 0 and inside[parent])
            if parent >= 0:
                # children of one parent run one after another, so their
                # durations add up to the time they cover
                child_time[parent] += end - start
        self.calls, self.total, self.self_total, self.size = {}, {}, {}, {}
        for i, (name, start, end, _parent, size) in enumerate(spans):
            if not inside[i]:
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.self_total[name] = self.self_total.get(name, 0.0) + (end - start - child_time[i])
            self.size[name] = self.size.get(name, 0) + size

    def per_call_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.total[name] / calls if calls else 0.0

    def self_per_call_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.self_total[name] / calls if calls else 0.0
