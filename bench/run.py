"""Control-tick latency and training-throughput benchmark for costcast.

    python3 bench/run.py --workload playback-stir --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--workload all`` runs every workload, each in its own process.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md for what
each workload and metric is.
"""

import os

# One process per workload with one BLAS thread keeps a small shared box
# steady; the variables must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from timing import (
    REF_PROBE_S,
    BatchClock,
    Probe,
    TickClock,
    percentile,
    repeat_rounds,
    timed_at_reference_speed,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# workload -> (task, episode length in s, interactions, forecasters per round)
PLAYBACK = {
    "playback-stir": ("stir", 6.0, 1, ("fut", "cur")),
    "playback-handover": ("handover", 8.0, 1, ("fut", "cur")),
    "playback-tableset": ("tableset", 10.5, 1, ("cvm",)),
}
WORKLOADS = (*PLAYBACK, "train-eval")
SETUP_REPEATS = 3

TRAIN_EVAL_COUNTS = {"stir": 20, "handover": 20, "tableset": 20}
TRAIN_EVAL_EPISODE_S = 12.0
TRAIN_EVAL_INTERACTIONS = 2
TRAIN_EVAL_EPOCHS = 2
TRAIN_EVAL_PRESET = "manicast"
TRAIN_EVAL_MODELS = ("cur", "cvm", "manicast")

END_TO_END = {
    "setup_s": "s",
    "tick_ms_p50": "ms",
    "tick_ms_p90": "ms",
    "windows_per_s": "windows/s",
    "peak_rss_mb": "MB",
}

# name -> unit; per_layer_metrics() says how each is computed from the spans
PER_LAYER = {
    "planner.plan_step.ms": "ms/call",
    "planner.plan_step.self_ms": "ms/call",
    "planner.mppi_update.ms": "ms/call",
    "planner.rollout.ms": "ms/call",
    "planner.run_episode.self_ms_per_tick": "ms/tick",
    "planner.build_task_spec.s": "s/call",
    "robot.fk_batch.calls_per_tick": "calls/tick",
    "robot.fk_batch.configs_per_tick": "configs/tick",
    "robot.fk_batch.ms_per_tick": "ms/tick",
    "robot.rollout_arrays.ms": "ms/call",
    "robot.manipulability_batch.ms": "ms/call",
    "robot.collision_sphere_centers.ms": "ms/call",
    "robot.separation_batch.ms": "ms/call",
    "robot.step.calls_per_tick": "calls/tick",
    "cost.total_cost_batch.ms": "ms/call",
    "cost.base_terms_batch.ms": "ms/call",
    "cost.collision_terms_batch.ms": "ms/call",
    "cost.collision_terms_batch.calls_per_tick": "calls/tick",
    "cost.stir_terms_batch.ms": "ms/call",
    "cost.handover_terms_batch.ms": "ms/call",
    "cost.grasp_pose.calls_per_tick": "calls/tick",
    "cost.tableset_terms_batch.ms": "ms/call",
    "forecast.batch_loss_and_grad.ms": "ms/call",
    "forecast.WindowSet.gather.ms": "ms/call",
    "forecast.WindowSet.init.ms": "ms/call",
    "forecast.sample_batch.ms": "ms/call",
    "forecast.val_loss.ms": "ms/call",
    "forecast.forecaster.calls_per_eval_window": "calls/window",
    "forecast.forecaster.ms_per_tick": "ms/tick",
    "metrics.evaluate_forecaster.ms": "ms/call",
    "motion.load_episode.ms": "ms/call",
    "motion.save_episode.ms": "ms/call",
    "datagen.episode.ms": "ms/call",
    "cli.gen.self_s": "s/call",
    "cli.train.self_s": "s/call",
    "cli.eval_forecast.self_s": "s/call",
    "trace.overhead_pct": "%",
}


def summarise(setup_times, step_times, windows_per_s: float) -> dict:
    """The end-to-end metrics, less peak memory, from one run's samples."""
    return {
        "setup_s": statistics.median(setup_times),
        "tick_ms_p50": 1e3 * statistics.median(step_times),
        "tick_ms_p90": 1e3 * percentile(step_times, 90),
        "windows_per_s": windows_per_s,
    }


# --- playback workloads ----------------------------------------------------

def run_playback(workload: str, seed: int, seconds: float, tracer) -> dict:
    """Generate one episode, then play it back against the planner with each
    of the workload's forecasters, in whole rounds."""
    from costcast import datagen, forecast, planner
    from costcast.cost import CostWeights
    from costcast.robot import ArmModel

    import checks

    task, episode_s, interactions, names = PLAYBACK[workload]
    arm, weights, cfg = ArmModel(), CostWeights(), planner.MppiConfig(seed=seed)
    gen_cfg = datagen.GenConfig(seed=seed, episode_len_s=episode_s, n_interactions=interactions)
    probe = Probe()

    def setup():
        episode = datagen.GENERATORS[task](gen_cfg)
        return episode, planner.build_task_spec(episode, arm, dt=cfg.dt)

    with tracer.patched() if tracer else contextlib.nullcontext():
        setups = [timed_at_reference_speed(setup, probe)
                  for _ in range(1 if tracer else SETUP_REPEATS)]
    episode, spec = setups[-1][0]

    def play_round(traced=False):
        logs, clocks = {}, []
        for name in names:
            fc = forecast.make_forecaster(name)
            if traced:  # the probe gets a span so no layer's self time includes it
                clock = TickClock(tracer.wrap(fc, "forecast.forecaster"),
                                  tracer.wrap(probe, "bench.probe"))
            else:
                clock = TickClock(fc, probe)
            logs[name] = planner.run_episode(episode, clock, spec, weights, cfg,
                                             model=arm, model_name=name)
            clock.stop()
            clocks.append(clock)
        return logs, clocks

    rounds = repeat_rounds(play_round, seconds / 2 if tracer else seconds)
    traced_rounds = []
    if tracer:
        with tracer.patched():
            traced_rounds = repeat_rounds(lambda: play_round(traced=True), seconds / 2)

    first_logs = rounds[0][0]
    problems = checks.check_playback(episode, spec.rest_config, first_logs, arm, cfg.dt)
    if task == "stir":
        problems += checks.check_stir(episode, first_logs, weights.eps_pot, cfg.dt)
    if task == "handover":
        problems += checks.check_handover(episode, first_logs)
    for logs, _clocks in rounds[1:] + traced_rounds:
        if any(logs[n].records != first_logs[n].records for n in names):
            problems.append("determinism: a repeated round logged different records")
            break

    ticks = [t for _logs, clocks in rounds for c in clocks for t in c.scaled()]
    wall = [t for _logs, clocks in rounds for c in clocks for t in c.ticks]
    result = {
        "problems": problems,
        "attempted": sum(len(c.ticks) for _l, clocks in rounds + traced_rounds for c in clocks),
        "metrics": summarise([s for _r, _w, s in setups], ticks, len(ticks) / sum(ticks)),
        "wall": summarise([w for _r, w, _s in setups], wall, len(wall) / sum(wall)),
    }
    if tracer:
        def work(rs):  # scaled tick time per round
            return [sum(t for c in clocks for t in c.scaled()) for _l, clocks in rs]

        n_ticks = sum(len(c.ticks) for _l, clocks in traced_rounds for c in clocks)
        result["per_layer"] = per_layer_metrics(tracer, ticks=n_ticks, eval_windows=0,
                                                untraced=work(rounds), traced=work(traced_rounds))
    return result


# --- train-eval workload ---------------------------------------------------

def run_train_eval(seed: int, seconds: float, tracer, work_dir: Path) -> dict:
    """Run ``gen`` as set-up, then ``train`` and ``eval-forecast`` in whole
    rounds, all through the CLI's ``main`` in this process."""
    from costcast import cli, forecast

    import checks

    config = {
        "seed": seed,
        "out_root": str(work_dir / "runs"),
        "counts": TRAIN_EVAL_COUNTS,
        "gen": {"episode_len_s": TRAIN_EVAL_EPISODE_S, "n_interactions": TRAIN_EVAL_INTERACTIONS},
        "train": {"epochs": TRAIN_EVAL_EPOCHS},
        "preset": TRAIN_EVAL_PRESET,
        "models": list(TRAIN_EVAL_MODELS),
    }
    config_path = work_dir / "run.json"
    config_path.write_text(json.dumps(config))
    run_config = cli.RunConfig.load(config_path)
    run_dir = run_config.run_dir()
    tconf = forecast.preset_config(TRAIN_EVAL_PRESET, run_config.train)
    probe = Probe()

    def command(name: str) -> float:
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([name, "--config", str(config_path)])
        elapsed = perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"costcast {name} exited with {rc}")
        return elapsed

    with tracer.patched() if tracer else contextlib.nullcontext():
        setups = [timed_at_reference_speed(lambda: command("gen"), probe)
                  for _ in range(1 if tracer else SETUP_REPEATS)]

    def train_eval_round(traced=False):
        clock = BatchClock(forecast, tracer.wrap(probe, "bench.probe") if traced else probe)
        with clock.timing():
            t_train = command("train") - sum(clock.probe_times)
        t_eval = command("eval-forecast")
        report = json.loads((run_dir / "forecast_report.json").read_text())["forecasting"]
        eval_windows = sum(row["n_windows"] for row in report.values())
        wall = t_train + t_eval
        return {"clock": clock, "eval_windows": eval_windows, "wall": wall,
                "windows": clock.calls * tconf.batch_size + eval_windows,
                # the probes taken between training steps set the round's speed
                "scaled": wall * REF_PROBE_S / statistics.median(clock.probe_times)}

    rounds = repeat_rounds(train_eval_round, seconds / 2 if tracer else seconds)
    traced_rounds = []
    if tracer:
        with tracer.patched():
            traced_rounds = repeat_rounds(lambda: train_eval_round(traced=True), seconds / 2)

    problems = checks.check_train_eval(
        run_dir, seed, TRAIN_EVAL_PRESET, tconf.wrist_weight, TRAIN_EVAL_MODELS,
        tconf.batch_size, tconf.epochs, [r["clock"].calls for r in rounds + traced_rounds])

    steps = [s for r in rounds for s in r["clock"].scaled()]
    wall = [s for r in rounds for s in r["clock"].steps]
    result = {
        "problems": problems,
        "attempted": sum(r["clock"].calls + r["eval_windows"] for r in rounds + traced_rounds),
        "metrics": summarise([s for _r, _w, s in setups], steps,
                             statistics.median(r["windows"] / r["scaled"] for r in rounds)),
        "wall": summarise([w for _r, w, _s in setups], wall,
                          statistics.median(r["windows"] / r["wall"] for r in rounds)),
    }
    if tracer:
        result["per_layer"] = per_layer_metrics(
            tracer, ticks=0, eval_windows=sum(r["eval_windows"] for r in traced_rounds),
            untraced=[r["scaled"] for r in rounds], traced=[r["scaled"] for r in traced_rounds])
    return result


# --- per-layer metrics from the traced spans --------------------------------

def per_layer_metrics(tracer, ticks: int, eval_windows: int, untraced, traced) -> dict:
    """Every per-layer metric; a call the workload never makes reads 0."""
    from spans import SpanStats

    everywhere = SpanStats(tracer.spans)
    tick = SpanStats(tracer.spans, within="planner.run_episode")
    def per(value, units):
        return value / units if units else 0.0

    values = {
        "planner.plan_step.ms": tick.per_call_ms("planner.plan_step"),
        "planner.plan_step.self_ms": tick.self_per_call_ms("planner.plan_step"),
        "planner.run_episode.self_ms_per_tick":
            per(1e3 * tick.self_total.get("planner.run_episode", 0.0), ticks),
        "planner.build_task_spec.s": everywhere.per_call_ms("planner.build_task_spec") / 1e3,
        "robot.fk_batch.calls_per_tick": per(tick.calls.get("robot.fk_batch", 0), ticks),
        "robot.fk_batch.configs_per_tick": per(tick.size.get("robot.fk_batch", 0), ticks),
        "robot.fk_batch.ms_per_tick": per(1e3 * tick.total.get("robot.fk_batch", 0.0), ticks),
        "robot.step.calls_per_tick": per(tick.calls.get("robot.step", 0), ticks),
        "cost.collision_terms_batch.calls_per_tick":
            per(tick.calls.get("cost.collision_terms_batch", 0), ticks),
        "cost.grasp_pose.calls_per_tick": per(tick.calls.get("cost.grasp_pose", 0), ticks),
        "forecast.forecaster.calls_per_eval_window":
            per(everywhere.calls.get("forecast.forecaster", 0), eval_windows),
        "forecast.forecaster.ms_per_tick":
            per(1e3 * tick.total.get("forecast.forecaster", 0.0), ticks),
        "cli.gen.self_s": everywhere.self_per_call_ms("cli.gen") / 1e3,
        "cli.train.self_s": everywhere.self_per_call_ms("cli.train") / 1e3,
        "cli.eval_forecast.self_s": everywhere.self_per_call_ms("cli.eval_forecast") / 1e3,
        "trace.overhead_pct":
            100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0),
    }
    for name in PER_LAYER:
        if name not in values:
            # "<layer>.<call>.ms": mean milliseconds per call
            values[name] = (tick if name.split(".")[0] in ("planner", "robot", "cost")
                            else everywhere).per_call_ms(name[:-len(".ms")])
    return values


# --- entry point -----------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "costcast" / "__init__.py").is_file():
        print(f"bench: no costcast sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(BENCH)]
    import costcast

    if Path(costcast.__file__).resolve().parent != SRC / "costcast":
        print(f"bench: imported costcast from {costcast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "train-eval":
            result = run_train_eval(args.seed, args.seconds, tracer, work_dir)
        else:
            result = run_playback(args.workload, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if tracer:
        tracer.write(OUT / f"trace-{args.workload}.json")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    wall = {} if tracer else result["wall"]
    for name, m in metrics.items():
        note = f"  (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}{note}")
    for problem in result["problems"]:
        print(f"{args.workload}  CHECK FAILED  {problem}")
    print(f"{args.workload}  attempted = {result['attempted']}  failed = 0  "
          f"correct = {not result['problems']}")
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
