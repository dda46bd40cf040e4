"""Command-line entry point wiring generation, training, simulation,
evaluation and the loss-bound verifier into reproducible runs.

Every command is driven by a single JSON run config (plus a few flag
overrides); outputs land in a run directory named by the config hash.
Exit codes: 0 success, 2 usage/config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import orjson

from . import datagen, forecast, metrics
from .cost import CostWeights
from .forecast import TrainConfig, WindowSet, make_forecaster
from .motion import MotionError, load_episode, read_json, save_episode, write_json
from .planner import MppiConfig, SimLog, build_task_spec, run_episode
from .robot import ArmModel

DEFAULT_COUNTS = {"stir": 19, "handover": 27, "tableset": 15}
SPLIT_PARTS = ("train", "val", "test")
# Run files hold integers of at most 64 bits, and the manifest stores each
# episode's seed, gen.seed * 10**6 plus an offset below 10**6.
MAX_SEED = 2**64 // 10**6 - 1


class ConfigError(ValueError):
    pass


def _sub(doc: dict, key: str) -> dict:
    val = doc.get(key, {})
    if not isinstance(val, dict):
        raise ConfigError(f"config section {key!r} must be an object")
    return val


def _non_negative_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _check_model_name(name: str) -> None:
    """A model name is a baseline's or a training preset's, letter for letter."""
    if name not in forecast.BASELINES and name not in forecast.PRESETS:
        raise ConfigError(f"unknown model {name!r}")


def _seed(value, name: str) -> int:
    if _non_negative_int(value, name) > MAX_SEED:
        raise ConfigError(f"{name} must be at most {MAX_SEED}, got {value}")
    return value


@dataclasses.dataclass
class RunConfig:
    seed: int = 0
    out_root: str = "runs"
    counts: dict = dataclasses.field(default_factory=lambda: dict(DEFAULT_COUNTS))
    gen: datagen.GenConfig = dataclasses.field(default_factory=datagen.GenConfig)
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    mppi: MppiConfig = dataclasses.field(default_factory=MppiConfig)
    weights: CostWeights = dataclasses.field(default_factory=CostWeights)
    preset: str = "manicast"
    models: tuple = ("cur", "cvm")

    @classmethod
    def load(cls, path=None, overrides=None) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text()) if path else {}
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("the run config must be a JSON object")
        overrides = overrides or {}
        seed = _seed(overrides.get("seed", doc.get("seed", 0)), "seed")
        gen_kwargs = _sub(doc, "gen")
        gen_kwargs.setdefault("seed", seed)
        train_kwargs = _sub(doc, "train")
        if {"transition_mix", "wrist_weight"} & train_kwargs.keys():
            raise ConfigError("train.transition_mix and train.wrist_weight are set by the "
                              f"preset; choose one of {sorted(forecast.PRESETS)}")
        train_kwargs.setdefault("seed", seed)
        mppi_kwargs = _sub(doc, "mppi")
        if "dt" in mppi_kwargs:
            raise ConfigError("mppi.dt is the episode frame period 1/gen.fps; set gen.fps")
        mppi_kwargs.setdefault("seed", seed)
        models = doc.get("models", ["cur", "cvm"])
        if not isinstance(models, list) or not all(isinstance(m, str) for m in models):
            raise ConfigError(f"models must be a list of model names, got {models!r}")
        try:
            gen = datagen.GenConfig(**gen_kwargs)
            cfg = cls(
                seed=seed,
                out_root=str(overrides.get("out", doc.get("out_root", "runs"))),
                counts={**DEFAULT_COUNTS, **_sub(doc, "counts")},
                gen=gen,
                train=TrainConfig(**train_kwargs),
                mppi=MppiConfig(**mppi_kwargs, dt=1.0 / gen.fps),
                weights=CostWeights(**_sub(doc, "weights")),
                preset=str(overrides.get("preset", doc.get("preset", "manicast"))),
                models=tuple(models),
            )
        except (TypeError, MotionError) as exc:
            raise ConfigError(str(exc)) from exc
        bad = set(cfg.counts) - set(datagen.GENERATORS)
        if bad:
            raise ConfigError(f"unknown task name(s) in counts: {sorted(bad)}")
        for task, count in cfg.counts.items():
            _non_negative_int(count, f"counts.{task}")
        if cfg.counts.get("tableset", 0) > 0:
            try:
                datagen.tableset_tour(cfg.gen)
            except MotionError as exc:
                raise ConfigError(f"gen: {exc}") from exc
        for section in ("gen", "train", "mppi"):
            _seed(getattr(cfg, section).seed, f"{section}.seed")
        for name in cfg.models:
            _check_model_name(name)
        if cfg.preset not in forecast.PRESETS:
            raise ConfigError(f"unknown preset {cfg.preset!r}")
        return cfg

    def canonical(self) -> str:
        doc = dataclasses.asdict(self)
        del doc["out_root"]   # where the runs go, not what they hold
        return json.dumps(doc, sort_keys=True)

    def run_dir(self) -> Path:
        digest = hashlib.sha256(self.canonical().encode()).hexdigest()[:12]
        d = Path(self.out_root) / digest
        try:
            d.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigError(f"out_root {self.out_root} must be a directory: {exc}") from exc
        return d


def _episode_seed(gen_seed: int, task: str, index: int) -> int:
    offsets = {"stir": 0, "handover": 100000, "tableset": 200000}
    return gen_seed * 1000000 + offsets[task] + index


def cmd_gen(cfg: RunConfig) -> int:
    """Generate the episode dataset and a manifest."""
    run_dir = cfg.run_dir()
    data_dir = run_dir / "data"
    data_dir.mkdir(exist_ok=True)
    manifest = []
    for task, count in sorted(cfg.counts.items()):
        for i in range(count):
            seed = _episode_seed(cfg.gen.seed, task, i)
            ep = datagen.GENERATORS[task](dataclasses.replace(cfg.gen, seed=seed))
            name = f"{task}_{i:03d}.json"
            save_episode(ep, data_dir / name)
            manifest.append({"file": f"data/{name}", "task": task, "seed": seed})
    write_json(run_dir / "manifest.json", manifest, option=orjson.OPT_INDENT_2)
    print(f"wrote {len(manifest)} episodes to {data_dir}")
    return 0


def _split_episodes(cfg: RunConfig, parts) -> dict:
    """The episodes of the named parts of the per-task 8:1:1 split.

    ``datagen.split_dataset`` splits the manifest entries of each task, so
    only the files of the requested parts ("train", "val", "test") are read.
    Returns ``{part: {task: [episodes]}}`` with tasks in sorted order.
    """
    for task, count in sorted(cfg.counts.items()):
        if 0 < count < datagen.MIN_SPLIT_EPISODES:
            raise ConfigError(f"counts.{task} is {count}; a task that is split 8:1:1 "
                              f"needs 0 or at least {datagen.MIN_SPLIT_EPISODES} episodes")
    run_dir = cfg.run_dir()
    path = run_dir / "manifest.json"
    if not path.exists():
        raise MotionError(f"no manifest at {path}; run `gen` first")
    files = {}
    try:
        for entry in read_json(path, "manifest"):
            files.setdefault(entry["task"], []).append(run_dir / entry["file"])
    except (KeyError, TypeError) as exc:
        raise MotionError(f"manifest file {path} needs a list of task/file entries: "
                          f"{exc!r}") from exc
    episodes = {part: {} for part in parts}
    for task in sorted(files):
        split = dict(zip(SPLIT_PARTS, datagen.split_dataset(files[task], cfg.seed)))
        for part in parts:
            episodes[part][task] = [load_episode(f) for f in split[part]]
    return episodes


def cmd_train(cfg: RunConfig) -> int:
    """Train the configured preset and write a checkpoint plus loss history."""
    split = _split_episodes(cfg, ("train", "val"))
    run_dir = cfg.run_dir()
    train_ws = WindowSet([ep for eps in split["train"].values() for ep in eps])
    val_ws = WindowSet([ep for eps in split["val"].values() for ep in eps])
    tconf = forecast.preset_config(cfg.preset, cfg.train)
    model, history = forecast.train(train_ws, val_ws, tconf)
    ckpt = run_dir / f"checkpoint_{cfg.preset}.json"
    forecast.save_checkpoint(model, ckpt, preset=cfg.preset, seed=tconf.seed)
    with open(run_dir / f"history_{cfg.preset}.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["epoch", "train_loss", "val_loss"])
        writer.writeheader()
        writer.writerows(history)
    print(f"trained preset {cfg.preset!r}; checkpoint at {ckpt}")
    return 0


def _forecaster_for(name: str, run_dir: Path):
    if name in forecast.BASELINES:
        return make_forecaster(name)
    ckpt = run_dir / f"checkpoint_{name}.json"
    if not ckpt.exists():
        raise MotionError(f"no checkpoint for model {name!r} at {ckpt}")
    return make_forecaster(forecast.load_checkpoint(ckpt))


def cmd_eval_forecast(cfg: RunConfig) -> int:
    """Forecasting metrics for the configured models on the test split."""
    test = _split_episodes(cfg, ("test",))["test"]
    run_dir = cfg.run_dir()
    windows = {task: WindowSet(eps) for task, eps in sorted(test.items())}
    # every model but the oracle, which would score itself
    forecasters = {name: _forecaster_for(name, run_dir) for name in cfg.models if name != "fut"}
    report = metrics.MetricReport()
    if forecasters:  # a config may list no model but the oracle
        for task, ws in windows.items():
            for name, scores in metrics.evaluate_forecaster(ws, forecasters).items():
                report.forecasting[f"{name}/{task}"] = scores
    out = run_dir / "forecast_report.json"
    report.to_json(out)
    print(f"wrote {out}")
    return 0


def cmd_simulate(cfg: RunConfig, episode_path: str, model_name: str, out_path: str) -> int:
    """Play back one episode against the planner with the named forecaster."""
    _check_model_name(model_name)
    if Path(out_path).is_dir():
        raise MotionError(f"the sim log {out_path} is a directory")
    if not Path(out_path).parent.is_dir():
        raise MotionError(f"no directory for the sim log {out_path}")
    episode = load_episode(episode_path)
    arm = ArmModel()
    spec = build_task_spec(episode, arm)
    fc = _forecaster_for(model_name, cfg.run_dir())
    log = run_episode(episode, fc, spec, cfg.weights, cfg.mppi, model=arm,
                      model_name=model_name)
    log.to_jsonl(out_path)
    print(f"wrote {out_path}")
    return 0


def cmd_eval_plan(cfg: RunConfig) -> int:
    """Planning metrics via playback of the test split for each model."""
    test = _split_episodes(cfg, ("test",))["test"]
    run_dir = cfg.run_dir()
    arm = ArmModel()
    report_path = run_dir / "plan_report.json"
    report = metrics.MetricReport()
    for task in ("stir", "handover"):
        eps = test.get(task, [])
        if not eps:
            continue
        spec_cache = [build_task_spec(ep, arm) for ep in eps]
        logs = {}
        names = list(dict.fromkeys(["cur", *cfg.models]))
        for name in names:
            fc = _forecaster_for(name, run_dir)
            logs[name] = [run_episode(ep, fc, spec, cfg.weights, cfg.mppi, model=arm,
                                      model_name=name)
                          for ep, spec in zip(eps, spec_cache)]
        for name in names:
            if task == "stir":
                report.planning[f"{name}/stir"] = metrics.stop_restart_times(
                    logs[name], logs["cur"])
            else:
                report.planning[f"{name}/handover"] = metrics.handover_metrics(
                    logs[name], logs["cur"], eps)
    report.to_json(report_path)
    print(f"wrote {report_path}")
    return 0


def cmd_lemma(n_instances: int, seed: int) -> int:
    """Verify the loss bounds on the fixed instance plus random sweeps."""
    fixed = metrics.lemma1_check(metrics.worked_toycmdp())
    print("fixed instance:", json.dumps({k: fixed[k] for k in
                                         ("eps_P", "eps_Q", "ell_theta",
                                          "bound_P", "bound_Q", "holds_P", "holds_Q")}))
    failures = 0 if (fixed["holds_P"] and fixed["holds_Q"]) else 1
    rng = np.random.default_rng(seed)
    passed = 0
    for _ in range(n_instances):
        rep = metrics.lemma1_check(metrics.random_toycmdp(rng))
        if rep["holds_P"] and rep["holds_Q"]:
            passed += 1
        else:
            failures += 1
    print(f"random sweep: {passed}/{n_instances} passed")
    if failures:
        print(f"{failures} bound violations")
        return 3
    return 0


def cmd_report(cfg: RunConfig, log_paths) -> int:
    """Merge available reports and dump per-timestep CSVs from sim logs."""
    run_dir = cfg.run_dir()
    merged = metrics.MetricReport()
    for name, attr in (("forecast_report.json", "forecasting"),
                       ("plan_report.json", "planning")):
        path = run_dir / name
        if path.exists():
            part = metrics.MetricReport.from_json(path)
            getattr(merged, attr).update(getattr(part, attr))
    merged.to_json(run_dir / "report.json")
    for lp in log_paths:
        log = SimLog.from_jsonl(lp)
        out = Path(lp).with_suffix(".csv")
        with open(out, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["frame", "wrist_error_mm", "branch_active", "min_sep_m"])
            for rec in log.records:
                werr = ""
                if {"forecast_final_wrist", "gt_final_wrist"} <= rec.keys():
                    werr = 1000.0 * float(np.linalg.norm(
                        np.asarray(rec["forecast_final_wrist"])
                        - np.asarray(rec["gt_final_wrist"])))
                writer.writerow([rec["step"], werr, rec.get("branch_active", ""),
                                 rec["min_sep"]])
        print(f"wrote {out}")
    print(f"wrote {run_dir / 'report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="costcast")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="run-config JSON file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--preset", default=None)
        sp.add_argument("--out", default=None, help="output root directory")

    common(sub.add_parser("gen", help="generate the episode dataset"))
    common(sub.add_parser("train", help="train a forecaster preset"))
    common(sub.add_parser("eval-forecast", help="forecasting metrics on the test split"))
    sp = sub.add_parser("simulate", help="play back one episode against the planner")
    common(sp)
    sp.add_argument("--episode", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--log-out", required=True)
    common(sub.add_parser("eval-plan", help="planning metrics via playback"))
    sp = sub.add_parser("lemma-check", help="verify the loss bounds")
    sp.add_argument("--n-instances", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp = sub.add_parser("report", help="merge reports and dump per-timestep CSVs")
    common(sp)
    sp.add_argument("logs", nargs="*", help="sim-log JSONL files to convert to CSV")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "lemma-check":
            return cmd_lemma(_non_negative_int(args.n_instances, "--n-instances"),
                             _non_negative_int(args.seed, "--seed"))
        overrides = {k: v for k, v in (("seed", args.seed), ("preset", args.preset),
                                       ("out", args.out)) if v is not None}
        cfg = RunConfig.load(args.config, overrides)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval-forecast":
            return cmd_eval_forecast(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.episode, args.model, args.log_out)
        if args.command == "eval-plan":
            return cmd_eval_plan(cfg)
        if args.command == "report":
            return cmd_report(cfg, args.logs)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MotionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
