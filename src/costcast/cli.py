"""Command-line entry point wiring generation, training, evaluation,
reporting and the loss-bound verifier into reproducible runs.

Every command is driven by a single JSON run config; outputs land in a run
directory named by the config hash.
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
# What a run config sets: a value, or a section and the names it sets in it.
# Every other field of RunConfig's dataclasses keeps its default, so the
# planner's and the cost's sections set nothing, and the gen, train and mppi
# seeds are the run seed.
CONFIG_KEYS = {"seed": None, "out_root": None, "counts": tuple(DEFAULT_COUNTS),
               "gen": ("episode_len_s", "n_interactions", "fps"), "train": ("epochs",),
               "mppi": (), "weights": (), "preset": None, "models": None}
SPLIT_PARTS = ("train", "val", "test")
# Each task's episode seeds take offsets [k * MAX_COUNT, (k + 1) * MAX_COUNT),
# so no two tasks share a seed and every offset is below 10**6.
MAX_COUNT = 100000
# Run files hold integers of at most 64 bits, and the manifest stores each
# episode's seed, the run seed * 10**6 plus an offset below 10**6.
MAX_SEED = 2**64 // 10**6 - 1


class ConfigError(ValueError):
    pass


def _check_keys(doc: dict) -> None:
    """Refuse, naming it, any key of a run config outside CONFIG_KEYS."""
    for key, value in doc.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}; a run config sets "
                              f"{', '.join(CONFIG_KEYS)}")
        names = CONFIG_KEYS[key]
        if names is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        for name in value:
            if name not in names:
                raise ConfigError(f"unknown config key '{key}.{name}'; section {key!r} "
                                  f"sets {', '.join(names) or 'nothing'}")


def _non_negative_int(value, name: str, at_most: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
    if at_most is not None and value > at_most:
        raise ConfigError(f"{name} must be at most {at_most}, got {value}")
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
    def load(cls, path=None, out_root=None) -> "RunConfig":
        """The run config of a JSON file, or the default one; ``out_root``,
        the CLI's ``--out``, takes the place of the file's."""
        try:
            doc = json.loads(Path(path).read_text()) if path else {}
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("the run config must be a JSON object")
        _check_keys(doc)
        seed = _non_negative_int(doc.get("seed", cls.seed), "seed", MAX_SEED)
        doc_root = doc.get("out_root", cls.out_root)
        if not isinstance(doc_root, str):
            raise ConfigError(f"out_root must be a string, got {doc_root!r}")
        counts = {**DEFAULT_COUNTS, **doc.get("counts", {})}
        for task, count in counts.items():
            _non_negative_int(count, f"counts.{task}", MAX_COUNT)
        preset = doc.get("preset", cls.preset)
        if not isinstance(preset, str) or preset not in forecast.PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        models = doc.get("models", list(cls.models))
        if not isinstance(models, list) or not all(isinstance(m, str) for m in models):
            raise ConfigError(f"models must be a list of model names, got {models!r}")
        for name in models:   # a baseline's or a preset's name, letter for letter
            if name not in forecast.BASELINES and name not in forecast.PRESETS:
                raise ConfigError(f"unknown model {name!r}")
        try:
            gen = datagen.GenConfig(seed=seed, **doc.get("gen", {}))
            if counts["tableset"] > 0:
                datagen.tableset_tour(gen)
            return cls(seed=seed, out_root=doc_root if out_root is None else out_root,
                       counts=counts, gen=gen,
                       train=TrainConfig(seed=seed, **doc.get("train", {})),
                       mppi=MppiConfig(seed=seed, dt=1.0 / gen.fps),
                       preset=preset, models=tuple(models))
        except MotionError as exc:
            raise ConfigError(str(exc)) from exc

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
    offsets = {"stir": 0, "handover": MAX_COUNT, "tableset": 2 * MAX_COUNT}
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
    An entry whose episode holds another task than its manifest label is
    refused where it loads.  Returns ``{part: {task: {path: episode}}}`` with
    tasks in sorted order.
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
            episodes[part][task] = {f: load_episode(f) for f in split[part]}
            for f, ep in episodes[part][task].items():
                if ep.task != task:
                    raise MotionError(f"episode file {f} holds a {ep.task!r} episode, but "
                                      f"manifest file {path} lists it as {task!r}")
    return episodes


def cmd_train(cfg: RunConfig) -> int:
    """Train the configured preset and write a checkpoint plus loss history."""
    split = _split_episodes(cfg, ("train", "val"))
    run_dir = cfg.run_dir()
    train_ws = WindowSet([ep for eps in split["train"].values() for ep in eps.values()])
    val_ws = WindowSet([ep for eps in split["val"].values() for ep in eps.values()])
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
    windows = {task: WindowSet(eps.values()) for task, eps in test.items()}
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


def cmd_eval_plan(cfg: RunConfig) -> int:
    """Play back every test episode with each model, keep each playback's
    log at ``logs/<model>/<episode>.jsonl`` in the run directory, and score
    the stir and handover logs into the plan report."""
    test = _split_episodes(cfg, ("test",))["test"]
    run_dir = cfg.run_dir()
    # every model resolves, each checkpoint loaded once, before any playback
    forecasters = {name: _forecaster_for(name, run_dir)
                   for name in dict.fromkeys(["cur", *cfg.models])}
    for name in forecasters:
        (run_dir / "logs" / name).mkdir(parents=True, exist_ok=True)
    arm = ArmModel()
    specs = {path: build_task_spec(ep, arm) for eps in test.values() for path, ep in eps.items()}
    report = metrics.MetricReport()
    for task, eps in test.items():
        logs = {name: [] for name in forecasters}
        for path, ep in eps.items():
            for name, fc in forecasters.items():
                log = run_episode(ep, fc, specs[path], cfg.weights, cfg.mppi, model=arm,
                                  model_name=name)
                log.to_jsonl(run_dir / "logs" / name / f"{path.stem}.jsonl")
                logs[name].append(log)
        for name in forecasters:
            if task == "stir":
                report.planning[f"{name}/stir"] = metrics.stop_restart_times(
                    logs[name], logs["cur"])
            elif task == "handover":
                report.planning[f"{name}/handover"] = metrics.handover_metrics(
                    logs[name], logs["cur"], list(eps.values()))
    report_path = run_dir / "plan_report.json"
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


def cmd_report(cfg: RunConfig) -> int:
    """Merge available reports, and convert each sim log under the run's
    ``logs/`` to a per-timestep CSV beside it."""
    run_dir = cfg.run_dir()
    merged = metrics.MetricReport()
    for name, attr in (("forecast_report.json", "forecasting"),
                       ("plan_report.json", "planning")):
        path = run_dir / name
        if path.exists():
            part = metrics.MetricReport.from_json(path)
            getattr(merged, attr).update(getattr(part, attr))
    merged.to_json(run_dir / "report.json")
    for lp in sorted((run_dir / "logs").glob("*/*.jsonl")):
        log = SimLog.from_jsonl(lp)
        out = lp.with_suffix(".csv")
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
        sp.add_argument("--out", default=None, help="output root directory, in place of "
                                                   "the config's out_root")

    common(sub.add_parser("gen", help="generate the episode dataset"))
    common(sub.add_parser("train", help="train a forecaster preset"))
    common(sub.add_parser("eval-forecast", help="forecasting metrics on the test split"))
    common(sub.add_parser("eval-plan", help="planning metrics via playback, keeping the "
                                            "sim logs"))
    sp = sub.add_parser("lemma-check", help="verify the loss bounds")
    sp.add_argument("--n-instances", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    common(sub.add_parser("report", help="merge reports and convert the sim logs to "
                                         "per-timestep CSVs"))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "lemma-check":
            return cmd_lemma(_non_negative_int(args.n_instances, "--n-instances"),
                             _non_negative_int(args.seed, "--seed"))
        cfg = RunConfig.load(args.config, args.out)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval-forecast":
            return cmd_eval_forecast(cfg)
        if args.command == "eval-plan":
            return cmd_eval_plan(cfg)
        if args.command == "report":
            return cmd_report(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MotionError, OSError) as exc:   # bad run files, or one that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
