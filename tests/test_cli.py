"""Tests for the command-line interface: config handling, exit codes, and a
small end-to-end pipeline."""

import csv
import json

import pytest

from costcast.cli import ConfigError, DEFAULT_COUNTS, RunConfig, main
from costcast.forecast import load_checkpoint
from costcast.metrics import MetricReport
from costcast.motion import load_episode
from costcast.planner import SimLog

MINI = {
    "seed": 3,
    "counts": {"stir": 10, "handover": 10, "tableset": 0},
    "gen": {"episode_len_s": 12.0, "n_interactions": 1},
    "train": {"epochs": 2},
    "models": ["cur", "manicast"],
    "preset": "manicast",
}


def write_config(tmp_path, doc=MINI, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- config handling ------------------------------------------------------

def test_default_config():
    cfg = RunConfig.load(None)
    assert cfg.counts == {"stir": 19, "handover": 27, "tableset": 15}
    assert cfg.counts == DEFAULT_COUNTS
    assert cfg.preset == "manicast"
    assert cfg.models == ("cur", "cvm")


def test_config_overrides_and_seed_propagation(tmp_path):
    path = write_config(tmp_path)
    cfg = RunConfig.load(path, overrides={"seed": 9, "preset": "manicast-w"})
    assert cfg.seed == 9
    assert cfg.gen.seed == 9 and cfg.train.seed == 9 and cfg.mppi.seed == 9
    assert cfg.preset == "manicast-w"
    assert cfg.counts["tableset"] == 0


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, dict(MINI, counts={"mop": 3})))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, dict(MINI, models=["cur", "alien"])))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, dict(MINI, preset="alien")))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, dict(MINI, gen="not-an-object")))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, dict(MINI, train={"epochs": 2,
                                                                "bogus_field": 1})))


def test_run_dir_is_a_stable_config_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path)
    a = RunConfig.load(path).run_dir()
    b = RunConfig.load(path).run_dir()
    assert a == b
    c = RunConfig.load(path, overrides={"seed": 99}).run_dir()
    assert c != a


# --- exit codes -----------------------------------------------------------

def test_exit_2_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_2_on_unknown_preset(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["train", "--config", path, "--preset", "alien"]) == 2


def test_exit_3_when_training_without_data(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path)
    assert main(["train", "--config", path]) == 3
    assert "manifest" in capsys.readouterr().err


# --- end-to-end mini pipeline ---------------------------------------------

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen + train + eval-forecast on a small two-task dataset."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(MINI))
    args = ["--config", str(config), "--out", str(root / "runs")]
    assert main(["gen", *args]) == 0
    assert main(["train", *args]) == 0
    assert main(["eval-forecast", *args]) == 0
    cfg = RunConfig.load(str(config), overrides={"out": str(root / "runs")})
    return cfg, cfg.run_dir(), args


def test_gen_writes_manifest_and_episodes(pipeline):
    cfg, run_dir, _ = pipeline
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert len(manifest) == 20
    by_task = {}
    for entry in manifest:
        by_task.setdefault(entry["task"], []).append(entry)
    assert sorted(by_task) == ["handover", "stir"]
    ep = load_episode(run_dir / manifest[0]["file"])
    assert len(ep) == 300  # 12 s at 25 fps
    # per-episode seeds are distinct and derived from the global seed
    seeds = [e["seed"] for e in manifest]
    assert len(set(seeds)) == len(seeds)
    assert all(s // 1000000 == cfg.seed for s in seeds)


def test_train_writes_checkpoint_and_history(pipeline):
    _, run_dir, _ = pipeline
    model = load_checkpoint(run_dir / "checkpoint_manicast.json")
    assert model.trained
    history = (run_dir / "history_manicast.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss"
    assert len(history) == 1 + 1 + MINI["train"]["epochs"]  # header + epoch 0..2


def test_eval_forecast_report_contents(pipeline):
    _, run_dir, _ = pipeline
    report = MetricReport.from_json(run_dir / "forecast_report.json")
    assert set(report.forecasting) == {"cur/stir", "cur/handover",
                                       "manicast/stir", "manicast/handover"}
    m = report.forecasting["cur/stir"]
    assert m["fde"] > 0 and m["n_windows"] > 0


def test_simulate_and_report_csv(pipeline, tmp_path):
    _, run_dir, args = pipeline
    log_path = tmp_path / "sim.jsonl"
    assert main(["simulate", *args, "--episode", str(run_dir / "data" / "stir_000.json"),
                 "--model", "cur", "--log-out", str(log_path)]) == 0
    log = SimLog.from_jsonl(log_path)
    assert log.task == "stir" and log.model_name == "cur"
    assert {"step", "q", "ee_pos", "cost", "min_sep", "branch_active",
            "gt_near_pot"} <= set(log.records[0])
    assert main(["report", *args, str(log_path)]) == 0
    csv_lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert csv_lines[0] == "frame,wrist_error_mm,branch_active,min_sep_m"
    assert len(csv_lines) == 1 + len(log.records)
    merged = MetricReport.from_json(run_dir / "report.json")
    assert "cur/stir" in merged.forecasting


def test_exit_2_on_simulate_with_zero_mppi_iterations(pipeline, tmp_path, capsys):
    _, run_dir, _ = pipeline
    path = write_config(tmp_path, dict(MINI, mppi={"n_iterations": 0}))
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "runs"),
                 "--episode", str(run_dir / "data" / "stir_000.json"),
                 "--model", "cur", "--log-out", str(tmp_path / "sim.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "sim.jsonl").exists()


def test_wrist_error_of_the_oracle_forecast_is_zero(pipeline, tmp_path):
    # wrist_error_mm compares the forecast final wrist with the true wrist
    # at the same frame, so the true-future forecaster scores zero
    _, run_dir, args = pipeline
    log_path = tmp_path / "handover.jsonl"
    assert main(["simulate", *args, "--episode",
                 str(run_dir / "data" / "handover_000.json"),
                 "--model", "fut", "--log-out", str(log_path)]) == 0
    assert main(["report", *args, str(log_path)]) == 0
    with open(tmp_path / "handover.csv", newline="") as f:
        errors = [row["wrist_error_mm"] for row in csv.DictReader(f)]
    assert errors and all(e != "" for e in errors)
    assert max(float(e) for e in errors) <= 1e-6


def test_lemma_check_command(capsys):
    assert main(["lemma-check", "--n-instances", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "50/50 passed" in out
