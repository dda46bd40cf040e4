"""Tests for the command-line interface: config handling, exit codes, and a
small end-to-end pipeline."""

import contextlib
import csv
import dataclasses
import io
import json
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from costcast import cli, metrics
from costcast.cli import ConfigError, DEFAULT_COUNTS, RunConfig, main
from costcast.cost import CostWeights
from costcast.datagen import GenConfig, gen_stirring, split_dataset
from costcast.forecast import (BASELINES, PRESETS, ForecastModel, TrainConfig, load_checkpoint,
                               make_forecaster, save_checkpoint)
from costcast.metrics import MetricReport
from costcast.motion import HISTORY_LEN, HORIZON_LEN, MotionError, load_episode, save_episode
from costcast.planner import MppiConfig, SimLog, build_task_spec, run_episode
from costcast.robot import ArmModel

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


# the keys a run config sets, and no more: everything a run varies
KEPT_KEYS = ["seed", "out_root", "counts.stir", "counts.handover", "counts.tableset",
             "gen.episode_len_s", "gen.n_interactions", "gen.fps", "train.epochs", "preset",
             "models"]
SECTIONS = {"gen": GenConfig, "train": TrainConfig, "mppi": MppiConfig, "weights": CostWeights}


def test_config_refuses_every_key_but_the_eleven_a_run_varies(tmp_path, capsys):
    assert sorted(name for key, names in cli.CONFIG_KEYS.items()
                  for name in ([key] if names is None else [f"{key}.{n}" for n in names])
                  ) == sorted(KEPT_KEYS)
    removed = [(section, f.name, getattr(config(), f.name))
               for section, config in SECTIONS.items() for f in dataclasses.fields(config)
               if f"{section}.{f.name}" not in KEPT_KEYS]
    assert len(removed) == 21
    # each removed key exits 2 naming it, though it holds its default value
    for doc, key in ([({section: {name: value}}, f"{section}.{name}")
                      for section, name, value in removed]
                     + [({"wieghts": {"alpha_c": 100.0}, "train": {"epochs": 3}}, "wieghts"),
                        ({"counts": {"mop": 3}}, "counts.mop"),
                        ({"gen.fps": 30.0}, "gen.fps")]):
        path = write_config(tmp_path, dict(MINI, **doc))
        assert main(["gen", "--config", path, "--out", str(tmp_path / "runs")]) == 2, key
        err = capsys.readouterr().err
        assert f"config error: unknown config key {key!r}" in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()
    # every kept key loads, and the section seeds follow the run seed
    doc = {"seed": 8, "out_root": str(tmp_path / "out"),
           "counts": {"stir": 10, "handover": 11, "tableset": 12},
           "gen": {"episode_len_s": 30.0, "n_interactions": 2, "fps": 30.0},
           "train": {"epochs": 4}, "preset": "scratch", "models": ["cvm", "scratch"]}
    cfg = RunConfig.load(write_config(tmp_path, doc))
    assert (cfg.seed, cfg.out_root, cfg.counts, cfg.preset, cfg.models) == (
        8, doc["out_root"], doc["counts"], "scratch", ("cvm", "scratch"))
    assert cfg.gen == GenConfig(seed=8, episode_len_s=30.0, n_interactions=2, fps=30.0)
    assert cfg.train == TrainConfig(epochs=4, seed=8)
    assert cfg.mppi == MppiConfig(dt=1.0 / 30.0, seed=8)
    assert cfg.weights == CostWeights()
    # the run commands take the seed and the preset from the config alone
    for flag in ("--seed", "--preset"):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", write_config(tmp_path), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_counts_are_bounded_so_episode_seeds_stay_distinct(tmp_path, capsys):
    # the tasks' episode seed offsets lie in disjoint ranges below 10**6
    ranges = sorted((cli._episode_seed(0, task, 0), cli._episode_seed(0, task, cli.MAX_COUNT - 1))
                    for task in DEFAULT_COUNTS)
    assert all(last < first for (_, last), (first, _) in zip(ranges, ranges[1:]))
    assert ranges[-1][1] < 10**6
    assert RunConfig.load(write_config(tmp_path, dict(
        MINI, counts={"stir": cli.MAX_COUNT}))).counts["stir"] == cli.MAX_COUNT
    for task, count in (("stir", cli.MAX_COUNT + 1), ("tableset", 800000)):
        path = write_config(tmp_path, dict(MINI, counts={task: count}))
        assert main(["gen", "--config", path, "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert f"counts.{task} must be at most {cli.MAX_COUNT}, got {count}" in err
        assert not (tmp_path / "runs").exists()


def test_config_rejects_bad_values(tmp_path, capsys):
    # a model is a baseline's or a preset's name, letter for letter
    for models in (["cur", "alien"], ["foo"], ["worst"], ["CUR"]):
        with pytest.raises(ConfigError, match=f"unknown model {models[-1]!r}"):
            RunConfig.load(write_config(tmp_path, dict(MINI, models=models)))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, dict(MINI, preset="alien")))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, dict(MINI, gen="not-an-object")))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, dict(MINI, train={"epochs": 2,
                                                                "bogus_field": 1})))
    for section, bad in (("train", {"epochs": -1}), ("gen", {"n_interactions": 0}),
                         ("gen", {"n_interactions": 10**400}), ("gen", {"fps": -1}),
                         ("seed", -1), ("seed", 1.5), ("seed", "x"),
                         ("counts", {"stir": "x"}), ("counts", {"stir": 1.5}),
                         ("counts", {"stir": -1}), ("counts", {"stir": True}),
                         ("gen", {"episode_len_s": float("nan")}),
                         ("gen", {"n_interactions": 1.5}), ("gen", {"fps": True}),
                         ("train", {"epochs": 1.5}), ("preset", None), ("preset", ["scratch"])):
        with pytest.raises(ConfigError):
            RunConfig.load(write_config(tmp_path, dict(MINI, **{section: bad})))
    # the planner steps at the frame period, which gen.fps sets
    for fps in (20.0, 30.0):
        cfg = RunConfig.load(write_config(tmp_path, dict(MINI, gen={"fps": fps})))
        assert cfg.mppi.dt == 1.0 / fps
    # an int is a valid value for a float field
    assert RunConfig.load(write_config(tmp_path, dict(MINI, gen={"fps": 30}))).gen.fps == 30
    for bad in ({"gen": {"n_interactions": 0}}, {"seed": -1}, {"counts": {"stir": "x"}},
                {"gen": {"fps": 1e300}},
                # fits the episode, but not the 1 s margins that the schedule keeps
                {"counts": {"stir": 10, "handover": 0, "tableset": 0},
                 "gen": {"episode_len_s": 4.0, "n_interactions": 1}}):
        path = write_config(tmp_path, dict(MINI, **bad))
        assert main(["gen", "--config", path, "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()
    # documents of the wrong shape, and field values of the wrong type
    for doc, message in (([MINI], "JSON object"),
                         (dict(MINI, models="cur"), "models must be a list"),
                         (dict(MINI, models=["cur", 3]), "models must be a list"),
                         (dict(MINI, gen={"n_interactions": True}),
                          "n_interactions must be an integer"),
                         (dict(MINI, seed=1.5), "seed must be a non-negative integer"),
                         (dict(MINI, gen={"episode_len_s": float("nan")}),
                          "episode_len_s must be a finite number"),
                         (dict(MINI, gen={"n_interactions": 1.5}),
                          "n_interactions must be an integer"),
                         (dict(MINI, train={"epochs": 1.5}), "epochs must be an integer"),
                         (dict(MINI, gen={"n_interactions": 10**400}),
                          "n_interactions must be from 1 to 1125"),
                         (dict(MINI, counts={"stir": 2.0}), "counts.stir must be a non-negative"),
                         (dict(MINI, preset=["scratch"]), "unknown preset ['scratch']"),
                         (dict(MINI, wieghts={"alpha_c": 100.0}), "unknown config key 'wieghts'"),
                         (dict(MINI, gen={"episode_len_s": 4.0}),
                          "inside the 1 s margins cannot hold"),
                         (dict(MINI, out_root=5), "out_root must be a string, got 5"),
                         (dict(MINI, out_root=None), "out_root must be a string, got None")):
        path = write_config(tmp_path, doc)
        assert main(["gen", "--config", path, "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()


def test_seeds_fit_the_integers_of_the_run_files(tmp_path, capsys):
    # the manifest stores gen.seed * 10**6 plus a task offset per episode,
    # and run files hold integers of at most 64 bits
    counts = {"stir": 0, "handover": 1, "tableset": 0}
    path = write_config(tmp_path, dict(MINI, seed=cli.MAX_SEED, counts=counts))
    assert main(["gen", "--config", path, "--out", str(tmp_path / "runs")]) == 0
    run_dir = RunConfig.load(path, str(tmp_path / "runs")).run_dir()
    [entry] = json.loads((run_dir / "manifest.json").read_text())
    assert entry["seed"] == cli.MAX_SEED * 10**6 + 100000 < 2**64
    capsys.readouterr()
    for bad in ({"seed": cli.MAX_SEED + 1}, {"seed": 2**64}, {"seed": 10**400}):
        path = write_config(tmp_path, dict(MINI, **bad))
        assert main(["gen", "--config", path, "--out", str(tmp_path / "other")]) == 2
        err = capsys.readouterr().err
        assert f"seed must be at most {cli.MAX_SEED}" in err and "Traceback" not in err


def test_gen_points_length_and_tableset_tour_exit_2(tmp_path, capsys):
    # the episode length bound and the tableset waypoint tour are checked
    # when the config loads, before any data is written; the generator's
    # geometry, jitter and timings are fixed, so a config that sets one of
    # them names an unknown key
    one_tableset = {"stir": 0, "handover": 0, "tableset": 1}
    for doc, message in (
            (dict(MINI, gen={"pot_position": [0.55, 0.0, 0.95]}), "'gen.pot_position'"),
            (dict(MINI, gen={"jitter_sigma": 0.002}), "'gen.jitter_sigma'"),
            (dict(MINI, gen={"episode_len_s": 1e308}), "episode_len_s must be at most"),
            (dict(MINI, counts=one_tableset, gen={"episode_len_s": 9.0, "n_interactions": 1}),
             "too short for waypoint tour")):
        path = write_config(tmp_path, doc)
        assert main(["gen", "--config", path, "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()
    # the tour is checked only when tableset episodes are requested
    RunConfig.load(write_config(tmp_path, dict(MINI, gen={"episode_len_s": 9.0,
                                                          "n_interactions": 1})))


def test_run_dir_does_not_depend_on_number_spelling(tmp_path):
    out = str(tmp_path / "runs")
    as_int = RunConfig.load(write_config(tmp_path, dict(MINI, gen={"fps": 30}), "a.json"), out)
    as_float = RunConfig.load(write_config(tmp_path, dict(MINI, gen={"fps": 30.0}), "b.json"),
                              out)
    assert type(as_int.gen.fps) is float
    assert as_int.canonical() == as_float.canonical()
    assert as_int.run_dir() == as_float.run_dir()


README_EXAMPLE = {
    "seed": 0,
    "counts": {"stir": 19, "handover": 27, "tableset": 15},
    "gen": {"episode_len_s": 24.0, "n_interactions": 3},
    "train": {"epochs": 15},
    "preset": "manicast",
    "models": ["cur", "cvm", "manicast"],
}


def test_default_and_readme_configs_keep_their_run_dirs(tmp_path):
    # a change to these digests moves every existing run directory
    out = str(tmp_path / "runs")
    assert RunConfig.load(None, out).run_dir().name == "b66684d11315"
    assert RunConfig.load(write_config(tmp_path, README_EXAMPLE), out).run_dir().name \
        == "7767adca4515"


def test_run_dir_is_a_stable_config_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path)
    a = RunConfig.load(path).run_dir()
    b = RunConfig.load(path).run_dir()
    assert a == b
    c = RunConfig.load(write_config(tmp_path, dict(MINI, seed=99), "other.json")).run_dir()
    assert c != a


def test_gen_seed_sets_the_episode_data(tmp_path, capsys):
    # gen.seed is the run seed, and each episode's seed derives from it
    one_stir = dict(MINI, counts={"stir": 1, "handover": 0, "tableset": 0})

    def stir_bytes(seed):
        path = write_config(tmp_path, dict(one_stir, seed=seed), f"{seed}.json")
        out = str(tmp_path / str(seed))
        assert main(["gen", "--config", path, "--out", out]) == 0
        cfg = RunConfig.load(path, out)
        episode = gen_stirring(dataclasses.replace(
            cfg.gen, seed=cli._episode_seed(seed, "stir", 0)))
        save_episode(episode, tmp_path / "want.json")
        data = (cfg.run_dir() / "data" / "stir_000.json").read_bytes()
        assert data == (tmp_path / "want.json").read_bytes()
        return data

    assert stir_bytes(MINI["seed"]) != stir_bytes(7)


# values of every JSON kind, the awkward ones included; numbers stay small
# enough that a config which passes makes a short episode
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-50.0, 50.0),
    st.sampled_from([1e-300, 1e300, float("nan"), float("inf"), float("-inf"), -0.0, 2**63,
                     10**400, -10**400]),
    st.text(max_size=3), st.lists(st.integers(-1, 2), max_size=4), st.just({}))
ODD_COUNTS = st.sampled_from([-1, 1.5, "1", True, None, 1e300])
# the top-level values a run config may set, each of the right kind
TOP_LEVEL = {"seed": st.integers(0, cli.MAX_SEED), "out_root": st.text(max_size=3),
             "preset": st.sampled_from(sorted(PRESETS)),
             "models": st.lists(st.sampled_from(sorted({*BASELINES, *PRESETS})), max_size=3)}
# a few keys a run config may not set: removed fields and misspellings
REMOVED_KEYS = [("gen", "seed"), ("train", "batch_size"), ("mppi", "n_samples"),
                ("weights", "beta"), ("wieghts", "alpha_c"), ("trian", "epochs")]


def near_default(default, inside=True):
    """Values of a config field's own type around its default, inside its
    range or outside it."""
    if isinstance(default, int):
        return st.sampled_from([1, 2, default, 2 * default] if inside else [-1, 0])
    return st.sampled_from([default, 0.25 * default, 0.5 * default, 2.0 * default] if inside
                           else [0.0, 1e-9, -default, -0.5, 1e300, 100.0 * default])


@st.composite
def run_documents(draw):
    """A run config of random values for its keys, asking for at most one
    episode per task. Its values are of the right kind, and the gen and train
    values lie around their defaults, where their combination may still not
    fit; about one document in two also breaks one thing: a count, a
    section, one key's value, or a key that a run config may not set."""
    doc = {"counts": {task: draw(st.sampled_from([0, 1])) for task in DEFAULT_COUNTS}}
    defaults = {f"{name}.{key}": getattr(SECTIONS[name](), key)
                for name in ("gen", "train") for key in cli.CONFIG_KEYS[name]}

    def put(key, value):
        name, _, field = key.rpartition(".")
        (doc.setdefault(name, {}) if name else doc)[field] = value

    for key in draw(st.lists(st.sampled_from(sorted(defaults)), unique=True, max_size=3)):
        put(key, draw(near_default(defaults[key])))
    for key in draw(st.lists(st.sampled_from(sorted(TOP_LEVEL)), unique=True, max_size=2)):
        put(key, draw(TOP_LEVEL[key]))
    fault = draw(st.sampled_from([None] * 3 + ["count", "section", "key", *sorted(TOP_LEVEL),
                                               *sorted(defaults)]))
    if fault == "count":
        put(f"counts.{draw(st.sampled_from(sorted(DEFAULT_COUNTS)))}", draw(ODD_COUNTS))
    elif fault == "section":   # not an object, or an object of an unknown key
        put(draw(st.sampled_from(["counts", "gen", "train"])),
            draw(st.sampled_from([[], "gen", {"bogus": 1}])))
    elif fault == "key":
        section, key = draw(st.sampled_from(REMOVED_KEYS))
        doc[section] = {**doc.get(section, {}), key: 1}
    elif fault in defaults:   # a value outside the key's range, or of an odd kind
        put(fault, draw(st.one_of(near_default(defaults[fault], inside=False), ODD_VALUES)))
    elif fault is not None:
        put(fault, draw(ODD_VALUES))
    return doc


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=run_documents())
def test_gen_on_random_configs_exits_cleanly(doc):
    # any config the CLI is given either runs or exits 2 with a message,
    # never with a traceback; gen in a fresh directory meets no runtime error
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["gen", "--config", str(path), "--out", str(Path(tmp) / "runs")])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# --- exit codes -----------------------------------------------------------

def test_exit_2_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"config error: config file {bad}" in err and "Traceback" not in err


def test_exit_2_on_unknown_preset(tmp_path, capsys):
    path = write_config(tmp_path, dict(MINI, preset="alien"))
    assert main(["train", "--config", path, "--out", str(tmp_path / "runs")]) == 2
    assert "config error: unknown preset 'alien'" in capsys.readouterr().err


@pytest.mark.parametrize("under", [(), ("sub",)])
def test_exit_2_when_the_output_root_is_a_file(tmp_path, capsys, under):
    # a regular file where the run directory's root (or one of its parents) goes
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken.joinpath(*under)
    assert main(["gen", "--config", write_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: out_root {out}" in err and "Traceback" not in err


def test_exit_3_when_training_without_data(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path)
    assert main(["train", "--config", path]) == 3
    assert "manifest" in capsys.readouterr().err


def test_split_commands_refuse_a_task_too_small_to_split(tmp_path, capsys, monkeypatch):
    # gen writes any count, but a task of 1-9 episodes cannot be split 8:1:1,
    # so the commands that split exit 2 before reading an episode
    path = write_config(tmp_path, dict(MINI, counts={"stir": 10, "handover": 3, "tableset": 0}))
    args = ["--config", path, "--out", str(tmp_path / "runs")]
    assert main(["gen", *args]) == 0
    capsys.readouterr()
    loads = []
    monkeypatch.setattr(cli, "load_episode", loads.append)
    for command in ("train", "eval-forecast", "eval-plan"):
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert "counts.handover is 3" in err and "Traceback" not in err
    assert loads == []


SPLIT_RUN = {
    "seed": 4,
    "counts": {"stir": 10, "handover": 10, "tableset": 0},
    "gen": {"episode_len_s": 6.0, "n_interactions": 1},
    "train": {"epochs": 1},
    "models": ["cur"],
    "preset": "manicast",
}


@pytest.fixture(scope="module")
def split_run(tmp_path_factory):
    """A generated run of short episodes; tests copy it before changing it."""
    root = tmp_path_factory.mktemp("split")
    config = write_config(root, SPLIT_RUN)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", config, "--out", str(root / "runs")]) == 0
    return root


def copy_run(split_run, tmp_path, **changes):
    """A private copy of the split run, under its config with ``changes`` to
    keys that leave the data as it is: the CLI args and the run dir."""
    config = write_config(tmp_path, dict(SPLIT_RUN, **changes))
    run_dir = RunConfig.load(config, str(tmp_path / "runs")).run_dir()
    [source] = (split_run / "runs").iterdir()
    shutil.copytree(source, run_dir, dirs_exist_ok=True)
    return ["--config", config, "--out", str(tmp_path / "runs")], run_dir


def split_files(run_dir, seed):
    """{part: [episode file, ...]} of the per-task 8:1:1 split of a manifest."""
    by_task = {}
    for entry in json.loads((run_dir / "manifest.json").read_text()):
        by_task.setdefault(entry["task"], []).append(entry["file"])
    files = {"train": [], "val": [], "test": []}
    for task in sorted(by_task):
        for part, names in zip(files, split_dataset(by_task[task], seed)):
            files[part].extend(names)
    return files


def test_each_command_reads_only_its_split(split_run, tmp_path, monkeypatch, capsys):
    args, run_dir = copy_run(split_run, tmp_path)
    files = split_files(run_dir, SPLIT_RUN["seed"])
    read = []

    def counting_load(path):
        read.append(Path(path).relative_to(run_dir).as_posix())
        return load_episode(path)

    monkeypatch.setattr(cli, "load_episode", counting_load)
    for command, parts in (("train", ("train", "val")), ("eval-forecast", ("test",)),
                           ("eval-plan", ("test",))):
        read.clear()
        assert main([command, *args]) == 0
        assert sorted(read) == sorted(f for part in parts for f in files[part]), command
    assert len(files["train"]) + len(files["val"]) == 18 and len(files["test"]) == 2
    # the test split alone decides the forecast report
    report = (run_dir / "forecast_report.json").read_bytes()
    (run_dir / files["train"][0]).unlink()
    assert main(["eval-forecast", *args]) == 0
    assert (run_dir / "forecast_report.json").read_bytes() == report


def _truncate(path):
    path.write_text(path.read_text()[:1000])


def _drop_field(path, field):
    doc = json.loads(path.read_text())
    del doc[field]
    path.write_text(json.dumps(doc))


def _drop_frames(path):
    _drop_field(path, "frames")


@pytest.mark.parametrize("damage, message", [
    (Path.unlink, "no episode file at"),
    (_drop_frames, "has no 'frames' field"),
    (_truncate, "unexpected end of data"),
])
def test_bad_episode_file_exits_3_naming_it(split_run, tmp_path, capsys, damage, message):
    args, run_dir = copy_run(split_run, tmp_path)
    bad = run_dir / split_files(run_dir, SPLIT_RUN["seed"])["test"][0]
    damage(bad)
    assert main(["eval-forecast", *args]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and message in err and "Traceback" not in err
    with pytest.raises(MotionError, match=message):
        load_episode(bad)


def test_manifest_task_that_disagrees_with_its_episode_exits_3_naming_the_file(
        split_run, tmp_path, capsys):
    # every command that reads the split refuses a mislabelled entry where it loads
    args, run_dir = copy_run(split_run, tmp_path)
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    swap = {"stir": "handover", "handover": "stir"}
    path.write_text(json.dumps([dict(entry, task=swap[entry["task"]]) for entry in manifest]))
    files = [str(run_dir / entry["file"]) for entry in manifest]
    for command in ("train", "eval-forecast", "eval-plan"):
        assert main([command, *args]) == 3, command
        err = capsys.readouterr().err
        assert any(f in err for f in files), command
        assert "'stir'" in err and "'handover'" in err and "Traceback" not in err, command
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(
        p.name for p in next((split_run / "runs").iterdir()).iterdir())


@pytest.mark.parametrize("task, damage", [
    ("stir", lambda extras: extras.pop("pot_position")),
    ("stir", lambda extras: extras.update(pot_position=[0.5, 0.0])),
    ("stir", lambda extras: extras.update(pot_position="abc")),
    ("handover", lambda extras: extras.update(object_in_hand=extras["object_in_hand"][:-1])),
], ids=["no-pot", "short-pot", "string-pot", "short-flags"])
def test_eval_plan_on_bad_task_metadata_exits_3_naming_the_field(split_run, tmp_path, capsys,
                                                                  task, damage):
    # every test episode is checked where it loads, before the first playback
    args, run_dir = copy_run(split_run, tmp_path)
    [name] = [f for f in split_files(run_dir, SPLIT_RUN["seed"])["test"] if task in f]
    path = run_dir / name
    doc = json.loads(path.read_text())
    damage(doc["extras"])
    path.write_text(json.dumps(doc))
    assert main(["eval-plan", *args]) == 3
    err = capsys.readouterr().err
    field = "pot_position" if task == "stir" else "object_in_hand"
    assert str(path) in err and f"episode extras {field}" in err and "Traceback" not in err
    assert not (run_dir / "logs").exists()


def _hold_past_the_end(doc):
    doc["extras"]["hold_intervals"][-1][1] = len(doc["frames"])


@pytest.mark.parametrize("damage, field", [
    (lambda doc: doc["extras"].update(goals=[g[:2] for g in doc["extras"]["goals"]]),
     "goals[0] must be 3 finite numbers"),
    (lambda doc: doc["extras"].update(goals="abc"), "goals and hold_intervals"),
    (lambda doc: doc["extras"].update(hold_intervals=[h[:1] for h in
                                                      doc["extras"]["hold_intervals"]]),
     "hold_intervals must be [start, end] pairs"),
    (_hold_past_the_end, "hold_intervals"),
    (lambda doc: doc["extras"].update(goals=doc["extras"]["goals"] * 2),
     "one hold per goal"),
], ids=["2-vector-goal", "string-goals", "one-number-hold", "hold-past-the-end",
        "surplus-goals"])
def test_eval_plan_on_bad_handover_metadata_exits_3_naming_the_field(
        split_run, tmp_path, capsys, damage, field):
    args, run_dir = copy_run(split_run, tmp_path)
    [name] = [f for f in split_files(run_dir, SPLIT_RUN["seed"])["test"] if "handover" in f]
    path = run_dir / name
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    assert main(["eval-plan", *args]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "episode extras" in err and field in err
    assert "Traceback" not in err
    assert not (run_dir / "plan_report.json").exists()
    assert not (run_dir / "logs").exists()


def _flags(cast):
    def damage(doc):
        doc["extras"]["object_in_hand"] = [cast(f) for f in doc["extras"]["object_in_hand"]]
    return damage


def _no_goals(doc):
    del doc["extras"]["goals"], doc["extras"]["hold_intervals"]


def _far_frames(doc):
    # the last 20 frames scaled by 1e200: finite, but their squares overflow
    doc["frames"][-20:] = [[[v * 1e200 for v in joint] for joint in frame]
                           for frame in doc["frames"][-20:]]


@pytest.mark.parametrize("command, task, damage, field", [
    ("eval-plan", "handover", _flags(lambda f: str(f).lower()), "object_in_hand"),
    ("train", "handover", _flags(lambda f: str(f).lower()), "object_in_hand"),
    ("eval-plan", "handover", _flags(int), "object_in_hand"),
    ("train", "handover", _flags(int), "object_in_hand"),
    ("train", "handover", lambda doc: doc["extras"]["object_in_hand"].pop(), "object_in_hand"),
    ("train", "stir", lambda doc: doc["extras"].pop("pot_position"), "pot_position"),
    ("eval-plan", "handover", _no_goals, "goals and hold_intervals"),
    ("train", "stir", lambda doc: doc.update(transitions=[[3.7, 9.2]]), "transitions"),
    ("train", "stir", lambda doc: doc.update(transitions=[["3", "9"]]), "transitions"),
    ("train", "stir", lambda doc: doc.update(transitions=[[True, 9]]), "transitions"),
    ("train", "stir", lambda doc: doc.update(fps=True), "fps"),
    ("train", "stir", lambda doc: doc.update(fps="25"), "fps"),
    ("train", "stir", lambda doc: doc["extras"].update(pot_position=[1e200, 0.0, 0.0]),
     "pot_position must be 3 finite numbers within 1e+06 m"),
    ("eval-plan", "handover", lambda doc: doc["extras"]["goals"][0].__setitem__(1, -2e6),
     "goals[0] must be 3 finite numbers within 1e+06 m"),
    ("eval-forecast", "stir", _far_frames,
     "episode frames must hold finite coordinates within 1e+06 m"),
], ids=["string-flags-eval-plan", "string-flags-train", "int-flags-eval-plan",
        "int-flags-train", "short-flags-train", "no-pot-train", "no-goals-eval-plan",
        "float-transition", "string-transition", "bool-transition", "bool-fps",
        "string-fps", "far-pot-train", "far-goal-eval-plan", "far-frames-eval-forecast"])
def test_bad_task_data_exits_3_naming_the_file_and_field(split_run, tmp_path, capsys,
                                                          command, task, damage, field):
    # task data is checked where the episode is loaded: no command gets past
    # a file whose data another command would misread or refuse
    args, run_dir = copy_run(split_run, tmp_path)
    part = "train" if command == "train" else "test"
    [name, *_] = [f for f in split_files(run_dir, SPLIT_RUN["seed"])[part] if task in f]
    path = run_dir / name
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    assert main([command, *args]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and field in err and "Traceback" not in err


@pytest.mark.parametrize("name, command, drop, message", [
    ("manifest.json", "eval-forecast", None, "manifest file"),
    ("checkpoint_manicast.json", "eval-plan", None, "checkpoint file"),
    ("checkpoint_manicast.json", "eval-plan", "S", "has no 'S' field"),
    ("checkpoint_manicast.json", "eval-plan", "M", "has no 'M' field"),
])
def test_bad_run_file_exits_3_naming_it(split_run, tmp_path, capsys, name, command, drop,
                                        message):
    # a truncated file of the run directory, or a checkpoint without a
    # matrix, is a runtime error, not a config error; it stops eval-plan
    # before the first playback
    args, run_dir = copy_run(split_run, tmp_path, models=["cur", "manicast"])
    save_checkpoint(ForecastModel.init(), run_dir / "checkpoint_manicast.json")
    bad = run_dir / name
    if drop is None:
        _truncate(bad)
    else:
        _drop_field(bad, drop)
    assert main([command, *args]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and message in err and "Traceback" not in err
    assert not (run_dir / "logs").exists()


@pytest.mark.parametrize("where", ["logs", "logs/cur/{stem}.jsonl"])
def test_eval_plan_exits_3_naming_a_log_it_cannot_write(split_run, tmp_path, capsys, where):
    # a regular file where the logs go, or a directory where a log goes
    args, run_dir = copy_run(split_run, tmp_path)
    [name] = [f for f in split_files(run_dir, SPLIT_RUN["seed"])["test"] if "stir" in f]
    taken = run_dir / where.format(stem=Path(name).stem)
    if taken.suffix:
        taken.mkdir(parents=True)
    else:
        taken.write_text("")
    assert main(["eval-plan", *args]) == 3
    err = capsys.readouterr().err
    assert f"error: [Errno" in err and str(taken) in err and "Traceback" not in err
    assert not (run_dir / "plan_report.json").exists()


def empty_run(tmp_path):
    """CLI args and an empty run directory of the split-run config."""
    config = write_config(tmp_path, SPLIT_RUN)
    run_dir = RunConfig.load(config, str(tmp_path / "runs")).run_dir()
    return ["--config", config, "--out", str(tmp_path / "runs")], run_dir


@pytest.mark.parametrize("name, doc", [
    ("forecast_report.json", []),
    ("plan_report.json", "planning"),
    ("forecast_report.json", {"forecasting": [1]}),
    ("plan_report.json", {"forecasting": {}, "planning": 3}),
])
def test_report_on_a_non_object_report_exits_3_naming_it(tmp_path, capsys, name, doc):
    args, run_dir = empty_run(tmp_path)
    bad = run_dir / name
    bad.write_text(json.dumps(doc))
    assert main(["report", *args]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "not a JSON object" in err and "Traceback" not in err


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_report_writes_an_undefined_metric_as_null(tmp_path, capsys):
    # an empty mean (no detection, arrival or incursion) is NaN in memory,
    # and null in the files, which any JSON parser reads
    args, run_dir = empty_run(tmp_path)
    row = {"stop_ms": float("nan"), "stop_ms_se": 0.0, "n_incursions": 1}
    MetricReport(planning={"cur/stir": row}).to_json(run_dir / "plan_report.json")
    assert main(["report", *args]) == 0
    for name in ("plan_report.json", "report.json"):
        doc = json.loads((run_dir / name).read_text(), parse_constant=_refuse_constant)
        assert doc["planning"] == {"cur/stir": {"stop_ms": None, "stop_ms_se": 0.0,
                                                "n_incursions": 1}}
    assert "Traceback" not in capsys.readouterr().err


def test_report_on_a_report_holding_nan_exits_3_naming_it(tmp_path, capsys):
    # reports of the stdlib writer spelled an undefined metric NaN, which is
    # not JSON
    args, run_dir = empty_run(tmp_path)
    bad = run_dir / "plan_report.json"
    bad.write_text(json.dumps({"planning": {"cur/stir": {"stop_ms": float("nan")}}}))
    assert main(["report", *args]) == 3
    err = capsys.readouterr().err
    assert f"report file {bad}" in err and "Traceback" not in err
    assert not (run_dir / "report.json").exists()


@pytest.mark.parametrize("record", [
    [1, 2], {"x": 1}, {"step": 3}, {"min_sep": 0.1},
    {"step": 1, "min_sep": 0.1, "forecast_final_wrist": [1, 2], "gt_final_wrist": [1, 2, 3]},
    {"step": 1, "min_sep": 0.1, "forecast_final_wrist": None, "gt_final_wrist": [1, 2, None]},
    {"step": 1, "min_sep": 0.1, "forecast_final_wrist": None, "gt_final_wrist": [1, 2, 3]},
])
def test_report_on_a_malformed_sim_log_record_exits_3_naming_it(tmp_path, capsys, record):
    args, run_dir = empty_run(tmp_path)
    log = run_dir / "logs" / "cur" / "stir_000.jsonl"
    log.parent.mkdir(parents=True)
    log.write_text("".join(json.dumps(line) + "\n" for line in (
        {"meta": {"task": "stir", "model": "cur", "dt": 0.04}},
        {"step": 0, "min_sep": 0.1}, record)))
    assert main(["report", *args]) == 3
    err = capsys.readouterr().err
    assert f"sim log {log}: line 3" in err and "Traceback" not in err
    assert not log.with_suffix(".csv").exists()


@settings(max_examples=40, deadline=None)
@given(counts=st.fixed_dictionaries({task: st.integers(10, 30) for task in DEFAULT_COUNTS}),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_splitting_the_manifest_selects_the_episodes_of_splitting_the_dataset(
        counts, seed, data):
    manifest = data.draw(st.permutations(
        [{"file": f"data/{task}_{i:03d}.json", "task": task}
         for task, n in counts.items() for i in range(n)]))
    episodes = {}   # a distinct stand-in object per file, holding its file's task

    def fake_load(path):
        name = Path(path).name
        return episodes.setdefault(name, SimpleNamespace(task=name.split("_")[0]))

    with tempfile.TemporaryDirectory() as tmp:
        cfg = RunConfig(seed=seed, out_root=tmp, counts=counts)
        (cfg.run_dir() / "manifest.json").write_text(json.dumps(manifest))
        with mock.patch.object(cli, "load_episode", fake_load):
            got = cli._split_episodes(cfg, ("train", "val", "test"))
    # the reference reads every episode, then splits the episodes
    by_task = {}
    for entry in manifest:
        by_task.setdefault(entry["task"], []).append(fake_load(entry["file"]))
    for task in sorted(by_task):
        want = split_dataset(by_task[task], seed)
        assert [list(got[part][task].values()) for part in ("train", "val", "test")] \
            == list(want)
    assert list(got["train"]) == sorted(by_task)


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
    cfg = RunConfig.load(str(config), str(root / "runs"))
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
    load_checkpoint(run_dir / "checkpoint_manicast.json")
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


def test_eval_forecast_skips_the_oracle(pipeline, tmp_path):
    # fut is handed the true future, so it would score itself 0.0 mm; it is
    # a playback forecaster and gets no forecasting rows
    _, run_dir, _ = pipeline
    doc = dict(MINI, models=["cur", "fut", "manicast"])
    config = write_config(tmp_path, doc)
    args = ["--config", config, "--out", str(tmp_path / "runs")]
    cfg = RunConfig.load(config, str(tmp_path / "runs"))
    shutil.copytree(run_dir, cfg.run_dir(), dirs_exist_ok=True)  # same seed, same data
    assert main(["eval-forecast", *args]) == 0
    report = MetricReport.from_json(cfg.run_dir() / "forecast_report.json")
    assert set(report.forecasting) == {"cur/stir", "cur/handover",
                                       "manicast/stir", "manicast/handover"}


@pytest.mark.parametrize("models", [["cur", "fut", "manicast"], ["fut"]])
def test_eval_forecast_scores_every_model_in_one_pass_per_task(pipeline, tmp_path, monkeypatch,
                                                               models):
    # one metrics pass per task, over every model but the oracle; a config
    # with no other model writes an empty report
    _, run_dir, _ = pipeline
    config = write_config(tmp_path, dict(MINI, models=models))
    cfg = RunConfig.load(config, str(tmp_path / "runs"))
    shutil.copytree(run_dir, cfg.run_dir(), dirs_exist_ok=True)  # same seed, same data
    passes = []
    evaluate = metrics.evaluate_forecaster
    monkeypatch.setattr(metrics, "evaluate_forecaster",
                        lambda ws, fcs: passes.append(list(fcs)) or evaluate(ws, fcs))
    assert main(["eval-forecast", "--config", config, "--out", str(tmp_path / "runs")]) == 0
    scored = [name for name in models if name != "fut"]
    assert passes == [scored] * (2 if scored else 0)   # stir and handover
    report = MetricReport.from_json(cfg.run_dir() / "forecast_report.json")
    want = MetricReport.from_json(run_dir / "forecast_report.json").forecasting if scored else {}
    assert report.forecasting == want


# every task, and the oracle among the models: its handover forecasts are
# the true future
PLAYED = dict(MINI, counts={"stir": 10, "handover": 10, "tableset": 10},
              models=["cur", "fut", "manicast"])


@pytest.fixture(scope="module")
def played(tmp_path_factory):
    """The whole pipeline on a run of every task; returns the config, the
    run dir and the checkpoint files eval-plan loaded."""
    root = tmp_path_factory.mktemp("played")
    config = write_config(root, PLAYED)
    args = ["--config", config, "--out", str(root / "runs")]
    loaded = []
    load = cli.forecast.load_checkpoint
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("gen", "train", "eval-forecast"):
            assert main([command, *args]) == 0
        with mock.patch.object(cli.forecast, "load_checkpoint",
                               lambda path: loaded.append(path.name) or load(path)):
            assert main(["eval-plan", *args]) == 0
        assert main(["report", *args]) == 0
    cfg = RunConfig.load(config, str(root / "runs"))
    return cfg, cfg.run_dir(), loaded


def test_eval_plan_keeps_each_playback_log_and_report_converts_it(played, tmp_path):
    cfg, run_dir, loaded = played
    assert loaded == ["checkpoint_manicast.json"]   # once, for every task
    # one log per model and test episode of every task
    test = split_files(run_dir, PLAYED["seed"])["test"]
    assert sorted(Path(name).stem.split("_")[0] for name in test) == [
        "handover", "stir", "tableset"]
    logs = sorted((run_dir / "logs").rglob("*.jsonl"))
    assert [p.relative_to(run_dir / "logs").as_posix() for p in logs] == sorted(
        f"{model}/{Path(name).stem}.jsonl" for model in cfg.models for name in test)
    for path in logs:
        log = SimLog.from_jsonl(path)
        assert (log.task, log.model_name) == (path.stem.split("_")[0], path.parent.name)
        # a record per playback tick
        n_frames = len(load_episode(run_dir / "data" / f"{path.stem}.json"))
        assert [r["step"] for r in log.records] == list(range(HISTORY_LEN - 1,
                                                              n_frames - HORIZON_LEN))
        if log.task == "stir":
            assert {"step", "q", "ee_pos", "cost", "min_sep", "branch_active",
                    "gt_near_pot"} <= set(log.records[0])
        csv_lines = path.with_suffix(".csv").read_text().splitlines()
        assert csv_lines[0] == "frame,wrist_error_mm,branch_active,min_sep_m"
        assert len(csv_lines) == 1 + len(log.records)
    # a log is the library playback of its episode, byte for byte
    [path] = (run_dir / "logs" / "cur").glob("tableset_*.jsonl")
    episode, arm = load_episode(run_dir / "data" / f"{path.stem}.json"), ArmModel()
    run_episode(episode, make_forecaster("cur"), build_task_spec(episode, arm), cfg.weights,
                cfg.mppi, model=arm, model_name="cur").to_jsonl(tmp_path / "cur.jsonl")
    assert (tmp_path / "cur.jsonl").read_bytes() == path.read_bytes()
    # the plan report scores stir and handover; tableset is played, not scored
    merged = MetricReport.from_json(run_dir / "report.json")
    assert "cur/tableset" in merged.forecasting
    assert set(merged.planning) == {f"{model}/{task}" for model in cfg.models
                                    for task in ("stir", "handover")}


def test_plan_report_is_recomputed_from_the_logs_in_the_run_dir(played, tmp_path):
    # every number of plan_report.json traces back to the logged ticks: the
    # logs and the run's episode files alone give the same bytes
    cfg, run_dir, _ = played
    test = split_files(run_dir, PLAYED["seed"])["test"]
    files = {task: [name for name in test if Path(name).stem.startswith(f"{task}_")]
             for task in ("stir", "handover")}

    def logs(model, task):
        return [SimLog.from_jsonl(run_dir / "logs" / model / f"{Path(name).stem}.jsonl")
                for name in files[task]]

    handovers = [load_episode(run_dir / name) for name in files["handover"]]
    report = MetricReport()
    for model in cfg.models:
        report.planning[f"{model}/stir"] = metrics.stop_restart_times(
            logs(model, "stir"), logs("cur", "stir"))
        report.planning[f"{model}/handover"] = metrics.handover_metrics(
            logs(model, "handover"), logs("cur", "handover"), handovers)
    report.to_json(tmp_path / "plan_report.json")
    assert (tmp_path / "plan_report.json").read_bytes() == \
        (run_dir / "plan_report.json").read_bytes()


def test_eval_plan_resolves_every_model_before_playback(pipeline, tmp_path, capsys):
    # a preset that was never trained exits 3 before the first playback,
    # though cur, which comes first, needs no checkpoint
    _, source, _ = pipeline
    config = write_config(tmp_path, dict(MINI, models=["cur", "manicast-w"]))
    run_dir = RunConfig.load(config, str(tmp_path / "runs")).run_dir()
    shutil.copytree(source, run_dir, dirs_exist_ok=True)   # same seed, same data
    with mock.patch.object(cli, "run_episode", side_effect=AssertionError("played")):
        code = main(["eval-plan", "--config", config, "--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: no checkpoint for model 'manicast-w'" in err and "Traceback" not in err
    assert not (run_dir / "logs").exists()


def test_wrist_error_of_the_oracle_forecast_is_zero(played):
    # wrist_error_mm compares the forecast final wrist with the true wrist
    # at the same frame, so the true-future forecaster scores zero
    _, run_dir, _ = played
    [path] = (run_dir / "logs" / "fut").glob("handover_*.csv")
    with open(path, newline="") as f:
        errors = [row["wrist_error_mm"] for row in csv.DictReader(f)]
    assert errors and all(e != "" for e in errors)
    assert max(float(e) for e in errors) <= 1e-6


def test_lemma_check_command(capsys):
    assert main(["lemma-check", "--n-instances", "50", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "50/50 passed" in out


@pytest.mark.parametrize("args, code, message", [
    (["--seed", "-1"], 2, "--seed must be a non-negative integer"),
    (["--n-instances", "-3"], 2, "--n-instances must be a non-negative integer"),
    (["--n-instances", "0"], 0, "random sweep: 0/0 passed"),
])
def test_lemma_check_rejects_negative_arguments(capsys, args, code, message):
    assert main(["lemma-check", *args]) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err and "Traceback" not in captured.err
