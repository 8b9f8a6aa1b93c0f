import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import kforms
from kforms import cli
from kforms.cli import main


TINY_PATHS = {"samples_per_class": 6, "points_per_path": 6, "epochs": 2, "hidden_dim": 4}


def write_config(directory: Path, payload: dict) -> Path:
    path = directory / "config.json"
    path.write_text(json.dumps(payload))
    return path


def read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture
def runner():
    return CliRunner()


def assert_one_error_line(result, *fragments):
    """Exit 2 with a single ``error:`` line containing each fragment."""
    assert result.exit_code == 2, result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output
    for fragment in fragments:
        assert fragment in lines[0]


_SHARED = {
    "seed": 0, "epochs": 100, "lr": 0.001, "batch_size": 16, "hidden_dim": 16, "steps": 5,
    "threads": None, "optimizer": "adam", "activation": "relu", "val_fraction": 0.2,
    "early_stop_patience": 40, "plateau_factor": 0.5, "plateau_patience": 10,
}
# Every train command's resolved defaults, as the commands resolved them
# before their options moved into one table.
PINNED_DEFAULTS = {
    "train-paths": {
        **_SHARED, "out": "runs/paths", "readout": "sum", "num_forms": 3, "k": 1,
        "use_head": False, "samples_per_class": 100, "points_per_path": 32, "noise": 0.02,
    },
    "train-surfaces": {
        **_SHARED, "out": "runs/surfaces", "readout": "l2", "num_forms": 2, "k": 2,
        "use_head": False, "samples_per_class": 100, "grid_size": 10, "noise": 0.05,
        "translation": 0.5,
    },
    "train-graphs": {
        **_SHARED, "dataset_dir": None, "out": "runs/graphs", "readout": "l2", "num_forms": 8,
        "k": 1, "folds": 5, "use_head": True, "standardize": False, "attribute_columns": None,
    },
}
TRAIN_FLAGS = ["--config", "--seed", "--epochs", "--lr", "--batch-size", "--hidden-dim",
               "--steps", "--num-forms", "--threads"]
PINNED_FLAGS = {
    "train-paths": TRAIN_FLAGS + ["--out", "--readout", "--k", "--help"],
    "train-surfaces": TRAIN_FLAGS + ["--out", "--readout", "--k", "--help"],
    "train-graphs": TRAIN_FLAGS + ["--dataset-dir", "--out", "--readout", "--k", "--folds", "--help"],
}
NULL_DEFAULT_TYPES = {"threads": int, "dataset_dir": str, "attribute_columns": list}
WRONG_VALUE = {int: 2.5, float: "0.5", bool: "no", str: 3, list: "ab"}


def wrong_typed_keys():
    for command, defaults in PINNED_DEFAULTS.items():
        for key, default in defaults.items():
            kind = NULL_DEFAULT_TYPES[key] if default is None else type(default)
            yield pytest.param(command, key, WRONG_VALUE[kind], id=f"{command}-{key}")


class TestTrainCommandTable:
    @pytest.mark.parametrize("command", sorted(PINNED_DEFAULTS))
    def test_resolved_defaults_are_pinned(self, runner, tmp_path, tu_dir, command):
        out = tmp_path / "run"
        args = [command, "--epochs", "0", "--out", str(out)]
        expected = {**PINNED_DEFAULTS[command], "out": str(out), "epochs": 0}
        if command == "train-graphs":
            args += ["--dataset-dir", str(tu_dir)]
            expected["dataset_dir"] = str(tu_dir)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        resolved = json.loads((out / "config.json").read_text())
        # the dumps compare types too: 0, 0.0 and false differ
        assert json.dumps(resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("command", sorted(PINNED_DEFAULTS))
    def test_run_json_records_the_run(self, runner, tmp_path, tu_dir, command):
        out = tmp_path / "run"
        args = [command, "--epochs", "0", "--out", str(out)]
        if command == "train-graphs":
            args += ["--dataset-dir", str(tu_dir), "--folds", "2"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        run = json.loads((out / "run.json").read_text())
        assert set(run) == {"python", "numpy", "cpu_count", "cpu_affinity", "item_threads",
                            "blas_thread_env", "wall_s", "peak_rss_mb"}
        assert run["python"] == sys.version.split()[0] and run["numpy"] == np.__version__
        assert run["cpu_count"] == os.cpu_count()
        assert run["item_threads"] == len(run["cpu_affinity"]) >= 1
        assert set(run["blas_thread_env"]) == set(THREAD_VARS)
        assert run["wall_s"] > 0 and run["peak_rss_mb"] > 10

    @pytest.mark.parametrize("command", sorted(PINNED_DEFAULTS))
    def test_copied_defaults_match_the_fields_they_feed(self, command):
        """The CLI may not import numpy before --threads applies, so it
        repeats the library's defaults as literals; each must equal the
        default of the field it feeds, type included."""
        from kforms.data import PathDatasetSpec, SurfaceDatasetSpec, tu_to_dataset
        from kforms.model import TrainConfig, kfold_cv
        from kforms.quadrature import DEFAULT_STEPS

        spec = {"train-paths": PathDatasetSpec, "train-surfaces": SurfaceDatasetSpec}.get(command)
        fed = [{f.name: f.default for f in dataclasses.fields(cls)}
               for cls in (TrainConfig, spec) if cls is not None]
        fed += [{name: p.default for name, p in inspect.signature(fn).parameters.items()}
                for fn in (tu_to_dataset, kfold_cv) if command == "train-graphs"]
        _, own, _ = cli._TRAIN_COMMANDS[command]
        exempt = {"k", "num_forms", "use_head", "readout"}  # each command sets its own
        unchecked = set()
        for key, value in {**cli._SHARED_DEFAULTS, **own}.items():
            name = {"epochs": "max_epochs"}.get(key, key)
            targets = [defaults[name] for defaults in fed if name in defaults]
            if key in exempt or not targets:
                unchecked.add(key)
                continue
            for default in targets:
                assert (type(value), value) == (type(default), default), key
        # only keys that feed no field go unchecked
        assert unchecked - {"dataset_dir"} == exempt | {"threads", "out"}
        assert cli._SHARED_DEFAULTS["steps"] == DEFAULT_STEPS == TrainConfig.steps

    @pytest.mark.parametrize("command", sorted(PINNED_FLAGS))
    def test_help_lists_the_pinned_flags(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert re.findall(r"^  (--[a-z-]+)", result.output, re.M) == PINNED_FLAGS[command]

    @pytest.mark.parametrize("command, key, value", list(wrong_typed_keys()))
    def test_wrong_config_type_exits_2_with_one_line(self, runner, tmp_path, command, key, value):
        cfg = write_config(tmp_path, {key: value})
        extra = ["--dataset-dir", str(tmp_path)] if command == "train-graphs" else []
        result = runner.invoke(main, [command, "--config", str(cfg), *extra])
        assert_one_error_line(result, repr(key), json.dumps(value))

    @pytest.mark.parametrize(
        "payload",
        [{"epochs": True}, {"epochs": 1.0}, {"use_head": 1}, {"num_forms": None}, {"noise": None}],
    )
    def test_near_miss_types_rejected(self, runner, tmp_path, payload):
        cfg = write_config(tmp_path, payload)
        result = runner.invoke(main, ["train-paths", "--config", str(cfg)])
        assert_one_error_line(result, repr(next(iter(payload))))

    def test_int_for_float_and_null_for_null_default_accepted(self, runner, tmp_path):
        cfg = write_config(tmp_path, {**TINY_PATHS, "epochs": 0, "lr": 1, "threads": None})
        out = tmp_path / "run"
        result = runner.invoke(main, ["train-paths", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["lr"] == 1 and resolved["threads"] is None

    def test_threads_applied_before_numpy_loads(self, tmp_path):
        cfg = write_config(tmp_path, {**TINY_PATHS, "epochs": 0})
        script = f"""
import os, sys
import kforms.cli as cli
real = cli._set_threads
def spy(threads):
    print("numpy loaded:", "numpy" in sys.modules)
    real(threads)
cli._set_threads = spy
cli.main(["train-paths", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "run")!r},
          "--threads", "1"])
"""
        src = str(Path(kforms.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={"PATH": "", "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "numpy loaded: False"


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("threads", [0, -2])
@pytest.mark.parametrize(
    "command, source",
    [(cmd, src) for cmd in ("train-paths", "train-surfaces", "train-graphs")
     for src in ("flag", "config")] + [("export-field", "flag"), ("gradcheck", "flag")],
)
def test_non_positive_threads_exit_2_and_set_nothing(runner, tmp_path, monkeypatch, command,
                                                     source, threads):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    args = [command]
    if source == "flag":
        args += ["--threads", str(threads)]
    else:
        args += ["--config", str(write_config(tmp_path, {"threads": threads}))]
    if command == "train-graphs":
        args += ["--dataset-dir", str(tmp_path)]
    if command == "export-field":
        checkpoint = tmp_path / "clf.kfc"
        checkpoint.write_bytes(b"")  # never read: the thread count is checked first
        args += ["--checkpoint", str(checkpoint), "--out", str(tmp_path / "f.csv")]
    if command.startswith("train-"):
        args += ["--out", str(tmp_path / "run")]
    result = runner.invoke(main, args)
    assert_one_error_line(result, f"threads must be a positive integer, got {threads}")
    assert not any(var in os.environ for var in THREAD_VARS)
    assert not (tmp_path / "run").exists() and not (tmp_path / "f.csv").exists()


class _Resolved(Exception):
    """Raised in place of the dataset step once a config has resolved."""

    def __init__(self, resolved: dict):
        super().__init__("resolved")
        self.resolved = resolved


def _stop_after_resolving(ctx, defaults):
    raise _Resolved(_RESOLVE(ctx, defaults))


_RESOLVE = cli._resolve
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def _config_files(draw) -> tuple:
    """(command, config file bytes): mostly objects over the command's own
    keys with values of any JSON type, some with an unknown key, some
    other JSON documents, deep nesting, raw or truncated bytes, and
    ``1e999`` literals, beyond float range, where ``json.dumps`` wrote
    Infinity."""
    command = draw(st.sampled_from(sorted(PINNED_DEFAULTS)))
    keys = sorted(PINNED_DEFAULTS[command])
    value = _JSON | st.integers(-3, 300) | st.lists(st.integers(-1, 4), max_size=3)
    payload = draw(st.dictionaries(st.sampled_from(keys) | st.text(max_size=6), value, max_size=4)
                   | st.dictionaries(st.sampled_from(keys), value, max_size=4) | _JSON)
    text = json.dumps(payload).encode("utf-8")  # NaN and Infinity for non-finite floats
    blob = draw(st.sampled_from(["json"] * 6 + ["truncated", "deep", "bytes", "overflow"]))
    if blob == "bytes":
        return command, draw(st.binary(max_size=24))
    return command, {"json": text, "truncated": text[:-1], "deep": b"[" * 5000 + b"]" * 5000,
                     "overflow": text.replace(b"Infinity", b"1e999")}[blob]


@pytest.mark.parametrize("command", sorted(PINNED_DEFAULTS))
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exits_2_naming_the_key(runner, tmp_path, tu_dir, command, source):
    payload = {"dataset_dir": str(tu_dir)} if command == "train-graphs" else {}
    if source == "config":
        payload["seed"] = -1
    args = ["--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path / "run")]
    result = runner.invoke(main, [command, *args, *(["--seed", "-1"] if source == "flag" else [])])
    assert_one_error_line(result, "seed must be nonnegative, got -1")
    assert not (tmp_path / "run").exists()


class TestConfigFuzz:
    @settings(max_examples=300)
    @given(case=_config_files())
    def test_config_resolves_or_exits_2_with_one_line(self, case):
        """A --config file either resolves to values of their defaults'
        types (or null where the default is null) or ends the command
        with exit 2 and one error line, never a traceback."""
        command, blob = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "config.json")
            path.write_bytes(blob)
            with mock.patch.object(cli, "_resolve", _stop_after_resolving):
                result = CliRunner().invoke(main, [command, "--config", str(path)])
        if not isinstance(result.exception, _Resolved):
            assert "Traceback" not in result.output
            assert_one_error_line(result, str(path))
            return
        defaults = PINNED_DEFAULTS[command]
        assert sorted(result.exception.resolved) == sorted(defaults)
        for key, value in result.exception.resolved.items():
            if value is None and defaults[key] is None:
                continue
            kind = NULL_DEFAULT_TYPES[key] if defaults[key] is None else type(defaults[key])
            assert cli._TYPE_CHECKS[kind][1](value), (key, value)

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, defaults in PINNED_DEFAULTS.items()
        for key, default in defaults.items()
        if type(default) in (int, float) or NULL_DEFAULT_TYPES.get(key) is int
    ])
    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    def test_numbers_beyond_float_range_exit_2_with_one_line(self, tmp_path, command, key,
                                                              literal):
        """The command runs unpatched up to training, so an overflowing
        number that resolved would reach the dataset step and the
        TrainConfig; it must be refused while the config resolves, with
        exit 2 and one error line naming the file and the key."""
        import kforms.model

        small = {"samples_per_class": "2", "grid_size": "3", "epochs": "1"}
        fields = {k: v for k, v in small.items() if k in PINNED_DEFAULTS[command]}
        fields[key] = literal
        path = tmp_path / "config.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        reached = AssertionError("training started")
        with mock.patch.object(kforms.model, "train", side_effect=reached), \
                mock.patch.object(kforms.model, "kfold_cv", side_effect=reached):
            result = CliRunner().invoke(main, [command, "--config", str(path),
                                               "--out", str(tmp_path / "run")])
        assert_one_error_line(result, str(path), repr(key))

    @pytest.mark.parametrize("blob, fragment", [
        pytest.param(b"[" * 100000, "recursion", id="deep"),
        pytest.param(b'{"seed": "\xff"}', "utf-8", id="not-utf8"),
        pytest.param(b'{"lr": NaN}', "NaN is not a JSON value", id="nan"),
        pytest.param(b'{"lr": -Infinity}', "-Infinity is not a JSON value", id="infinity"),
    ])
    def test_unreadable_config_names_the_file(self, runner, tmp_path, blob, fragment):
        path = tmp_path / "config.json"
        path.write_bytes(blob)
        result = runner.invoke(main, ["train-paths", "--config", str(path)])
        assert_one_error_line(result, f"cannot read config {path}", fragment)


class TestTrainPaths:
    def test_writes_all_artifacts(self, runner, tmp_path):
        cfg = write_config(tmp_path, TINY_PATHS)
        out = tmp_path / "run"
        result = runner.invoke(main, ["train-paths", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        for name in ("metrics.jsonl", "checkpoint.kfc", "representations.csv", "config.json"):
            assert (out / name).is_file()
        rows = read_jsonl(out / "metrics.jsonl")
        assert [r["epoch"] for r in rows] == [0, 0, 1, 1, 2, 2]
        for row in rows:
            assert set(row) == {"epoch", "split", "loss", "accuracy"}
        header, *body = (out / "representations.csv").read_text().splitlines()
        assert header == "readout_0,readout_1,readout_2,label"
        assert len(body) == 18

    def test_flag_beats_config_beats_default(self, runner, tmp_path):
        cfg = write_config(tmp_path, {**TINY_PATHS, "lr": 0.5})
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["train-paths", "--config", str(cfg), "--epochs", "1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["epochs"] == 1  # flag wins over the config's 2
        assert resolved["lr"] == 0.5  # config wins over the default 1e-3
        assert resolved["batch_size"] == 16  # untouched default
        assert resolved["out"] == str(out)

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"learning_rate": 0.1})
        result = runner.invoke(main, ["train-paths", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "learning_rate" in result.output

    def test_malformed_config_rejected(self, runner, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["train-paths", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_non_object_config_rejected(self, runner, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        result = runner.invoke(main, ["train-paths", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "JSON object" in result.output

    def test_invalid_readout_rejected(self, runner):
        result = runner.invoke(main, ["train-paths", "--readout", "max"])
        assert result.exit_code == 2

    def test_invalid_readout_in_config_exits_2_with_one_line(self, runner, tmp_path):
        cfg = write_config(tmp_path, {**TINY_PATHS, "readout": "max"})
        result = runner.invoke(main, ["train-paths", "--config", str(cfg),
                                      "--out", str(tmp_path / "run")])
        assert_one_error_line(result, "readout must be one of ['l1', 'l2', 'sum']")

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    def test_non_finite_lr_flag_exits_2_with_one_line(self, runner, tmp_path, lr):
        cfg = write_config(tmp_path, {**TINY_PATHS, "epochs": 1})
        result = runner.invoke(main, ["train-paths", "--config", str(cfg), "--lr", lr,
                                      "--out", str(tmp_path / "run")])
        assert_one_error_line(result, "lr must be positive and finite")

    def test_k_zero_baseline_runs(self, runner, tmp_path):
        cfg = write_config(tmp_path, {**TINY_PATHS, "epochs": 1})
        out = tmp_path / "run"
        result = runner.invoke(
            main, ["train-paths", "--config", str(cfg), "--k", "0", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert json.loads((out / "config.json").read_text())["k"] == 0

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        cfg = write_config(tmp_path, TINY_PATHS)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(
                main, ["train-paths", "--config", str(cfg), "--seed", "3", "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            outs.append(out)
        for artifact in ("metrics.jsonl", "representations.csv", "checkpoint.kfc"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


class TestTrainSurfaces:
    def test_small_run_completes(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            {"grid_size": 4, "samples_per_class": 5, "epochs": 1, "hidden_dim": 4, "steps": 2},
        )
        out = tmp_path / "run"
        result = runner.invoke(main, ["train-surfaces", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["k"] == 2
        assert resolved["readout"] == "l2"
        header = (out / "representations.csv").read_text().splitlines()[0]
        assert header == "readout_0,readout_1,label"


class TestTrainGraphs:
    def test_cross_validation_artifacts(self, runner, tmp_path, tu_dir):
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            [
                "train-graphs", "--dataset-dir", str(tu_dir), "--out", str(out),
                "--epochs", "1", "--folds", "2", "--hidden-dim", "4", "--num-forms", "2",
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["dataset"] == "TOY"
        assert len(report["folds"]) == 2
        assert 0.0 <= report["mean_accuracy"] <= 1.0
        rows = read_jsonl(out / "metrics.jsonl")
        assert {r["fold"] for r in rows} == {0, 1}
        test_rows = [r for r in rows if r["split"] == "test"]
        assert len(test_rows) == 2

    def test_missing_dataset_dir_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main, ["train-graphs", "--dataset-dir", str(tmp_path / "nope")]
        )
        assert result.exit_code == 2
        result = runner.invoke(main, ["train-graphs"])
        assert_one_error_line(result, "dataset_dir")
        cfg = write_config(tmp_path, {"dataset_dir": str(tmp_path / "nope")})
        result = runner.invoke(main, ["train-graphs", "--config", str(cfg)])
        assert_one_error_line(result, "dataset_dir", "nope")

    def test_dataset_dir_from_config(self, runner, tmp_path, tu_dir):
        cfg = write_config(tmp_path, {"dataset_dir": str(tu_dir), "epochs": 0, "folds": 2})
        out = tmp_path / "run"
        result = runner.invoke(main, ["train-graphs", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "config.json").read_text())["dataset_dir"] == str(tu_dir)
        # the flag overrides the config
        cfg = write_config(tmp_path, {"dataset_dir": str(tmp_path / "nope"), "epochs": 0,
                                      "folds": 2})
        result = runner.invoke(main, ["train-graphs", "--config", str(cfg), "--out", str(out),
                                      "--dataset-dir", str(tu_dir)])
        assert result.exit_code == 0, result.output

    def test_unparseable_dataset_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["train-graphs", "--dataset-dir", str(tmp_path)])
        assert result.exit_code == 2

    def test_truncated_dataset_exits_2_without_traceback(self, tmp_path, tu_dir):
        edges = tu_dir / "TOY_A.txt"
        text = edges.read_text()
        edges.write_text(text[: text.index(",", len(text) // 2) + 1])  # ends after a comma
        src = str(Path(kforms.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "kforms.cli", "train-graphs", "--dataset-dir", str(tu_dir),
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env={"PATH": "", "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "TOY_A.txt" in lines[0] and "Traceback" not in proc.stderr + proc.stdout

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"steps": 2.5}, "'steps'"),
            ({"use_head": "no"}, "'use_head'"),
            ({"standardize": "yes"}, "'standardize'"),
            ({"attribute_columns": "ab"}, "'attribute_columns'"),
            ({"attribute_columns": [99]}, "attribute column 99"),
        ],
    )
    def test_malformed_config_exits_2_with_one_line(self, runner, tmp_path, tu_dir, payload,
                                                    fragment):
        cfg = write_config(tmp_path, {**payload, "epochs": 1})
        result = runner.invoke(
            main, ["train-graphs", "--config", str(cfg), "--dataset-dir", str(tu_dir),
                   "--out", str(tmp_path / "run")],
        )
        assert_one_error_line(result, fragment)

    @pytest.mark.parametrize("suffix, row", [("_A.txt", "1, 99999999999999999999"),
                                             ("_graph_indicator.txt", "99999999999999999999")])
    def test_id_beyond_int64_exits_2_with_one_line(self, runner, tmp_path, tu_dir, suffix, row):
        with open(tu_dir / f"TOY{suffix}", "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        result = runner.invoke(main, ["train-graphs", "--dataset-dir", str(tu_dir)])
        assert_one_error_line(result, f"TOY{suffix}", "int64")

    def test_k_zero_baseline_runs(self, runner, tmp_path, tu_dir):
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            ["train-graphs", "--dataset-dir", str(tu_dir), "--out", str(out), "--k", "0",
             "--epochs", "1", "--folds", "2", "--hidden-dim", "4"],
        )
        assert result.exit_code == 0, result.output
        assert json.loads((out / "config.json").read_text())["k"] == 0

    def test_too_many_folds_rejected(self, runner, tmp_path, tu_dir):
        result = runner.invoke(
            main,
            ["train-graphs", "--dataset-dir", str(tu_dir), "--folds", "50",
             "--out", str(tmp_path / "run"), "--epochs", "1"],
        )
        assert result.exit_code == 2
        assert "fewer than" in result.output


class TestExportField:
    @pytest.fixture
    def checkpoint(self, runner, tmp_path):
        cfg = write_config(tmp_path, {**TINY_PATHS, "epochs": 1})
        out = tmp_path / "run"
        result = runner.invoke(main, ["train-paths", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out / "checkpoint.kfc"

    def test_grid_rows_and_header(self, runner, tmp_path, checkpoint):
        out = tmp_path / "field.csv"
        result = runner.invoke(
            main,
            ["export-field", "--checkpoint", str(checkpoint), "--out", str(out),
             "--grid-points", "5", "--grid-min", "-1", "--grid-max", "1"],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,alpha_0_dx1,alpha_0_dx2,alpha_1_dx1,alpha_1_dx2,alpha_2_dx1,alpha_2_dx2"
        assert len(lines) == 1 + 25
        first = [float(v) for v in lines[1].split(",")]
        assert first[:2] == [-1.0, -1.0]
        sidecar = json.loads((tmp_path / "field.config.json").read_text())
        assert sidecar["grid_points"] == 5

    def test_bare_form_checkpoint_accepted(self, runner, tmp_path):
        import numpy as np

        from kforms.forms import NeuralKForm, save_form

        form = NeuralKForm.init(2, 1, 1, (4,), "tanh", np.random.default_rng(0))
        ckpt = tmp_path / "form.kfc"
        save_form(form, ckpt)
        out = tmp_path / "field.csv"
        result = runner.invoke(
            main, ["export-field", "--checkpoint", str(ckpt), "--out", str(out),
                   "--grid-points", "3"],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 1 + 9

    def test_mlp_checkpoint_exits_2_with_one_line(self, runner, tmp_path):
        from kforms.nn import Mlp, save_mlp

        ckpt = tmp_path / "mlp.kfc"
        save_mlp(Mlp.init([2, 3], rng=np.random.default_rng(0)), ckpt)
        result = runner.invoke(main, ["export-field", "--checkpoint", str(ckpt),
                                      "--out", str(tmp_path / "f.csv")])
        assert_one_error_line(result, "no k-form inside (kind='mlp')")
        assert not (tmp_path / "f.csv").exists()

    def test_missing_checkpoint_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main, ["export-field", "--checkpoint", str(tmp_path / "nope.kfc")]
        )
        assert result.exit_code == 2

    def test_bad_grid_rejected(self, runner, tmp_path, checkpoint):
        result = runner.invoke(
            main,
            ["export-field", "--checkpoint", str(checkpoint),
             "--out", str(tmp_path / "f.csv"), "--grid-points", "0"],
        )
        assert result.exit_code == 2
        result = runner.invoke(
            main,
            ["export-field", "--checkpoint", str(checkpoint),
             "--out", str(tmp_path / "f.csv"), "--grid-min", "2", "--grid-max", "1"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("bounds", [["--grid-min", "nan"], ["--grid-max", "inf"],
                                        ["--grid-min", "-inf"]])
    def test_non_finite_grid_exits_2_with_one_line(self, runner, tmp_path, checkpoint, bounds):
        result = runner.invoke(main, ["export-field", "--checkpoint", str(checkpoint),
                                      "--out", str(tmp_path / "f.csv"), *bounds])
        assert_one_error_line(result, "both must be finite")
        assert not (tmp_path / "f.csv").exists()

    def test_damaged_checkpoint_exits_2_with_one_line(self, runner, tmp_path, damage):
        from kforms.model import TrainConfig, build_classifier, save_classifier

        ckpt = tmp_path / "clf.kfc"
        cfg = TrainConfig(num_forms=2, hidden_dim=4)
        save_classifier(build_classifier(2, 2, cfg, np.random.default_rng(3)), ckpt)
        ckpt.write_bytes(damage(ckpt.read_bytes()))
        result = runner.invoke(
            main, ["export-field", "--checkpoint", str(ckpt), "--out", str(tmp_path / "f.csv")]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("steps", [0, -3, 2.5, "5", True, None])
    def test_bad_steps_exit_2_with_one_line(self, runner, tmp_path, checkpoint, steps):
        from kforms.nn import read_blob, write_blob

        header, params = read_blob(checkpoint)
        header["steps"] = steps
        ckpt = tmp_path / "bad-steps.kfc"
        write_blob(ckpt, header, params)
        result = runner.invoke(
            main, ["export-field", "--checkpoint", str(ckpt), "--out", str(tmp_path / "f.csv")]
        )
        assert_one_error_line(result, f"steps must be a positive integer, got {steps!r}")
        assert not (tmp_path / "f.csv").exists()

    def test_huge_form_header_exits_2_without_building_the_table(self, tmp_path):
        from kforms.nn import write_blob

        # a valid 9-value payload for dims [2, 3], in a header for degree 30 in R^60
        ckpt = tmp_path / "huge.kfc"
        header = {"kind": "kform", "dims": [2, 3], "activation": "relu", "param_count": 9,
                  "ambient_dim": 60, "degree": 30, "num_forms": 1}
        write_blob(ckpt, header, np.zeros(9))
        src = str(Path(kforms.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "kforms.cli", "export-field", "--checkpoint", str(ckpt),
             "--out", str(tmp_path / "f.csv")],
            capture_output=True, text=True, env={"PATH": "", "PYTHONPATH": src}, timeout=10,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "ambient dim 60" in lines[0]
        assert not (tmp_path / "f.csv").exists()

    def test_grid_beyond_the_address_space_exits_1_with_one_line(self, tmp_path):
        # 100000**3 grid points of a form in R^3: 7.11 PiB per coordinate
        # array, far past any 64-bit address space, so the request fails
        # at once and nothing is allocated
        src = str(Path(kforms.__file__).resolve().parents[1])
        ckpt = Path(__file__).parent / "data" / "form.kfc"
        proc = subprocess.run(
            [sys.executable, "-m", "kforms.cli", "export-field", "--checkpoint", str(ckpt),
             "--out", str(tmp_path / "f.csv"), "--grid-points", "100000"],
            capture_output=True, text=True, env={"PATH": "", "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "Unable to allocate" in lines[0]
        assert not (tmp_path / "f.csv").exists()

    def test_values_match_checkpoint_mlp(self, runner, tmp_path, checkpoint):
        from kforms.model import load_classifier

        out = tmp_path / "field.csv"
        result = runner.invoke(
            main, ["export-field", "--checkpoint", str(checkpoint), "--out", str(out),
                   "--grid-points", "3"],
        )
        assert result.exit_code == 0, result.output
        form = load_classifier(checkpoint).form
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        pts = np.array([[float(r[0]), float(r[1])] for r in rows])
        vals = np.array([[float(v) for v in r[2:]] for r in rows])
        assert np.array_equal(vals, form.psi.forward(pts))


class TestGradcheckCommand:
    def test_passes_by_default(self, runner):
        result = runner.invoke(main, ["gradcheck", "--seed", "1"])
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 6
        assert "FAIL" not in result.output

    def test_corruption_is_detected(self, runner):
        result = runner.invoke(main, ["gradcheck", "--corrupt"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_negative_seed_exits_2_naming_the_seed(self, runner):
        result = runner.invoke(main, ["gradcheck", "--seed", "-1"])
        assert_one_error_line(result, "seed must be nonnegative, got -1")


class TestGroup:
    def test_no_arguments_shows_usage(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 2
        assert "Usage" in result.output

    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for cmd in ("train-paths", "train-surfaces", "train-graphs", "export-field", "gradcheck"):
            assert cmd in result.output
