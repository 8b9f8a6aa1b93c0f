"""Command-line entry points for training, export and gradient checks.

Configuration is resolved in three layers: built-in defaults, then a
JSON config file (``--config``, unknown keys rejected), then explicitly
passed flags.  Every run echoes its resolved configuration into a
sidecar JSON next to its outputs, and a train command's run also
records what it ran on, and how long and how large it ran, in
``run.json``, which no seeded rerun reproduces byte for byte.  Exit
codes: 0 success, 1 runtime failure, 2 bad input or configuration.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import platform
import sys
import time
from importlib import import_module
from pathlib import Path

import click
from click.core import ParameterSource

_READOUT_MAP = {"sum": "column_sum", "l1": "column_l1", "l2": "column_l2"}
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Defaults shared by the train commands.  A config value must have its
# default's type, or the type _NULL_DEFAULT_TYPES names where the default
# is None; only those keys accept null.
_SHARED_DEFAULTS = {
    "seed": 0, "epochs": 100, "lr": 1e-3, "batch_size": 16, "hidden_dim": 16, "steps": 5,
    "threads": None, "optimizer": "adam", "activation": "relu", "val_fraction": 0.2,
    "early_stop_patience": 40, "plateau_factor": 0.5, "plateau_patience": 10,
}
_NULL_DEFAULT_TYPES = {"threads": int, "dataset_dir": str, "attribute_columns": list}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# type -> (its name in error messages, the check a config value must pass)
_TYPE_CHECKS = {
    int: ("an integer", _is_int),
    float: ("a finite number",
            lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
}

# The flags of the train commands in --help order, with their help text.
# A command has --config and the flag of each key among its defaults;
# every other key is set through --config alone.
_FLAG_HELP = {
    "config": "JSON config file; explicit flags override it.",
    "seed": None, "epochs": None, "lr": None, "batch_size": None, "hidden_dim": None,
    "steps": "Subdivision steps per simplex edge for integration.",
    "num_forms": "Number of forms (feature columns).",
    "threads": "Cap BLAS worker threads (set before numeric work starts).",
    "dataset_dir": "Directory holding the <name>_*.txt files.",
    "out": None, "readout": None,
    "k": "Form degree; 0 swaps in the vertex-evaluation baseline.",
    "folds": None,
}
_FLAG_TYPES = {
    "config": click.Path(exists=True, dir_okay=False),
    "dataset_dir": click.Path(exists=True, file_okay=False),
    "out": click.Path(file_okay=False),
    "readout": click.Choice(sorted(_READOUT_MAP)),
}


def _set_threads(threads: int | None) -> None:
    """Best-effort BLAS worker cap; must run before numpy loads its
    backend, which is why the numeric modules are imported lazily.  A
    count below 1 raises ValueError and sets nothing."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads must be a positive integer, got {threads}")
        for var in _THREAD_VARS:
            os.environ[var] = str(threads)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _resolve(ctx: click.Context, defaults: dict) -> dict:
    resolved = dict(defaults)
    config_path = ctx.params["config"]
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh, parse_constant=_refuse_constant)
        except (OSError, ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep
            raise ValueError(f"cannot read config {config_path}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ValueError(f"{config_path}: unknown config keys {unknown}")
        for key, value in file_cfg.items():
            default = defaults[key]
            if value is None and default is None:
                continue
            kind = _NULL_DEFAULT_TYPES[key] if default is None else type(default)
            name, check = _TYPE_CHECKS[kind]
            if not check(value):
                name += " or null" if default is None else ""
                raise ValueError(
                    f"{config_path}: config key {key!r} must be {name}, got {json.dumps(value)}"
                )
        resolved.update(file_cfg)
    for key, value in ctx.params.items():
        if key in resolved and ctx.get_parameter_source(key) == ParameterSource.COMMANDLINE:
            resolved[key] = value
    return resolved


def _from_config(cls, resolved: dict, **given):
    """The dataclass ``cls`` with each field not ``given`` set to the
    resolved config value of the same name."""
    fields = {f.name: resolved[f.name] for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**fields, **given)


def _write_json(path: Path, doc, sort_keys: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _write_representations(path: Path, classifier, data) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        num = classifier.form.num_forms
        writer.writerow([f"readout_{j}" for j in range(num)] + ["label"])
        for item, feats in zip(data.items, classifier.features_each(data.items)):
            writer.writerow([repr(float(v)) for v in feats] + [item.label])


def _write_run(out_dir: Path, started: float) -> None:
    """run.json: versions, CPUs, BLAS thread variables, wall seconds since
    ``started`` and the process's peak RSS."""
    import resource

    import numpy as np

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    _write_json(out_dir / "run.json", {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "wall_s": time.perf_counter() - started,
        "peak_rss_mb": peak / (2**20 if sys.platform == "darwin" else 2**10),
    })


def _run_guarded(body):
    """Map domain errors to the documented exit codes.  The except
    clauses import ``kforms.data`` and ``kforms.model``, and so numpy,
    only once ``body`` has raised: ``body`` applies ``--threads`` first."""
    try:
        return body()
    except (ValueError, TypeError, import_module(".data", __package__).DataFormatError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except (OSError, MemoryError, import_module(".model", __package__).TrainingDivergence) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


def _prepare(resolved: dict, data):
    """The run's TrainConfig and its data, re-chained to degree k where
    needed; creates the output directory and writes config.json."""
    from .model import TrainConfig, rechain_dataset

    readout = _READOUT_MAP.get(resolved["readout"])
    if readout is None:
        raise ValueError(f"readout must be one of {sorted(_READOUT_MAP)}")
    cfg = _from_config(TrainConfig, resolved, max_epochs=resolved["epochs"], readout=readout)
    if cfg.k != data.chain_dim:
        data = rechain_dataset(data, cfg.k)
    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", resolved)
    return cfg, data, out_dir


def _fit(resolved: dict, data) -> None:
    from .model import save_classifier, train

    cfg, data, out_dir = _prepare(resolved, data)
    result = train(cfg, data)
    _write_jsonl(out_dir / "metrics.jsonl", result.history)
    save_classifier(result.classifier, out_dir / "checkpoint.kfc")
    _write_representations(out_dir / "representations.csv", result.classifier, data)
    click.echo(
        f"best epoch {result.best_epoch}: val loss {result.best_val_loss:.6f}, "
        f"val accuracy {result.best_val_accuracy:.4f}"
    )


def _paths_step(resolved: dict) -> None:
    from .data import PathDatasetSpec, gen_paths

    _fit(resolved, gen_paths(_from_config(PathDatasetSpec, resolved)))


def _surfaces_step(resolved: dict) -> None:
    from .data import SurfaceDatasetSpec, gen_surfaces

    _fit(resolved, gen_surfaces(_from_config(SurfaceDatasetSpec, resolved)))


def _graphs_step(resolved: dict) -> None:
    from .data import parse_tu, tu_to_dataset
    from .model import kfold_cv

    dataset_dir = resolved["dataset_dir"]
    if dataset_dir is None:
        raise ValueError("dataset_dir is required: pass --dataset-dir or set it in --config")
    if not os.path.isdir(dataset_dir):
        raise ValueError(f"dataset_dir {dataset_dir!r} is not a directory")
    raw = parse_tu(dataset_dir)
    data = tu_to_dataset(raw, resolved["attribute_columns"], resolved["standardize"])
    cfg, data, out_dir = _prepare(resolved, data)
    cv = kfold_cv(cfg, data, resolved["folds"])
    rows, folds = [], []
    for f in cv.folds:
        loss, accuracy = float(f.report.loss), float(f.report.accuracy)
        rows.extend({**row, "fold": f.fold} for row in f.history)
        rows.append({"epoch": f.best_epoch, "split": "test", "loss": loss, "accuracy": accuracy,
                     "fold": f.fold})
        folds.append({"fold": f.fold, "accuracy": f.report.accuracy, "loss": f.report.loss})
    _write_jsonl(out_dir / "metrics.jsonl", rows)
    report = {"dataset": raw.name, "folds": folds, "mean_accuracy": cv.mean_accuracy,
              "std_accuracy": cv.std_accuracy}
    _write_json(out_dir / "report.json", report, sort_keys=False)
    click.echo(
        f"{raw.name}: {resolved['folds']}-fold accuracy "
        f"{cv.mean_accuracy:.4f} +- {cv.std_accuracy:.4f}"
    )


# command -> (help text, its defaults beyond _SHARED_DEFAULTS, dataset step)
_TRAIN_COMMANDS = {
    "train-paths": (
        """Train on three classes of oriented planar polylines.

        Headless by default: the per-path integrals of the learned 1-forms
        are the logits themselves.""",
        {"out": "runs/paths", "readout": "sum", "num_forms": 3, "k": 1, "use_head": False,
         "samples_per_class": 100, "points_per_path": 32, "noise": 0.02},
        _paths_step,
    ),
    "train-surfaces": (
        """Train on triangulated sine surfaces (height varying along x vs y).

        Headless with an orientation-free column norm readout, so the two
        norms are the logits.""",
        {"out": "runs/surfaces", "readout": "l2", "num_forms": 2, "k": 2, "use_head": False,
         "samples_per_class": 100, "grid_size": 10, "noise": 0.05, "translation": 0.5},
        _surfaces_step,
    ),
    "train-graphs": (
        "Cross-validated graph classification from TU-format text files.",
        {"dataset_dir": None, "out": "runs/graphs", "readout": "l2", "num_forms": 8, "k": 1,
         "folds": 5, "use_head": True, "standardize": False, "attribute_columns": None},
        _graphs_step,
    ),
}


@click.group()
def main():
    """Learnable differential k-forms over embedded simplicial complexes."""


def _add_train_command(name: str, help_text: str, own_defaults: dict, step) -> None:
    defaults = {**_SHARED_DEFAULTS, **own_defaults}

    @click.pass_context
    def command(ctx, **_flags):
        def body():
            started = time.perf_counter()
            resolved = _resolve(ctx, defaults)
            _set_threads(resolved["threads"])
            step(resolved)
            _write_run(Path(resolved["out"]), started)

        _run_guarded(body)

    for key in reversed([key for key in _FLAG_HELP if key == "config" or key in defaults]):
        default = defaults.get(key)
        command = click.option(
            "--" + key.replace("_", "-"),
            type=_FLAG_TYPES.get(key, _NULL_DEFAULT_TYPES.get(key, type(default))),
            default=default,
            show_default=True,
            help=_FLAG_HELP[key],
        )(command)
    main.command(name, help=help_text)(command)


for _name, _entry in _TRAIN_COMMANDS.items():
    _add_train_command(_name, *_entry)


@main.command("export-field")
@click.option("--checkpoint", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), default="field.csv", show_default=True)
@click.option("--grid-min", type=float, default=0.0, show_default=True)
@click.option("--grid-max", type=float, default=1.0, show_default=True)
@click.option("--grid-points", type=int, default=10, show_default=True)
@click.option("--threads", type=int, default=None)
def export_field(checkpoint, out, grid_min, grid_max, grid_points, threads):
    """Sample a saved form's coefficient functions on a regular grid.

    For k=1 the exported coefficients are exactly the components of the
    learned vector fields."""

    def body():
        _set_threads(threads)
        import numpy as np

        from .forms import load_form
        from .model import load_classifier
        from .nn import read_blob

        if grid_points < 1:
            raise ValueError("grid-points must be positive")
        if not -sys.float_info.max <= grid_min < grid_max <= sys.float_info.max:
            raise ValueError("grid-max must exceed grid-min, and both must be finite")
        header, _ = read_blob(checkpoint)
        kind = header.get("kind")
        if kind == "kform":
            form = load_form(checkpoint)
        elif kind == "kform-classifier":
            form = load_classifier(checkpoint).form
        else:
            raise ValueError(f"{checkpoint}: no k-form inside (kind={kind!r})")
        axis = np.linspace(grid_min, grid_max, grid_points)
        # rows in lexicographic grid order: the first coordinate varies slowest
        points = np.stack(np.meshgrid(*[axis] * form.n, indexing="ij"), axis=-1).reshape(-1, form.n)
        values = form.psi.forward(points)  # rows already in checkpoint layout order
        names = [f"x{d + 1}" for d in range(form.n)]
        for j in range(form.num_forms):
            for index in form.table.indices:
                suffix = "dx" + "".join(str(i) for i in index) if index else "const"
                names.append(f"alpha_{j}_{suffix}")
        out_path = Path(out)
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for row_p, row_v in zip(points, values):
                writer.writerow([repr(float(v)) for v in row_p]
                                + [repr(float(v)) for v in row_v])
        sidecar = {"checkpoint": str(checkpoint), "out": str(out), "grid_min": grid_min,
                   "grid_max": grid_max, "grid_points": grid_points}
        _write_json(out_path.with_suffix(".config.json"), sidecar)
        click.echo(f"wrote {points.shape[0]} rows to {out_path}")

    _run_guarded(body)


@main.command("gradcheck")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threads", type=int, default=None)
@click.option("--corrupt", is_flag=True, hidden=True,
              help="Negative control: sabotage one analytic gradient entry.")
def gradcheck(seed, threads, corrupt):
    """Compare analytic pipeline gradients against central differences
    for k = 0, 1, 2 with smooth activations and readouts."""

    def body():
        _set_threads(threads)
        from .model import finite_difference_error
        from . import _gradcheck_cases

        failures = 0
        for label, classifier, item in _gradcheck_cases.build_cases(seed):
            err = finite_difference_error(classifier, item, corrupt=corrupt)
            ok = err < 1e-4
            failures += not ok
            click.echo(f"{label}: max rel err {err:.3e} {'PASS' if ok else 'FAIL'}")
        if failures:
            click.echo(f"{failures} case(s) failed", err=True)
            sys.exit(1)
        click.echo("all gradient checks passed")

    _run_guarded(body)


if __name__ == "__main__":
    main()
