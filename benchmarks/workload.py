"""One benchmark workload, run in its own process (started by run.py).

A round runs the three phases of the CLI's train-and-dump path by
calling the library directly, each timed from outside with
``time.perf_counter``:

* set-up: build or parse the training and the scoring set;
* train: ``kforms.model.train`` for a fixed number of epochs;
* score: ``KFormClassifier.features`` once per item of the scoring set,
  which was made from the next seed and never seen in training;

and then saves the classifier.  Without tracing, rounds repeat until
``--seconds`` would be exceeded and the end-to-end metrics are medians
over rounds, with each phase's time scaled to nominal machine speed by a
calibration probe run on either side of it (see ``end_to_end_metrics``).
With tracing, one untraced round is followed by one round under
``tracing.Tracer``; the per-layer metrics come from the second and are
raw times.

Correctness checks run outside the timed phases and feed ``failed`` and
``attempted`` in the result, whose ratio is the error rate.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import kforms.data as kdata
import kforms.model as kmodel
from kforms.quadrature import integrate_simplex, integration_matrix

import tracing

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "score_ms.p50": "ms",
    "score_ms.p95": "ms",
    "wall_s": "s",
    "val_loss": "nats",
    "peak_rss_mb": "MB",
}

# The model's initialisation and split seed; --seed drives the data only,
# so that val_loss compares like with like across seeds.
TRAIN_SEED = 0
# The calibration loop's length, and its duration at nominal speed (the
# fast state of a 2-CPU x86-64 VM with numpy 2.4 and OpenBLAS 0.3.31).
CAL_REPEATS = 12500
CAL_NOMINAL_S = 0.05
ORACLE_ITEMS = 8  # per set, for the integrate_simplex comparison
ORACLE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``inputs(seed, tiny, workdir)`` makes what set-up consumes, once per
    run and untimed; ``set_up(inputs)`` returns (training set, scoring set)
    through public functions of ``kforms.data``."""

    epochs: int
    config: dict
    inputs: object
    set_up: object


def _path_inputs(seed, tiny, _workdir):
    size = dict(samples_per_class=4, points_per_path=8) if tiny else {}
    return kdata.PathDatasetSpec(seed=seed, **size), kdata.PathDatasetSpec(seed=seed + 1, **size)


def _surface_inputs(seed, tiny, _workdir):
    size = dict(samples_per_class=4, grid_size=4) if tiny else {}
    return (
        kdata.SurfaceDatasetSpec(seed=seed, **size),
        kdata.SurfaceDatasetSpec(seed=seed + 1, **size),
    )


def write_graphs(seed: int, num_graphs: int, max_nodes: int, directory: Path) -> Path:
    """Write a two-class TU dataset: noisy, randomly placed rings of
    12..max_nodes nodes in R^3, lying in the xy-plane (class 1) or tilted
    40 degrees about the x-axis (class 2); edges follow the ring order,
    plus one random chord per four nodes."""
    rng = np.random.default_rng(seed)
    tilt = math.radians(40.0)
    edges, indicator, labels, attrs = [], [], [], []
    first = 1
    for g in range(num_graphs):
        label = g % 2
        n = int(rng.integers(12, max_nodes + 1))
        t = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        y, z = np.sin(t), np.zeros(n)
        if label:
            y, z = math.cos(tilt) * y, math.sin(tilt) * y
        ring = np.stack([np.cos(t), y, z], axis=1)
        attrs.append(ring + rng.normal(0.0, 0.1, (n, 3)) + rng.uniform(-0.5, 0.5, 3))
        indicator += [g + 1] * n
        labels.append(label + 1)
        edges += [(first + i, first + i + 1) for i in range(n - 1)]
        for _ in range(n // 4):
            a, b = sorted(int(v) for v in rng.choice(n, 2, replace=False))
            edges.append((first + a, first + b))
        first += n
    tu = kdata.TuDataset(
        name="RINGS",
        edges=np.asarray(edges, dtype=np.int64),
        graph_indicator=np.asarray(indicator, dtype=np.int64),
        graph_labels=np.asarray(labels, dtype=np.int64),
        node_attributes=np.concatenate(attrs),
        node_labels=None,
    )
    kdata.write_tu(tu, directory)
    return directory


def _graph_inputs(seed, tiny, workdir):
    num, max_nodes = (12, 16) if tiny else (200, 40)
    return (
        write_graphs(seed, num, max_nodes, workdir / "train"),
        write_graphs(seed + 1, num, max_nodes, workdir / "score"),
    )


def _generate(make):
    # ``make`` looks its generator up in kforms.data at call time, so the
    # tracer's wrapper is the one called in a traced round.
    return lambda inputs: tuple(make(spec) for spec in inputs)


def _parse(directory):
    return kdata.tu_to_dataset(kdata.parse_tu(directory))


WORKLOADS = {
    # 300 polylines of 31 edges, k=1 in R^2, headless, column-sum readout.
    "paths-train": Workload(
        epochs=5,
        config=dict(k=1, num_forms=3, use_head=False, readout="column_sum"),
        inputs=_path_inputs,
        set_up=_generate(lambda spec: kdata.gen_paths(spec)),
    ),
    # 200 surfaces of 162 triangles sharing one complex, k=2 in R^3, L2 readout.
    # One epoch keeps a round near 3 s, so that a run holds about ten.
    "surfaces-train": Workload(
        epochs=1,
        config=dict(k=2, num_forms=2, use_head=False, readout="column_l2"),
        inputs=_surface_inputs,
        set_up=_generate(lambda spec: kdata.gen_surfaces(spec)),
    ),
    # 200 parsed TU graphs of varying size, 8 forms, head MLP, L2 readout.
    "graphs-train": Workload(
        epochs=5,
        config=dict(k=1, num_forms=8, use_head=True, readout="column_l2"),
        inputs=_graph_inputs,
        set_up=_generate(_parse),
    ),
}


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


class Checks:
    """Tally of correctness checks; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def oracle_matrix(form, item, steps: int) -> np.ndarray:
    """Integration matrix from the slow per-simplex oracle: for every
    chain, the coefficient-weighted sum of ``integrate_simplex``."""
    sims = item.complex.simplices(form.k)
    X = np.zeros((len(item.chains), form.num_forms))
    for i, chain in enumerate(item.chains):
        for idx, coeff in chain.terms:
            for j in range(form.num_forms):
                X[i, j] += coeff * integrate_simplex(
                    form, j, item.complex, item.embedding, sims[idx], steps
                )
    return X


def matrices_agree(fast: np.ndarray, oracle: np.ndarray) -> bool:
    if fast.shape != oracle.shape:
        return False
    scale = max(float(np.abs(oracle).max(initial=0.0)), 1e-300)
    return float(np.abs(fast - oracle).max(initial=0.0)) <= ORACLE_RTOL * scale


def check_against_oracle(classifier, sets, seed: int, checks: Checks, perturb: bool) -> None:
    """Compare the fast integration matrix with the oracle on a seeded
    sample of items from each set.  A deliberately perturbed matrix must
    fail the comparison; with ``perturb`` that matrix is the one checked,
    which is the negative control."""
    rng = np.random.default_rng(seed)
    form, steps = classifier.form, classifier.steps
    for name, data in sets:
        picks = rng.choice(len(data), size=min(ORACLE_ITEMS, len(data)), replace=False)
        for i in sorted(int(p) for p in picks):
            item = data.items[i]
            fast = integration_matrix(form, item.complex, item.embedding, item.chains, steps)
            oracle = oracle_matrix(form, item, steps)
            bad = fast.copy()
            bad.flat[0] += 1e-6 * max(float(np.abs(oracle).max()), 1.0)
            checks.check(
                not matrices_agree(bad, oracle), f"{name} item {i}: perturbed matrix passed"
            )
            checks.check(
                matrices_agree(bad if perturb else fast, oracle),
                f"{name} item {i}: integration matrix differs from the integrate_simplex oracle",
            )


# ---------------------------------------------------------------------------
# one round: set-up, train, score, save
# ---------------------------------------------------------------------------


_CAL_X = np.linspace(-1.0, 1.0, 63).reshape(21, 3)
_CAL_W = np.linspace(-1.0, 1.0, 48).reshape(3, 16)


def calibrate() -> float:
    """Seconds taken by a fixed loop of small numpy calls that shares no
    code with kforms: a probe of how fast the machine runs right now."""
    start = perf_counter()
    for _ in range(CAL_REPEATS):
        np.maximum(_CAL_X @ _CAL_W, 0.0).sum()
    return perf_counter() - start


@dataclass
class Round:
    setup_s: float
    train_s: float
    score_s: float
    save_s: float
    latencies_s: list
    calibration_s: list  # before set-up, before train, before score, after save
    val_loss: float

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.train_s + self.score_s + self.save_s

    def speed(self, phase: int) -> float:
        """Scale factor to nominal machine speed for set-up (0), train (1)
        or score and save (2), from the probes on either side."""
        return CAL_NOMINAL_S / statistics.fmean(self.calibration_s[phase : phase + 2])


def run_round(wl: Workload, inputs, workdir: Path, checks: Checks, tracer=None):
    """One round; returns its Round, the trained classifier, and the
    (name, dataset) pairs it trained and scored on."""
    def phase(name):
        if tracer is not None:
            tracer.phase = name

    calibration = [calibrate()]
    phase("setup")
    t0 = perf_counter()
    train_set, score_set = wl.set_up(inputs)
    t1 = perf_counter()
    calibration.append(calibrate())
    phase("train")
    cfg = kmodel.TrainConfig(seed=TRAIN_SEED, max_epochs=wl.epochs, **wl.config)
    t2 = perf_counter()
    result = kmodel.train(cfg, train_set)
    t3 = perf_counter()
    calibration.append(calibrate())
    phase("score")
    classifier = result.classifier
    latencies, finite = [], True
    t4 = perf_counter()
    for item in score_set.items:
        start = perf_counter()
        feats = classifier.features(item)
        latencies.append(perf_counter() - start)
        finite = finite and bool(np.isfinite(feats).all())
    t5 = perf_counter()
    phase("save")
    kmodel.save_classifier(classifier, workdir / "checkpoint.kfc")
    t6 = perf_counter()
    calibration.append(calibrate())

    losses = [row["loss"] for row in result.history] + [result.best_val_loss]
    checks.check(all(math.isfinite(v) for v in losses), "non-finite training or validation loss")
    checks.check(finite, "non-finite score feature")
    checks.check(
        len(result.history) == 2 * (wl.epochs + 1), "train stopped before its epoch budget"
    )
    measured = Round(
        setup_s=t1 - t0,
        train_s=t3 - t2,
        score_s=t5 - t4,
        save_s=t6 - t5,
        latencies_s=latencies,
        calibration_s=calibration,
        val_loss=result.best_val_loss,
    )
    return measured, classifier, (("train", train_set), ("score", score_set))


def end_to_end_metrics(rounds: list, epochs: int) -> dict:
    """Medians over rounds of times scaled to nominal machine speed.

    On a shared machine the CPU speed drifts by a third and more over
    seconds to minutes, so raw times of the same code spread too widely
    to compare two commits.  Each phase's time is multiplied by
    CAL_NOMINAL_S over the mean of the calibration probes taken just
    before and after it; the ratio of the program's time to the probe's
    holds steady while both drift.  Every round scores the same inputs,
    rebuilt by its own set-up, so an item's latency is its median over
    rounds, and the percentiles are taken over items."""
    setup = [r.setup_s * r.speed(0) for r in rounds]
    train = [r.train_s * r.speed(1) for r in rounds]
    score = [(r.score_s + r.save_s) * r.speed(2) for r in rounds]
    item_ms = np.median([np.asarray(r.latencies_s) * r.speed(2) for r in rounds], axis=0) * 1e3
    return {
        "setup_s": statistics.median(setup),
        "epoch_s": statistics.median(train) / epochs,
        "score_ms.p50": float(np.percentile(item_ms, 50)),
        "score_ms.p95": float(np.percentile(item_ms, 95)),
        "wall_s": statistics.median(map(sum, zip(setup, train, score))),
        "val_loss": statistics.median(r.val_loss for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _openblas():
    """(version string, thread count in effect) of the OpenBLAS numpy
    loaded, read through its own C API; (None, None) if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    get_config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return get_config().decode(), get_threads()
    return None, None


def environment() -> dict:
    blas_config, blas_threads = _openblas()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_in_effect": blas_threads,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _report(name: str, value, unit: str) -> None:
    print(f"  {name:<32} {value:>14.6g} {unit}")


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    checks = Checks()
    rounds, traced, tracer = [], None, tracing.Tracer()
    start = perf_counter()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        inputs = wl.inputs(args.seed, args.tiny, workdir)
        try:
            round_s = 0.0  # the last round's length: stop before overrunning --seconds
            while not rounds or (
                not args.trace and perf_counter() - start + round_s <= args.seconds
            ):
                began = perf_counter()
                measured, classifier, sets = run_round(wl, inputs, workdir, checks)
                round_s = perf_counter() - began
                rounds.append(measured)
                if len(rounds) == 1:
                    check_against_oracle(classifier, sets, args.seed, checks, args.negative_control)
                del classifier, sets  # hold one round's data at a time
            if args.trace:
                with tracer.installed():
                    traced, _, _ = run_round(wl, inputs, workdir, checks, tracer)
        except Exception:  # a phase or the oracle raised: count it, report what completed
            traceback.print_exc()
            checks.check(False, "a phase raised an exception")
    if not rounds or (args.trace and traced is None):
        return 1

    if args.trace:
        units = tracing.metric_units()
        values = tracer.layer_metrics(traced.train_s, traced.wall_s - rounds[0].wall_s)
    else:
        units = END_TO_END
        values = end_to_end_metrics(rounds, wl.epochs)

    error_rate = checks.failed / checks.attempted
    mode = "traced" if args.trace else f"{len(rounds)} round(s)"
    print(f"{args.workload} seed {args.seed}: {mode} of {wl.epochs} epochs")
    for name, unit in units.items():
        _report(name, values[name], unit)
    probes = [c for r in rounds for c in r.calibration_s]
    _report("calibration probe, median", statistics.median(probes), f"s, nominal {CAL_NOMINAL_S}")
    _report("error_rate", error_rate, f"ratio, {checks.failed} of {checks.attempted} checks failed")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument(
        "--negative-control",
        action="store_true",
        help="check a perturbed integration matrix, which must raise the error rate",
    )
    args = parser.parse_args(argv)
    source = Path(kmodel.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: kforms imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
