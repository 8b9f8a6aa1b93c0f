"""Items above ROW_BUDGET MLP rows run on worker threads, each through a
twin of the classifier: every output must be the one-thread output, bit
for bit, whatever the worker count."""

import copy
import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import kforms
import kforms.model as model
from kforms.data import PathDatasetSpec, SurfaceDatasetSpec, gen_paths, gen_surfaces
from kforms.model import (
    Dataset,
    KFormClassifier,
    TrainConfig,
    TrainingDivergence,
    build_classifier,
    evaluate,
    save_classifier,
    train,
)
from kforms.nn import Mlp
from kforms.quadrature import ROW_BUDGET, mlp_rows


def mixed_surfaces() -> Dataset:
    """Surfaces on a 4 x 4 grid (18 triangles, 378 MLP rows at h=5) and
    on an 8 x 8 grid (98 triangles, 2,058 rows), interleaved."""
    small = gen_surfaces(SurfaceDatasetSpec(grid_size=4, samples_per_class=5, seed=1)).items
    large = gen_surfaces(SurfaceDatasetSpec(grid_size=8, samples_per_class=5, seed=2)).items
    return Dataset(tuple(item for pair in zip(small, large) for item in pair), 2)


def rows_of(item, steps=5) -> int:
    return mlp_rows(item.chains.dim, steps) * item.chains.used.size


def test_mixed_dataset_straddles_the_budget():
    rows = {rows_of(item) for item in mixed_surfaces().items}
    assert rows == {378, 2058} and min(rows) <= ROW_BUDGET < max(rows)


def run_digest(cfg: TrainConfig, data: Dataset, tmp_path) -> tuple:
    """Everything a seeded run produces, as bytes: history, parameters,
    checkpoint, evaluation reports and features."""
    result = train(cfg, data)
    clf = result.classifier
    path = tmp_path / "checkpoint.kfc"
    save_classifier(clf, path)
    reports = [evaluate(clf, data), evaluate(clf, data.subset(result.val_indices))]
    features = b"".join(f.tobytes() for f in clf.features_each(data.items))
    return (
        json.dumps(result.history).encode(),
        clf.params.tobytes(),
        path.read_bytes(),
        repr(reports).encode(),
        features,
    ), len(clf._twins)


@pytest.mark.parametrize("use_head", [False, True], ids=["headless", "head"])
@pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
def test_outputs_are_byte_equal_across_worker_counts(monkeypatch, tmp_path, activation, use_head):
    data = mixed_surfaces()
    cfg = TrainConfig(k=2, num_forms=2, hidden_dim=6, max_epochs=2, batch_size=3, seed=5,
                      activation=activation, use_head=use_head, readout="column_l2")
    digests = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(model, "item_workers", lambda workers=workers: workers)
        digests[workers], twins = run_digest(cfg, data, tmp_path)
        assert twins == workers - 1  # the workers really ran
    assert digests[2] == digests[1] and digests[3] == digests[1]


def test_more_workers_than_cpus_under_fast_switching(monkeypatch):
    data = mixed_surfaces()
    cfg = TrainConfig(k=2, num_forms=2, hidden_dim=6, use_head=False, readout="column_l1")
    clf = build_classifier(3, 2, cfg, np.random.default_rng(8))
    monkeypatch.setattr(model, "item_workers", lambda: 1)
    expected = repr(evaluate(clf, data))
    monkeypatch.setattr(model, "item_workers", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert repr(evaluate(clf, data)) == expected
    finally:
        sys.setswitchinterval(interval)
    assert len(clf._twins) == 5  # six lanes


def interleaving_keeps_caches(mlp: Mlp, other: Mlp) -> bool:
    """Does a pass on ``other`` between ``mlp``'s forward and backward pass
    leave ``mlp``'s gradient unchanged?"""
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(7, mlp.in_dim)), rng.normal(size=(7, mlp.in_dim))
    upstream = rng.normal(size=(7, mlp.out_dim))
    out, cache = mlp.forward_cached(x)
    expected = mlp.backward(cache, upstream)[0]
    out, cache = mlp.forward_cached(x)
    other.forward_cached(y)
    try:
        return np.array_equal(mlp.backward(cache, upstream)[0], expected)
    except ValueError:  # "stale cache": the run counter is shared
        return False


def shares_scratch(a: Mlp, b: Mlp) -> bool:
    buffers = lambda m: m._scratch + m._grad_scratch
    return any(np.shares_memory(p, q) for p in buffers(a) for q in buffers(b))


def scratch_sharing_twin(mlp: Mlp) -> Mlp:
    """Negative control: a twin that keeps its original's scratch lists."""
    twin = copy.copy(mlp)
    twin.bind(mlp.params)
    return twin


class TestTwins:
    def make(self, use_head: bool) -> KFormClassifier:
        cfg = TrainConfig(k=2, num_forms=2, hidden_dim=6, use_head=use_head, readout="column_l2")
        return build_classifier(3, 2, cfg, np.random.default_rng(1))

    @pytest.mark.parametrize("use_head", [False, True])
    def test_twin_shares_params_but_not_scratch_or_run_counter(self, use_head):
        clf = self.make(use_head)
        twin = clf.twin()
        assert twin.params is clf.params and twin._twins == [] and clf._twins == []
        item = mixed_surfaces().items[1]
        for c in (clf, twin):
            logits, cache = c.forward_cached(item)
            c.backward(cache, np.ones_like(logits))
        pairs = [(clf.form.psi, twin.form.psi)]
        if use_head:
            pairs.append((clf.head, twin.head))
        for mlp, other in pairs:
            assert other is not mlp
            assert np.shares_memory(mlp.params, clf.params)
            assert np.shares_memory(other.params, mlp.params)
            assert not shares_scratch(mlp, other)
            runs = mlp._runs
            other.forward(np.zeros(mlp.in_dim))
            assert mlp._runs == runs
        clf.params[0] += 1.0  # a step on the original moves the twin
        assert np.array_equal(clf.forward(item), twin.forward(item))

    def test_twin_runs_between_forward_and_backward(self):
        mlp = Mlp.init([3, 5, 4, 2], "tanh", np.random.default_rng(2))
        assert interleaving_keeps_caches(mlp, mlp.twin())
        assert not interleaving_keeps_caches(mlp, mlp)

    def test_negative_control_twin_sharing_scratch_is_caught(self):
        mlp = Mlp.init([3, 5, 4, 2], "tanh", np.random.default_rng(2))
        bad = scratch_sharing_twin(mlp)
        assert not interleaving_keeps_caches(mlp, bad)
        mlp.forward(np.zeros((4, 3)))
        assert shares_scratch(mlp, bad)


class _Refused(threading.Thread):
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker thread was started")


def test_paths_never_start_a_worker(monkeypatch):
    data = gen_paths(PathDatasetSpec(samples_per_class=4, points_per_path=8))
    assert max(rows_of(item) for item in data.items) <= ROW_BUDGET
    monkeypatch.setattr(model, "item_workers", lambda: 3)
    monkeypatch.setattr(threading, "Thread", _Refused)
    result = train(TrainConfig(max_epochs=1, hidden_dim=4, use_head=False), data)
    evaluate(result.classifier, data)
    assert result.classifier._twins == []


def test_no_pool_module_is_imported():
    script = """
import sys
import kforms.model as model
from kforms.data import SurfaceDatasetSpec, gen_surfaces
model.item_workers = lambda: 2
data = gen_surfaces(SurfaceDatasetSpec(grid_size=8, samples_per_class=2))
result = model.train(model.TrainConfig(k=2, num_forms=2, hidden_dim=4, max_epochs=1,
                                       use_head=False), data)
assert len(result.classifier._twins) == 1
print("concurrent.futures" in sys.modules)
"""
    src = str(Path(kforms.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PATH": "", "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_divergence_on_a_worker_raises_the_same_message(monkeypatch):
    data = mixed_surfaces()
    cfg = TrainConfig(k=2, num_forms=2, hidden_dim=6, max_epochs=2, use_head=False,
                      readout="column_l2", seed=2)
    original = KFormClassifier.forward_cached
    poisoned = []  # the item, then the thread that computed it

    def forward_cached(self, item):
        logits, cache = original(self, item)
        if not poisoned and threading.current_thread() is not threading.main_thread():
            poisoned.extend([item, threading.current_thread()])
        if poisoned and item is poisoned[0]:
            logits = logits * np.nan
        return logits, cache

    monkeypatch.setattr(KFormClassifier, "forward_cached", forward_cached)
    start = threading.active_count()
    messages = []
    for workers in (2, 1):
        monkeypatch.setattr(model, "item_workers", lambda workers=workers: workers)
        with pytest.raises(TrainingDivergence) as info:
            train(cfg, data)
        messages.append(str(info.value))
        assert threading.active_count() == start
    assert poisoned[1] is not threading.main_thread()
    assert messages == ["non-finite loss at epoch 1"] * 2


def test_no_thread_outlives_train(monkeypatch):
    monkeypatch.setattr(model, "item_workers", lambda: 3)
    start = threading.active_count()
    result = train(TrainConfig(k=2, num_forms=2, hidden_dim=4, max_epochs=1, use_head=False,
                               readout="column_l2"), mixed_surfaces())
    assert len(result.classifier._twins) == 2
    assert threading.active_count() == start


def test_worker_exception_is_raised_in_item_order(monkeypatch):
    data = mixed_surfaces()
    clf = build_classifier(3, 2, TrainConfig(k=2, num_forms=2, hidden_dim=4, use_head=False),
                           np.random.default_rng(3))
    monkeypatch.setattr(model, "item_workers", lambda: 2)
    large = [i for i, item in enumerate(data.items) if rows_of(item) > ROW_BUDGET]
    index_of = {id(item): i for i, item in enumerate(data.items)}

    def each(m, items):
        for item in items:
            index = index_of[id(item)]
            if index in large[1:3]:
                raise ValueError(f"item {index}")
            yield index

    start = threading.active_count()
    with pytest.raises(ValueError, match=f"^item {large[1]}$"):
        model._map_items(clf, list(data.items), each)
    assert threading.active_count() == start
    assert model._map_items(clf, list(data.items[:4]), lambda m, items: (1 for _ in items)) \
        == [1, 1, 1, 1]


def test_workers_run_in_the_callers_errstate(monkeypatch):
    data = mixed_surfaces()
    clf = build_classifier(3, 2, TrainConfig(k=2, num_forms=2, hidden_dim=4, use_head=False),
                           np.random.default_rng(3))
    monkeypatch.setattr(model, "item_workers", lambda: 3)
    seen = set()

    def each(m, items):
        for _ in items:
            seen.add((threading.current_thread() is threading.main_thread(), np.geterr()["over"]))
            yield None

    with np.errstate(over="raise"):
        model._map_items(clf, list(data.items), each)
    assert seen == {(True, "raise"), (False, "raise")}
