"""A seeded training run on items of every size, pinned at commit f986917,
which computed every item's simplex geometry on every pass.

``data/pinned_training.json`` holds SHA-256 digests of the final
``params`` and of the ``history`` of one ``train`` run with a head on a
TU-format dataset written, parsed and converted by ``kforms.data``:
graphs below and above ``ROW_BUDGET`` MLP rows, an edgeless graph (one
empty chain) and a one-edge graph (one simplex).  The digests were
written once and are never regenerated: a change to how training
computes or reuses geometry must reproduce every bit.

    PYTHONPATH=src python3 tests/test_pinned_training.py

prints the digests of the code on the path, in the file's format.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from kforms.data import TuDataset, parse_tu, tu_to_dataset, write_tu
from kforms.model import TrainConfig, stratified_split, train
from kforms.quadrature import ROW_BUDGET, mlp_rows

DATA = Path(__file__).parent / "data"
CONFIG = TrainConfig(k=1, num_forms=3, hidden_dim=8, max_epochs=3, batch_size=4,
                     val_fraction=0.25, seed=3)
# Nodes per graph; 0 marks the edgeless graph, 2 the one-edge graph and
# 28 a complete graph of 378 edges (2,268 MLP rows, above the budget).
SIZES = [9, 28, 5, 0, 12, 28, 7, 2, 16, 6, 28, 11, 8, 28, 6, 10]


def mixed_tu() -> TuDataset:
    """Rings with one chord per three nodes, complete graphs and the two
    degenerate graphs; node attributes in R^2, clustered by class."""
    rng = np.random.default_rng(31)
    edges, indicator, labels, attrs = [], [], [], []
    first = 1
    for g, size in enumerate(SIZES):
        label = g % 2
        count = max(size, 1)  # the edgeless graph has one node
        indicator += [g + 1] * count
        attrs.append(rng.normal((-1.0, 1.0) if label else (1.0, -1.0), 0.5, size=(count, 2)))
        if size == 28:
            pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
        elif size == 2:
            pairs = [(0, 1)]
        elif size:
            pairs = [(v, (v + 1) % size) for v in range(size)]
            pairs += [tuple(rng.choice(size, 2, replace=False)) for _ in range(size // 3)]
        else:
            pairs = []
        edges += [(first + int(a), first + int(b)) for a, b in pairs]
        labels.append(label)
        first += count
    return TuDataset(
        name="MIXED",
        edges=np.array(edges, dtype=np.int64),
        graph_indicator=np.array(indicator, dtype=np.int64),
        graph_labels=np.array(labels, dtype=np.int64),
        node_attributes=np.concatenate(attrs),
        node_labels=None,
    )


def mixed_dataset():
    with tempfile.TemporaryDirectory() as tmp:
        write_tu(mixed_tu(), Path(tmp) / "MIXED")
        return tu_to_dataset(parse_tu(Path(tmp) / "MIXED"))


def training_digests() -> dict:
    result = train(CONFIG, mixed_dataset())
    history = json.dumps(result.history, sort_keys=True).encode()
    params = np.ascontiguousarray(result.classifier.params, dtype="<f8").tobytes()
    return {
        "history": hashlib.sha256(history).hexdigest(),
        "params": hashlib.sha256(params).hexdigest(),
    }


def test_dataset_straddles_the_budget():
    data = mixed_dataset()
    rows = [mlp_rows(1, CONFIG.steps) * item.chains.used.size for item in data.items]
    assert min(rows) == 0 and 6 in rows and max(rows) > ROW_BUDGET
    assert sum(r > ROW_BUDGET for r in rows) == SIZES.count(28)
    rng = np.random.default_rng(CONFIG.seed)  # the split train draws first
    for indices in stratified_split(data.labels(), CONFIG.val_fraction, rng):
        sizes = {rows[i] > ROW_BUDGET for i in indices}
        assert sizes == {False, True}  # both splits hold small and large items


def test_mixed_training_run_keeps_its_bits():
    with open(DATA / "pinned_training.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert training_digests() == pinned


if __name__ == "__main__":
    print(json.dumps(training_digests(), indent=1, sort_keys=True))
