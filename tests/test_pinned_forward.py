"""Forward-only outputs on small items pinned at commit 25afd1e, which
ran every pass on simplex-first MLP rows.

``data/pinned_forward.json`` holds SHA-256 digests of what that commit
computed without a backward pass: per dataset, each item's
``KFormClassifier.features``, the ``features_each`` stream over the
whole set (items sharing MLP calls in chunks) and the
``integration_matrices`` stream.  The datasets are the default
``gen_paths`` set, a TU set of mixed-size graphs with an edgeless and a
one-edge graph (one of them above ``ROW_BUDGET`` rows), and that TU set
rechained to its vertices (k = 0).  The classifiers are seeded and their
parameters moved off Glorot's zero biases.  The digests were written
once and are never regenerated: a change to the forward-only path must
reproduce every bit.

    PYTHONPATH=src python3 tests/test_pinned_forward.py

prints the digests of the code on the path, in the file's format.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from kforms.data import PathDatasetSpec, TuDataset, gen_paths, tu_to_dataset
from kforms.model import TrainConfig, build_classifier, rechain_dataset
from kforms.quadrature import integration_matrices

DATA = Path(__file__).parent / "data"


def _digest(arrays) -> str:
    """SHA-256 over each float64 array's shape and little-endian bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def mixed_tu() -> TuDataset:
    """Graphs of 1 to 27 nodes in R^3 (two attribute columns, two node
    labels): an edgeless graph, a one-edge graph, rings, paths and dense
    graphs, the largest of 351 edges."""
    rng = np.random.default_rng(23)
    edges, indicator, labels = [], [], []
    start = 1
    for g, (size, kind) in enumerate([(5, "ring"), (1, "none"), (9, "dense"), (2, "path"),
                                      (12, "ring"), (27, "dense"), (4, "none"), (7, "path"),
                                      (3, "dense"), (16, "ring")]):
        ids = range(start, start + size)
        if kind == "path":
            edges += [(v, v + 1) for v in ids[:-1]]
        elif kind == "ring":
            edges += [(v, start + (v - start + 1) % size) for v in ids]
        elif kind == "dense":
            edges += [(a, b) for a in ids for b in ids if a < b]
        indicator += [g + 1] * size
        labels.append(g % 3)
        start += size
    return TuDataset(
        name="MIXED",
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        graph_indicator=np.array(indicator, dtype=np.int64),
        graph_labels=np.array(labels, dtype=np.int64),
        node_attributes=rng.normal(size=(len(indicator), 2)),
        node_labels=rng.integers(0, 2, size=len(indicator)),
    )


def _classifier(data, k: int, seed: int):
    cfg = TrainConfig(k=k, seed=seed)
    rng = np.random.default_rng(seed)
    classifier = build_classifier(data.ambient_dim, data.num_classes, cfg, rng)
    classifier.params += 0.1 * rng.normal(size=classifier.params.size)  # nonzero biases
    return classifier


def _dataset_digests(data, k: int, seed: int) -> dict:
    classifier = _classifier(data, k, seed)
    items = data.items
    settings = [(it.complex, it.embedding, it.chains) for it in items]
    return {
        "features": _digest([classifier.features(it) for it in items]),
        "features_each": _digest(list(classifier.features_each(items))),
        "matrices": _digest(list(integration_matrices(classifier.form, settings,
                                                      classifier.steps))),
    }


def forward_digests() -> dict:
    graphs = tu_to_dataset(mixed_tu())
    return {
        "paths": _dataset_digests(gen_paths(PathDatasetSpec()), 1, 0),
        "graphs": _dataset_digests(graphs, 1, 1),
        "graph_vertices": _dataset_digests(rechain_dataset(graphs, 0), 0, 2),
    }


def test_mixed_tu_covers_the_edge_cases():
    data = tu_to_dataset(mixed_tu())
    edges = [it.chains.used.size for it in data.items]
    assert data.ambient_dim == 4 and edges[1] == 0 and edges[3] == 1
    assert max(edges) == 351  # 2,106 MLP rows: above ROW_BUDGET, a chunk of its own


def test_forward_only_outputs_keep_their_bits():
    with open(DATA / "pinned_forward.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert forward_digests() == pinned


if __name__ == "__main__":
    print(json.dumps(forward_digests(), indent=1, sort_keys=True))
