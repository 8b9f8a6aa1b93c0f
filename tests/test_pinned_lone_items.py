"""Lone-item forward-only outputs pinned at commit d5a309e, whose
contraction ran every item as a stacked (3-D) product.

``data/pinned_lone_items.json`` holds SHA-256 digests of what that
commit computed for items scored one at a time: per set, each item's
``KFormClassifier.features`` and ``integration_matrix``, and the
``integration_matrices`` stream over the whole set (items sharing MLP
calls and stacked products in chunks).  The sets are:

- default ``gen_surfaces`` items (k = 2, 3,402 MLP rows each, above
  ``ROW_BUDGET``), whose chains use every simplex of the shared complex;
- grid-size-4 surfaces (378 rows each, several items to a chunk);
- the default paths rechained to strict, non-contiguous subsets of
  their edges, by +1 chains or by mixed coefficients, with a few items
  whose chains use no edge;
- k = 3 items of one to five tetrahedra in R^4.

``pinned_forward.json`` covers k = 0 and k = 1 on every edge.  The
classifiers are seeded and their parameters moved off Glorot's zero
biases.  The digests were written once and are never regenerated: a
change to the lone-item path must reproduce every bit.

    PYTHONPATH=src python3 tests/test_pinned_lone_items.py

prints the digests of the code on the path, in the file's format.
"""

import json
from pathlib import Path

import numpy as np

from kforms.data import PathDatasetSpec, SurfaceDatasetSpec, gen_paths, gen_surfaces
from kforms.model import Dataset, Item, TrainConfig, build_classifier
from kforms.quadrature import integration_matrices, integration_matrix
from kforms.simplicial import Chain, ChainTuple, Embedding, apply_matrix_left, build_complex
from test_pinned_forward import _digest

DATA = Path(__file__).parent / "data"


def subset_paths() -> Dataset:
    """The default paths, item i on edges ``i % 3, i % 3 + step, ...``
    with step 2 + i % 4 (6 to 16 of 31 edges): +1 chains on even
    items, a seeded 3-row mix of them on odd ones, and one chain with
    no edge on every 50th item."""
    rng = np.random.default_rng(31)
    items = []
    for i, it in enumerate(gen_paths(PathDatasetSpec()).items):
        edges = range(i % 3, it.complex.num_simplices(1), 2 + i % 4)
        if i % 50 == 0:
            chains = ChainTuple([Chain(1, ())])
        else:
            chains = ChainTuple(Chain(1, ((e, 1.0),)) for e in edges)
            if i % 2:
                chains = apply_matrix_left(rng.normal(size=(3, len(chains))), chains)
        items.append(Item(it.complex, it.embedding, chains, it.label))
    return Dataset(tuple(items), 3)


def tetrahedra() -> Dataset:
    """Eight k = 3 items in R^4: the first one to five tetrahedra of a
    fan around vertex 0, seeded coordinates, +1 chains on the even items
    and a seeded two-row mix on the odd ones."""
    rng = np.random.default_rng(37)
    fan = [(0, j, j + 1, j + 2) for j in range(1, 6)]
    items = []
    for i, size in enumerate([1, 3, 3, 5, 2, 2, 2, 4]):
        complex_ = build_complex(fan[:size], size + 3)
        embedding = Embedding(rng.normal(size=(size + 3, 4)))
        chains = ChainTuple(Chain(3, ((s, 1.0),)) for s in range(size))
        if i % 2:
            chains = apply_matrix_left(rng.normal(size=(2, size)), chains)
        items.append(Item(complex_, embedding, chains, i % 2))
    return Dataset(tuple(items), 2)


def _set_digests(data, k: int, seed: int) -> dict:
    cfg = TrainConfig(k=k, seed=seed)
    rng = np.random.default_rng(seed)
    n = data.items[0].embedding.ambient_dim
    classifier = build_classifier(n, data.num_classes, cfg, rng)
    classifier.params += 0.1 * rng.normal(size=classifier.params.size)  # nonzero biases
    form, h, items = classifier.form, classifier.steps, data.items
    settings = [(it.complex, it.embedding, it.chains) for it in items]
    return {
        "features": _digest([classifier.features(it) for it in items]),
        "matrix": _digest([integration_matrix(form, *setting, h) for setting in settings]),
        "matrices": _digest(list(integration_matrices(form, settings, h))),
    }


def lone_item_digests() -> dict:
    return {
        "surfaces": _set_digests(gen_surfaces(SurfaceDatasetSpec(samples_per_class=12)), 2, 3),
        "surfaces_grid4": _set_digests(gen_surfaces(SurfaceDatasetSpec(grid_size=4)), 2, 4),
        "subset_paths": _set_digests(subset_paths(), 1, 5),
        "tetrahedra": _set_digests(tetrahedra(), 3, 6),
    }


def test_the_sets_cover_the_lone_item_cases():
    surface = gen_surfaces(SurfaceDatasetSpec(samples_per_class=1)).items[0]
    assert surface.chains.used.size * 21 == 3402  # above ROW_BUDGET: a chunk of its own
    paths = subset_paths().items
    sizes = [it.chains.used.size for it in paths]
    assert sizes[::50] == [0] * 6 and min(sizes[1:50]) == 6 and max(sizes) == 16
    assert all(np.diff(it.chains.used).min() >= 2 for it in paths if it.chains.used.size)  # gaps
    assert paths[1].chains.lam is not None and paths[2].chains.lam is None
    assert [it.chains.used.size for it in tetrahedra().items] == [1, 3, 3, 5, 2, 2, 2, 4]


def test_lone_item_outputs_keep_their_bits():
    with open(DATA / "pinned_lone_items.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert lone_item_digests() == pinned


if __name__ == "__main__":
    print(json.dumps(lone_item_digests(), indent=1, sort_keys=True))
