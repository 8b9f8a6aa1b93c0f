"""Set-up outputs pinned at the last commit with tuple-backed complexes.

``data/pinned_datasets.json`` holds SHA-256 digests of what that commit
built from fixed inputs: per case, the complexes (vertex count and the
vertex array of every dimension), the embedding coordinates, the chain
tuples (``used`` and ``lam``) or path chains, and the labels.  The
digests were written once and are never regenerated: a change to how
complexes, paths or TU graphs are set up must reproduce every byte.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_tu
from kforms.data import (
    PathDatasetSpec,
    SurfaceDatasetSpec,
    TuDataset,
    gen_paths,
    gen_surfaces,
    parse_tu,
    tu_to_dataset,
    write_tu,
)
from kforms.simplicial import embedded_path

DATA = Path(__file__).parent / "data"
FIELDS = ("complexes", "coords", "chains", "labels")


def _digest(arrays) -> str:
    """SHA-256 over each array's kind, shape and little-endian bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        wide = "<i8" if a.dtype.kind in "iub" else "<f8"
        h.update(repr((a.dtype.kind, a.shape)).encode())
        h.update(np.ascontiguousarray(a, dtype=wide).tobytes())
    return h.hexdigest()


def _complex_arrays(c) -> list:
    return [np.array([c.num_vertices, c.dim])] + [c.vertex_array(k) for k in range(c.dim + 1)]


def _dataset_digests(data) -> dict:
    parts = {name: [] for name in FIELDS}
    for item in data.items:
        parts["complexes"] += _complex_arrays(item.complex)
        parts["coords"].append(item.embedding.coords)
        lam = np.zeros(0) if item.chains.lam is None else item.chains.lam  # None: 1-d marker
        parts["chains"] += [np.array([item.chains.dim, len(item.chains)]), item.chains.used, lam]
        parts["labels"].append(item.label)
    parts["labels"].append(data.num_classes)
    return {name: _digest(arrays) for name, arrays in parts.items()}


def _path_digests(paths) -> dict:
    parts = {name: [] for name in FIELDS}
    for points in paths:
        complex_, embedding, chains = embedded_path(points)
        chain = chains[0]
        parts["complexes"] += _complex_arrays(complex_)
        parts["coords"].append(embedding.coords)
        parts["chains"] += [
            np.array([chain.dim, len(chain)]),
            np.array([i for i, _ in chain.terms], dtype=np.int64),
            np.array([c for _, c in chain.terms], dtype=np.float64),
        ]
    parts["labels"].append(np.zeros(0))
    return {name: _digest(arrays) for name, arrays in parts.items()}


def _messy_tu() -> TuDataset:
    """Four graphs with interleaved node ids, edges listed in one or both
    directions, repeated edges, self-loops, an isolated node and one
    graph without edges."""
    rng = np.random.default_rng(41)
    indicator = np.array([2, 1, 1, 3, 2, 1, 4, 2, 3, 1, 2, 3, 1, 4, 3])
    edges = np.array([
        [2, 3], [3, 2], [6, 2], [10, 13], [13, 10], [13, 10], [3, 3], [6, 10],
        [1, 5], [8, 5], [11, 1], [8, 11], [5, 5],
        [4, 9], [12, 9], [4, 12], [9, 4],
    ])
    return TuDataset(
        name="MESSY",
        edges=edges,
        graph_indicator=indicator,
        graph_labels=np.array([5, 2, 5, 7]),
        node_attributes=rng.normal(size=(15, 2)),
        node_labels=rng.integers(0, 3, size=15),
    )


def _paths() -> list:
    rng = np.random.default_rng(17)
    random_path = rng.normal(size=(9, 2))
    return [
        random_path,
        random_path[::-1],
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0]]),
        np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, -1.0]]),
        np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0], [2.0, 0.0, 1.0], [0.0, 3.0, 1.0]]),
        np.repeat(rng.normal(size=(4, 2)), 3, axis=0)[rng.permutation(12)],
    ]


def compute_digests(tmp_path: Path) -> dict:
    """Digests of every pinned case, built with the code under test."""
    tu = make_tu(np.random.default_rng(2024), num_graphs=8, with_node_labels=True)
    write_tu(tu, tmp_path / "TOY")
    write_tu(_messy_tu(), tmp_path / "MESSY")
    toy, messy = parse_tu(tmp_path / "TOY"), parse_tu(tmp_path / "MESSY")
    return {
        "gen_paths": _dataset_digests(
            gen_paths(PathDatasetSpec(samples_per_class=4, points_per_path=12, seed=5))
        ),
        "gen_paths_two_points": _dataset_digests(
            gen_paths(PathDatasetSpec(samples_per_class=2, points_per_path=2, noise=0.0, seed=1))
        ),
        "gen_surfaces": _dataset_digests(
            gen_surfaces(SurfaceDatasetSpec(grid_size=4, samples_per_class=3, seed=2))
        ),
        "gen_surfaces_grid_10": _dataset_digests(
            gen_surfaces(SurfaceDatasetSpec(samples_per_class=1, seed=3))
        ),
        "tu_toy": _dataset_digests(tu_to_dataset(toy)),
        "tu_toy_standardized": _dataset_digests(
            tu_to_dataset(toy, attribute_columns=[1], standardize=True)
        ),
        "tu_messy_written": _dataset_digests(tu_to_dataset(messy)),
        "tu_messy_in_memory": _dataset_digests(tu_to_dataset(_messy_tu())),
        "path_to_complex": _path_digests(_paths()),
    }


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("pinned"))


@pytest.fixture(scope="module")
def pinned():
    with open(DATA / "pinned_datasets.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def test_every_case_is_pinned(digests, pinned):
    assert sorted(digests) == sorted(pinned)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize(
    "case",
    [
        "gen_paths",
        "gen_paths_two_points",
        "gen_surfaces",
        "gen_surfaces_grid_10",
        "tu_toy",
        "tu_toy_standardized",
        "tu_messy_written",
        "tu_messy_in_memory",
        "path_to_complex",
    ],
)
def test_setup_outputs_match_the_pinned_digests(digests, pinned, case, field):
    assert digests[case][field] == pinned[case][field]
