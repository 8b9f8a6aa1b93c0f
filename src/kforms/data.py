"""Dataset construction: synthetic paths and surfaces, TU-format graphs.

Generators are pure functions of their spec (including the seed).  The
graph reader follows the public TU text convention: global 1-indexed
node ids, one ``<name>_A.txt`` line per directed edge, per-node graph
membership in ``<name>_graph_indicator.txt``, per-graph labels, and
optional per-node attribute/label files that become vertex coordinates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Dataset, Item
from .simplicial import (
    Chain,
    ChainTuple,
    Embedding,
    SimplicialComplex,
    build_complex,
    path_to_complex,
    standard_basis_chains,
)

__all__ = [
    "DataFormatError",
    "PathDatasetSpec",
    "SurfaceDatasetSpec",
    "TuDataset",
    "gen_paths",
    "gen_surfaces",
    "parse_tu",
    "tu_to_dataset",
    "write_tu",
]


class DataFormatError(Exception):
    """A dataset file violates the expected format."""


# ---------------------------------------------------------------------------
# synthetic paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathDatasetSpec:
    """Three classes of oriented planar polylines in the unit square:
    an arc turning left, the same arc turning right, and an S-curve.
    The two arc classes share one point distribution and differ only in
    traversal direction."""

    samples_per_class: int = 100
    points_per_path: int = 32
    noise: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_class < 1:
            raise ValueError("need at least one sample per class")
        if self.points_per_path < 2:
            raise ValueError("a path needs at least 2 points")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")


def _path_template(cls: int, t: np.ndarray) -> np.ndarray:
    if cls == 0:  # lower arc, left to right (counterclockwise = turning left)
        theta = math.pi * (1.0 + t)
    elif cls == 1:  # same arc, right to left (clockwise = turning right)
        theta = math.pi * (2.0 - t)
    else:  # S-curve
        return np.stack([0.2 + 0.6 * t, 0.5 + 0.18 * np.sin(2.0 * math.pi * t)], axis=1)
    return np.stack([0.5 + 0.3 * np.cos(theta), 0.5 + 0.3 * np.sin(theta)], axis=1)


def gen_paths(spec: PathDatasetSpec) -> Dataset:
    """Sample the three templates, add pointwise Gaussian jitter and a
    per-path uniform translation of up to 0.1."""
    rng = np.random.default_rng(spec.seed)
    t = np.linspace(0.0, 1.0, spec.points_per_path)
    items = []
    for cls in range(3):
        base = _path_template(cls, t)
        for _ in range(spec.samples_per_class):
            pts = base + rng.normal(0.0, spec.noise, size=base.shape)
            pts += rng.uniform(-0.1, 0.1, size=2)
            complex_, embedding, chain = path_to_complex(pts)
            items.append(Item(complex_, embedding, ChainTuple((chain,)), cls))
    return Dataset(tuple(items), 3)


# ---------------------------------------------------------------------------
# synthetic surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceDatasetSpec:
    """Triangulated g x g grids over [0, 2*pi]^2 with height sin(x)
    (class 0) or sin(y) (class 1) plus vertex noise, rigidly translated
    in the xy-plane per item.  Both classes share one combinatorial
    complex; only the embeddings differ."""

    grid_size: int = 10
    samples_per_class: int = 100
    noise: float = 0.05
    translation: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if self.samples_per_class < 1:
            raise ValueError("need at least one sample per class")
        if self.noise < 0 or self.translation < 0:
            raise ValueError("noise and translation must be nonnegative")


def _grid_complex(g: int) -> SimplicialComplex:
    tris = []
    for i in range(g - 1):
        for j in range(g - 1):
            v00 = i * g + j
            v10 = (i + 1) * g + j
            v01 = i * g + j + 1
            v11 = (i + 1) * g + j + 1
            tris.append((v00, v10, v11))  # squares split along the v00-v11 diagonal
            tris.append((v00, v01, v11))
    return build_complex(tris, g * g)


def gen_surfaces(spec: SurfaceDatasetSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    g = spec.grid_size
    axis = np.linspace(0.0, 2.0 * math.pi, g)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")  # vertex (i, j) -> index i*g + j
    x, y = gx.reshape(-1), gy.reshape(-1)
    complex_ = _grid_complex(g)
    chains = standard_basis_chains(complex_, 2)
    items = []
    for cls in range(2):
        height_of = np.sin(x) if cls == 0 else np.sin(y)
        for _ in range(spec.samples_per_class):
            tau = rng.uniform(-spec.translation, spec.translation, size=2)
            z = height_of + rng.normal(0.0, spec.noise, size=g * g)
            coords = np.stack([x + tau[0], y + tau[1], z], axis=1)
            items.append(Item(complex_, Embedding(coords), chains, cls))
    return Dataset(tuple(items), 2)


# ---------------------------------------------------------------------------
# TU graph text format
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuDataset:
    """Raw parse of one TU-format directory (ids as found in the files:
    nodes and graphs 1-indexed, labels unmapped)."""

    name: str
    edges: np.ndarray  # (E, 2) directed pairs as listed
    graph_indicator: np.ndarray  # (N,) graph id per node
    graph_labels: np.ndarray  # (G,) original label values
    node_attributes: np.ndarray | None  # (N, d) float
    node_labels: np.ndarray | None  # (N,) int

    @property
    def num_nodes(self) -> int:
        return self.graph_indicator.shape[0]

    @property
    def num_graphs(self) -> int:
        return self.graph_labels.shape[0]


def _read_rows(path: Path, kind: type, width: int | None = None) -> np.ndarray:
    """Comma-separated rows of ``kind`` (int or float) values, blank lines
    skipped, as an int64 or float64 array; every row must have ``width``
    fields, or the first row's number when ``width`` is None."""
    rows, line_numbers = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            width = width or len(parts)
            if len(parts) != width:
                raise DataFormatError(
                    f"{path}, line {ln}: ragged row ({len(parts)} fields, expected {width})"
                )
            try:
                rows.append([kind(p) for p in parts])
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise DataFormatError(f"{path}, line {ln}: not {what}: {line!r}") from None
            line_numbers.append(ln)
    try:
        return np.asarray(rows, dtype=np.int64 if kind is int else np.float64).reshape(
            len(rows), width or 0
        )
    except OverflowError:
        bad = next(i for i, row in enumerate(rows) if not -(2**63) <= min(row) <= max(row) < 2**63)
        message = f"{path}, line {line_numbers[bad]}: integer out of int64 range"
        raise DataFormatError(message) from None


def parse_tu(directory: str | os.PathLike, name: str | None = None) -> TuDataset:
    """Read `<name>_A.txt`, `<name>_graph_indicator.txt`,
    `<name>_graph_labels.txt` and the optional node attribute/label
    files; validates id contiguity and cross-references."""
    directory = Path(directory)
    if name is None:
        stems = sorted(p.name[: -len("_A.txt")] for p in directory.glob("*_A.txt"))
        if len(stems) != 1:
            raise DataFormatError(
                f"{directory}: expected exactly one *_A.txt, found {len(stems)}"
            )
        name = stems[0]

    def required(suffix: str) -> Path:
        path = directory / f"{name}{suffix}"
        if not path.is_file():
            raise DataFormatError(f"missing required file {path}")
        return path

    edges = _read_rows(required("_A.txt"), int, 2)
    indicator = _read_rows(required("_graph_indicator.txt"), int, 1).reshape(-1)
    labels = _read_rows(required("_graph_labels.txt"), int, 1).reshape(-1)

    attr_path = directory / f"{name}_node_attributes.txt"
    node_attributes = _read_rows(attr_path, float) if attr_path.is_file() else None
    nl_path = directory / f"{name}_node_labels.txt"
    node_labels = _read_rows(nl_path, int, 1).reshape(-1) if nl_path.is_file() else None

    num_nodes = indicator.shape[0]
    if num_nodes == 0:
        raise DataFormatError(f"{directory}/{name}_graph_indicator.txt: no nodes")
    graph_ids = np.unique(indicator)
    if graph_ids[0] != 1 or graph_ids[-1] != graph_ids.shape[0]:
        raise DataFormatError(
            f"{directory}/{name}_graph_indicator.txt: graph ids not contiguous from 1"
        )
    if labels.shape[0] != graph_ids.shape[0]:
        raise DataFormatError(
            f"{directory}/{name}_graph_labels.txt: {labels.shape[0]} labels "
            f"for {graph_ids.shape[0]} graphs"
        )
    if edges.size and (edges.min() < 1 or edges.max() > num_nodes):
        bad = int(edges.min()) if edges.min() < 1 else int(edges.max())
        raise DataFormatError(
            f"{directory}/{name}_A.txt: node {bad} outside 1..{num_nodes}"
        )
    for arr, label in ((node_attributes, "node_attributes"), (node_labels, "node_labels")):
        if arr is not None and arr.shape[0] != num_nodes:
            raise DataFormatError(
                f"{directory}/{name}_{label}.txt: {arr.shape[0]} rows for {num_nodes} nodes"
            )
    return TuDataset(name, edges, indicator, labels, node_attributes, node_labels)


def _one_hot(values: np.ndarray) -> np.ndarray:
    levels = np.unique(values)
    out = np.zeros((values.shape[0], levels.shape[0]))
    out[np.arange(values.shape[0]), np.searchsorted(levels, values)] = 1.0
    return out


def tu_to_dataset(
    tu: TuDataset, attribute_columns=None, standardize: bool = False
) -> Dataset:
    """Each graph becomes an item: vertices embedded by node attributes
    (optionally a column subset) concatenated with one-hot node labels;
    undirected deduplicated edges; chains = the standard edge basis (a
    graph with no edges gets one empty chain and a zero representation).
    Graph labels are remapped to 0..C-1 in sorted original order."""
    blocks = []
    if tu.node_attributes is not None:
        attrs = tu.node_attributes
        if attribute_columns is not None:
            for column in attribute_columns:
                if not 0 <= column < attrs.shape[1]:
                    raise DataFormatError(
                        f"{tu.name}: attribute column {column} outside 0..{attrs.shape[1] - 1}"
                    )
            attrs = attrs[:, list(attribute_columns)]
        if attrs.shape[1]:
            blocks.append(attrs)
    if tu.node_labels is not None:
        blocks.append(_one_hot(tu.node_labels))
    if not blocks:
        raise DataFormatError(
            f"{tu.name}: no node attributes or labels to embed vertices with"
        )
    feats = np.concatenate(blocks, axis=1)
    if standardize:
        mean = feats.mean(axis=0)
        std = feats.std(axis=0)
        feats = (feats - mean) / np.where(std > 0, std, 1.0)

    label_values = np.unique(tu.graph_labels)
    label_map = {int(v): i for i, v in enumerate(label_values)}

    edge_graph = tu.graph_indicator[tu.edges[:, 0] - 1] if tu.edges.size else np.zeros(0, int)
    if tu.edges.size and np.any(edge_graph != tu.graph_indicator[tu.edges[:, 1] - 1]):
        raise DataFormatError(f"{tu.name}: an edge connects nodes of different graphs")

    items = []
    for g in range(tu.num_graphs):
        nodes = np.flatnonzero(tu.graph_indicator == g + 1) + 1  # global ids, ascending
        local = {int(v): i for i, v in enumerate(nodes)}
        rows = tu.edges[edge_graph == g + 1] if tu.edges.size else np.zeros((0, 2), int)
        und = {
            (min(local[int(a)], local[int(b)]), max(local[int(a)], local[int(b)]))
            for a, b in rows
            if a != b
        }
        complex_ = build_complex(sorted(und), nodes.shape[0])
        if complex_.num_simplices(1):
            chains = standard_basis_chains(complex_, 1)
        else:
            chains = ChainTuple((Chain(1, ()),))
        items.append(
            Item(
                complex_,
                Embedding(feats[nodes - 1]),
                chains,
                label_map[int(tu.graph_labels[g])],
            )
        )
    return Dataset(tuple(items), label_values.shape[0])


def write_tu(tu: TuDataset, directory: str | os.PathLike) -> None:
    """Serialize in canonical form: every undirected edge written in both
    directions, lines sorted ascending; floats in shortest round-trip
    notation."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    und = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in tu.edges}
    directed = sorted([(a, b) for a, b in und] + [(b, a) for a, b in und])
    with open(directory / f"{tu.name}_A.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{a}, {b}\n" for a, b in directed)
    with open(directory / f"{tu.name}_graph_indicator.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{int(v)}\n" for v in tu.graph_indicator)
    with open(directory / f"{tu.name}_graph_labels.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{int(v)}\n" for v in tu.graph_labels)
    if tu.node_attributes is not None:
        with open(directory / f"{tu.name}_node_attributes.txt", "w", encoding="utf-8") as fh:
            fh.writelines(
                ", ".join(repr(float(v)) for v in row) + "\n" for row in tu.node_attributes
            )
    if tu.node_labels is not None:
        with open(directory / f"{tu.name}_node_labels.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"{int(v)}\n" for v in tu.node_labels)
