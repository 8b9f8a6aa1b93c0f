"""Dataset construction: synthetic paths and surfaces, TU-format graphs.

Generators are pure functions of their spec (including the seed).  The
graph reader follows the public TU text convention: global 1-indexed
node ids, one ``<name>_A.txt`` line per directed edge, per-node graph
membership in ``<name>_graph_indicator.txt``, per-graph labels, and
optional per-node attribute/label files that become vertex coordinates.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Dataset, Item, _check_field_types
from .simplicial import (
    Chain,
    ChainTuple,
    Embedding,
    SimplicialComplex,
    build_complex,
    build_complexes,
    embedded_paths,
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
        _check_field_types(self)
        if self.samples_per_class < 1:
            raise ValueError("need at least one sample per class")
        if self.points_per_path < 2:
            raise ValueError("a path needs at least 2 points")
        if not 0 <= self.noise <= sys.float_info.max:
            raise ValueError(f"noise must be nonnegative and finite, got {self.noise!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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
    per-path uniform translation of up to 0.1; embed them all at once."""
    rng = np.random.default_rng(spec.seed)
    t = np.linspace(0.0, 1.0, spec.points_per_path)
    points = np.empty((3, spec.samples_per_class, spec.points_per_path, 2))
    for cls in range(3):
        base = _path_template(cls, t)
        for pts in points[cls]:
            np.add(base, rng.normal(0.0, spec.noise, size=base.shape), out=pts)
            pts += rng.uniform(-0.1, 0.1, size=2)
    paths = embedded_paths(points.reshape(-1, spec.points_per_path, 2))
    items = (Item(*path, i // spec.samples_per_class) for i, path in enumerate(paths))
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
        _check_field_types(self)
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if self.samples_per_class < 1:
            raise ValueError("need at least one sample per class")
        for name in ("noise", "translation"):
            value = getattr(self, name)
            if not 0 <= value <= sys.float_info.max:
                raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _grid_complex(g: int) -> SimplicialComplex:
    corner = (np.arange(g - 1)[:, None] * g + np.arange(g - 1)).reshape(-1, 1)  # vertex (i, j)
    # each square split along its (i, j)-(i+1, j+1) diagonal
    tris = np.concatenate([corner + [0, g, g + 1], corner + [0, 1, g + 1]])
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


def _lines(path: Path):
    """(file line number, stripped text) of each non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield ln, line


def _loadtxt(source, kind: type) -> np.ndarray:
    """``np.loadtxt`` of comma-separated ``kind`` (int or float) fields,
    2-D; an empty or blank-only input gives shape (0, 1), not a warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, dtype=np.int64 if kind is int else np.float64, delimiter=",",
                          comments=None, ndmin=2, encoding="utf-8")


def _read_rows(path: Path, kind: type, width: int | None = None) -> np.ndarray:
    """Comma-separated rows of ``kind`` (int or float) values, blank lines
    skipped, as an int64 or float64 array; every row must have ``width``
    fields, or the first row's number when ``width`` is None.  Fields are
    ASCII: no ``_`` digit separators, no other scripts' digits."""
    try:
        rows = _loadtxt(path, kind)
    except ValueError:
        rows = None
    if rows is None or rows.size and width not in (None, rows.shape[1]):
        rows = _rescan(path, kind, width)
    return rows if rows.size else rows.reshape(0, width or 0)


def _rescan(path: Path, kind: type, width: int | None) -> np.ndarray:
    """Read a file line by line after ``np.loadtxt`` refused it or read
    the wrong width.  Raise the ``DataFormatError`` of the first line that
    is ragged or holds a field that is not ``kind``, else of the first
    integer beyond int64; if there is neither, the refused lines held only
    whitespace, which counts as blank, and the other lines' rows are
    returned."""
    what = "an integer" if kind is int else "a number"
    kept, out_of_range = [], None
    try:
        for ln, line in _lines(path):
            parts = line.split(",")
            width = width or len(parts)
            if len(parts) != width:
                raise DataFormatError(
                    f"{path}, line {ln}: ragged row ({len(parts)} fields, expected {width})"
                )
            try:
                # int() and float() read 1_0 as 10, and read other scripts' digits
                if "_" in line or not all(p.strip().isascii() for p in parts):
                    raise ValueError
                values = [kind(p) for p in parts]
            except ValueError:
                raise DataFormatError(f"{path}, line {ln}: not {what}: {line!r}") from None
            if kind is int and not -(2**63) <= min(values) <= max(values) < 2**63:
                out_of_range = out_of_range or ln
            kept.append(line)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if out_of_range is not None:
        raise DataFormatError(f"{path}, line {out_of_range}: integer out of int64 range")
    try:
        return _loadtxt(kept, kind)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def parse_tu(directory: str | os.PathLike, name: str | None = None) -> TuDataset:
    """Read `<name>_A.txt`, `<name>_graph_indicator.txt`,
    `<name>_graph_labels.txt` and the optional node attribute/label
    files; validates id contiguity and cross-references."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataFormatError(f"{directory}: no such directory")
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
    if node_attributes is not None and not np.isfinite(node_attributes).all():
        row = int(np.flatnonzero(~np.isfinite(node_attributes).all(axis=1))[0])
        ln, line = next(itertools.islice(_lines(attr_path), row, None))
        raise DataFormatError(f"{attr_path}, line {ln}: not a finite number: {line!r}")
    nl_path = directory / f"{name}_node_labels.txt"
    node_labels = _read_rows(nl_path, int, 1).reshape(-1) if nl_path.is_file() else None

    tu = TuDataset(name, edges, indicator, labels, node_attributes, node_labels)
    _check_references(tu, f"{directory}/{name}")
    return tu


def _check_references(tu: TuDataset, files: str | None = None) -> None:
    """Refuse ``tu`` for its first broken cross-reference, naming the file
    (``files`` + suffix) or, when ``files`` is None, ``tu.name``."""
    def refuse(suffix: str, message: str):
        raise DataFormatError(f"{tu.name if files is None else files + suffix}: {message}")

    num_nodes = tu.num_nodes
    if num_nodes == 0:
        refuse("_graph_indicator.txt", "no nodes")
    graph_ids = np.unique(tu.graph_indicator)
    if graph_ids[0] != 1 or graph_ids[-1] != graph_ids.shape[0]:
        refuse("_graph_indicator.txt", "graph ids not contiguous from 1")
    if tu.num_graphs != graph_ids.shape[0]:
        refuse("_graph_labels.txt", f"{tu.num_graphs} labels for {graph_ids.shape[0]} graphs")
    edges = tu.edges
    if edges.size and (edges.min() < 1 or edges.max() > num_nodes):
        bad = int(edges.min()) if edges.min() < 1 else int(edges.max())
        refuse("_A.txt", f"node {bad} outside 1..{num_nodes}")
    for arr, label in ((tu.node_attributes, "node_attributes"), (tu.node_labels, "node_labels")):
        if arr is not None and arr.shape[0] != num_nodes:
            refuse(f"_{label}.txt", f"{arr.shape[0]} rows for {num_nodes} nodes")


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
    Graph labels are remapped to 0..C-1 in sorted original order.  Broken
    cross-references are refused as in ``parse_tu``; one
    ``build_complexes`` call builds every graph's complex."""
    _check_references(tu)
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

    label_values, labels = np.unique(tu.graph_labels, return_inverse=True)

    edges = tu.edges.reshape(-1, 2) - 1  # 0-based node ids
    if np.any(tu.graph_indicator[edges[:, 0]] != tu.graph_indicator[edges[:, 1]]):
        raise DataFormatError(f"{tu.name}: an edge connects nodes of different graphs")

    # nodes grouped by graph, ascending within each; node v sits at place[v]
    by_graph = np.argsort(tu.graph_indicator, kind="stable")
    place = np.empty_like(by_graph)
    place[by_graph] = np.arange(tu.num_nodes)
    starts = np.searchsorted(tu.graph_indicator[by_graph], np.arange(1, tu.num_graphs + 2))
    # undirected edges without self-loops, once each, sorted in place order
    ends = np.sort(place[edges[edges[:, 0] != edges[:, 1]]], axis=1)
    keys = np.unique(ends[:, 0] * tu.num_nodes + ends[:, 1])
    ends = np.stack(np.divmod(keys, tu.num_nodes), axis=1)
    edge_starts = np.searchsorted(ends[:, 0], starts)
    local = ends - np.repeat(starts[:-1], np.diff(edge_starts))[:, None]
    complexes = build_complexes(local, edge_starts, np.diff(starts).tolist())

    items = []
    for complex_, coords, label in zip(complexes, np.split(feats[by_graph], starts[1:-1]),
                                       labels.tolist()):
        has_edges = complex_.num_simplices(1)
        chains = standard_basis_chains(complex_, 1) if has_edges else ChainTuple((Chain(1, ()),))
        items.append(Item(complex_, Embedding(coords), chains, label))
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
