"""Combinatorial simplicial complexes, embeddings and real-coefficient chains.

A complex is made only by ``build_complex``, which closes the given
simplices under faces and stores each dimension k as one read-only
(N_k, k+1) integer array of strictly increasing vertex rows in
lexicographic order.  The increasing row defines the positive
orientation of each simplex; orientation flips live in chain
coefficients, never in vertex order.  Vertex ids are integers only
(Python or numpy, never a bool, float or string).  Complexes are built
by whole-array operations, and ``index_of`` finds a simplex by matching
it against the stored rows, never through per-simplex Python tuples or
dicts.  A chain tuple is stored as the linear map it defines, the pair
(used simplices, coefficient matrix Λ), built once on construction;
integrating it is Λ times the per-simplex integrals, and recombining it
by a matrix L is L·Λ.  All types are immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

_INT64_MAX = 2**63 - 1

__all__ = [
    "SimplicialComplex",
    "Embedding",
    "Chain",
    "ChainTuple",
    "build_complex",
    "build_complexes",
    "standard_basis_chains",
    "apply_matrix_left",
    "embedded_path",
    "embedded_paths",
]


class _ByBytes:
    """Equality and hash by ``_key()``, which holds an instance's arrays
    as bytes with what fixes their shapes; other classes compare unequal."""

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False, init=False)
class SimplicialComplex(_ByBytes):
    """Vertex set plus oriented simplices, closed under taking faces.

    Made only by ``build_complex``; calling the class raises TypeError.
    Dimension k is one read-only (N_k, k+1) intp array of strictly
    increasing vertex rows in lexicographic order, row i being simplex i.
    """

    num_vertices: int
    _arrays: tuple = field(repr=False)  # per dimension: (N_k, k+1) rows

    def __init__(self, *_args, **_kwargs):
        raise TypeError("SimplicialComplex() cannot be called; use build_complex")

    @property
    def dim(self) -> int:
        return len(self._arrays) - 1

    def simplices(self, k: int) -> tuple[tuple[int, ...], ...]:
        """All k-simplices in lexicographic order, as tuples built on each call."""
        if not self._has_dim(k):
            return ()
        return tuple(map(tuple, self._arrays[k].tolist()))

    def num_simplices(self, k: int) -> int:
        return self._arrays[k].shape[0] if self._has_dim(k) else 0

    def index_of(self, k: int, simplex) -> int:
        """Row of ``simplex`` among the k-simplices, the first row of
        ``vertex_array(k)`` equal to it; ValueError if there is none or an
        entry is not an integer."""
        simplex = tuple(simplex)
        if self._has_dim(k) and len(simplex) == k + 1 and all(map(_is_int, simplex)):
            hit = np.flatnonzero((self._arrays[k] == simplex).all(axis=1))
            if hit.size:
                return int(hit[0])
        raise ValueError(f"simplex {simplex} is not in the complex")

    def vertex_array(self, k: int) -> np.ndarray:
        """The read-only (N_k, k+1) intp array of the k-simplices, row i
        being simplex i; empty outside 0..dim."""
        if self._has_dim(k):
            return self._arrays[k]
        return np.empty((0, max(k + 1, 0)), dtype=np.intp)

    def _has_dim(self, k) -> bool:
        """Whether 0 <= k <= dim; ValueError for a ``k`` that is not an
        integer, a bool included."""
        if not _is_int(k):
            raise ValueError(f"dimension {k!r} is not an integer")
        return 0 <= k <= self.dim

    def _key(self):
        return self.num_vertices, tuple(a.tobytes() for a in self._arrays)


def _is_int(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    # the type test first: an isinstance against the numbers ABC takes ~0.4 us
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _unique_rows(rows: np.ndarray, num_vertices: int) -> np.ndarray:
    """The distinct rows of an intp array in lexicographic order: by int64 keys
    of base-``num_vertices`` digits, or by ``np.lexsort`` where those overflow."""
    base, width = max(num_vertices, 1), rows.shape[1]
    if base**width <= _INT64_MAX:
        powers = np.array([base**p for p in range(width - 1, -1, -1)], dtype=np.int64)
        return rows[np.unique(rows.astype(np.int64, copy=False) @ powers, return_index=True)[1]]
    rows = rows[np.lexsort(rows.T[::-1])]  # np.lexsort's last key is its first
    return rows[np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))]


@dataclass(frozen=True, eq=False)
class Embedding(_ByBytes):
    """One point in R^n per vertex; realizes simplices affinely."""

    coords: np.ndarray  # (num_vertices, n), float64, read-only

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError("coords must be a (num_vertices, n) array")
        if not np.isfinite(coords).all():
            raise ValueError("coords contain non-finite entries")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def num_vertices(self) -> int:
        return self.coords.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.coords.shape[1]

    def _key(self):
        return self.coords.shape, self.coords.tobytes()


@dataclass(frozen=True)
class Chain:
    """Sparse real linear combination of k-simplices of one dimension.

    Terms are canonicalized on construction: indices sorted, repeats
    merged, zero coefficients dropped.  An index must be an integer
    (Python or numpy, not bool); anything else raises ValueError.
    Chains are combined linearly by ``apply_matrix_left``.
    """

    dim: int
    terms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("chain dimension must be nonnegative")
        merged: dict[int, float] = {}
        for idx, coeff in self.terms:
            if not _is_int(idx):
                raise ValueError(f"simplex index {idx!r} is not an integer")
            idx = int(idx)
            coeff = float(coeff)
            if idx < 0:
                raise ValueError(f"negative simplex index {idx}")
            if not math.isfinite(coeff):
                raise ValueError("non-finite chain coefficient")
            merged[idx] = merged.get(idx, 0.0) + coeff
        canonical = tuple((i, c) for i, c in sorted(merged.items()) if c != 0.0)
        object.__setattr__(self, "terms", canonical)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True, eq=False, init=False)
class ChainTuple(_ByBytes):
    """Ordered tuple of m >= 1 chains of one dimension, kept as the linear
    map they define: chain i = sum_s lam[i, s] * simplex used[s].  ``used``
    is sorted, read-only intp; ``lam`` is read-only (m, S) float64 with no
    all-zero column, or None exactly when every chain i is +1 * simplex
    used[i].  Indexing and iteration rebuild ``Chain`` values from rows."""

    dim: int
    used: np.ndarray
    lam: np.ndarray | None

    def __init__(self, chains):
        chains = tuple(chains)
        dims = {c.dim for c in chains}
        if len(dims) > 1:
            raise ValueError(f"mixed chain dimensions {sorted(dims)}")
        counts = [len(c.terms) for c in chains]
        idx = np.fromiter((i for c in chains for i, _ in c.terms), np.intp, sum(counts))
        coeff = np.fromiter((v for c in chains for _, v in c.terms), np.float64, idx.size)
        used = np.unique(idx)
        lam = np.zeros((len(chains), used.size))
        lam[np.repeat(np.arange(len(chains)), counts), np.searchsorted(used, idx)] = coeff
        _store(self, dims.pop() if dims else 0, used, lam)

    def __len__(self) -> int:
        return self.used.size if self.lam is None else self.lam.shape[0]

    def __getitem__(self, i: int) -> Chain:
        if self.lam is None:
            return Chain(self.dim, ((self.used[i], 1.0),))
        return Chain(self.dim, tuple(zip(self.used.tolist(), self.lam[i].tolist())))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def _key(self):
        lam = None if self.lam is None else (self.lam.shape, self.lam.tobytes())
        return self.dim, self.used.tobytes(), lam


def _store(ct: ChainTuple, dim: int, used: np.ndarray, lam: np.ndarray | None) -> ChainTuple:
    """Set the fields of ``ct``, with None for ``lam`` when it is the identity."""
    if lam is not None:
        if not lam.shape[0]:
            raise ValueError("a chain tuple needs at least one chain")
        if lam.shape[0] == used.size == np.count_nonzero(lam) and (lam.diagonal() == 1.0).all():
            lam = None
    for arr in (used, lam):
        if arr is not None:
            arr.flags.writeable = False
    ct.__dict__.update(dim=dim, used=used, lam=lam)
    return ct


def build_complex(simplex_lists, num_vertices: int) -> SimplicialComplex:
    """Build a complex from vertex tuples, adding every missing face.

    ``simplex_lists`` is a list of tuples, in any order and any mix of dimensions,
    or an (N, k+1) array of an integer dtype (any other dtype is refused); each
    simplex is sorted increasing.  ``num_vertices`` is a nonnegative int, a vertex
    id an integer (never a bool, float or string).  An empty simplex, a
    non-integer id, a repeated vertex or one outside ``0..num_vertices-1`` is
    refused, naming the first such simplex in input order; an array is scanned
    for it only once the whole-array check has failed.  All ``num_vertices``
    vertices are 0-simplices.  The faces of each dimension are column selections
    of the sorted rows, made unique and put in lexicographic order (``_unique_rows``);
    the result is valid by construction and is not checked again.  A dataset's
    complexes are built with one call, by ``build_complexes``.
    """
    if not _is_int(num_vertices) or num_vertices < 0:
        raise ValueError(f"num_vertices must be a nonnegative int, got {num_vertices!r}")
    num_vertices = int(num_vertices)
    if isinstance(simplex_lists, np.ndarray):
        if simplex_lists.ndim != 2:
            raise ValueError(f"simplex array of shape {simplex_lists.shape} is not (N, k+1)")
        if simplex_lists.dtype.kind not in "iu":  # signed or unsigned integers
            raise ValueError(f"simplex array of dtype {simplex_lists.dtype} does not hold integers")
        groups = [simplex_lists]
    else:
        simplex_lists = list(simplex_lists)
        _refuse_first_offender(simplex_lists, num_vertices)
        groups = [np.array([s for s in simplex_lists if len(s) == n], dtype=np.intp)
                  for n in {len(s) for s in simplex_lists}]

    faces: dict[int, list[np.ndarray]] = {}
    for rows in groups:
        if not rows.shape[0]:
            continue
        k = rows.shape[1] - 1
        rows = np.sort(rows.astype(np.intp, copy=False), axis=1)
        if (k < 0 or (rows[:, 1:] == rows[:, :-1]).any() or rows[:, 0].min() < 0
                or rows[:, -1].max() >= num_vertices):
            _refuse_first_offender(simplex_lists, num_vertices)
        faces.setdefault(k, []).append(rows)
        for j in range(1, k):
            for cols in itertools.combinations(range(k + 1), j + 1):
                faces.setdefault(j, []).append(rows[:, cols])

    arrays = [np.arange(num_vertices, dtype=np.intp).reshape(-1, 1)]
    for k in range(1, max(faces, default=0) + 1):
        rows = np.concatenate(faces[k]) if len(faces[k]) > 1 else faces[k][0]
        arrays.append(_unique_rows(rows, num_vertices))
    for rows in arrays:
        rows.flags.writeable = False
    return _complex(num_vertices, arrays)


def build_complexes(rows, starts, num_vertices) -> list[SimplicialComplex]:
    """One complex per item: complex i is ``build_complex(rows[starts[i]:
    starts[i+1]], num_vertices[i])`` byte for byte.  One ``build_complex``
    call builds the items' disjoint union (ids shifted past the earlier
    items' vertices), whose arrays the complexes share as views.  A batch
    failing a check is built item by item, so the first bad item raises."""
    sizes, starts = list(num_vertices), np.asarray(starts)
    if (starts.shape != (len(sizes) + 1,) or starts.dtype.kind not in "iu" or starts[0] != 0
            or starts[-1] != len(rows) or (np.diff(starts) < 0).any()):
        raise ValueError(f"starts must rise from 0 to {len(rows)} in {len(sizes)} steps")
    try:
        if (not isinstance(rows, np.ndarray) or rows.ndim != 2 or rows.dtype.kind not in "iu"
                or not all(_is_int(n) and n >= 0 for n in sizes)):
            raise ValueError("simplex rows must be an (N, k+1) integer array")
        offsets, counts = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))), np.diff(starts)
        local = rows.astype(np.intp, copy=False)
        if (local < 0).any() or (local.max(axis=1, initial=-1) >= np.repeat(sizes, counts)).any():
            raise ValueError("a vertex outside its item")
        union = build_complex(local + np.repeat(offsets[:-1], counts)[:, None], int(offsets[-1]))
    except ValueError:
        for n, lo, hi in zip(sizes, starts[:-1], starts[1:]):
            build_complex(rows[lo:hi], n)
        raise
    arrays = [[union.vertex_array(0)[:n]] for n in sizes]
    for k in range(1, union.dim + 1):
        first = union.vertex_array(k)[:, :1]
        shifted = union.vertex_array(k) - offsets[np.searchsorted(offsets, first, "right") - 1]
        shifted.flags.writeable = False
        blocks = np.split(shifted, np.searchsorted(first[:, 0], offsets[1:-1]))
        for parts, block in zip(arrays, blocks):
            if block.size:  # an item without simplices keeps dimension 0
                parts.append(block)
    return [_complex(len(parts[0]), parts) for parts in arrays]


def _complex(num_vertices: int, arrays) -> SimplicialComplex:
    """The complex of the given read-only rows per dimension, unchecked."""
    complex_ = object.__new__(SimplicialComplex)
    complex_.__dict__.update(num_vertices=num_vertices, _arrays=tuple(arrays))
    return complex_


def _refuse_first_offender(simplices, num_vertices: int) -> None:
    """Raise the ValueError of the first simplex, in input order, that is
    empty, holds a vertex id that is not an integer, repeats a vertex or
    has a vertex outside ``0..num_vertices-1``; return if there is none."""
    for raw in simplices:
        if not len(raw):
            raise ValueError("empty simplex tuple")
        if not all(map(_is_int, raw)):
            raise ValueError(f"simplex {raw} has a vertex id that is not an integer")
        if len(set(raw)) < len(raw):
            raise ValueError(f"degenerate simplex {raw}: repeated vertex")
        if min(raw) < 0 or max(raw) >= num_vertices:
            raise ValueError(f"simplex {raw} has a vertex outside 0..{num_vertices - 1}")


def standard_basis_chains(complex_: SimplicialComplex, k: int) -> ChainTuple:
    """One +1 chain per k-simplex, in the complex's lexicographic order."""
    n = complex_.num_simplices(k)
    if n == 0:
        raise ValueError(f"complex has no {k}-simplices")
    return _store(object.__new__(ChainTuple), k, np.arange(n, dtype=np.intp), None)


def apply_matrix_left(matrix, beta: ChainTuple) -> ChainTuple:
    """Act on a chain tuple by a real matrix L: row i of the result is
    sum_j L[i, j] * beta_j.  Its coefficient matrix is L @ beta.lam (L
    itself for a standard basis) over beta's simplices, less those whose
    coefficients all cancel."""
    L = np.asarray(matrix, dtype=np.float64)
    if L.ndim != 2 or L.shape[1] != len(beta):
        raise ValueError(f"matrix shape {L.shape} does not match {len(beta)} chains")
    with np.errstate(all="ignore"):  # a non-finite result is refused below
        lam = L if beta.lam is None else L @ beta.lam
    if not np.isfinite(lam).all():
        raise ValueError("non-finite chain coefficient")
    keep = lam.any(axis=0)
    # x + 0.0 turns -0.0 into 0.0, so equal chains get equal bytes
    return _store(object.__new__(ChainTuple), beta.dim, beta.used[keep], lam[:, keep] + 0.0)


def embedded_path(points) -> tuple[SimplicialComplex, Embedding, ChainTuple]:
    """The embedded path complex and one-chain ``ChainTuple`` of an
    ordered point sequence: ``embedded_paths`` of a one-path stack."""
    return embedded_paths(np.asarray(points, dtype=np.float64)[None])[0]


def embedded_paths(points) -> list[tuple[SimplicialComplex, Embedding, ChainTuple]]:
    """Turn each ordered point sequence of a (P, L, n) stack into an
    embedded path complex and its one-chain ``ChainTuple``.

    Vertices are indexed canonically (points sorted lexicographically,
    ties broken by sequence position) so that a list and its reverse
    produce the same complex and embedding.  Consecutive points are
    distinct vertices, so every step is its own edge.  The chain sums
    the steps' edges with sign +1 where the stored increasing tuple
    agrees with the traversal direction and -1 where it opposes it;
    integrating the chain therefore gives the directed path integral.
    Paths of fewer than 2 points, or points with no coordinate, are
    refused.  One row-wise lexsort, one row-wise argsort and one
    ``build_complexes`` call serve the stack; its chains share ``used``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[1] < 2:
        raise ValueError("a path needs at least 2 points")
    count, length, n = pts.shape
    if not n:
        raise ValueError("a path's points need at least one coordinate")
    # each path by its first coordinate first; stable, so ties keep position
    order = np.lexsort(pts.transpose(2, 0, 1)[::-1], axis=-1)
    rank = np.argsort(order, axis=1)  # the inverse permutations
    ends = np.sort(np.stack([rank[:, :-1], rank[:, 1:]], axis=2), axis=2)  # of each step
    starts = np.arange(count + 1) * (length - 1)
    complexes = build_complexes(ends.reshape(-1, 2), starts, [length] * count)
    # the complex lists the edges in key order; a step's sign goes to its edge
    signs = np.where(rank[:, :-1] < rank[:, 1:], 1.0, -1.0)
    lam = np.take_along_axis(signs, np.argsort(ends[..., 0] * length + ends[..., 1], axis=1), 1)
    coords = np.take_along_axis(pts, order[..., None], axis=1)
    used = np.arange(length - 1, dtype=np.intp)
    return [(complex_, Embedding(xy), _store(object.__new__(ChainTuple), 1, used, row[None]))
            for complex_, xy, row in zip(complexes, coords, lam)]
