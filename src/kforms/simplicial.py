"""Combinatorial simplicial complexes, embeddings and real-coefficient chains.

A complex stores, per dimension, a lexicographically sorted list of
strictly increasing vertex tuples.  The increasing tuple defines the
positive orientation of each simplex; orientation flips live in chain
coefficients, never in tuple order.  A chain tuple is stored as the
linear map it defines, the pair (used simplices, coefficient matrix
Λ), built once on construction; integrating it is Λ times the
per-simplex integrals, and recombining it by a matrix L is L·Λ.  All
types are immutable after construction and safe to share between
threads; a complex keeps the vertex array of each dimension once it is
first asked for, a read-only function of its immutable fields.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SimplicialComplex",
    "Embedding",
    "Chain",
    "ChainTuple",
    "build_complex",
    "standard_basis_chains",
    "apply_matrix_left",
    "path_to_complex",
]


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex set plus oriented simplices, closed under taking faces."""

    num_vertices: int
    simplices_by_dim: tuple[tuple[tuple[int, ...], ...], ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    _vertices: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be nonnegative")
        for k, simplices in enumerate(self.simplices_by_dim):
            seen = set()
            for s in simplices:
                if len(s) != k + 1:
                    raise ValueError(f"{s} is not a {k}-simplex")
                if any(a >= b for a, b in zip(s, s[1:])):
                    raise ValueError(f"simplex {s} is not strictly increasing")
                if s[0] < 0 or s[-1] >= self.num_vertices:
                    raise ValueError(f"simplex {s} has a vertex outside 0..{self.num_vertices - 1}")
                if s in seen:
                    raise ValueError(f"duplicate simplex {s}")
                seen.add(s)
                if k > 0:
                    for face in itertools.combinations(s, k):
                        if face not in self._index.get(k - 1, {}):
                            raise ValueError(f"face {face} of {s} missing: complex not closed")
            self._index[k] = {s: i for i, s in enumerate(simplices)}

    @property
    def dim(self) -> int:
        return len(self.simplices_by_dim) - 1

    def simplices(self, k: int) -> tuple[tuple[int, ...], ...]:
        """All k-simplices in stored (lexicographic) order."""
        if not 0 <= k <= self.dim:
            return ()
        return self.simplices_by_dim[k]

    def num_simplices(self, k: int) -> int:
        return len(self.simplices(k))

    def index_of(self, k: int, simplex: tuple[int, ...]) -> int:
        return self._index[k][simplex]

    def vertex_array(self, k: int) -> np.ndarray:
        """Read-only (N_k, k+1) intp array of the k-simplices' vertices,
        row i being simplex i; built on first use and kept."""
        verts = self._vertices.get(k)
        if verts is None:
            flat = itertools.chain.from_iterable(self.simplices(k))
            count = self.num_simplices(k) * (k + 1)
            verts = np.fromiter(flat, np.intp, count).reshape(-1, k + 1).copy()  # no base array kept
            verts.flags.writeable = False
            self._vertices[k] = verts
        return verts


@dataclass(frozen=True)
class Embedding:
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


@dataclass(frozen=True)
class Chain:
    """Sparse real linear combination of k-simplices of one dimension.

    Terms are canonicalized on construction: indices sorted, repeats
    merged, zero coefficients dropped.  Chains are combined linearly by
    ``apply_matrix_left``.
    """

    dim: int
    terms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("chain dimension must be nonnegative")
        merged: dict[int, float] = {}
        for idx, coeff in self.terms:
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
class ChainTuple:
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

    def __eq__(self, other) -> bool:
        return isinstance(other, ChainTuple) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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

    Tuples may be given in any order and any dimension mix; each is
    sorted increasing.  A tuple with a repeated vertex is rejected.  All
    ``num_vertices`` vertices are stored as 0-simplices regardless of
    whether they appear in any input tuple.
    """
    by_dim: dict[int, set[tuple[int, ...]]] = {0: {(v,) for v in range(num_vertices)}}
    for raw in simplex_lists:
        s = tuple(int(v) for v in raw)
        if len(set(s)) != len(s):
            raise ValueError(f"degenerate simplex {raw}: repeated vertex")
        if not s:
            raise ValueError("empty simplex tuple")
        if min(s) < 0 or max(s) >= num_vertices:
            raise ValueError(f"simplex {raw} has a vertex outside 0..{num_vertices - 1}")
        s = tuple(sorted(s))
        k = len(s) - 1
        # face closure: every sub-tuple of every size
        for j in range(1, k + 2):
            dest = by_dim.setdefault(j - 1, set())
            dest.update(itertools.combinations(s, j))
    max_dim = max(by_dim)
    listed = tuple(tuple(sorted(by_dim.get(k, set()))) for k in range(max_dim + 1))
    return SimplicialComplex(num_vertices, listed)


def standard_basis_chains(complex_: SimplicialComplex, k: int) -> ChainTuple:
    """One +1 chain per k-simplex, in the complex's stored order."""
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


def path_to_complex(points) -> tuple[SimplicialComplex, Embedding, Chain]:
    """Turn an ordered point sequence into an embedded path complex.

    Vertices are indexed canonically (points sorted lexicographically,
    ties broken by sequence position) so that a list and its reverse
    produce the same complex and embedding.  The returned 1-chain sums
    the consecutive edges with sign +1 where the stored increasing tuple
    agrees with the traversal direction and -1 where it opposes it;
    integrating the chain therefore gives the directed path integral.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("a path needs at least 2 points")
    order = sorted(range(pts.shape[0]), key=lambda i: (tuple(pts[i]), i))
    rank = {pos: r for r, pos in enumerate(order)}
    coords = pts[order]

    edges = []
    terms = []
    edge_ids: dict[tuple[int, int], int] = {}
    for i in range(pts.shape[0] - 1):
        a, b = rank[i], rank[i + 1]
        sign = 1.0 if a < b else -1.0
        key = (min(a, b), max(a, b))
        if key not in edge_ids:
            edge_ids[key] = len(edges)
            edges.append(key)
        terms.append((key, sign))

    complex_ = build_complex(edges, pts.shape[0])
    chain = Chain(1, tuple((complex_.index_of(1, key), s) for key, s in terms))
    return complex_, Embedding(coords), chain
