"""Numerical integration of k-forms over embedded simplices and chains.

The standard k-simplex is split edgewise into ``h**k`` congruent cells
(volume ``1/(k! * h**k)`` each); on every cell the integrand is
approximated by the average of its vertex values.  Shared cell vertices
are merged, so the rule, ``quadrature_rule(k, h)``, is one cached pair
of read-only arrays: each node once, with its pooled weight.  It is
exact whenever the pulled-back integrand is affine on each cell — in
particular for constant coefficient functions at any resolution — and
is second-order accurate for smooth integrands.  At k = 0 it is one
node of weight 1/0! = 1: a 0-form integrates to its value at the vertex.

One body computes every integration matrix.  It gathers items
(complex, embedding, chains) in order into chunks of at most
``ROW_BUDGET`` MLP rows and runs each chunk in two steps.  The geometry
step gathers the vertex coordinates (k+1, S, n) of the simplices the
chains use, vertex first, whose differences from vertex 0 are the
transposed affine Jacobians (k, S, n).  It makes one ``epsilon_all``
call on a transposed view of them for the column volumes (S, C), and per
item one GEMM pushing the quadrature nodes (N, k) into ambient space:
the nodes times the item's Jacobians (k, S_i * n), plus its base
vertices, is the item's block of N * S_i rows of n coordinates, node
first (row t * S_i + s is node t on simplex s).  The contraction step
makes one MLP call on the pushed nodes and, per item, contracts its own
rows with the weights, one dot of (1, N) with (N, S_i * l * C), and with
the volumes into the per-simplex integrals, which its chain coefficients
combine linearly.  An item whose chains are all empty uses no simplex
and adds zero rows; its coefficients times the empty table are a zero
matrix.  Items share nothing, so an item's matrix is bit-identical
whichever chunk it lands in while ``Mlp.rows_independent`` holds;
otherwise every item runs alone.  The budget is fixed: larger chunks ran
slower per item, the MLP being memory-bound.  The used simplices, their
coefficient matrix and the simplex vertex indices are read from the data
objects, which build them once.

The row order differs by pass.  A forward-only pass
(``integration_matrix``, ``integration_matrices``) runs the MLP on the
node-first rows, so each item's block of the MLP output already is the
(N, S_i * l * C) operand of its dot: a view, no copy.  A training pass
(``integration_matrix_forward``, whose cache reaches ``Mlp.backward``)
transposes its item's points to simplex-first rows (row s * N + t) and
copies the MLP output back to node first for the dot: the weight
gradient ``dz.T @ inputs`` sums the rows in order, and another order
would change the gradient's bits.  An MLP without
``Mlp.rows_independent``, where a row's bits can depend on its
neighbours, runs every pass on simplex-first rows.  So X has the same
bits on either pass.  The dot stays one per item: with OpenBLAS 0.3.31,
one dot over a whole chunk, or over a strided column slice of the MLP
output, changed bits.

Embedded simplices are fixed data, so their geometry never changes
while a form learns.  ``prepare_geometry`` runs the geometry step once
over many items and hands each its ``Geometry``: its share of one
read-only array of pushed nodes and one of column volumes.  An item
given its ``Geometry`` skips the geometry step, and a chunk of items
whose shares follow one another in the same arrays takes one slice of
each, with no gather or concatenation; the slices hold the bits, and
the node-first rows, the step would compute.  Training prepares each
split this way once per run (``kforms.model.train``).

The MLP always runs ``Mlp.forward_cached``, and the body returns a
cache ``(lam, weights, eps, mlp_cache)`` per item: chain coefficients
over the used simplices (None for the identity), quadrature weights,
column volumes per simplex and the MLP's cache, all a loss gradient
needs to reach the MLP parameters (embeddings are fixed data and
receive no gradient).  ``integration_matrix_forward`` returns one
item's matrix and cache from a training pass; ``integration_matrix``
is the same matrix from a forward-only pass, and
``integration_matrices`` yields many items' matrices, dropping the
caches.
"""

from __future__ import annotations

import itertools
import math
import numbers
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .forms import NeuralKForm, affine_jacobian, epsilon_all
from .simplicial import ChainTuple, Embedding, SimplicialComplex

__all__ = [
    "quadrature_rule",
    "integrate_simplex",
    "integration_matrix",
    "integration_matrices",
    "integration_matrix_forward",
    "integration_matrix_backward",
    "mlp_rows",
    "Geometry",
    "prepare_geometry",
]

DEFAULT_STEPS = 5
ROW_BUDGET = 2048  # the most MLP rows a chunk of several items runs in one call


@lru_cache(maxsize=None, typed=True)  # typed: h=3.0 must not hit the entry of h=3
def quadrature_rule(k: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex-average rule on the standard k-simplex at resolution h:
    read-only float64 ``nodes`` (N, k) in simplex coordinates and
    ``weights`` (N,) summing to 1/k!.  For k = 0 that is one node (an
    empty coordinate row) of weight 1, at every h.

    The simplex is split edgewise on the suffix-sum grid: a grid point
    ``y`` with ``h >= y[0] >= ... >= y[k-1] >= 0`` is the simplex point
    ``t[i] = (y[i] - y[i+1]) / h`` (``y[k] == 0``).  Each grid cube of
    side 1/h is cut into k! path simplices, one per coordinate insertion
    order; those whose vertices all keep the ordering are the h**k
    cells, each of volume ``1/(k! * h**k)``.  Every cell spreads its
    volume equally over its k+1 vertices, and coincident vertices pool
    their weights, so each grid point is one node.
    """
    if k < 0:
        raise ValueError(f"quadrature needs k >= 0, got {k}")
    if isinstance(h, bool) or not isinstance(h, numbers.Integral) or h < 1:
        raise ValueError(f"resolution must be a positive integer, got {h!r}")
    corners = np.indices((h,) * k).reshape(k, h**k).T
    eye = np.eye(k, dtype=np.intp)
    cells = []
    for perm in itertools.permutations(range(k)):
        offsets = np.zeros((k + 1, k), dtype=np.intp)
        offsets[1:] = np.cumsum(eye[list(perm)], axis=0)
        verts = corners[:, None, :] + offsets
        cells.append(verts[np.all(verts[:, :, :-1] >= verts[:, :, 1:], axis=(1, 2))])
    cells = np.concatenate(cells)
    if cells.shape[0] != h**k:
        raise AssertionError(f"expected {h**k} cells for k={k}, h={h}, got {cells.shape[0]}")
    # Cell order needs no sort: every addend of np.add.at is the same
    # share and np.unique sorts the nodes, so no order can change a bit.
    grid, inverse = np.unique(cells.reshape(h**k * (k + 1), k), axis=0, return_inverse=True)
    weights = np.zeros(grid.shape[0])
    np.add.at(weights, inverse.reshape(-1), 1.0 / (math.factorial(k) * h**k) / (k + 1))
    nodes = grid.astype(np.float64)
    nodes[:, :-1] -= grid[:, 1:]
    nodes /= h
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _check_setting(form: NeuralKForm, complex_: SimplicialComplex, embedding: Embedding) -> None:
    if embedding.ambient_dim != form.n:
        raise ValueError(f"embedding lives in R^{embedding.ambient_dim}, form in R^{form.n}")
    if embedding.num_vertices != complex_.num_vertices:
        raise ValueError(
            f"embedding has {embedding.num_vertices} vertices, complex has {complex_.num_vertices}"
        )


def integrate_simplex(
    form: NeuralKForm,
    j: int,
    complex_: SimplicialComplex,
    embedding: Embedding,
    simplex,
    h: int = DEFAULT_STEPS,
) -> float:
    """Integral of form j over one embedded k-simplex of the complex;
    for k = 0, form j's value at the simplex's vertex.

    The constant Jacobian and its column volumes are computed once; the
    MLP is evaluated on the quadrature nodes pushed into ambient space.
    """
    simplex = tuple(simplex)
    k = form.k
    if len(simplex) - 1 != k:
        raise ValueError(f"simplex {simplex} has dimension {len(simplex) - 1}, form has k={k}")
    _check_setting(form, complex_, embedding)
    complex_.index_of(k, simplex)  # raises ValueError for a simplex not in the complex
    if not 0 <= j < form.num_forms:
        raise ValueError(f"form index {j} out of range for {form.num_forms} forms")
    nodes, weights = quadrature_rule(k, h)
    D = affine_jacobian(embedding, simplex)
    eps = epsilon_all(D, form.table)
    scal = form.eval_scalings(embedding.coords[simplex[0]] + nodes @ D.T)  # (N, l, C)
    return float(np.einsum("t,tr,r->", weights, scal[:, j, :], eps))


class Geometry(NamedTuple):
    """One item's share of ``prepare_geometry``'s arrays: simplices
    ``start:stop`` of the read-only pushed quadrature nodes ``points``
    (simplices * N, n), N nodes per simplex, and column volumes ``eps``
    (simplices, C).  The item's points are rows ``start * N`` to
    ``stop * N``, node first: row ``start * N + t * (stop - start) + s``
    is node t on its simplex s.  A training pass transposes them to
    simplex-first rows (see the module docstring)."""

    points: np.ndarray
    eps: np.ndarray
    start: int
    stop: int


def integration_matrix_forward(
    form: NeuralKForm,
    complex_: SimplicialComplex,
    embedding: Embedding,
    chains,
    h: int = DEFAULT_STEPS,
    geometry: Geometry | None = None,
):
    """Integration matrix X with X[i, j] = integral of form j over chain
    i, plus a cache for the backward pass.

    Every simplex referenced by any chain is integrated exactly once on
    one batched MLP evaluation; X is the chain-coefficient matrix times
    the per-simplex integrals.  When the chains are exactly the standard
    basis of the simplices they use, X *is* the table of per-simplex
    integrals.  For k = 0 the rule is one node of weight 1 and every
    column volume is 1, so X holds the MLP values at the vertices bit for
    bit; only a vertex coordinate of -0.0 reaches the MLP as +0.0.
    ``geometry``, the item's share of a ``prepare_geometry`` call with
    this form and h, replaces the geometry step; X keeps its bits.
    """
    entry = _entry(form, h, complex_, embedding, chains, geometry)
    ((X, cache),) = _integrate(form, h, [entry], cached=True)
    return X, cache


def integration_matrix(
    form: NeuralKForm,
    complex_: SimplicialComplex,
    embedding: Embedding,
    chains,
    h: int = DEFAULT_STEPS,
) -> np.ndarray:
    """X[i, j] = integral of form j over chain i, shape (m, num_forms):
    the matrix of ``integration_matrix_forward``, bit for bit, from a
    forward-only pass."""
    ((X, _),) = _integrate(form, h, [_entry(form, h, complex_, embedding, chains)])
    return X


def integration_matrices(form: NeuralKForm, settings, h: int = DEFAULT_STEPS):
    """Yield ``integration_matrix(form, *setting, h)`` for each
    (complex, embedding, chains) setting in turn, bit for bit.  A
    setting may end in the item's ``Geometry`` (see
    ``integration_matrix_forward``)."""
    for chunk in _chunks(form, settings, h):
        for X, _ in _integrate(form, h, chunk):
            yield X


def prepare_geometry(form: NeuralKForm, settings, h: int = DEFAULT_STEPS) -> list:
    """The ``Geometry`` of each (complex, embedding, chains) setting, in
    order: one geometry step over them all, whose two arrays are made
    read-only and shared by every setting's ``Geometry``.  They take
    about 8 * n bytes per MLP row the settings run."""
    entries = [_entry(form, h, *setting) for setting in settings]
    if not entries:
        return []
    points, eps = _geometry(form, quadrature_rule(form.k, h)[0], entries)
    points.setflags(write=False)
    eps.setflags(write=False)
    shares, start = [], 0
    for _, _, used, _, _ in entries:
        shares.append(Geometry(points, eps, start, start + used.size))
        start += used.size
    return shares


def _entry(form, h, complex_, embedding, chains, geometry=None):
    """Check one item for an integration at resolution h; return its
    vertex coordinates, the vertex indices of the complex's k-simplices,
    the simplices its chains use, ``lam`` and ``geometry``."""
    if not isinstance(chains, ChainTuple):
        chains = ChainTuple(tuple(chains))
    k = form.k
    if chains.dim != k:
        raise ValueError(f"chain of dimension {chains.dim} fed to a form with k={k}")
    _check_setting(form, complex_, embedding)
    used = chains.used
    num_simplices = complex_.num_simplices(k)
    if used.size and used[-1] >= num_simplices:
        raise ValueError(f"chain references simplex {used[-1]}, complex has {num_simplices}")
    if geometry is not None:
        if geometry.stop - geometry.start != used.size:
            raise ValueError(f"geometry of {geometry.stop - geometry.start} simplices "
                             f"for chains using {used.size}")
        (rows, n), (simplices, C) = geometry.points.shape, geometry.eps.shape
        N = mlp_rows(k, h)
        if (rows, n, C) != (N * simplices, form.n, form.num_components):  # another h or form
            raise ValueError(
                f"geometry of {rows} points in R^{n} and {C} volumes over {simplices} simplices "
                f"does not fit {N} nodes per simplex in R^{form.n} "
                f"and {form.num_components} volumes"
            )
    return embedding.coords, complex_.vertex_array(k), used, chains.lam, geometry


def mlp_rows(k: int, h: int) -> int:
    """MLP rows an integration runs per k-simplex at resolution h: one
    per quadrature node.  Multiply by the simplex count for an item."""
    return len(quadrature_rule(k, h)[1])


def _follows(before, after) -> bool:
    """Whether an item of geometry ``after`` may join a chunk ending in
    one of geometry ``before``: both are computed in the chunk, or
    ``after`` is the next share of the same prepared arrays."""
    if before is None or after is None:
        return before is after
    return after.points is before.points and after.start == before.stop


def _chunks(form, settings, h):
    """Yield the checked items of ``settings`` in order, in lists of at
    most ``ROW_BUDGET`` MLP rows whose geometry is computed together or
    is one run of prepared shares.  An item larger than the budget is a
    chunk of its own; so are a one-row item (BLAS gemv) and every item of
    an MLP without ``Mlp.rows_independent``: there a row's value can
    depend on the rows around it."""
    nodes = mlp_rows(form.k, h)
    budget = ROW_BUDGET if form.psi.rows_independent else 0
    chunk, rows = [], 0
    for setting in settings:
        entry = _entry(form, h, *setting)
        size = entry[2].size * nodes
        if chunk and (rows + size > budget or 1 in (rows, size)
                      or not _follows(chunk[-1][4], entry[4])):
            yield chunk
            chunk, rows = [], 0
        chunk.append(entry)
        rows += size
    if chunk:
        yield chunk


def _geometry(form, nodes, chunk):
    """The geometry step over the simplices of a chunk's items, in order:
    the quadrature ``nodes`` (N, k) pushed into ambient space, one
    node-first block (N * S_i, n) per item, and column volumes (S, C)."""
    gathered = [coords[simplices[used].T] for coords, simplices, used, _, _ in chunk]
    G = gathered[0] if len(gathered) == 1 else np.concatenate(gathered, axis=1)  # (k+1, S, n)
    Dt = G[1:] - G[:1]  # (k, S, n): transposed Jacobians
    eps = epsilon_all(Dt.transpose(1, 2, 0), form.table)  # (S, C)
    k, S, n = Dt.shape
    N = len(nodes)
    points = np.empty((N * S, n))
    start = 0
    for _, _, used, _, _ in chunk:
        stop = start + used.size
        cols = used.size * n
        block = points[start * N : stop * N].reshape(N, cols)  # row t: node t on each simplex
        np.matmul(nodes, Dt[:, start:stop].reshape(k, cols), out=block)
        block += G[0, start:stop].reshape(1, cols)
        start = stop
    return points, eps


def _integrate(form, h, chunk, cached: bool = False) -> list:
    """(X, cache) per item of a chunk (see the module docstring).  The
    chunk shares one MLP cache, so a cache can go to the backward pass
    only when the chunk holds one item and ``cached`` is set: then the
    MLP runs on simplex-first rows, the order its gradient sums them in.
    So does every chunk of an MLP without ``Mlp.rows_independent``,
    whose chunks hold one item or items of no rows (``_chunks``)."""
    nodes, weights = quadrature_rule(form.k, h)
    N, width = len(weights), form.psi.out_dim
    first, last = chunk[0][4], chunk[-1][4]
    if first is None:
        points, eps = _geometry(form, nodes, chunk)
    else:  # one run of prepared shares (_chunks)
        points = first.points[first.start * N : last.stop * N]
        eps = first.eps[first.start : last.stop]
    node_first = not cached and form.psi.rows_independent
    if not node_first:
        points = points.take(_transposed(N, len(eps)), axis=0)
    out, mlp_cache = form.psi.forward_cached(points)
    if not node_first:  # back to node first, in a copy
        out = out.take(_transposed(len(eps), N), axis=0)
    results, start = [], 0
    for _, _, used, lam, _ in chunk:
        S = used.size
        stop = start + S
        # np.tensordot(weights, scal, (0, 1)) for scal (S, N, l, C), as the
        # one np.dot call it makes, without its per-call Python overhead;
        # the item's node-first block of the MLP output is its operand
        scaled = np.dot(weights.reshape(1, N), out[start * N : stop * N].reshape(N, S * width))
        scaled = scaled.reshape(S, form.num_forms, form.num_components)
        per_simplex = (scaled * eps[start:stop, None, :]).sum(axis=2)  # (S, l)
        X = per_simplex if lam is None else lam @ per_simplex
        results.append((X, (lam, weights, eps[start:stop], mlp_cache)))
        start = stop
    return results


@lru_cache(maxsize=None)
def _transposed(rows: int, cols: int) -> np.ndarray:
    """Read-only row order that transposes a grid of rows: taken from an
    array whose row ``r * cols + c`` holds grid cell (r, c), it puts that
    cell at row ``c * rows + r``.  One ``take`` copies whole rows, about
    twice as fast as a transposed ``reshape``; one order per item size
    is kept."""
    order = np.arange(rows * cols).reshape(rows, cols).T.ravel()
    order.setflags(write=False)
    return order


def integration_matrix_backward(form: NeuralKForm, cache: tuple, upstream: np.ndarray) -> np.ndarray:
    """Gradient of sum(upstream * X) with respect to the MLP parameters,
    laid out like ``form.psi.params``.

    Geometry factors (quadrature weights, column volumes, chain
    coefficients) are constants; the gradient flows through the MLP
    values only.
    """
    lam, weights, eps, mlp_cache = cache
    upstream = np.asarray(upstream, dtype=np.float64)
    G = upstream if lam is None else lam.T @ upstream  # (S, l)
    d_scal = np.einsum("n,sjc->snjc", weights, G[:, :, None] * eps[:, None, :])
    d_flat = d_scal.reshape(G.shape[0] * len(weights), form.psi.out_dim)  # (S*N, l*C)
    grad, _ = form.psi.backward(mlp_cache, d_flat, input_grad=False)
    return grad
