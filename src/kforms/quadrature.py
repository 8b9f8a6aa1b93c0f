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
step gathers the vertex coordinates (S, k+1, n) of the simplices the
chains use, whose vertex differences are the affine Jacobians, and
makes one ``epsilon_all`` call for their column volumes (S, C) and one
broadcast matmul pushing the quadrature nodes into ambient space.  The
contraction step makes one MLP call on the pushed nodes, splits its
output at the item offsets and, per item, contracts its own rows with
the weights and volumes into the per-simplex integrals, which its chain
coefficients combine linearly.  An item whose chains are all empty uses
no simplex and adds zero rows; its coefficients times the empty table
are a zero matrix.  Items share nothing, so an item's matrix is
bit-identical whichever chunk it lands in while ``Mlp.rows_independent``
holds; otherwise every item runs alone.  The budget is fixed: larger
chunks ran slower per item, the MLP being memory-bound.  The used
simplices, their coefficient matrix and the simplex vertex indices are
read from the data objects, which build them once.

Embedded simplices are fixed data, so their geometry never changes
while a form learns.  ``prepare_geometry`` runs the geometry step once
over many items and hands each its ``Geometry``: its share of one
read-only array of pushed nodes and one of column volumes.  An item
given its ``Geometry`` skips the geometry step, and a chunk of items
whose shares follow one another in the same arrays takes one slice of
each, with no gather or concatenation; the slices hold the bits the
step would compute.  Training prepares each split this way once per
run (``kforms.model.train``).

There is one pass: the MLP always runs ``Mlp.forward_cached``, and
the body returns a cache ``(lam, weights, eps, mlp_cache)`` per item:
chain coefficients over the used simplices (None for the identity),
quadrature weights, column volumes per simplex and the MLP's cache,
all a loss gradient needs to reach the MLP parameters (embeddings are
fixed data and receive no gradient).  ``integration_matrix_forward``
returns one item's matrix and cache; ``integration_matrix`` is its
matrix alone, and ``integration_matrices`` yields many items' matrices,
dropping the caches.
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
    (simplices, C)."""

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
    entry = _entry(form, complex_, embedding, chains, geometry)
    ((X, cache),) = _integrate(form, h, [entry])
    return X, cache


def integration_matrix(
    form: NeuralKForm,
    complex_: SimplicialComplex,
    embedding: Embedding,
    chains,
    h: int = DEFAULT_STEPS,
) -> np.ndarray:
    """X[i, j] = integral of form j over chain i, shape (m, num_forms):
    ``integration_matrix_forward`` with its cache dropped."""
    return integration_matrix_forward(form, complex_, embedding, chains, h)[0]


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
    entries = [_entry(form, *setting) for setting in settings]
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


def _entry(form, complex_, embedding, chains, geometry=None):
    """Check one item; return its vertex coordinates, the vertex indices
    of the complex's k-simplices, the simplices its chains use, ``lam``
    and ``geometry``."""
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
    if geometry is not None and geometry.stop - geometry.start != used.size:
        raise ValueError(
            f"geometry of {geometry.stop - geometry.start} simplices for chains using {used.size}"
        )
    return embedding.coords, complex_.vertex_array(k), used, chains.lam, geometry


def mlp_rows(k: int, h: int, num_simplices: int = 1) -> int:
    """MLP rows an integration over ``num_simplices`` k-simplices runs at
    resolution h: one per quadrature node per simplex."""
    return num_simplices * len(quadrature_rule(k, h)[1])


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
        entry = _entry(form, *setting)
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
    the quadrature ``nodes`` (N, k) pushed into ambient space (S*N, n)
    and column volumes (S, C)."""
    gathered = [coords[simplices[used]] for coords, simplices, used, _, _ in chunk]
    V = gathered[0] if len(gathered) == 1 else np.concatenate(gathered)  # (S, k+1, n)
    Dt = V[:, 1:] - V[:, :1]  # (S, k, n): transposed Jacobians
    eps = epsilon_all(Dt.swapaxes(1, 2), form.table)  # (S, C)
    points = (V[:, :1] + nodes @ Dt).reshape(V.shape[0] * len(nodes), form.n)
    return points, eps


def _integrate(form, h, chunk) -> list:
    """(X, cache) per item of a chunk (see the module docstring).  The
    chunk shares one MLP cache, so a cache can go to the backward pass
    only when the chunk holds one item."""
    nodes, weights = quadrature_rule(form.k, h)
    N, width = len(weights), form.psi.out_dim
    first, last = chunk[0][4], chunk[-1][4]
    if first is None:
        points, eps = _geometry(form, nodes, chunk)
    else:  # one run of prepared shares (_chunks)
        points = first.points[first.start * N : last.stop * N]
        eps = first.eps[first.start : last.stop]
    out, mlp_cache = form.psi.forward_cached(points)
    results, start = [], 0
    for _, _, used, lam, _ in chunk:
        S = used.size
        stop = start + S
        # np.tensordot(weights, scal, (0, 1)) for scal (S, N, l, C), as the
        # one np.dot call it makes, without its per-call Python overhead
        nodes_first = out[start * N : stop * N].reshape(S, N, width).swapaxes(0, 1)
        scaled = np.dot(weights.reshape(1, N), nodes_first.reshape(N, S * width))
        scaled = scaled.reshape(S, form.num_forms, form.num_components)
        per_simplex = (scaled * eps[start:stop, None, :]).sum(axis=2)  # (S, l)
        X = per_simplex if lam is None else lam @ per_simplex
        results.append((X, (lam, weights, eps[start:stop], mlp_cache)))
        start = stop
    return results


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
