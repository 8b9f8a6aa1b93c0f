"""Numerical integration of k-forms over embedded simplices and chains.

The standard k-simplex is split edgewise into ``h**k`` congruent cells
(volume ``1/(k! * h**k)`` each); on every cell the integrand is
approximated by the average of its vertex values.  Shared subdivision
vertices are merged, so a plan stores each quadrature node once with an
accumulated weight.  The rule is exact whenever the pulled-back
integrand is affine on each cell — in particular for constant
coefficient functions at any resolution — and is second-order accurate
for smooth integrands.

An integration matrix is built in one batched pass over the S
simplices its chains reference: one gather of their vertex coordinates
(S, k+1, n) gives every affine Jacobian as vertex differences, one
``epsilon_all`` call their column volumes (S, C), one broadcast matmul
the quadrature nodes pushed into ambient space, and one MLP call the
integrand at all of them.  A contraction with the weights and volumes
yields the per-simplex integrals, which the chain coefficients combine
linearly.  Which simplices are used, their coefficient matrix, and the
vertex indices of the complex's simplices are read from the data
objects, which build them on first use and keep them.

``integration_matrix`` and ``integration_matrix_forward`` share one
body.  The first runs the MLP's forward-only pass and returns X alone.
The second keeps the MLP's layer inputs and returns a cache carrying
everything needed to push a loss gradient back onto the MLP parameters
(embeddings are fixed data and receive no gradient).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .forms import NeuralKForm, affine_jacobian, epsilon_all
from .nn import GradientBuffer
from .simplicial import Chain, ChainTuple, Embedding, SimplicialComplex

__all__ = [
    "SimplexSubdivision",
    "QuadraturePlan",
    "IntegrationCache",
    "subdivide_simplex",
    "quadrature_plan",
    "evaluate_points",
    "integrate_simplex",
    "integrate_chain",
    "integration_matrix",
    "integration_matrix_forward",
    "integration_matrix_backward",
]

DEFAULT_STEPS = 5


@dataclass(frozen=True)
class SimplexSubdivision:
    """Edgewise subdivision of the standard k-simplex at resolution h.

    Cells are stored as integer vertices on the suffix-sum grid: a grid
    point ``y`` with ``h >= y[0] >= ... >= y[k-1] >= 0`` corresponds to
    the simplex point ``t[i] = (y[i] - y[i+1]) / h`` (``y[k] == 0``).
    All cells share the volume ``1/(k! * h**k)``.
    """

    k: int
    h: int
    cells: np.ndarray  # (h**k, k + 1, k) integer vertices

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def cell_volume(self) -> float:
        return 1.0 / (math.factorial(self.k) * self.h**self.k)

    def cell_vertices(self, i: int) -> np.ndarray:
        """Vertices of cell i in simplex coordinates, shape (k+1, k)."""
        return _grid_to_simplex(self.cells[i], self.h)


def _grid_to_simplex(y: np.ndarray, h: int) -> np.ndarray:
    t = y.astype(np.float64)
    t[..., :-1] -= y[..., 1:]
    return t / h


def subdivide_simplex(k: int, h: int) -> SimplexSubdivision:
    """Split the standard k-simplex into h**k equal-volume simplices.

    Each grid cube of side 1/h inside the descending-order region is cut
    into at most k! path simplices (one per coordinate insertion order);
    the ones whose vertices all satisfy the ordering survive.
    """
    if k < 1:
        raise ValueError(f"subdivision needs k >= 1, got {k}")
    if h < 1:
        raise ValueError(f"resolution must be a positive integer, got {h}")
    axes = [np.arange(h, dtype=np.intp)] * k
    corners = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    perms = list(itertools.permutations(range(k)))
    eye = np.eye(k, dtype=np.intp)
    kept, kept_keys = [], []
    for q, perm in enumerate(perms):
        offsets = np.zeros((k + 1, k), dtype=np.intp)
        offsets[1:] = np.cumsum(eye[list(perm)], axis=0)
        verts = corners[:, None, :] + offsets[None, :, :]
        ok = np.all(verts[:, :, :-1] >= verts[:, :, 1:], axis=(1, 2))
        kept.append(verts[ok])
        kept_keys.append(np.flatnonzero(ok) * len(perms) + q)
    cells = np.concatenate(kept)
    order = np.argsort(np.concatenate(kept_keys), kind="stable")
    cells = np.ascontiguousarray(cells[order])
    if cells.shape[0] != h**k:
        raise AssertionError(f"expected {h**k} cells for k={k}, h={h}, got {cells.shape[0]}")
    cells.setflags(write=False)
    return SimplexSubdivision(k, h, cells)


@dataclass(frozen=True)
class QuadraturePlan:
    """Deduplicated vertex-average rule on the standard k-simplex.

    Every cell spreads its volume equally over its k+1 vertices, and
    weights of coincident vertices are pooled.  ``nodes`` is (N, k) in
    simplex coordinates; ``weights`` is (N,) and sums to 1/k!.
    """

    subdivision: SimplexSubdivision
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def k(self) -> int:
        return self.subdivision.k

    @property
    def h(self) -> int:
        return self.subdivision.h

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]


@lru_cache(maxsize=None)
def quadrature_plan(k: int, h: int) -> QuadraturePlan:
    sub = subdivide_simplex(k, h)
    share = sub.cell_volume / (k + 1)
    flat = sub.cells.reshape(-1, k)
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    weights = np.zeros(uniq.shape[0])
    np.add.at(weights, inverse.reshape(-1), share)
    nodes = _grid_to_simplex(uniq, h)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadraturePlan(sub, nodes, weights)


def evaluate_points(form: NeuralKForm, embedding: Embedding, vertices) -> np.ndarray:
    """Value of a 0-form tuple at embedded vertices: (len(vertices),
    num_forms).  The 0-form counterpart of integration."""
    if form.k != 0:
        raise ValueError(f"evaluate_points is for 0-forms, got k={form.k}")
    if embedding.ambient_dim != form.n:
        raise ValueError(f"embedding lives in R^{embedding.ambient_dim}, form in R^{form.n}")
    idx = [int(v) for v in vertices]
    return form.psi.forward(embedding.coords[idx])


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
    """Integral of form j over one embedded k-simplex of the complex.

    The constant Jacobian and its column volumes are computed once; the
    MLP is evaluated on the quadrature nodes pushed into ambient space.
    """
    simplex = tuple(simplex)
    k = form.k
    if k == 0:
        raise ValueError("0-forms are evaluated, not integrated; use evaluate_points")
    if len(simplex) - 1 != k:
        raise ValueError(f"simplex {simplex} has dimension {len(simplex) - 1}, form has k={k}")
    _check_setting(form, complex_, embedding)
    if simplex not in complex_.simplices(k):
        raise ValueError(f"simplex {simplex} is not in the complex")
    if not 0 <= j < form.num_forms:
        raise ValueError(f"form index {j} out of range for {form.num_forms} forms")
    plan = quadrature_plan(k, h)
    D = affine_jacobian(embedding, simplex)
    eps = epsilon_all(D, form.table)
    scal = form.eval_scalings(embedding.coords[simplex[0]] + plan.nodes @ D.T)  # (N, l, C)
    return float(np.einsum("t,tr,r->", plan.weights, scal[:, j, :], eps))


def integrate_chain(
    form: NeuralKForm,
    j: int,
    complex_: SimplicialComplex,
    embedding: Embedding,
    chain: Chain,
    h: int = DEFAULT_STEPS,
) -> float:
    """Integral of form j over a weighted chain: the coefficient-weighted
    sum of per-simplex integrals.  An empty chain integrates to 0."""
    X = integration_matrix(form, complex_, embedding, [chain], h)
    return float(X[0, j])


@dataclass
class IntegrationCache:
    """Intermediate state of one integration-matrix evaluation, enough
    to push a loss gradient back onto the form's MLP parameters."""

    lam: np.ndarray | None  # (m, S) chain coefficients over the used simplices; None: identity
    weights: np.ndarray  # (N,) quadrature weights
    eps: np.ndarray  # (S, C) column volumes per simplex
    mlp_cache: tuple | None


def integration_matrix_forward(
    form: NeuralKForm,
    complex_: SimplicialComplex,
    embedding: Embedding,
    chains,
    h: int = DEFAULT_STEPS,
):
    """Integration matrix X with X[i, j] = integral of form j over chain
    i, plus a cache for the backward pass.

    Every simplex referenced by any chain is integrated exactly once on
    one batched MLP evaluation; X is the chain-coefficient matrix times
    the per-simplex integrals.  When the chains are exactly the standard
    basis of the simplices they use, X *is* the table of per-simplex
    integrals (for k = 0: the MLP values at the vertices, unchanged bit
    for bit).
    """
    return _integrate(form, complex_, embedding, chains, h, keep_cache=True)


def integration_matrix(
    form: NeuralKForm,
    complex_: SimplicialComplex,
    embedding: Embedding,
    chains,
    h: int = DEFAULT_STEPS,
) -> np.ndarray:
    """X[i, j] = integral of form j over chain i, shape (m, num_forms).
    Same values as ``integration_matrix_forward``, with no cache."""
    X, _ = _integrate(form, complex_, embedding, chains, h, keep_cache=False)
    return X


def _integrate(form, complex_, embedding, chains, h, keep_cache: bool):
    """The body of both integration-matrix functions; with ``keep_cache``
    False the MLP runs its forward-only pass and no cache is returned.

    The parameter-free part of the work is read from the data: the chain
    support (used simplices and coefficient matrix) from the chain
    tuple, and the simplex vertex indices from the complex, both built
    on first use and kept by those objects.
    """
    if not isinstance(chains, ChainTuple):
        chains = ChainTuple(tuple(chains))
    k = form.k
    if chains.dim != k:
        raise ValueError(f"chain of dimension {chains.dim} fed to a form with k={k}")
    _check_setting(form, complex_, embedding)

    used, lam = chains.support
    m, S = len(chains), used.size
    num_simplices = complex_.num_simplices(k)
    if S and used[-1] >= num_simplices:
        raise ValueError(f"chain references simplex {used[-1]}, complex has {num_simplices}")
    if not S:
        # every chain is empty; the matrix is zero and carries no gradient
        cache = IntegrationCache(lam, np.zeros(0), np.zeros((0, 0)), None)
        return np.zeros((m, form.num_forms)), cache if keep_cache else None

    V = embedding.coords[complex_.vertex_array(k)[used]]  # (S, k+1, n)
    if k == 0:
        weights, eps = np.ones(1), np.ones((S, 1))
        points = V[:, 0]
    else:
        plan = quadrature_plan(k, h)
        weights = plan.weights
        Dt = V[:, 1:] - V[:, :1]  # (S, k, n): transposed Jacobians
        eps = epsilon_all(Dt.swapaxes(1, 2), form.table)  # (S, C)
        points = (V[:, :1] + plan.nodes @ Dt).reshape(-1, form.n)  # (S*N, n)

    if keep_cache:
        out, mlp_cache = form.psi.forward_cached(points)
    else:
        out, mlp_cache = form.psi.forward(points), None
    if k == 0:
        per_simplex = out  # (S, l): evaluation, untouched
    else:
        scal = out.reshape(S, len(weights), form.num_forms, -1)  # (S, N, l, C)
        per_simplex = (np.tensordot(weights, scal, (0, 1)) * eps[:, None, :]).sum(axis=2)  # (S, l)
    X = per_simplex if lam is None else lam @ per_simplex
    return X, IntegrationCache(lam, weights, eps, mlp_cache) if keep_cache else None


def integration_matrix_backward(
    form: NeuralKForm, cache: IntegrationCache, upstream: np.ndarray
) -> GradientBuffer:
    """Gradient of sum(upstream * X) with respect to the MLP parameters.

    Geometry factors (quadrature weights, column volumes, chain
    coefficients) are constants; the gradient flows through the MLP
    values only.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if cache.mlp_cache is None:
        return GradientBuffer.zeros_for(form.psi)
    G = upstream if cache.lam is None else cache.lam.T @ upstream  # (S, l)
    if form.k == 0:
        d_flat = G
    else:
        d_scal = cache.weights[:, None, None] * (G[:, :, None] * cache.eps[:, None, :])[:, None]
        d_flat = d_scal.reshape(-1, form.psi.out_dim)  # (S*N, l*C)
    grads, _ = form.psi.backward(cache.mlp_cache, d_flat)
    return grads
