"""Differential k-forms with MLP-valued coefficient functions.

A k-form on R^n decomposes into C(n, k) monomial forms indexed by
strictly increasing k-tuples over {1..n}; the coefficient ("scaling")
functions of a learnable form are the components of one shared MLP.
The flat MLP output places entry (I, j) for form j and multi-index I at
position ``j * C(n, k) + r``, where I is the r-th multi-index in table
order — this layout is fixed and is part of the checkpoint format.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .nn import Mlp, mlp_from_header, mlp_header, read_blob, write_blob
from .simplicial import Embedding

__all__ = [
    "MultiIndexTable",
    "NeuralKForm",
    "multi_indices",
    "affine_jacobian",
    "epsilon_all",
    "mix_forms",
    "save_form",
    "load_form",
]


@dataclass(frozen=True)
class MultiIndexTable:
    """Lexicographically ordered strictly increasing k-tuples over {1..n},
    with ``rows0``, the read-only (C, k) array of 0-based row selectors,
    one row per multi-index."""

    n: int
    k: int
    indices: tuple[tuple[int, ...], ...]
    rows0: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.indices)


def multi_indices(n: int, k: int) -> MultiIndexTable:
    """All C(n, k) increasing k-tuples over {1..n}; a single empty tuple
    for k = 0."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    indices = tuple(itertools.combinations(range(1, n + 1), k))
    rows0 = np.array(indices, dtype=np.intp).reshape(len(indices), k) - 1
    rows0.setflags(write=False)
    return MultiIndexTable(n, k, indices, rows0)


def affine_jacobian(embedding: Embedding, simplex: tuple[int, ...]) -> np.ndarray:
    """Jacobian of the affine simplex embedding: column j is
    phi(v_j) - phi(v_0) for the ordered vertices (v_0, ..., v_k).
    Constant over the simplex."""
    verts = tuple(simplex)
    if any(v < 0 or v >= embedding.num_vertices for v in verts):
        raise ValueError(f"simplex {simplex} has a vertex missing from the embedding")
    return (embedding.coords[list(verts[1:])] - embedding.coords[verts[0]]).T


def _det(subs: np.ndarray) -> np.ndarray:
    """Determinants of a stack (..., k, k) with k >= 1: closed forms for
    k <= 3, LU (``np.linalg.det``) above."""
    k = subs.shape[-1]
    if k == 1:
        return subs[..., 0, 0].copy()
    if k == 2:
        return subs[..., 0, 0] * subs[..., 1, 1] - subs[..., 0, 1] * subs[..., 1, 0]
    if k == 3:
        return (
            subs[..., 0, 0] * (subs[..., 1, 1] * subs[..., 2, 2] - subs[..., 1, 2] * subs[..., 2, 1])
            - subs[..., 0, 1] * (subs[..., 1, 0] * subs[..., 2, 2] - subs[..., 1, 2] * subs[..., 2, 0])
            + subs[..., 0, 2] * (subs[..., 1, 0] * subs[..., 2, 1] - subs[..., 1, 1] * subs[..., 2, 0])
        )
    return np.linalg.det(subs)


def epsilon_all(jacobian: np.ndarray, table: MultiIndexTable) -> np.ndarray:
    """epsilon_I for every multi-index I in the table, in table order: the
    signed volume the Jacobian columns span in the coordinate subspace I
    selects, i.e. the determinant of the row-submatrix (1 for k = 0).

    ``jacobian`` is one (n, k) Jacobian or a stack (..., n, k) matching
    the table's n and k; the result is (C,) or (..., C)."""
    D = np.asarray(jacobian, dtype=np.float64)
    if D.shape[-2:] != (table.n, table.k):
        raise ValueError(f"Jacobian shape {D.shape} does not end in (n, k) = {(table.n, table.k)}")
    if table.k == 0:
        return np.ones(D.shape[:-2] + (1,))
    return _det(D[..., table.rows0, :])  # subs: (..., C, k, k)


@dataclass(frozen=True)
class NeuralKForm:
    """A tuple of ``num_forms`` learnable k-forms on R^n sharing one MLP."""

    psi: Mlp
    n: int
    k: int
    num_forms: int
    table: MultiIndexTable = None

    def __post_init__(self):
        if self.num_forms < 1:
            raise ValueError("need at least one form")
        if self.psi.in_dim != self.n:
            raise ValueError(f"psi input dim {self.psi.in_dim} != ambient dim {self.n}")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        # before the table is built: a checkpoint header can ask for C(60, 30) rows
        expected = self.num_forms * math.comb(self.n, self.k)
        if self.psi.out_dim != expected:
            raise ValueError(f"psi output dim {self.psi.out_dim} != num_forms * C(n,k) = {expected}")
        if self.table is None:
            object.__setattr__(self, "table", multi_indices(self.n, self.k))

    @classmethod
    def init(
        cls,
        n: int,
        k: int,
        num_forms: int,
        hidden_dims,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ) -> "NeuralKForm":
        table = multi_indices(n, k)
        dims = [n, *hidden_dims, num_forms * len(table)]
        return cls(Mlp.init(dims, activation, rng), n, k, num_forms, table)

    @property
    def num_components(self) -> int:
        return len(self.table)

    def eval_scalings(self, points) -> np.ndarray:
        """Coefficient matrix at a point: (num_forms, C(n,k)), row j in
        multi-index table order.  Batched input (B, n) gives (B, l, C)."""
        p = np.asarray(points, dtype=np.float64)
        out = self.psi.forward(p)
        if p.ndim == 1:
            return out.reshape(self.num_forms, self.num_components)
        return out.reshape(p.shape[0], self.num_forms, self.num_components)


def mix_forms(form: NeuralKForm, matrix) -> NeuralKForm:
    """Right-multiply the form tuple by a real matrix: form j' of the
    result is sum_j R[j, j'] * form_j, realized exactly by composing the
    (linear) last layer."""
    R = np.asarray(matrix, dtype=np.float64)
    if R.ndim != 2 or R.shape[0] != form.num_forms:
        raise ValueError(f"matrix shape {R.shape} does not match {form.num_forms} forms")
    C = form.num_components
    mixer = np.kron(R.T, np.eye(C))  # flat slot (j, r) -> j*C + r
    weights = list(form.psi.weights)  # Mlp copies them
    biases = list(form.psi.biases)
    weights[-1] = mixer @ weights[-1]
    biases[-1] = mixer @ biases[-1]
    psi = Mlp(weights, biases, form.psi.activation)
    return NeuralKForm(psi, form.n, form.k, R.shape[1], form.table)


def form_header(form: NeuralKForm) -> dict:
    header = mlp_header(form.psi)
    header.update(kind="kform", ambient_dim=form.n, degree=form.k, num_forms=form.num_forms)
    return header


def form_from_header(header: dict, params: np.ndarray) -> NeuralKForm:
    psi = mlp_from_header(header, params)
    for key in ("ambient_dim", "degree", "num_forms"):
        if type(header[key]) is not int:
            raise ValueError(f"checkpoint {key} {header[key]!r} is not an int")
    return NeuralKForm(psi, header["ambient_dim"], header["degree"], header["num_forms"])


def save_form(form: NeuralKForm, path: str | os.PathLike) -> None:
    write_blob(path, form_header(form), form.psi.params)


def load_form(path: str | os.PathLike) -> NeuralKForm:
    header, params = read_blob(path)
    if header.get("kind") != "kform":
        raise ValueError(f"{path}: expected a k-form checkpoint, found {header.get('kind')!r}")
    return form_from_header(header, params)
