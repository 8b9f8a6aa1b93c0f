import math

import numpy as np
import pytest

from kforms.forms import NeuralKForm, mix_forms
from kforms.nn import Mlp
from kforms.quadrature import (
    integrate_simplex,
    integration_matrix,
    integration_matrix_backward,
    integration_matrix_forward,
    quadrature_plan,
    subdivide_simplex,
)
from kforms.simplicial import (
    Chain,
    ChainTuple,
    Embedding,
    apply_matrix_left,
    build_complex,
    path_to_complex,
    standard_basis_chains,
)


def constant_form(n: int, k: int, values: np.ndarray) -> NeuralKForm:
    """Form tuple whose coefficient functions are constants (zero weights,
    bias = flat layout of ``values`` with shape (num_forms, C))."""
    values = np.asarray(values, dtype=np.float64)
    num_forms, C = values.shape
    psi = Mlp(weights=[np.zeros((num_forms * C, n))], biases=[values.ravel()])
    return NeuralKForm(psi, n, k, num_forms)


def linear_form(n: int, k: int, row_weights: np.ndarray) -> NeuralKForm:
    """Single linear layer: coefficient for slot s is row_weights[s] . x."""
    row_weights = np.asarray(row_weights, dtype=np.float64)
    psi = Mlp(weights=[row_weights], biases=[np.zeros(row_weights.shape[0])])
    C = math.comb(n, k)
    return NeuralKForm(psi, n, k, row_weights.shape[0] // C)


def cell_vertices(sub, i: int) -> np.ndarray:
    """Vertices of cell i in simplex coordinates, (k+1, k): grid point y
    is the simplex point t[j] = (y[j] - y[j+1]) / h with y[k] = 0."""
    y = np.concatenate([sub.cells[i], np.zeros((sub.k + 1, 1), dtype=sub.cells.dtype)], axis=1)
    return (y[:, :-1] - y[:, 1:]) / sub.h


class TestSubdivision:
    def test_cell_count_is_h_to_the_k(self):
        for k in (1, 2, 3):
            for h in (1, 2, 3, 4):
                assert subdivide_simplex(k, h).num_cells == h**k

    def test_cells_have_equal_volume(self):
        for k in (1, 2, 3):
            for h in (1, 2, 3):
                sub = subdivide_simplex(k, h)
                for i in range(sub.num_cells):
                    verts = cell_vertices(sub, i)
                    edges = verts[1:] - verts[0]
                    vol = abs(np.linalg.det(edges)) / math.factorial(k)
                    assert vol == pytest.approx(sub.cell_volume, rel=1e-12)

    def test_cells_tile_the_simplex(self):
        # total volume matches the standard simplex and vertices stay inside
        for k, h in [(1, 5), (2, 4), (3, 3)]:
            sub = subdivide_simplex(k, h)
            assert sub.num_cells * sub.cell_volume == pytest.approx(
                1.0 / math.factorial(k), rel=1e-12
            )
            for i in range(sub.num_cells):
                verts = cell_vertices(sub, i)
                assert np.all(verts >= -1e-12)
                assert np.all(verts.sum(axis=1) <= 1.0 + 1e-12)

    def test_cells_are_read_only(self):
        sub = subdivide_simplex(2, 2)
        with pytest.raises(ValueError):
            sub.cells[0, 0, 0] = 7

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            subdivide_simplex(0, 3)
        with pytest.raises(ValueError):
            subdivide_simplex(2, 0)
        for h in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match="positive integer"):
                subdivide_simplex(2, h)


class TestQuadraturePlan:
    def test_weights_sum_to_simplex_volume(self):
        for k in (1, 2, 3):
            for h in (1, 2, 5):
                plan = quadrature_plan(k, h)
                assert plan.weights.sum() == pytest.approx(1.0 / math.factorial(k), rel=1e-12)

    def test_node_count_after_merging(self):
        # nodes are the integer grid points of the subdivision: C(h+k, k)
        for k in (1, 2, 3):
            for h in (1, 2, 4):
                plan = quadrature_plan(k, h)
                assert plan.num_nodes == math.comb(h + k, k)

    def test_nodes_unique_and_inside(self):
        plan = quadrature_plan(2, 4)
        assert np.unique(plan.nodes, axis=0).shape[0] == plan.num_nodes
        assert np.all(plan.nodes >= 0.0)
        assert np.all(plan.nodes.sum(axis=1) <= 1.0 + 1e-12)

    def test_plans_are_cached(self):
        assert quadrature_plan(2, 5) is quadrature_plan(2, 5)


class TestExactness:
    def test_constant_1form_over_segment(self):
        # integral of dx1 along the segment (0,0) -> (3,4) is 3
        c = build_complex([(0, 1)], num_vertices=2)
        emb = Embedding(np.array([[0.0, 0.0], [3.0, 4.0]]))
        form = constant_form(2, 1, np.array([[1.0, 0.0]]))
        for h in (1, 2, 5):
            assert integrate_simplex(form, 0, c, emb, (0, 1), h=h) == pytest.approx(3.0, abs=1e-12)

    def test_linear_coefficient_over_segment(self):
        # integral of x1 dx2 along (0,0) -> (1,1) is 1/2
        c = build_complex([(0, 1)], num_vertices=2)
        emb = Embedding(np.array([[0.0, 0.0], [1.0, 1.0]]))
        form = linear_form(2, 1, np.array([[0.0, 0.0], [1.0, 0.0]]))
        for h in (1, 3, 8):
            assert integrate_simplex(form, 0, c, emb, (0, 1), h=h) == pytest.approx(0.5, abs=1e-12)

    def test_area_form_over_triangle(self):
        # integral of dx1^dx2 over the positively oriented unit triangle
        c = build_complex([(0, 1, 2)], num_vertices=3)
        emb = Embedding(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        form = constant_form(2, 2, np.array([[1.0]]))
        for h in (1, 2, 4):
            assert integrate_simplex(form, 0, c, emb, (0, 1, 2), h=h) == pytest.approx(0.5, abs=1e-12)

    def test_linear_coefficient_over_triangle(self):
        # integral of x1 dx1^dx2 over the unit triangle is 1/6
        c = build_complex([(0, 1, 2)], num_vertices=3)
        emb = Embedding(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        form = linear_form(2, 2, np.array([[1.0, 0.0]]))
        for h in (1, 2, 5):
            assert integrate_simplex(form, 0, c, emb, (0, 1, 2), h=h) == pytest.approx(
                1.0 / 6.0, abs=1e-12
            )

    def test_telescoping_along_paths(self):
        # a constant dx1 integrates any polyline to x1(end) - x1(start)
        rng = np.random.default_rng(63)
        form = constant_form(2, 1, np.array([[1.0, 0.0]]))
        for trial in range(15):
            pts = rng.normal(size=(int(rng.integers(2, 10)), 2))
            c, emb, chain = path_to_complex(pts)
            got = integration_matrix(form, c, emb, [chain], h=3)[0, 0]
            assert got == pytest.approx(pts[-1, 0] - pts[0, 0], abs=1e-12)

    def test_degenerate_simplex_integrates_to_zero(self):
        c = build_complex([(0, 1, 2)], num_vertices=3)
        emb = Embedding(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))  # collinear
        form = constant_form(2, 2, np.array([[4.0]]))
        assert integrate_simplex(form, 0, c, emb, (0, 1, 2)) == pytest.approx(0.0, abs=1e-12)


class TestConvergence:
    def test_refinement_is_second_order(self):
        rng = np.random.default_rng(19)
        for trial in range(6):
            k = int(rng.integers(1, 3))
            n = k + 1
            verts = tuple(range(k + 1))
            c = build_complex([verts], num_vertices=k + 1)
            emb = Embedding(rng.normal(size=(k + 1, n)))
            form = NeuralKForm.init(n, k, 1, (6, 6), "tanh", rng)
            ref = integrate_simplex(form, 0, c, emb, verts, h=128)
            e4 = abs(integrate_simplex(form, 0, c, emb, verts, h=4) - ref)
            e16 = abs(integrate_simplex(form, 0, c, emb, verts, h=16) - ref)
            assert e16 < e4
            if e16 > 1e-14:  # ratio is meaningless at the float frontier
                assert e4 / e16 > 8.0


class TestIntegrationMatrix:
    def setup_method(self):
        self.rng = np.random.default_rng(88)
        self.complex = build_complex([(0, 1, 2), (1, 2, 3), (2, 3, 4)], num_vertices=5)
        self.embedding = Embedding(self.rng.normal(size=(5, 3)))

    def random_chains(self, k: int, m: int) -> ChainTuple:
        num = self.complex.num_simplices(k)
        chains = []
        for _ in range(m):
            terms = tuple(
                (int(i), float(self.rng.normal()))
                for i in self.rng.choice(num, size=min(3, num), replace=False)
            )
            chains.append(Chain(k, terms))
        return ChainTuple(tuple(chains))

    def test_entries_match_single_chain_integrals(self):
        form = NeuralKForm.init(3, 1, 2, (5,), "tanh", self.rng)
        beta = self.random_chains(1, 4)
        X = integration_matrix(form, self.complex, self.embedding, beta, h=3)
        assert X.shape == (4, 2)
        for i, chain in enumerate(beta):
            for j in range(2):
                single = integration_matrix(form, self.complex, self.embedding, [chain], h=3)[0, j]
                assert X[i, j] == pytest.approx(single, abs=1e-12)

    @pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (4, 3), (5, 4)])
    def test_entries_match_simplexwise_sum(self, n, k):
        # k = 3 takes the closed-form determinant, k = 4 the np.linalg.det fallback
        complex_ = build_complex([tuple(range(s, s + k + 1)) for s in range(3)], num_vertices=k + 3)
        embedding = Embedding(self.rng.normal(size=(k + 3, n)))
        form = NeuralKForm.init(n, k, 2, (5,), "tanh", self.rng)
        top = complex_.num_simplices(k) - 1
        beta = [
            Chain(k, tuple((i, float(self.rng.normal())) for i in range(top + 1))),
            Chain(k, ((top, float(self.rng.normal())),)),
            Chain(k, ((0, 1.5), (top, 0.25), (0, -0.5))),  # repeats simplex 0 with opposite signs
            Chain(k, ((0, -1.0), (top, -0.25))),
        ]
        X = integration_matrix(form, complex_, embedding, beta, h=3)
        sims = complex_.simplices(k)
        for i, chain in enumerate(beta):
            for j in range(2):
                manual = sum(
                    coeff * integrate_simplex(form, j, complex_, embedding, sims[idx], h=3)
                    for idx, coeff in chain.terms
                )
                assert X[i, j] == pytest.approx(manual, abs=1e-10)

    def test_multilinearity_in_chains_and_forms(self):
        form = NeuralKForm.init(3, 1, 3, (6,), "tanh", self.rng)
        beta = self.random_chains(1, 3)
        X = integration_matrix(form, self.complex, self.embedding, beta)
        L = self.rng.normal(size=(4, 3))
        R = self.rng.normal(size=(3, 2))
        left = integration_matrix(
            form, self.complex, self.embedding, apply_matrix_left(L, beta)
        )
        assert np.allclose(left, L @ X, atol=1e-10)
        right = integration_matrix(
            mix_forms(form, R), self.complex, self.embedding, beta
        )
        assert np.allclose(right, X @ R, atol=1e-10)

    def test_permutation_and_sign_flips_are_exact(self):
        form = NeuralKForm.init(3, 1, 2, (5,), "relu", self.rng)
        beta = standard_basis_chains(self.complex, 1)
        X = integration_matrix(form, self.complex, self.embedding, beta)
        perm = self.rng.permutation(len(beta))
        signs = self.rng.choice([-1.0, 1.0], size=len(beta))
        P = np.zeros((len(beta), len(beta)))
        P[np.arange(len(beta)), perm] = signs
        got = integration_matrix(
            form, self.complex, self.embedding, apply_matrix_left(P, beta)
        )
        assert np.array_equal(got, P @ X)

    def test_empty_chains_give_zero_matrix_and_gradient(self):
        form = NeuralKForm.init(3, 1, 2, (5,), "tanh", self.rng)
        beta = [Chain(1, ()), Chain(1, ())]
        X, cache = integration_matrix_forward(form, self.complex, self.embedding, beta)
        assert np.array_equal(X, np.zeros((2, 2)))
        grads = integration_matrix_backward(form, cache, np.ones((2, 2)))
        assert np.array_equal(grads, np.zeros(form.psi.num_params))

    @pytest.mark.parametrize(
        "k, terms",
        [
            (1, [((0, 1.0),), ((0, -1.0), (2, 0.5)), ((2, 0.25),)]),  # repeated simplex, opposite signs
            (1, [((0, 1.5), (0, -1.5)), ((3, 1.0),)]),  # cancels inside one chain
            (1, [(), ()]),  # all empty
            (2, [((2, 1.0),), ((0, 1.0),), ((1, 1.0),)]),  # permuted basis
            (0, [((4, 1.0),), ((1, -2.0),)]),
        ],
    )
    def test_plain_list_matches_chain_tuple(self, k, terms):
        form = NeuralKForm.init(3, k, 2, (5,), "tanh", self.rng)
        chains = [Chain(k, t) for t in terms]
        as_tuple = integration_matrix(form, self.complex, self.embedding, ChainTuple(tuple(chains)), h=3)
        as_list = integration_matrix(form, self.complex, self.embedding, chains, h=3)
        assert np.array_equal(as_list, as_tuple)
        X, _ = integration_matrix_forward(form, self.complex, self.embedding, chains, h=3)
        assert np.array_equal(X, as_tuple)
        sims = self.complex.simplices(k)
        for i, chain in enumerate(chains):
            for j in range(2):
                if k == 0:
                    manual = sum(
                        c * form.psi.forward(self.embedding.coords[sims[idx][0]])[j]
                        for idx, c in chain.terms
                    )
                else:
                    manual = sum(
                        c * integrate_simplex(form, j, self.complex, self.embedding, sims[idx], h=3)
                        for idx, c in chain.terms
                    )
                assert X[i, j] == pytest.approx(manual, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_identity_support_backward_matches_explicit_matrix(self, k):
        form = NeuralKForm.init(3, k, 2, (5,), "tanh", self.rng)
        beta = standard_basis_chains(self.complex, k)
        X, cache = integration_matrix_forward(form, self.complex, self.embedding, beta, h=2)
        lam, *rest = cache
        assert lam is None
        U = self.rng.normal(size=X.shape)
        explicit = (np.eye(len(beta)), *rest)
        got = integration_matrix_backward(form, cache, U)
        assert np.array_equal(got, integration_matrix_backward(form, explicit, U))

    def test_k_zero_standard_basis_is_plain_evaluation(self):
        form = NeuralKForm.init(3, 0, 4, (7,), "relu", self.rng)
        beta = standard_basis_chains(self.complex, 0)
        X = integration_matrix(form, self.complex, self.embedding, beta)
        direct = form.psi.forward(self.embedding.coords)
        assert np.array_equal(X, direct)

    def test_evaluate_points_matches_psi(self):
        form = NeuralKForm.init(3, 0, 2, (4,), "tanh", self.rng)
        vertices = ChainTuple(tuple(Chain(0, ((v, 1.0),)) for v in (0, 2, 4)))
        vals = integration_matrix(form, self.complex, self.embedding, vertices)
        assert vals.shape == (3, 2)
        expected = form.psi.forward(self.embedding.coords[[0, 2, 4]])
        assert np.array_equal(vals, expected)

    def test_backward_matches_finite_differences(self):
        form = NeuralKForm.init(3, 1, 2, (4,), "tanh", self.rng)
        beta = self.random_chains(1, 2)
        U = self.rng.normal(size=(2, 2))
        X, cache = integration_matrix_forward(form, self.complex, self.embedding, beta, h=2)
        grads = integration_matrix_backward(form, cache, U)
        theta = form.psi.params
        eps = 1e-6
        numeric = np.zeros_like(theta)
        for p in range(theta.size):
            saved = theta[p]
            for sign in (1.0, -1.0):
                theta[p] = saved + sign * eps
                Xs = integration_matrix(form, self.complex, self.embedding, beta, h=2)
                numeric[p] += sign * float(np.sum(U * Xs))
            theta[p] = saved
        numeric /= 2 * eps
        assert np.allclose(grads, numeric, atol=1e-7)

    def test_backward_k_zero(self):
        form = NeuralKForm.init(3, 0, 2, (4,), "tanh", self.rng)
        beta = self.random_chains(0, 2)
        U = self.rng.normal(size=(2, 2))
        X, cache = integration_matrix_forward(form, self.complex, self.embedding, beta)
        grads = integration_matrix_backward(form, cache, U)
        theta = form.psi.params
        eps = 1e-6
        numeric = np.zeros_like(theta)
        for p in range(theta.size):
            saved = theta[p]
            for sign in (1.0, -1.0):
                theta[p] = saved + sign * eps
                Xs = integration_matrix(form, self.complex, self.embedding, beta)
                numeric[p] += sign * float(np.sum(U * Xs))
            theta[p] = saved
        numeric /= 2 * eps
        assert np.allclose(grads, numeric, atol=1e-7)


class TestValidation:
    def setup_method(self):
        self.complex = build_complex([(0, 1, 2)], num_vertices=3)
        self.embedding = Embedding(np.eye(3, 2))
        self.form = NeuralKForm.init(2, 1, 1, (3,), "tanh", np.random.default_rng(0))

    def test_zero_form_cannot_be_integrated(self):
        zform = NeuralKForm.init(2, 0, 1, (3,), "tanh", np.random.default_rng(0))
        with pytest.raises(ValueError, match="evaluate"):
            integrate_simplex(zform, 0, self.complex, self.embedding, (0,))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            integrate_simplex(self.form, 0, self.complex, self.embedding, (0, 1, 2))

    def test_unknown_simplex(self):
        c = build_complex([(0, 1)], num_vertices=3)
        with pytest.raises(ValueError, match="not in the complex"):
            integrate_simplex(self.form, 0, c, self.embedding, (1, 2))

    def test_form_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            integrate_simplex(self.form, 5, self.complex, self.embedding, (0, 1))

    def test_chain_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            integration_matrix(self.form, self.complex, self.embedding, [Chain(2, ((0, 1.0),))])

    def test_chain_index_out_of_range(self):
        with pytest.raises(ValueError, match="references"):
            integration_matrix(self.form, self.complex, self.embedding, [Chain(1, ((9, 1.0),))])

    def test_ambient_dimension_mismatch(self):
        emb3 = Embedding(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="R\\^"):
            integration_matrix(self.form, self.complex, emb3, [Chain(1, ((0, 1.0),))])

    def test_vertex_count_mismatch(self):
        emb = Embedding(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="vertices"):
            integration_matrix(self.form, self.complex, emb, [Chain(1, ((0, 1.0),))])

    def test_no_chains_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            integration_matrix(self.form, self.complex, self.embedding, [])

    def test_evaluate_points_rejects_higher_forms(self):
        with pytest.raises(ValueError, match="dimension"):
            integration_matrix(self.form, self.complex, self.embedding, [Chain(0, ((0, 1.0),))])
