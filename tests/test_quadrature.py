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
    quadrature_rule,
)
from kforms.simplicial import (
    Chain,
    ChainTuple,
    Embedding,
    apply_matrix_left,
    build_complex,
    embedded_path,
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


def share(k: int, h: int) -> float:
    """One cell vertex's part of the rule: the cell volume 1/(k! h**k)
    spread over the cell's k+1 vertices."""
    return 1.0 / ((k + 1) * math.factorial(k) * h**k)


def shares(k: int, h: int) -> np.ndarray:
    """Each weight of the rule as a whole number of shares, which is the
    number of cells meeting at its node."""
    multiples = quadrature_rule(k, h)[1] / share(k, h)
    whole = np.round(multiples)
    assert np.allclose(multiples, whole, rtol=1e-9, atol=0.0)
    return whole.astype(int)


def face_dims(nodes: np.ndarray) -> np.ndarray:
    """Dimension of the smallest face of the simplex holding each node:
    its count of nonzero barycentric coordinates, minus one."""
    bary = np.concatenate([nodes, 1.0 - nodes.sum(axis=1, keepdims=True)], axis=1)
    return (np.abs(bary) > 1e-9).sum(axis=1) - 1


RULE_ARGS = [(k, h) for k in (1, 2, 3) for h in (1, 2, 3, 4)]


class TestQuadratureRule:
    def test_weights_are_whole_shares(self):
        for k, h in RULE_ARGS:
            assert np.all(shares(k, h) >= 1)

    def test_share_count_is_the_cell_count(self):
        # every one of the h**k cells hands out k+1 shares
        for k, h in RULE_ARGS:
            assert shares(k, h).sum() == (k + 1) * h**k

    def test_weights_sum_to_simplex_volume(self):
        for k in (1, 2, 3):
            for h in (1, 2, 5):
                weights = quadrature_rule(k, h)[1]
                assert weights.sum() == pytest.approx(1.0 / math.factorial(k), rel=1e-12)

    def test_shares_by_face(self):
        # a simplex vertex lies in one cell and an interior node in the
        # (k+1)! cells of its whole star; a simplex facet lies in a
        # hyperplane made of cell faces, which halves the centrally
        # symmetric star, so a node inside a facet carries (k+1)!/2
        for k, h in RULE_ARGS:
            dims, counts = face_dims(quadrature_rule(k, h)[0]), shares(k, h)
            assert np.all(counts[dims == 0] == 1)
            assert np.all(counts[dims == k - 1] == math.factorial(k + 1) // 2)
            assert np.all(counts[dims == k] == math.factorial(k + 1))
            assert np.count_nonzero(dims == 0) == k + 1
            assert np.count_nonzero(dims == k) == math.comb(h - 1, k)

    def test_k1_is_the_trapezoid_rule(self):
        for h in (1, 2, 3, 4, 7):
            nodes, weights = quadrature_rule(1, h)
            expected = np.full(h + 1, 1.0 / h)
            expected[[0, -1]] = 1.0 / (2 * h)
            assert np.allclose(nodes[:, 0], np.arange(h + 1) / h, rtol=0.0, atol=1e-15)
            assert np.allclose(weights, expected, rtol=1e-12, atol=0.0)

    def test_exact_for_affine_integrands(self):
        # the integral of t_i over the standard k-simplex is 1/(k+1)!
        for k, h in RULE_ARGS:
            nodes, weights = quadrature_rule(k, h)
            assert np.allclose(weights @ nodes, 1.0 / math.factorial(k + 1), rtol=1e-12, atol=0.0)

    def test_node_count_after_merging(self):
        # nodes are the integer grid points of the subdivision: C(h+k, k)
        for k in (1, 2, 3):
            for h in (1, 2, 4):
                nodes, weights = quadrature_rule(k, h)
                assert nodes.shape == (math.comb(h + k, k), k)
                assert weights.shape == (math.comb(h + k, k),)

    def test_nodes_unique_and_inside(self):
        for k, h in RULE_ARGS:
            nodes = quadrature_rule(k, h)[0]
            assert np.unique(nodes, axis=0).shape[0] == nodes.shape[0]
            assert np.all(nodes >= 0.0)
            assert np.all(nodes.sum(axis=1) <= 1.0 + 1e-12)
            assert np.allclose(nodes * h, np.round(nodes * h), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("h", [1, 2, 5])
    def test_k0_is_one_node_of_weight_one(self, h):
        # the standard 0-simplex is a point of volume 1/0! = 1, at any h
        nodes, weights = quadrature_rule(0, h)
        assert nodes.shape == (1, 0) and nodes.dtype == np.float64
        assert weights.tolist() == [1.0 / math.factorial(0)]

    def test_arrays_are_read_only_float64(self):
        for array in quadrature_rule(2, 2):
            assert array.dtype == np.float64
            with pytest.raises(ValueError):
                array[0] = 7

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="k >= 0"):
            quadrature_rule(-1, 3)
        with pytest.raises(ValueError):
            quadrature_rule(2, 0)
        for h in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match="positive integer"):
                quadrature_rule(2, h)

    @pytest.mark.parametrize("h", [True, False])
    def test_bool_resolution_rejected(self, h):
        quadrature_rule(2, 1)  # a cached h=1 must not let True through (True == 1 as a key)
        with pytest.raises(ValueError, match="positive integer"):
            quadrature_rule(2, h)

    def test_resolution_checked_on_every_call(self):
        # a cached h=3 must not let h=3.0 through (3 == 3.0 as a key)
        quadrature_rule(2, 3)
        with pytest.raises(ValueError, match="positive integer"):
            quadrature_rule(2, 3.0)

    def test_rules_are_cached(self):
        assert quadrature_rule(2, 5) is quadrature_rule(2, 5)


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
            c, emb, chains = embedded_path(pts)
            got = integration_matrix(form, c, emb, chains, h=3)[0, 0]
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
        assert np.array_equal(X, np.zeros((2, 2))) and not np.signbit(X).any()
        grads = integration_matrix_backward(form, cache, np.ones((2, 2)))
        assert np.array_equal(grads, np.zeros(form.psi.num_params))
        assert not np.signbit(grads).any()

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_backward_upstream_is_the_broadcast_product(self, k):
        form = NeuralKForm.init(3, k, 2, (16, 8), "tanh", self.rng)
        beta = self.random_chains(k, 3)
        U = self.rng.normal(size=(3, 2))
        _, cache = integration_matrix_forward(form, self.complex, self.embedding, beta, h=3)
        lam, weights, eps, mlp_cache = cache
        G = lam.T @ U
        d_scal = weights[:, None, None] * (G[:, :, None] * eps[:, None, :])[:, None]
        expected, _ = form.psi.backward(mlp_cache, d_scal.reshape(-1, form.psi.out_dim))
        assert np.array_equal(integration_matrix_backward(form, cache, U), expected)


    @pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
    def test_backward_skips_the_form_input_gradient(self, act, monkeypatch):
        form = NeuralKForm.init(3, 2, 2, (6, 5), act, self.rng)
        beta = self.random_chains(2, 3)
        U = self.rng.normal(size=(3, 2))
        _, cache = integration_matrix_forward(form, self.complex, self.embedding, beta, h=3)
        grads = integration_matrix_backward(form, cache, U)
        assert form.psi._grad_scratch[0].shape[0] == 0  # no (rows, 3) input gradient was made
        full = []
        backward = form.psi.backward

        def with_input_grad(mlp_cache, upstream, input_grad=True):
            full.append(backward(mlp_cache, upstream)[0])
            return backward(mlp_cache, upstream, input_grad)

        monkeypatch.setattr(form.psi, "backward", with_input_grad)
        assert np.array_equal(integration_matrix_backward(form, cache, U), grads)
        assert np.array_equal(full[0], grads)


class TestValidation:
    def setup_method(self):
        self.complex = build_complex([(0, 1, 2)], num_vertices=3)
        self.embedding = Embedding(np.eye(3, 2))
        self.form = NeuralKForm.init(2, 1, 1, (3,), "tanh", np.random.default_rng(0))

    def test_zero_form_integrates_to_its_value_at_the_vertex(self):
        zform = NeuralKForm.init(2, 0, 2, (3,), "tanh", np.random.default_rng(0))
        for v in range(3):
            for j in range(2):
                got = integrate_simplex(zform, j, self.complex, self.embedding, (v,))
                assert abs(got - zform.psi.forward(self.embedding.coords[v])[j]) <= 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            integrate_simplex(self.form, 0, self.complex, self.embedding, (0, 1, 2))

    def test_unknown_simplex(self):
        c = build_complex([(0, 1)], num_vertices=3)
        with pytest.raises(ValueError, match="not in the complex"):
            integrate_simplex(self.form, 0, c, self.embedding, (1, 2))

    @pytest.mark.parametrize("simplex", [(1, 0), (0, 4), [0, 2]])
    def test_unknown_simplex_is_named(self, simplex):
        c = build_complex([(0, 1)], num_vertices=3)
        with pytest.raises(ValueError) as info:
            integrate_simplex(self.form, 0, c, self.embedding, simplex)
        assert str(info.value) == f"simplex {tuple(simplex)} is not in the complex"

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
