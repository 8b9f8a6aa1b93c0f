import numpy as np
import pytest

from kforms.simplicial import (
    Chain,
    ChainTuple,
    Embedding,
    SimplicialComplex,
    apply_matrix_left,
    build_complex,
    path_to_complex,
    standard_basis_chains,
)


class TestSimplicialComplex:
    def test_build_closure_adds_all_faces(self):
        c = build_complex([(2, 0, 1)], num_vertices=3)
        assert c.dim == 2
        assert c.simplices(0) == ((0,), (1,), (2,))
        assert c.simplices(1) == ((0, 1), (0, 2), (1, 2))
        assert c.simplices(2) == ((0, 1, 2),)

    def test_isolated_vertices_are_kept(self):
        c = build_complex([(0, 1)], num_vertices=4)
        assert c.num_simplices(0) == 4
        assert c.num_simplices(1) == 1

    def test_stored_order_is_lexicographic(self):
        c = build_complex([(1, 3), (0, 2), (2, 3), (0, 1)], num_vertices=4)
        assert c.simplices(1) == ((0, 1), (0, 2), (1, 3), (2, 3))
        for k in range(c.dim + 1):
            for i, s in enumerate(c.simplices(k)):
                assert c.index_of(k, s) == i

    def test_missing_face_rejected(self):
        with pytest.raises(ValueError, match="not closed"):
            SimplicialComplex(3, (((0,), (1,), (2,)), (), ((0, 1, 2),)))

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            build_complex([(0, 0, 1)], num_vertices=2)

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_complex([(0, 5)], num_vertices=3)

    def test_queries_outside_dim_are_empty(self):
        c = build_complex([(0, 1)], num_vertices=2)
        assert c.simplices(2) == ()
        assert c.num_simplices(7) == 0


class TestVertexArray:
    def test_rows_are_the_stored_simplices(self):
        c = build_complex([(0, 1, 2), (1, 2, 3)], num_vertices=5)
        for k in range(3):
            verts = c.vertex_array(k)
            assert verts.dtype == np.intp and verts.shape == (c.num_simplices(k), k + 1)
            assert [tuple(row) for row in verts.tolist()] == list(c.simplices(k))
            assert not verts.flags.writeable
            assert c.vertex_array(k) is verts
        assert c.vertex_array(3).shape == (0, 4)


class TestEmbedding:
    def test_coords_are_frozen(self):
        emb = Embedding(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            emb.coords[0, 0] = 1.0

    def test_copies_input(self):
        raw = np.ones((2, 2))
        emb = Embedding(raw)
        raw[0, 0] = 99.0
        assert emb.coords[0, 0] == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Embedding(np.array([[0.0, np.nan]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Embedding(np.zeros(4))

    def test_point_lookup(self):
        emb = Embedding(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert emb.num_vertices == 2
        assert emb.ambient_dim == 2
        assert np.array_equal(emb.coords[1], [3.0, 4.0])


class TestChain:
    def test_terms_canonicalized(self):
        c = Chain(1, ((3, 2.0), (1, -1.0), (3, 0.5)))
        assert c.terms == ((1, -1.0), (3, 2.5))

    def test_zero_coefficients_dropped(self):
        c = Chain(1, ((0, 1.0), (0, -1.0), (2, 3.0)))
        assert c.terms == ((2, 3.0),)
        assert len(c) == 1

    def test_add_and_scale(self):
        a = Chain(1, ((0, 1.0), (1, 2.0)))
        b = Chain(1, ((1, -2.0), (2, 1.0)))
        assert (a + b).terms == ((0, 1.0), (2, 1.0))
        assert a.scaled(-2.0).terms == ((0, -2.0), (1, -4.0))

    def test_add_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Chain(1, ()) + Chain(2, ())

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            Chain(1, ((-1, 1.0),))
        with pytest.raises(ValueError):
            Chain(1, ((0, np.inf),))


class TestChainTuple:
    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            ChainTuple((Chain(0, ((0, 1.0),)), Chain(1, ((0, 1.0),))))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChainTuple(())

    def test_iteration_and_indexing(self):
        chains = tuple(Chain(1, ((i, 1.0),)) for i in range(3))
        ct = ChainTuple(chains)
        assert len(ct) == 3
        assert ct.dim == 1
        assert ct[2] is chains[2]
        assert list(ct) == list(chains)


class TestChainSupport:
    def test_standard_basis_support_is_identity(self):
        c = build_complex([(0, 1, 2), (1, 2, 3)], num_vertices=4)
        used, lam = standard_basis_chains(c, 1).support
        assert lam is None
        assert used.dtype == np.intp and not used.flags.writeable
        assert np.array_equal(used, np.arange(c.num_simplices(1)))

    def test_support_is_built_once(self):
        ct = ChainTuple((Chain(1, ((4, 2.0), (1, -1.0))), Chain(1, ((1, 0.5),))))
        first = ct.support
        assert ct.support is first
        used, lam = first
        assert np.array_equal(used, [1, 4])
        assert np.array_equal(lam, [[-1.0, 2.0], [0.5, 0.0]])
        assert not lam.flags.writeable

    def test_opposite_signs_across_chains_keep_one_column(self):
        ct = ChainTuple((Chain(1, ((3, 1.0),)), Chain(1, ((3, -1.0), (0, 1.0)))))
        used, lam = ct.support
        assert np.array_equal(used, [0, 3])
        assert np.array_equal(lam, [[0.0, 1.0], [1.0, -1.0]])

    def test_identity_needs_order_and_unit_coefficients(self):
        for chains in (
            (Chain(1, ((1, 1.0),)), Chain(1, ((0, 1.0),))),  # permuted
            (Chain(1, ((0, 1.0),)), Chain(1, ((1, -1.0),))),  # sign flip
            (Chain(1, ((0, 1.0), (1, 1.0))), Chain(1, ())),  # one row holds both
        ):
            used, lam = ChainTuple(chains).support
            assert np.array_equal(used, [0, 1])
            assert lam is not None
        used, lam = ChainTuple((Chain(1, ((2, 1.0),)), Chain(1, ((5, 1.0),)))).support
        assert np.array_equal(used, [2, 5]) and lam is None

    def test_empty_chains_have_empty_support(self):
        used, lam = ChainTuple((Chain(2, ()), Chain(2, ()))).support
        assert used.shape == (0,)
        assert lam.shape == (2, 0)

    def test_equality_ignores_the_built_support(self):
        a = ChainTuple((Chain(1, ((0, 1.0),)),))
        b = ChainTuple((Chain(1, ((0, 1.0),)),))
        a.support
        assert a == b and hash(a) == hash(b)

    def test_gen_surfaces_items_share_one_plan(self):
        from kforms.data import SurfaceDatasetSpec, gen_surfaces

        data = gen_surfaces(SurfaceDatasetSpec(samples_per_class=2, grid_size=4, seed=0))
        first, last = data.items[0], data.items[-1]
        assert first.chains is last.chains and first.complex is last.complex
        assert first.chains.support is last.chains.support
        assert first.chains.support[1] is None
        assert first.complex.vertex_array(2) is last.complex.vertex_array(2)


class TestStandardBasis:
    def test_one_chain_per_simplex(self):
        c = build_complex([(0, 1, 2), (1, 2, 3)], num_vertices=4)
        basis = standard_basis_chains(c, 1)
        assert len(basis) == c.num_simplices(1)
        for i, chain in enumerate(basis):
            assert chain.terms == ((i, 1.0),)

    def test_empty_dimension_rejected(self):
        c = build_complex([(0, 1)], num_vertices=2)
        with pytest.raises(ValueError):
            standard_basis_chains(c, 2)


class TestApplyMatrixLeft:
    def test_matches_manual_combination(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            m = int(rng.integers(1, 5))
            basis = ChainTuple(tuple(Chain(1, ((i, 1.0),)) for i in range(4)))
            L = rng.normal(size=(m, 4))
            out = apply_matrix_left(L, basis)
            assert len(out) == m
            for i, chain in enumerate(out):
                dense = np.zeros(4)
                for idx, coeff in chain.terms:
                    dense[idx] = coeff
                expected = np.where(L[i] == 0.0, 0.0, L[i])
                assert np.allclose(dense, expected)

    def test_merges_overlapping_terms(self):
        beta = ChainTuple((Chain(1, ((0, 1.0), (1, 1.0))), Chain(1, ((1, 1.0),))))
        (out,) = apply_matrix_left([[1.0, -1.0]], beta)
        assert out.terms == ((0, 1.0),)

    def test_shape_mismatch_rejected(self):
        beta = ChainTuple((Chain(1, ((0, 1.0),)),))
        with pytest.raises(ValueError):
            apply_matrix_left(np.ones((2, 3)), beta)


class TestPathToComplex:
    def test_monotone_path_all_positive(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        c, emb, chain = path_to_complex(pts)
        assert c.num_simplices(1) == 2
        assert all(coeff == 1.0 for _, coeff in chain.terms)
        assert np.array_equal(emb.coords, pts)

    def test_reversal_negates_chain(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            pts = rng.normal(size=(int(rng.integers(2, 9)), 2))
            c_fwd, emb_fwd, ch_fwd = path_to_complex(pts)
            c_rev, emb_rev, ch_rev = path_to_complex(pts[::-1])
            assert c_fwd == c_rev
            assert np.array_equal(emb_fwd.coords, emb_rev.coords)
            fwd = dict(ch_fwd.terms)
            rev = dict(ch_rev.terms)
            assert fwd.keys() == rev.keys()
            for idx, coeff in fwd.items():
                assert rev[idx] == -coeff

    def test_duplicate_points_stay_distinct_vertices(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        c, emb, chain = path_to_complex(pts)
        assert emb.num_vertices == 3
        assert c.num_simplices(1) == 2
        assert sorted(coeff for _, coeff in chain.terms) == [-1.0, 1.0]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            path_to_complex(np.zeros((1, 2)))
