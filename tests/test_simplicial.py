import numpy as np
import pytest

from kforms.simplicial import (
    Chain,
    ChainTuple,
    Embedding,
    SimplicialComplex,
    apply_matrix_left,
    build_complex,
    build_complexes,
    embedded_path,
    embedded_paths,
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

    @pytest.mark.parametrize("k", [1.0, True, False, "1", None, np.float64(1.0), np.bool_(True)])
    @pytest.mark.parametrize("query", ["simplices", "num_simplices", "vertex_array"])
    def test_a_dimension_that_is_not_an_integer_is_refused(self, query, k):
        c = build_complex([(0, 1, 2)], num_vertices=3)
        with pytest.raises(ValueError) as info:
            getattr(c, query)(k)
        assert str(info.value) == f"dimension {k!r} is not an integer"

    @pytest.mark.parametrize("k", [1, np.int64(1), np.uint8(1)])
    def test_numpy_integer_dimensions_are_accepted(self, k):
        c = build_complex([(0, 1, 2)], num_vertices=3)
        assert c.num_simplices(k) == 3 and c.simplices(k) == ((0, 1), (0, 2), (1, 2))
        assert c.vertex_array(k) is c.vertex_array(1) and c.index_of(k, (1, 2)) == 2

    def test_input_arrays_are_copied(self):
        edges = np.array([[0, 1], [1, 2]])
        c = build_complex(edges, 3)
        edges[0, 0] = 2
        assert c.simplices(1) == ((0, 1), (1, 2))
        assert not c.vertex_array(1).flags.writeable

    def test_only_build_complex_makes_complexes(self):
        messages = set()
        for args in [(3, (((0,), (1,), (2,)), ((0, 1),))), ()]:  # () once gave a hollow object
            with pytest.raises(TypeError) as info:
                SimplicialComplex(*args)
            messages.add(str(info.value))
        assert len(messages) == 1 and "\n" not in messages.pop()
        assert build_complex([(0, 1)], 3).dim == 1


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


# build_complex input: (num_vertices, simplices, message with {raw} for the offender as given, its index)
MALFORMED_INPUT = {
    "repeated vertex": (3, [(0, 1, 2), (2, 0, 2), (1, 1, 0)], "degenerate simplex {raw}: repeated vertex", 1),
    "vertex out of range": (
        3, [(0, 1), (3, 1), (0, -1)], "simplex {raw} has a vertex outside 0..2", 1
    ),
    "negative vertex": (3, [(0, 1), (0, -1)], "simplex {raw} has a vertex outside 0..2", 1),
    "repeated before range in one row": (3, [(5, 5)], "degenerate simplex {raw}: repeated vertex", 0),
    "earlier range before later repeat": (
        3, [(0, 1), (0, 4), (2, 2)], "simplex {raw} has a vertex outside 0..2", 1
    ),
    "earlier repeat before later range": (3, [(1, 1), (0, 4)], "degenerate simplex {raw}: repeated vertex", 0),
    "empty": (3, [(), ()], "empty simplex tuple", 0),
}


class TestMalformedBuildInput:
    @pytest.mark.parametrize("form", ["list", "array"])
    @pytest.mark.parametrize("case", list(MALFORMED_INPUT))
    def test_message_names_the_first_offender(self, case, form):
        num_vertices, simplices, message, at = MALFORMED_INPUT[case]
        given = simplices if form == "list" else np.array(simplices, dtype=np.int64).reshape(len(simplices), -1)
        with pytest.raises(ValueError) as info:
            build_complex(given, num_vertices)
        assert str(info.value) == message.format(raw=given[at])

    def test_first_offender_in_input_order_across_dimensions(self):
        with pytest.raises(ValueError, match=r"^simplex \(0, 4\) has a vertex outside 0\.\.2$"):
            build_complex([(0, 1, 2), (0, 4), (1, 1, 2)], 3)
        with pytest.raises(ValueError, match=r"^empty simplex tuple$"):
            build_complex([(0, 1, 2), (), (1, 7)], 3)

    def test_array_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="not \\(N, k\\+1\\)"):
            build_complex(np.array([0, 1]), 2)

    @pytest.mark.parametrize("num_vertices", [-1, 2.5, 3.0, "3", None, True, False])
    def test_bad_vertex_count_rejected(self, num_vertices):
        with pytest.raises(ValueError) as info:
            build_complex([(0, 1)], num_vertices)
        assert str(info.value) == f"num_vertices must be a nonnegative int, got {num_vertices!r}"

    def test_numpy_vertex_count_is_a_python_int(self):
        c = build_complex([(0, 1)], np.int64(2))
        assert type(c.num_vertices) is int and c == build_complex([(0, 1)], 2)


# input that is not sorted, unique or closed: (num_vertices, simplices, the stored simplices per dimension)
UNNORMALIZED = {
    "rows not increasing": (3, [(1, 0), (2, 1)], [[(0,), (1,), (2,)], [(0, 1), (1, 2)]]),
    "duplicate rows": (3, [(0, 1), (1, 2), (0, 1), (1, 2)], [[(0,), (1,), (2,)], [(0, 1), (1, 2)]]),
    "one edge in both vertex orders": (3, [(1, 2), (0, 1), (2, 1)], [[(0,), (1,), (2,)], [(0, 1), (1, 2)]]),
    "vertices not named": (4, [(2, 0)], [[(0,), (1,), (2,), (3,)], [(0, 2)]]),
    "missing faces": (
        4,
        [(1, 2, 3), (0, 1, 2)],
        [[(0,), (1,), (2,), (3,)], [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], [(0, 1, 2), (1, 2, 3)]],
    ),
    "one triangle in two vertex orders": (
        3, [(2, 0, 1), (1, 2, 0)], [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
    ),
}


class TestBuildComplexesArguments:
    ROWS = np.array([[0, 1], [1, 2]])

    @pytest.mark.parametrize("starts", [[0, 2], [0, 1, 1], [1, 1, 2], [0, 2, 1], [0.0, 1.0, 2.0]])
    def test_starts_that_do_not_cut_the_rows_are_refused(self, starts):
        with pytest.raises(ValueError, match=r"^starts must rise from 0 to 2 in 2 steps$"):
            build_complexes(self.ROWS, starts, [3, 3])

    @pytest.mark.parametrize("count", [-1, 2.0, True])
    def test_a_vertex_count_that_is_not_a_nonnegative_int_is_refused(self, count):
        with pytest.raises(ValueError, match="^num_vertices must be a nonnegative int"):
            build_complexes(self.ROWS, [0, 1, 2], [3, count])

    @pytest.mark.parametrize("rows", [np.array([0, 1]), np.array([[0.0, 1.0], [1.0, 2.0]])])
    def test_rows_build_complex_refuses_are_refused_alike(self, rows):
        with pytest.raises(ValueError, match="^simplex array of "):
            build_complexes(rows, [0, 2], [3])

    def test_rows_that_are_not_an_array_are_refused(self):
        with pytest.raises(ValueError, match=r"^simplex rows must be an \(N, k\+1\) integer array$"):
            build_complexes([[0, 1]], [0, 1], [2])

    def test_no_items_build_no_complexes(self):
        assert build_complexes(np.empty((0, 3), dtype=np.intp), [0], []) == []


class TestNormalizedBuildInput:
    @pytest.mark.parametrize("form", ["list", "array"])
    @pytest.mark.parametrize("case", list(UNNORMALIZED))
    def test_stored_sorted_unique_and_closed(self, case, form):
        num_vertices, simplices, per_dim = UNNORMALIZED[case]
        given = simplices if form == "list" else np.array(simplices, dtype=np.int64)
        c = build_complex(given, num_vertices)
        assert c.dim == len(per_dim) - 1
        for k, expected in enumerate(per_dim):
            assert c.simplices(k) == tuple(expected)
            assert c.vertex_array(k).tolist() == [list(s) for s in expected]
            for i, s in enumerate(expected):
                assert c.index_of(k, s) == i


class TestIndexOf:
    def setup_method(self):
        self.c = build_complex([(0, 1), (1, 2)], num_vertices=3)

    @pytest.mark.parametrize(
        "k, simplex",
        [
            (1, (0, 2)),  # absent
            (1, (1, 0)),  # not increasing
            (1, (0, 5)),  # out of range; its key would alias (1, 2)
            (1, (-1, 2)),
            (1, (0,)),  # wrong length
            (2, (0, 1, 2)),  # k above dim
            (-1, ()),
            (0, (3,)),
        ],
    )
    def test_unknown_simplex_is_a_one_line_value_error(self, k, simplex):
        with pytest.raises(ValueError) as info:
            self.c.index_of(k, simplex)
        assert str(info.value) == f"simplex {simplex} is not in the complex"

    @pytest.mark.parametrize("k", [1.0, True])
    def test_a_dimension_that_is_not_an_integer_is_refused(self, k):
        with pytest.raises(ValueError) as info:
            self.c.index_of(k, (0, 1))
        assert str(info.value) == f"dimension {k!r} is not an integer"

    def test_any_sequence_is_accepted(self):
        assert self.c.index_of(1, [1, 2]) == 1
        assert self.c.index_of(1, np.array([0, 1])) == 0

    def test_keys_wider_than_int64(self):
        # 100000**4 > 2**63: the keys are Python ints
        big = build_complex([(99_999, 2, 0, 1)], num_vertices=100_000)
        assert big.simplices(3) == ((0, 1, 2, 99_999),)
        assert big.index_of(3, (0, 1, 2, 99_999)) == 0
        assert big.index_of(2, (1, 2, 99_999)) == 3
        with pytest.raises(ValueError, match="not in the complex"):
            big.index_of(3, (0, 1, 3, 99_999))


class TestEquality:
    def test_list_and_array_input_build_equal_complexes(self):
        tris = [(0, 1, 2), (1, 3, 2), (2, 3, 4)]
        a = build_complex(tris, 6)
        b = build_complex(np.array(tris), 6)
        assert a == b and hash(a) == hash(b)

    def test_input_order_does_not_matter_but_vertex_count_does(self):
        a, b = build_complex([(0, 1), (1, 2)], 3), build_complex([(2, 1), (0, 1)], 3)
        assert a == b and hash(a) == hash(b)
        assert a != build_complex([(1, 2), (0, 1)], 4)
        assert build_complex([], 2) != build_complex([], 3)


class TestEmbedding:
    def test_equality_and_hash_are_by_shape_and_bytes(self):
        a, b = Embedding(np.zeros((3, 2))), Embedding(np.zeros((3, 2)))
        assert a == b and hash(a) == hash(b)
        assert a != Embedding(np.zeros((2, 3)))
        assert a != Embedding(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, -0.0]]))
        assert a != a.coords

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

    def test_rejects_a_negative_dimension(self):
        with pytest.raises(ValueError, match="^chain dimension must be nonnegative$"):
            Chain(-1, ())

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            Chain(1, ((-1, 1.0),))
        with pytest.raises(ValueError):
            Chain(1, ((0, np.inf),))

    @pytest.mark.parametrize(
        "index", [1.5, 2.0, np.float64(2.9), "3", True, False, np.bool_(True), None],
        ids=repr,
    )
    def test_rejects_non_integer_indices(self, index):
        with pytest.raises(ValueError, match="is not an integer") as info:
            Chain(1, [(index, 2.0), (1, 1.0)])
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("kind", [int, np.int64, np.int32, np.uint8, np.intp])
    def test_accepts_integer_indices(self, kind):
        c = Chain(1, [(kind(2), 2.0), (1, 1.0), (kind(2), 0.5)])
        assert c.terms == ((1, 1.0), (2, 2.5))
        assert all(type(i) is int for i, _ in c.terms)


class TestChainTuple:
    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            ChainTuple((Chain(0, ((0, 1.0),)), Chain(1, ((0, 1.0),))))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChainTuple(())

    def test_iteration_and_indexing(self):
        chains = (Chain(1, ((3, 2.0), (1, -1.0))), Chain(1, ()), Chain(1, ((1, 0.5),)))
        ct = ChainTuple(chains)
        assert len(ct) == 3
        assert ct.dim == 1
        assert ct[2] == chains[2] and ct[-1] == chains[-1]
        assert list(ct) == list(chains)
        assert all(type(c.terms[0][0]) is int for c in ct if c.terms)


class TestChainSupport:
    def test_standard_basis_support_is_identity(self):
        c = build_complex([(0, 1, 2), (1, 2, 3)], num_vertices=4)
        basis = standard_basis_chains(c, 1)
        assert basis.lam is None
        assert basis.used.dtype == np.intp and not basis.used.flags.writeable
        assert np.array_equal(basis.used, np.arange(c.num_simplices(1)))

    def test_fields_are_the_whole_state(self):
        ct = ChainTuple((Chain(1, ((4, 2.0), (1, -1.0))), Chain(1, ((1, 0.5),))))
        assert set(vars(ct)) == {"dim", "used", "lam"}
        assert np.array_equal(ct.used, [1, 4])
        assert np.array_equal(ct.lam, [[-1.0, 2.0], [0.5, 0.0]])
        assert ct.lam.dtype == np.float64 and not ct.lam.flags.writeable
        assert ct.used.dtype == np.intp and not ct.used.flags.writeable
        with pytest.raises(AttributeError):
            ct.lam = None

    def test_opposite_signs_across_chains_keep_one_column(self):
        ct = ChainTuple((Chain(1, ((3, 1.0),)), Chain(1, ((3, -1.0), (0, 1.0)))))
        assert np.array_equal(ct.used, [0, 3])
        assert np.array_equal(ct.lam, [[0.0, 1.0], [1.0, -1.0]])

    def test_identity_needs_order_and_unit_coefficients(self):
        for chains in (
            (Chain(1, ((1, 1.0),)), Chain(1, ((0, 1.0),))),  # permuted
            (Chain(1, ((0, 1.0),)), Chain(1, ((1, -1.0),))),  # sign flip
            (Chain(1, ((0, 1.0), (1, 1.0))), Chain(1, ())),  # one row holds both
        ):
            ct = ChainTuple(chains)
            assert np.array_equal(ct.used, [0, 1])
            assert ct.lam is not None
        ct = ChainTuple((Chain(1, ((2, 1.0),)), Chain(1, ((5, 1.0),))))
        assert np.array_equal(ct.used, [2, 5]) and ct.lam is None

    def test_empty_chains_have_empty_support(self):
        ct = ChainTuple((Chain(2, ()), Chain(2, ())))
        assert ct.used.shape == (0,)
        assert ct.lam.shape == (2, 0)
        assert list(ct) == [Chain(2, ()), Chain(2, ())]

    def test_equality_and_hash_are_by_value(self):
        a = ChainTuple((Chain(1, ((2, 1.5), (0, 1.0))), Chain(1, ((0, -1.0),))))
        b = ChainTuple([Chain(1, ((0, 1.0), (2, 1.0), (2, 0.5))), Chain(1, ((0, -1.0),))])
        assert a == b and hash(a) == hash(b)
        assert a != ChainTuple((Chain(1, ((0, 1.0),)),))
        assert ChainTuple((Chain(1, ()),)) != ChainTuple((Chain(1, ()), Chain(1, ())))
        assert ChainTuple((Chain(1, ((0, 1.0),)),)) != ChainTuple((Chain(2, ((0, 1.0),)),))

    def test_gen_surfaces_items_share_one_plan(self):
        from kforms.data import SurfaceDatasetSpec, gen_surfaces

        data = gen_surfaces(SurfaceDatasetSpec(samples_per_class=2, grid_size=4, seed=0))
        first, last = data.items[0], data.items[-1]
        assert first.chains is last.chains and first.complex is last.complex
        assert first.chains.lam is None
        assert np.array_equal(first.chains.used, np.arange(first.complex.num_simplices(2)))
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

    def test_builds_no_chain_objects(self, monkeypatch):
        import kforms.simplicial as simplicial

        c = build_complex([(0, 1, 2), (1, 2, 3)], num_vertices=4)
        monkeypatch.setattr(simplicial, "Chain", None)
        basis = standard_basis_chains(c, 2)
        assert len(basis) == 2 and basis.dim == 2


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

    def test_adds_and_scales_chains(self):
        a = Chain(1, ((0, 1.0), (1, 2.0)))
        b = Chain(1, ((1, -2.0), (2, 1.0)))
        total, scaled = apply_matrix_left([[1.0, 1.0], [-2.0, 0.0]], ChainTuple((a, b)))
        assert total.terms == ((0, 1.0), (2, 1.0))
        assert scaled.terms == ((0, -2.0), (1, -4.0))

    def test_merges_overlapping_terms(self):
        beta = ChainTuple((Chain(1, ((0, 1.0), (1, 1.0))), Chain(1, ((1, 1.0),))))
        out = apply_matrix_left([[1.0, -1.0]], beta)
        assert list(out) == [Chain(1, ((0, 1.0),))]
        # the cancelled simplex 1 leaves the support; 1 * simplex 0 is a basis
        assert np.array_equal(out.used, [0]) and out.lam is None

    def test_negative_zeros_are_canonical(self):
        basis = ChainTuple((Chain(1, ((0, 1.0),)), Chain(1, ((1, 1.0),))))
        negated = apply_matrix_left(-np.eye(2), basis)
        expected = ChainTuple((Chain(1, ((0, -1.0),)), Chain(1, ((1, -1.0),))))
        assert negated == expected and hash(negated) == hash(expected)

    def test_non_finite_or_empty_result_rejected(self):
        beta = ChainTuple((Chain(1, ((0, 1.0),)), Chain(1, ((1, 2.0),))))
        for L in ([[np.nan, 0.0]], [[0.0, 1e308]], np.zeros((0, 2))):
            with pytest.raises(ValueError):
                apply_matrix_left(L, beta)

    def test_shape_mismatch_rejected(self):
        beta = ChainTuple((Chain(1, ((0, 1.0),)),))
        with pytest.raises(ValueError):
            apply_matrix_left(np.ones((2, 3)), beta)


class TestEmbeddedPath:
    def test_monotone_path_all_positive(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        c, emb, chains = embedded_path(pts)
        chain = chains[0]
        assert c.num_simplices(1) == 2
        assert all(coeff == 1.0 for _, coeff in chain.terms)
        assert np.array_equal(emb.coords, pts)

    def test_reversal_negates_chain(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            pts = rng.normal(size=(int(rng.integers(2, 9)), 2))
            c_fwd, emb_fwd, ch_fwd = embedded_path(pts)
            c_rev, emb_rev, ch_rev = embedded_path(pts[::-1])
            assert c_fwd == c_rev
            assert np.array_equal(emb_fwd.coords, emb_rev.coords)
            fwd = dict(ch_fwd[0].terms)
            rev = dict(ch_rev[0].terms)
            assert fwd.keys() == rev.keys()
            for idx, coeff in fwd.items():
                assert rev[idx] == -coeff

    def test_duplicate_points_stay_distinct_vertices(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        c, emb, chains = embedded_path(pts)
        assert emb.num_vertices == 3
        assert c.num_simplices(1) == 2
        assert sorted(coeff for _, coeff in chains[0].terms) == [-1.0, 1.0]

    def test_too_short_rejected(self):
        for points in (np.zeros((1, 2)), np.zeros(3)):
            with pytest.raises(ValueError, match="at least 2 points"):
                embedded_path(points)
        with pytest.raises(ValueError, match="at least 2 points"):
            embedded_paths(np.zeros((2, 1, 2)))

    def test_points_without_coordinates_rejected(self):
        message = "^a path's points need at least one coordinate$"
        with pytest.raises(ValueError, match=message):
            embedded_path(np.zeros((3, 0)))
        with pytest.raises(ValueError, match=message):
            embedded_paths(np.zeros((2, 3, 0)))

    def test_ties_keep_sequence_position(self):
        pts = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 0.5], [0.0, 1.0]])
        c, emb, chains = embedded_path(pts)
        # ranks by position: 1, 2, 0, 3 (-0.0 ties with 0.0); steps 1->2, 2->0, 0->3
        assert emb.coords.tolist() == [[0.0, 0.5], [0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]
        assert c.simplices(1) == ((0, 2), (0, 3), (1, 2))
        assert chains[0].terms == ((0, -1.0), (1, 1.0), (2, 1.0))

    def test_chain_tuple_form_builds_no_chain(self, monkeypatch):
        import kforms.simplicial as simplicial

        pts = np.random.default_rng(12).normal(size=(7, 3))
        monkeypatch.setattr(simplicial, "Chain", None)
        complex_, embedding, chains = embedded_path(pts)
        monkeypatch.undo()
        again, coords, _ = embedded_path(pts)
        chain = chains[0]
        assert again == complex_ and np.array_equal(coords.coords, embedding.coords)
        assert chains == ChainTuple((chain,)) and list(chains) == [chain]
