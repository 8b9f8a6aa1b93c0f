import itertools
import math

import numpy as np
import pytest

from kforms.forms import (
    NeuralKForm,
    affine_jacobian,
    epsilon_all,
    load_form,
    mix_forms,
    multi_indices,
    save_form,
)
from kforms.nn import Mlp, read_blob, write_blob
from kforms.simplicial import Embedding


class TestMultiIndices:
    def test_count_is_binomial(self):
        for n in range(0, 6):
            for k in range(0, n + 1):
                table = multi_indices(n, k)
                assert len(table) == math.comb(n, k)

    def test_lexicographic_order(self):
        table = multi_indices(4, 2)
        assert table.indices == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        assert list(table.indices) == sorted(itertools.combinations(range(1, 5), 2))
        assert np.array_equal(table.rows0, np.array(table.indices) - 1)

    def test_k_zero_single_empty_tuple(self):
        table = multi_indices(3, 0)
        assert table.indices == ((),)
        assert len(table) == 1

    def test_zero_based_row_selectors(self):
        table = multi_indices(3, 2)
        assert np.array_equal(table.rows0, [[0, 1], [0, 2], [1, 2]])
        assert table.rows0.dtype == np.intp
        assert multi_indices(3, 0).rows0.shape == (1, 0)

    def test_row_selectors_read_only(self):
        table = multi_indices(3, 2)
        with pytest.raises(ValueError):
            table.rows0[0, 0] = 2

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            multi_indices(2, 3)
        with pytest.raises(ValueError):
            multi_indices(2, -1)


class TestAffineJacobian:
    def test_columns_are_vertex_differences(self):
        emb = Embedding(np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        D = affine_jacobian(emb, (0, 1, 2))
        assert D.shape == (3, 2)
        assert np.array_equal(D[:, 0], emb.coords[1] - emb.coords[0])
        assert np.array_equal(D[:, 1], emb.coords[2] - emb.coords[0])

    def test_vertex_order_matters(self):
        emb = Embedding(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        D_fwd = affine_jacobian(emb, (0, 1, 2))
        D_swp = affine_jacobian(emb, (0, 2, 1))
        assert np.array_equal(D_fwd[:, ::-1], D_swp)

    def test_vertex_simplex_gives_empty_jacobian(self):
        emb = Embedding(np.zeros((2, 3)))
        assert affine_jacobian(emb, (1,)).shape == (3, 0)

    def test_unknown_vertex_rejected(self):
        emb = Embedding(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            affine_jacobian(emb, (0, 5))


def epsilon(D: np.ndarray, idx: tuple[int, ...]) -> float:
    """The column of ``epsilon_all`` for multi-index ``idx``."""
    table = multi_indices(D.shape[0], D.shape[1])
    return float(epsilon_all(D, table)[table.indices.index(idx)])


class TestEpsilon:
    def test_matches_numpy_det_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, n + 1))
            D = rng.normal(size=(n, k))
            for idx in itertools.combinations(range(1, n + 1), k):
                expected = np.linalg.det(D[[i - 1 for i in idx], :])
                assert epsilon(D, idx) == pytest.approx(expected, abs=1e-12)

    def test_k_zero_is_one(self):
        assert epsilon(np.zeros((3, 0)), ()) == 1.0

    def test_alternating_in_columns(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            D = rng.normal(size=(4, 3))
            swapped = D[:, [1, 0, 2]]
            for idx in multi_indices(4, 3).indices:
                assert epsilon(swapped, idx) == pytest.approx(-epsilon(D, idx), abs=1e-12)

    def test_linear_in_each_column(self):
        rng = np.random.default_rng(29)
        D = rng.normal(size=(3, 2))
        E = D.copy()
        E[:, 0] *= 2.5
        for idx in multi_indices(3, 2).indices:
            assert epsilon(E, idx) == pytest.approx(2.5 * epsilon(D, idx), abs=1e-12)

    def test_degenerate_columns_vanish(self):
        D = np.array([[1.0, 2.0], [0.5, 1.0], [3.0, 6.0]])  # col2 = 2 * col1
        for idx in multi_indices(3, 2).indices:
            assert epsilon(D, idx) == pytest.approx(0.0, abs=1e-12)

    def test_shape_validation(self):
        # a table holds only increasing in-range multi-indices, so what is
        # left to refuse is a Jacobian of another n or k
        D = np.zeros((3, 2))
        with pytest.raises(ValueError, match="does not end in"):
            epsilon_all(D, multi_indices(3, 1))  # wrong k
        with pytest.raises(ValueError, match="does not end in"):
            epsilon_all(D, multi_indices(7, 2))  # wrong n
        with pytest.raises(ValueError, match="does not end in"):
            epsilon_all(np.zeros((4, 3, 2)), multi_indices(2, 2))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(31)
        for n, k in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 4)]:
            table = multi_indices(n, k)
            assert epsilon_all(rng.normal(size=(n, k)), table).shape == (len(table),)
            stack = rng.normal(size=(4, 3, n, k))
            batched = epsilon_all(stack, table)
            assert batched.shape == (4, 3, len(table))
            for a, b in np.ndindex(4, 3):
                assert np.array_equal(batched[a, b], epsilon_all(stack[a, b], table))

    def test_epsilon_all_k_zero(self):
        assert np.array_equal(epsilon_all(np.zeros((3, 0)), multi_indices(3, 0)), [1.0])
        assert np.array_equal(epsilon_all(np.zeros((5, 3, 0)), multi_indices(3, 0)), np.ones((5, 1)))


class TestNeuralKForm:
    def test_init_shapes(self):
        form = NeuralKForm.init(4, 2, 3, (8, 8), "tanh", np.random.default_rng(0))
        assert form.psi.in_dim == 4
        assert form.psi.out_dim == 3 * 6
        assert form.num_components == 6

    def test_output_dim_mismatch_rejected(self):
        psi = Mlp.init([3, 5], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            NeuralKForm(psi, n=3, k=1, num_forms=2)

    def test_no_forms_rejected(self):
        psi = Mlp.init([3, 3], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="^need at least one form$"):
            NeuralKForm(psi, n=3, k=1, num_forms=0)

    def test_dims_checked_before_the_table_is_built(self, monkeypatch):
        import kforms.forms as forms

        monkeypatch.setattr(forms, "multi_indices", None)  # C(60, 30) rows would never finish
        with pytest.raises(ValueError, match="psi input dim 2 != ambient dim 60"):
            NeuralKForm(Mlp.init([2, 3], rng=np.random.default_rng(0)), n=60, k=30, num_forms=1)
        with pytest.raises(ValueError, match="psi output dim 3 != num_forms"):
            NeuralKForm(Mlp.init([60, 3], rng=np.random.default_rng(0)), n=60, k=30, num_forms=1)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_degree_out_of_range_rejected(self, k):
        with pytest.raises(ValueError, match=f"need 0 <= k <= n, got k={k}, n=3"):
            NeuralKForm(Mlp.init([3, 3], rng=np.random.default_rng(0)), n=3, k=k, num_forms=1)

    def test_flat_layout_slot_is_form_major(self):
        # single linear layer with zero weights: output == bias == arange,
        # so slot (j, r) must land at row j, column r of the scaling matrix
        n, k, num_forms = 3, 1, 2
        C = 3
        psi = Mlp(
            weights=[np.zeros((num_forms * C, n))],
            biases=[np.arange(num_forms * C, dtype=np.float64)],
        )
        form = NeuralKForm(psi, n, k, num_forms)
        scal = form.eval_scalings(np.zeros(n))
        assert scal.shape == (num_forms, C)
        for j in range(num_forms):
            for r in range(C):
                assert scal[j, r] == j * C + r

    def test_eval_scalings_batched(self):
        form = NeuralKForm.init(2, 1, 3, (4,), "tanh", np.random.default_rng(1))
        pts = np.random.default_rng(2).normal(size=(5, 2))
        batched = form.eval_scalings(pts)
        assert batched.shape == (5, 3, 2)
        for i in range(5):
            assert np.allclose(batched[i], form.eval_scalings(pts[i]), atol=1e-14)


class TestMixForms:
    def test_matches_linear_combination_oracle(self):
        rng = np.random.default_rng(41)
        for trial in range(10):
            form = NeuralKForm.init(3, 2, 4, (6,), "tanh", rng)
            R = rng.normal(size=(4, int(rng.integers(1, 4))))
            mixed = mix_forms(form, R)
            assert mixed.num_forms == R.shape[1]
            pts = rng.normal(size=(6, 3))
            got = mixed.eval_scalings(pts)
            expected = np.einsum("jq,bjr->bqr", R, form.eval_scalings(pts))
            assert np.allclose(got, expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        form = NeuralKForm.init(2, 1, 2, (4,), "tanh", np.random.default_rng(0))
        with pytest.raises(ValueError):
            mix_forms(form, np.ones((3, 2)))


class TestFormCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(55)
        form = NeuralKForm.init(3, 2, 2, (7,), "sigmoid", rng)
        path = tmp_path / "form.kfc"
        save_form(form, path)
        loaded = load_form(path)
        assert (loaded.n, loaded.k, loaded.num_forms) == (3, 2, 2)
        assert loaded.table.indices == form.table.indices
        pts = rng.normal(size=(9, 3))
        assert np.array_equal(loaded.eval_scalings(pts), form.eval_scalings(pts))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "not_form.kfc"
        write_blob(path, {"kind": "mlp"}, np.zeros(2))
        with pytest.raises(ValueError, match="k-form"):
            load_form(path)

    @pytest.mark.parametrize(
        "key, value", [("ambient_dim", 3.0), ("degree", True), ("num_forms", "2"), ("degree", None)]
    )
    def test_non_int_header_fields_rejected(self, tmp_path, key, value):
        path = tmp_path / "form.kfc"
        save_form(NeuralKForm.init(3, 2, 2, (4,), "tanh", np.random.default_rng(57)), path)
        header, params = read_blob(path)
        write_blob(path, {**header, key: value}, params)
        with pytest.raises(ValueError, match=f"checkpoint {key} .* is not an int"):
            load_form(path)

    def test_damaged_checkpoint_rejected(self, tmp_path, damage):
        path = tmp_path / "form.kfc"
        save_form(NeuralKForm.init(3, 2, 2, (4,), "tanh", np.random.default_rng(56)), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError):
            load_form(path)
