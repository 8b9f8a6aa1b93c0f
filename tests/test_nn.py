import numpy as np
import pytest

from kforms.nn import (
    Adam,
    Mlp,
    Sgd,
    load_mlp,
    make_optimizer,
    mlp_from_header,
    mlp_header,
    read_blob,
    save_mlp,
    write_blob,
)


def reference_forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Straight-line re-implementation used as the forward oracle."""
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w.T + b
        if l == mlp.num_layers - 1:
            a = z
        elif mlp.activation == "relu":
            a = np.maximum(z, 0.0)
        elif mlp.activation == "tanh":
            a = np.tanh(z)
        else:
            a = 1.0 / (1.0 + np.exp(-z))
    return a


def numeric_param_grads(mlp: Mlp, x: np.ndarray, weighting: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences of sum(weighting * forward(x)) in the ``params``
    layout, perturbing ``params`` in place."""
    out = np.zeros_like(mlp.params)
    for i in range(mlp.params.size):
        saved = mlp.params[i]
        for sign in (1.0, -1.0):
            mlp.params[i] = saved + sign * eps
            out[i] += sign * float(np.sum(weighting * mlp.forward(x)))
        mlp.params[i] = saved
    return out / (2.0 * eps)


class TestForward:
    def test_matches_reference_oracle(self):
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            dims = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(2, 5)))]
            act = ("relu", "tanh", "sigmoid")[trial % 3]
            mlp = Mlp.init(dims, act, rng)
            x = rng.normal(size=(7, dims[0]))
            assert np.allclose(mlp.forward(x), reference_forward(mlp, x), atol=1e-12)

    def test_single_point_matches_batch_row(self):
        # not bit-identical: BLAS may pick different kernels per shape
        rng = np.random.default_rng(3)
        mlp = Mlp.init([3, 5, 2], "tanh", rng)
        x = rng.normal(size=(4, 3))
        batch = mlp.forward(x)
        for i in range(4):
            row = mlp.forward(x[i])
            assert row.shape == (2,)
            assert np.allclose(row, batch[i], rtol=0.0, atol=1e-14)

    def test_single_linear_layer_is_affine(self):
        w = np.array([[2.0, -1.0]])
        b = np.array([0.5])
        mlp = Mlp(weights=[w], biases=[b], activation="relu")
        assert mlp.forward(np.array([3.0, 4.0])) == pytest.approx([2.5])

    def test_input_shape_validation(self):
        mlp = Mlp.init([3, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp.forward(np.zeros(4))
        with pytest.raises(ValueError):
            mlp.forward(np.array([1.0, np.nan, 0.0]))

    def test_layer_shape_validation(self):
        with pytest.raises(ValueError):
            Mlp(weights=[np.zeros((2, 3)), np.zeros((4, 5))], biases=[np.zeros(2), np.zeros(4)])
        with pytest.raises(ValueError):
            Mlp(weights=[np.zeros((2, 3))], biases=[np.zeros(3)])
        with pytest.raises(ValueError):
            Mlp(weights=[], biases=[])

    def test_glorot_bounds_and_zero_biases(self):
        rng = np.random.default_rng(0)
        mlp = Mlp.init([10, 20, 5], "relu", rng)
        bound0 = np.sqrt(6.0 / 30.0)
        assert np.abs(mlp.weights[0]).max() <= bound0
        assert all(np.all(b == 0.0) for b in mlp.biases)


class TestForwardOnly:
    """``forward`` runs on reused scratch; ``forward_cached`` keeps fresh arrays."""

    @pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
    def test_matches_cached_forward_bit_for_bit(self, act):
        rng = np.random.default_rng(40)
        mlp = Mlp.init([3, 16, 8, 5], act, rng)
        for rows in (4, 300, 2, 300, 57, 1):  # grow, shrink, regrow
            x = 20.0 * rng.normal(size=(rows, 3))  # large |z| reaches both sigmoid branches
            assert np.array_equal(mlp.forward(x), mlp.forward_cached(x)[0])
        point = rng.normal(size=3)
        out = mlp.forward(point)
        assert out.shape == (5,)
        assert np.array_equal(out, mlp.forward_cached(point)[0])

    def test_second_call_leaves_first_result_alone(self):
        rng = np.random.default_rng(41)
        mlp = Mlp.init([2, 6, 3], "tanh", rng)
        x1, x2 = rng.normal(size=(10, 2)), rng.normal(size=(10, 2))
        first = mlp.forward(x1)
        kept = first.copy()
        mlp.forward(x2)
        assert np.array_equal(first, kept)

    def test_scratch_is_reused_after_warm_up(self):
        rng = np.random.default_rng(42)
        mlp = Mlp.init([2, 6, 4, 3], "relu", rng)
        mlp.forward(rng.normal(size=(50, 2)))
        buffers = list(mlp._scratch)
        assert len(buffers) == 2
        for rows in (50, 7, 1, 49):
            mlp.forward(rng.normal(size=(rows, 2)))
        assert all(now is then for now, then in zip(mlp._scratch, buffers))
        mlp.forward(rng.normal(size=(51, 2)))  # a larger batch grows every buffer
        assert all(now is not then for now, then in zip(mlp._scratch, buffers))

    def test_copy_does_not_share_scratch(self):
        rng = np.random.default_rng(43)
        mlp = Mlp.init([2, 5, 3], "tanh", rng)
        x = rng.normal(size=(8, 2))
        expected = mlp.forward(x)
        twin = mlp.copy()
        assert np.array_equal(twin.forward(x), expected)
        assert not any(np.shares_memory(a, b) for a in mlp._scratch for b in twin._scratch)

    def test_output_is_not_scratch(self):
        rng = np.random.default_rng(44)
        mlp = Mlp.init([2, 5, 3], "relu", rng)
        out = mlp.forward(rng.normal(size=(8, 2)))
        assert not any(np.shares_memory(out, b) for b in mlp._scratch)


class TestBackward:
    def test_param_grads_match_finite_differences(self):
        for trial in range(12):
            rng = np.random.default_rng(200 + trial)
            dims = [2, int(rng.integers(2, 6)), 3]
            act = ("tanh", "sigmoid")[trial % 2]  # smooth, so FD is trustworthy
            mlp = Mlp.init(dims, act, rng)
            x = rng.normal(size=(5, 2))
            weighting = rng.normal(size=(5, 3))
            _, cache = mlp.forward_cached(x)
            grads, _ = mlp.backward(cache, weighting)
            numeric = numeric_param_grads(mlp, x, weighting)
            assert grads.shape == mlp.params.shape
            assert np.allclose(grads, numeric, atol=1e-7)

    def test_input_grads_match_finite_differences(self):
        rng = np.random.default_rng(77)
        mlp = Mlp.init([3, 6, 2], "tanh", rng)
        x = rng.normal(size=3)
        weighting = rng.normal(size=2)
        _, cache = mlp.forward_cached(x)
        _, dx = mlp.backward(cache, weighting)
        eps = 1e-6
        for i in range(3):
            shift = np.zeros(3)
            shift[i] = eps
            fd = (np.dot(weighting, mlp.forward(x + shift))
                  - np.dot(weighting, mlp.forward(x - shift))) / (2 * eps)
            assert dx[i] == pytest.approx(fd, abs=1e-7)

    def test_upstream_linearity(self):
        rng = np.random.default_rng(9)
        mlp = Mlp.init([2, 4, 3], "tanh", rng)
        x = rng.normal(size=(6, 2))
        _, cache = mlp.forward_cached(x)
        u1 = rng.normal(size=(6, 3))
        u2 = rng.normal(size=(6, 3))
        g1, _ = mlp.backward(cache, u1)
        g2, _ = mlp.backward(cache, u2)
        g12, _ = mlp.backward(cache, 2.0 * u1 - 3.0 * u2)
        assert np.allclose(g12, g1 * 2.0 - g2 * 3.0, atol=1e-12)

    @pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
    def test_inputs_only_cache_gives_finite_difference_grads(self, act):
        rng = np.random.default_rng(210)
        mlp = Mlp.init([2, 5, 4, 3], act, rng)
        x = rng.normal(size=(6, 2))
        weighting = rng.normal(size=(6, 3))
        _, cache = mlp.forward_cached(x)
        inputs, single = cache
        assert len(inputs) == mlp.num_layers and not single
        assert np.array_equal(inputs[0], x)
        grads, _ = mlp.backward(cache, weighting)
        numeric = numeric_param_grads(mlp, x, weighting)
        assert np.allclose(grads, numeric, atol=1e-7)

    def test_relu_subgradient_at_zero_is_zero(self):
        mlp = Mlp(
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.array([0.0]), np.array([0.0])],
            activation="relu",
        )
        _, cache = mlp.forward_cached(np.array([0.0]))
        grads, dx = mlp.backward(cache, np.array([1.0]))
        assert dx[0] == 0.0
        assert grads[0] == 0.0  # weights[0][0, 0]

    def test_upstream_shape_checked(self):
        mlp = Mlp.init([2, 3], rng=np.random.default_rng(0))
        _, cache = mlp.forward_cached(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            mlp.backward(cache, np.zeros((4, 2)))


class TestFlatParams:
    """``params`` is the one parameter vector; weights and biases view it."""

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        mlp = Mlp.init([4, 7, 3], "relu", rng)
        layout = np.concatenate([p.ravel() for pair in zip(mlp.weights, mlp.biases) for p in pair])
        assert mlp.params.shape == (mlp.num_params,)
        assert np.array_equal(mlp.params, layout)
        other = Mlp.init([4, 7, 3], "relu", np.random.default_rng(99))
        other.params[:] = mlp.params
        x = rng.normal(size=(5, 4))
        assert np.array_equal(other.forward(x), mlp.forward(x))

    def test_wrong_length_rejected(self):
        mlp = Mlp.init([2, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="expected 6 parameters"):
            mlp_from_header(mlp_header(mlp), np.zeros(mlp.num_params + 1))

    def test_copy_is_independent(self):
        mlp = Mlp.init([2, 3], rng=np.random.default_rng(0))
        dup = mlp.copy()
        dup.weights[0][0, 0] += 1.0
        assert mlp.weights[0][0, 0] != dup.weights[0][0, 0]

    def test_weights_and_biases_are_views_of_params(self):
        rng = np.random.default_rng(32)
        mlp = Mlp.init([3, 5, 2], "tanh", rng)
        for p in mlp.weights + mlp.biases:
            assert np.shares_memory(p, mlp.params)
        x = rng.normal(size=(4, 3))
        before = mlp.forward(x)
        mlp.params[-1] += 1.0  # the last bias entry
        assert mlp.biases[-1][-1] == mlp.params[-1]
        assert np.array_equal(mlp.forward(x)[:, -1], before[:, -1] + 1.0)
        assert np.array_equal(mlp.forward(x)[:, 0], before[:, 0])

    def test_constructor_copies_its_inputs(self):
        w, b = np.array([[1.0]]), np.array([1.0])
        mlp = Mlp(weights=[w], biases=[b])
        assert mlp.forward(np.array([1.0]))[0] == 2.0
        w[0, 0] = 9.0
        assert mlp.forward(np.array([1.0]))[0] == 2.0
        b[0] = -5.0
        assert mlp.forward(np.array([1.0]))[0] == 2.0

    def test_bind_reseats_the_views(self):
        rng = np.random.default_rng(33)
        mlp = Mlp.init([2, 4, 3], "relu", rng)
        x = rng.normal(size=(6, 2))
        expected = mlp.forward(x)
        outer = np.concatenate([np.ones(3), mlp.params, np.ones(2)])
        mlp.bind(outer[3:-2])
        assert np.shares_memory(mlp.params, outer)
        assert all(np.shares_memory(p, outer) for p in mlp.weights + mlp.biases)
        assert np.array_equal(mlp.forward(x), expected)
        outer[3:-2] = 0.0
        assert np.array_equal(mlp.forward(x), np.zeros((6, 3)))

    def test_bind_rejects_a_vector_of_the_wrong_layout(self):
        mlp = Mlp.init([2, 3], rng=np.random.default_rng(34))
        n = mlp.num_params
        for bad in (np.zeros(n + 1), np.zeros(n, dtype=np.float32), np.zeros(2 * n)[::2]):
            with pytest.raises(ValueError):
                mlp.bind(bad)


class TestOptimizers:
    def quadratic_loss(self, mlp: Mlp) -> float:
        # L(theta) = ||theta - 1||^2 over the parameter vector
        return float(np.sum((mlp.params - 1.0) ** 2))

    def quadratic_grads(self, mlp: Mlp) -> np.ndarray:
        return 2.0 * (mlp.params - 1.0)

    @pytest.mark.parametrize("name", ["sgd", "adam"])
    def test_converges_on_quadratic(self, name):
        mlp = Mlp.init([3, 4, 2], "relu", np.random.default_rng(8))
        opt = make_optimizer(name, mlp, lr=0.05)
        for _ in range(500):
            opt.step(self.quadratic_grads(mlp))
        assert self.quadratic_loss(mlp) < 1e-4

    def test_sgd_step_is_exact(self):
        mlp = Mlp.init([2, 2], rng=np.random.default_rng(4))
        before = mlp.params.copy()
        g = self.quadratic_grads(mlp)
        Sgd(mlp, lr=0.1).step(g)
        assert np.allclose(mlp.params, before - 0.1 * g, atol=1e-15)

    def test_non_finite_gradients_raise(self):
        mlp = Mlp.init([2, 2], rng=np.random.default_rng(4))
        g = np.zeros(mlp.num_params)
        g[0] = np.inf  # weights[0][0, 0]
        for opt in (Sgd(mlp, 0.1), Adam(mlp, 0.1)):
            with pytest.raises(FloatingPointError):
                opt.step(g)

    def test_nan_in_a_bias_slot_raises(self):
        mlp = Mlp.init([2, 3, 2], rng=np.random.default_rng(5))
        before = mlp.params.copy()
        g = np.zeros(mlp.num_params)
        g[mlp.weights[0].size + 1] = np.nan  # biases[0][1]
        for opt in (Sgd(mlp, 0.1), Adam(mlp, 0.1)):
            with pytest.raises(FloatingPointError):
                opt.step(g)
        assert np.array_equal(mlp.params, before)

    def test_unknown_name_rejected(self):
        mlp = Mlp.init([2, 2], rng=np.random.default_rng(4))
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", mlp, 0.1)

    def test_adam_first_step_magnitude(self):
        # with fresh state the first Adam update is lr * sign(grad)
        mlp = Mlp.init([1, 1], rng=np.random.default_rng(4))
        before = mlp.params.copy()
        g = np.array([123.0, -0.5])  # weights[0][0, 0], biases[0][0]
        Adam(mlp, lr=0.01).step(g)
        delta = mlp.params - before
        assert delta[0] == pytest.approx(-0.01, rel=1e-6)
        assert delta[1] == pytest.approx(0.01, rel=1e-6)


class TestCheckpoints:
    def test_blob_round_trip(self, tmp_path):
        path = tmp_path / "x.kfc"
        params = np.arange(5, dtype=np.float64)
        write_blob(path, {"kind": "demo", "z": 1}, params)
        header, loaded = read_blob(path)
        assert header == {"kind": "demo", "z": 1}
        assert np.array_equal(loaded, params)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.kfc"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_blob(path)

    def test_mlp_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        mlp = Mlp.init([3, 9, 4], "sigmoid", rng)
        path = tmp_path / "mlp.kfc"
        save_mlp(mlp, path)
        loaded = load_mlp(path)
        assert loaded.activation == "sigmoid"
        x = rng.normal(size=(8, 3))
        assert np.array_equal(loaded.forward(x), mlp.forward(x))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.kfc"
        write_blob(path, {"kind": "something-else"}, np.zeros(1))
        with pytest.raises(ValueError, match="mlp"):
            load_mlp(path)

    def test_damaged_checkpoint_rejected(self, tmp_path, damage):
        path = tmp_path / "mlp.kfc"
        save_mlp(Mlp.init([3, 5, 2], rng=np.random.default_rng(7)), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError):
            load_mlp(path)
