import numpy as np
import pytest

from kforms.nn import (
    Adam,
    GradientBuffer,
    Mlp,
    Sgd,
    load_mlp,
    make_optimizer,
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
    """Central differences of sum(weighting * forward(x)) in the flat layout."""
    base = mlp.get_flat()
    out = np.zeros_like(base)
    for i in range(base.size):
        for sign in (1.0, -1.0):
            shifted = base.copy()
            shifted[i] += sign * eps
            mlp.set_flat(shifted)
            out[i] += sign * float(np.sum(weighting * mlp.forward(x)))
    mlp.set_flat(base)
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
            assert np.allclose(grads.get_flat(), numeric, atol=1e-7)

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
        expected = g1.get_flat() * 2.0 - g2.get_flat() * 3.0
        assert np.allclose(g12.get_flat(), expected, atol=1e-12)

    def test_relu_subgradient_at_zero_is_zero(self):
        mlp = Mlp(
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.array([0.0]), np.array([0.0])],
            activation="relu",
        )
        _, cache = mlp.forward_cached(np.array([0.0]))
        grads, dx = mlp.backward(cache, np.array([1.0]))
        assert dx[0] == 0.0
        assert grads.weights[0][0, 0] == 0.0

    def test_upstream_shape_checked(self):
        mlp = Mlp.init([2, 3], rng=np.random.default_rng(0))
        _, cache = mlp.forward_cached(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            mlp.backward(cache, np.zeros((4, 2)))


class TestFlatParams:
    def test_round_trip(self):
        rng = np.random.default_rng(31)
        mlp = Mlp.init([4, 7, 3], "relu", rng)
        flat = mlp.get_flat()
        assert flat.shape == (mlp.num_params,)
        other = Mlp.init([4, 7, 3], "relu", np.random.default_rng(99))
        other.set_flat(flat)
        x = rng.normal(size=(5, 4))
        assert np.array_equal(other.forward(x), mlp.forward(x))

    def test_wrong_length_rejected(self):
        mlp = Mlp.init([2, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp.set_flat(np.zeros(mlp.num_params + 1))

    def test_copy_is_independent(self):
        mlp = Mlp.init([2, 3], rng=np.random.default_rng(0))
        dup = mlp.copy()
        dup.weights[0][0, 0] += 1.0
        assert mlp.weights[0][0, 0] != dup.weights[0][0, 0]


class TestGradientBuffer:
    def test_add_and_scale(self):
        mlp = Mlp.init([2, 3], rng=np.random.default_rng(1))
        a = GradientBuffer.zeros_for(mlp)
        b = GradientBuffer.zeros_for(mlp)
        b.weights[0][:] = 2.0
        b.biases[0][:] = -4.0
        a.add(b, scale=0.5)
        assert np.all(a.weights[0] == 1.0)
        assert np.all(a.biases[0] == -2.0)
        a.scale(3.0)
        assert np.all(a.weights[0] == 3.0)

    def test_all_finite(self):
        mlp = Mlp.init([2, 2], rng=np.random.default_rng(1))
        g = GradientBuffer.zeros_for(mlp)
        assert g.all_finite()
        g.biases[0][0] = np.nan
        assert not g.all_finite()


class TestOptimizers:
    def quadratic_loss(self, mlp: Mlp) -> float:
        # L(theta) = ||theta - 1||^2 expressed through the flat view
        return float(np.sum((mlp.get_flat() - 1.0) ** 2))

    def quadratic_grads(self, mlp: Mlp) -> GradientBuffer:
        g = GradientBuffer.zeros_for(mlp)
        flat = 2.0 * (mlp.get_flat() - 1.0)
        pos = 0
        for l in range(mlp.num_layers):
            for arr in (g.weights[l], g.biases[l]):
                arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
                pos += arr.size
        return g

    @pytest.mark.parametrize("name", ["sgd", "adam"])
    def test_converges_on_quadratic(self, name):
        mlp = Mlp.init([3, 4, 2], "relu", np.random.default_rng(8))
        opt = make_optimizer(name, mlp, lr=0.05)
        for _ in range(500):
            opt.step(self.quadratic_grads(mlp))
        assert self.quadratic_loss(mlp) < 1e-4

    def test_sgd_step_is_exact(self):
        mlp = Mlp.init([2, 2], rng=np.random.default_rng(4))
        before = mlp.get_flat()
        g = self.quadratic_grads(mlp)
        gflat = g.get_flat()
        Sgd(mlp, lr=0.1).step(g)
        assert np.allclose(mlp.get_flat(), before - 0.1 * gflat, atol=1e-15)

    def test_non_finite_gradients_raise(self):
        mlp = Mlp.init([2, 2], rng=np.random.default_rng(4))
        g = GradientBuffer.zeros_for(mlp)
        g.weights[0][0, 0] = np.inf
        for opt in (Sgd(mlp, 0.1), Adam(mlp, 0.1)):
            with pytest.raises(FloatingPointError):
                opt.step(g)

    def test_unknown_name_rejected(self):
        mlp = Mlp.init([2, 2], rng=np.random.default_rng(4))
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", mlp, 0.1)

    def test_adam_first_step_magnitude(self):
        # with fresh state the first Adam update is lr * sign(grad)
        mlp = Mlp.init([1, 1], rng=np.random.default_rng(4))
        before = mlp.get_flat()
        g = GradientBuffer.zeros_for(mlp)
        g.weights[0][0, 0] = 123.0
        g.biases[0][0] = -0.5
        Adam(mlp, lr=0.01).step(g)
        delta = mlp.get_flat() - before
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
