import numpy as np
import pytest

from kforms.data import SurfaceDatasetSpec, gen_surfaces
from kforms.model import TrainConfig, build_classifier
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
    _activate,
    _activate_grad,
    _layer_views,
)
from kforms.quadrature import mlp_rows


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

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match=r"^activation must be one of \('relu', "):
            Mlp(weights=[np.zeros((2, 3))], biases=[np.zeros(2)], activation="gelu")

    @pytest.mark.parametrize("slot", ["weight", "bias"])
    def test_non_finite_parameters_rejected(self, slot):
        weights, biases = [np.zeros((2, 3)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)]
        (weights if slot == "weight" else biases)[1][0] = np.inf
        with pytest.raises(ValueError, match="^layer 1: non-finite parameters$"):
            Mlp(weights, biases)

    @pytest.mark.parametrize("dims", [[], [3]])
    def test_init_needs_an_input_and_an_output_size(self, dims):
        with pytest.raises(ValueError, match="^dims needs at least input and output size$"):
            Mlp.init(dims, rng=np.random.default_rng(0))

    def test_glorot_bounds_and_zero_biases(self):
        rng = np.random.default_rng(0)
        mlp = Mlp.init([10, 20, 5], "relu", rng)
        bound0 = np.sqrt(6.0 / 30.0)
        assert np.abs(mlp.weights[0]).max() <= bound0
        assert all(np.all(b == 0.0) for b in mlp.biases)


def buffers(mlp: Mlp) -> list[np.ndarray]:
    """Every scratch buffer of an Mlp: hidden activations, then layer input gradients."""
    return list(mlp._scratch) + list(mlp._grad_scratch)


def train_pass(mlp: Mlp, x: np.ndarray, upstream: np.ndarray):
    out, cache = mlp.forward_cached(x)
    grad, dx = mlp.backward(cache, upstream)
    return out, cache, grad, dx


class TestForwardOnly:
    """``forward`` runs on reused scratch and returns a fresh array, bit
    for bit the output of ``forward_cached``."""

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
        scratch = list(mlp._scratch)
        assert len(scratch) == 2
        for rows in (50, 7, 1, 49):
            mlp.forward(rng.normal(size=(rows, 2)))
        assert all(now is then for now, then in zip(mlp._scratch, scratch))
        mlp.forward(rng.normal(size=(51, 2)))  # a larger batch grows every buffer
        assert all(now is not then for now, then in zip(mlp._scratch, scratch))

    def test_copy_does_not_share_scratch(self):
        rng = np.random.default_rng(43)
        mlp = Mlp.init([2, 5, 3], "tanh", rng)
        x = rng.normal(size=(8, 2))
        expected = mlp.forward(x)
        twin = Mlp(mlp.weights, mlp.biases, mlp.activation)
        assert np.array_equal(twin.forward(x), expected)
        assert not any(np.shares_memory(a, b) for a in mlp._scratch for b in twin._scratch)

    def test_output_is_not_scratch(self):
        rng = np.random.default_rng(44)
        mlp = Mlp.init([2, 5, 3], "relu", rng)
        out = mlp.forward(rng.normal(size=(8, 2)))
        assert not any(np.shares_memory(out, b) for b in mlp._scratch)


class TestTrainingScratch:
    """``forward_cached`` keeps views of the forward scratch and ``backward``
    writes each layer's input gradient, ``dx`` included, to a second set
    of reused buffers; the forward outputs and the parameter gradient
    are fresh arrays."""

    def test_buffers_are_reused_after_warm_up(self):
        rng = np.random.default_rng(45)
        mlp = Mlp.init([2, 6, 4, 3], "relu", rng)
        train_pass(mlp, rng.normal(size=(50, 2)), rng.normal(size=(50, 3)))
        then = buffers(mlp)
        assert len(then) == 2 + 3
        for rows in (50, 7, 1, 49):
            x, upstream = rng.normal(size=(rows, 2)), rng.normal(size=(rows, 3))
            _, cache, _, dx = train_pass(mlp, x, upstream)
            assert all(now is was for now, was in zip(buffers(mlp), then))
            inputs = cache[0]
            assert all(np.shares_memory(a, buf) for a, buf in zip(inputs[1:], mlp._scratch))
            assert np.shares_memory(dx, mlp._grad_scratch[0])
        train_pass(mlp, rng.normal(size=(51, 2)), rng.normal(size=(51, 3)))  # grows every buffer
        assert all(now is not was for now, was in zip(buffers(mlp), then))

    def test_copy_shares_no_buffer_of_either_kind(self):
        rng = np.random.default_rng(46)
        mlp = Mlp.init([2, 5, 4, 3], "tanh", rng)
        x, upstream = rng.normal(size=(8, 2)), rng.normal(size=(8, 3))
        expected = mlp.forward(x)
        _, _, grad, dx = train_pass(mlp, x, upstream)
        twin = Mlp(mlp.weights, mlp.biases, mlp.activation)
        assert np.array_equal(twin.forward(x), expected)
        _, _, twin_grad, twin_dx = train_pass(twin, x, upstream)
        assert np.array_equal(twin_grad, grad) and np.array_equal(twin_dx, dx)
        assert not any(np.shares_memory(a, b) for a in buffers(mlp) for b in buffers(twin))

    def test_outputs_and_grad_are_not_scratch(self):
        rng = np.random.default_rng(47)
        mlp = Mlp.init([2, 5, 4, 3], "sigmoid", rng)
        x = rng.normal(size=(8, 2))
        plain = mlp.forward(x)
        out, _, grad, _ = train_pass(mlp, x, rng.normal(size=(8, 3)))
        for fresh in (plain, out, grad):
            assert not any(np.shares_memory(fresh, b) for b in buffers(mlp))
        assert not np.shares_memory(grad, mlp.params)

    @pytest.mark.parametrize("later", ["forward", "forward_cached"])
    def test_stale_cache_is_refused(self, later):
        rng = np.random.default_rng(48)
        mlp = Mlp.init([2, 5, 3], "relu", rng)
        _, cache = mlp.forward_cached(rng.normal(size=(6, 2)))
        getattr(mlp, later)(rng.normal(size=(6, 2)))
        with pytest.raises(ValueError, match="stale cache"):
            mlp.backward(cache, np.ones((6, 3)))

    def test_other_mlps_leave_a_cache_fresh(self):
        rng = np.random.default_rng(49)
        mlp, other = Mlp.init([2, 5, 3], "relu", rng), Mlp.init([2, 5, 3], "relu", rng)
        x, upstream = rng.normal(size=(6, 2)), rng.normal(size=(6, 3))
        _, _, expected, _ = train_pass(mlp, x, upstream)
        _, cache = mlp.forward_cached(x)
        other.forward(2.0 * x)
        other.forward_cached(3.0 * x)
        grad, _ = mlp.backward(cache, upstream)
        assert np.array_equal(grad, expected)

    @pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
    def test_backward_twice_is_bit_identical(self, act):
        rng = np.random.default_rng(50)
        mlp = Mlp.init([3, 16, 8, 5], act, rng)
        x, upstream = rng.normal(size=(40, 3)), rng.normal(size=(40, 5))
        _, cache = mlp.forward_cached(x)
        grad1, dx1 = mlp.backward(cache, upstream)
        dx1 = dx1.copy()  # a view of scratch, rewritten by the next backward
        grad2, dx2 = mlp.backward(cache, upstream)
        assert np.array_equal(grad1, grad2) and np.array_equal(dx1, dx2)
        assert grad1 is not grad2

    def test_training_passes_do_not_fault_pages(self):
        resource = pytest.importorskip(
            "resource", reason="needs resource.getrusage to count minor page faults"
        )
        # a surfaces item: 162 triangles x 21 quadrature nodes through [3, 16, 8, 6]
        rng = np.random.default_rng(51)
        mlp = Mlp.init([3, 16, 8, 6], "relu", rng)
        x, upstream = rng.normal(size=(3402, 3)), rng.normal(size=(3402, 6))
        for _ in range(3):
            train_pass(mlp, x, upstream)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            train_pass(mlp, x, upstream)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 500, f"{faults} minor page faults in 50 training passes"


def plain_pass(mlp: Mlp, x: np.ndarray, upstream: np.ndarray):
    """Output, parameter gradient and input gradient in plain products:
    ``a @ w.T + b``, the activation, and ``dz.sum(axis=0)`` over a
    C-contiguous ``dz``."""
    acts = [x]
    last = mlp.num_layers - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = acts[-1] @ w.T + b
        acts.append(z if l == last else _activate(mlp.activation, z))
    grad = np.zeros_like(mlp.params)
    grad_w, grad_b = _layer_views(grad, mlp.dims)
    dz = np.array(upstream, dtype=np.float64, order="C")
    for l in range(last, -1, -1):
        if l < last:
            dz = dz * _activate_grad(mlp.activation, acts[l + 1])
        grad_w[l] += dz.T @ acts[l]
        grad_b[l] += dz.sum(axis=0)
        dz = dz @ mlp.weights[l]
    return acts[-1], grad, dz


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes: -0.0 and +0.0 differ."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_like_fresh(mlp: Mlp, x: np.ndarray) -> None:
    """A pass of ``mlp`` over ``x`` gives the bits of a new Mlp with the
    same parameters, and leaves its ``w.T`` copies and bias rows holding
    the bits of ``params``."""
    out = mlp.forward(x)
    assert same_bits(out, Mlp(mlp.weights, mlp.biases, mlp.activation).forward(x))
    rows = x.shape[0]
    for w, b, wt, bias_rows in zip(mlp.weights, mlp.biases, mlp._wt, mlp._bias_rows):
        assert wt is None or same_bits(wt, np.ascontiguousarray(w.T))
        assert same_bits(bias_rows[:rows], np.tile(b, (rows, 1)))


class TestContiguousProducts:
    """Batches of two or more rows multiply by a contiguous copy of each
    ``w.T`` and add each bias from rows of copies, both rebuilt
    only when ``params`` changes bitwise or the batch outgrows them, and
    ``backward`` sums the bias gradient with einsum; none may change a
    bit."""

    # the surfaces form MLP; one whose (16, 4) layer keeps w.T and whose
    # width-one layers run through gemv; a width-one hidden layer
    DIMS = ([3, 16, 8, 6], [3, 16, 4, 1], [2, 1, 16, 3])

    @pytest.mark.parametrize("rows", [1, 2, 3, 186, 257, 3402])
    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
    def test_pass_matches_plain_products_bit_for_bit(self, act, dims, rows):
        rng = np.random.default_rng(60)
        mlp = Mlp.init(dims, act, rng)
        x = 3.0 * rng.normal(size=(rows, dims[0]))  # reaches both sigmoid branches
        upstream = rng.normal(size=(rows, dims[-1]))
        out, _, grad, dx = train_pass(mlp, x, upstream)
        expected_out, expected_grad, expected_dx = plain_pass(mlp, x, upstream)
        assert np.array_equal(out, expected_out)
        assert np.array_equal(grad, expected_grad)
        assert np.array_equal(dx, expected_dx)

    # the default form MLPs of paths, surfaces and graphs, and a graphs head
    WORKLOAD_DIMS = ([2, 16, 8, 3], [3, 16, 8, 6], [3, 16, 8, 24], [8, 16, 8, 2])

    @pytest.mark.parametrize("dims", WORKLOAD_DIMS)
    def test_every_small_batch_matches_plain_products_bit_for_bit(self, dims):
        rng = np.random.default_rng(72)
        mlp = Mlp.init(dims, "relu", rng)
        mlp.params += 0.1 * rng.normal(size=mlp.num_params)  # nonzero biases
        x = rng.normal(size=(300, dims[0]))
        upstream = rng.normal(size=(300, dims[-1]))
        for rows in range(2, 301):
            out, _, grad, dx = train_pass(mlp, x[:rows], upstream[:rows])
            expected_out, expected_grad, expected_dx = plain_pass(mlp, x[:rows], upstream[:rows])
            assert same_bits(out, expected_out), rows
            assert same_bits(grad, expected_grad), rows
            assert same_bits(dx, expected_dx), rows

    @pytest.mark.parametrize("rows", [1, 2, 186])
    def test_a_multi_row_pass_fills_the_bias_rows_and_a_one_row_pass_does_not(self, rows):
        mlp = Mlp.init([2, 16, 8, 3], "relu", np.random.default_rng(73))
        mlp.forward_cached(np.random.default_rng(74).normal(size=(rows, 2)))
        multi = rows > 1
        assert (mlp._filled == rows) is multi
        assert (mlp._built is not None) is multi

    def test_copies_only_where_the_bits_hold(self):
        mlp = Mlp.init([3, 16, 8, 4, 1, 8], "relu", np.random.default_rng(61))
        # fan-in below 16, or fan-out a multiple of 8, and no width-one side
        assert [wt is not None for wt in mlp._wt] == [True, True, True, False, False]
        assert all(wt.shape == w.T.shape and wt.flags.c_contiguous
                   for wt, w in zip(mlp._wt, mlp.weights) if wt is not None)
        wide = Mlp.init([3, 16, 4, 16], "relu", np.random.default_rng(61))
        assert [wt is not None for wt in wide._wt] == [True, False, True]

    def test_upstream_layout_does_not_change_the_bits(self):
        rng = np.random.default_rng(62)
        mlp = Mlp.init([3, 16, 8, 6], "tanh", rng)
        x = rng.normal(size=(3402, 3))
        _, cache = mlp.forward_cached(x)
        wide = rng.normal(size=(2 * 3402, 6))
        for upstream in (np.asfortranarray(wide[:3402]), wide[::2]):
            assert not upstream.flags.c_contiguous
            grad, dx = mlp.backward(cache, upstream)
            dx = dx.copy()  # a view of scratch, rewritten by the next backward
            expected, expected_dx = mlp.backward(cache, np.ascontiguousarray(upstream))
            assert np.array_equal(grad, expected) and np.array_equal(dx, expected_dx)

    @pytest.mark.parametrize("rows", [2, 186, 3402])
    def test_in_place_steps_reach_the_next_pass(self, rows):
        rng = np.random.default_rng(64)
        mlp = Mlp.init([3, 16, 8, 6], "sigmoid", rng)
        x, upstream = rng.normal(size=(rows, 3)), rng.normal(size=(rows, 6))
        optimizer = Adam(mlp, lr=0.1)
        for _ in range(3):
            _, _, grad, _ = train_pass(mlp, x, upstream)
            optimizer.step(grad)
            fresh = Mlp(mlp.weights, mlp.biases, mlp.activation)
            assert np.array_equal(mlp.forward(x), fresh.forward(x))
        mlp.params[:] = rng.normal(size=mlp.num_params)
        fresh = Mlp(mlp.weights, mlp.biases, mlp.activation)
        assert np.array_equal(mlp.forward(x), fresh.forward(x))

    @pytest.mark.parametrize(
        "kind, layer, entry",
        [("weights", 0, (7, 1)), ("weights", 2, (5, 3)), ("biases", 1, 2), ("bind", None, None)],
    )
    def test_a_write_between_passes_reaches_the_next(self, kind, layer, entry):
        rng = np.random.default_rng(65)
        mlp = Mlp.init([3, 16, 8, 6], "tanh", rng)
        mlp.params += 0.1 * rng.normal(size=mlp.num_params)
        x = rng.normal(size=(186, 3))
        assert_like_fresh(mlp, x)
        if kind == "bind":
            mlp.bind(mlp.params + 0.5)
        else:
            getattr(mlp, kind)[layer][entry] += 0.25
        assert_like_fresh(mlp, x)

    def test_a_bias_turned_to_negative_zero_counts_as_a_change(self):
        mlp = Mlp.init([3, 16, 8, 6], "relu", np.random.default_rng(66))  # +0.0 biases
        x = np.random.default_rng(67).normal(size=(3402, 3))
        assert_like_fresh(mlp, x)
        mlp.biases[0][4] = -0.0
        assert_like_fresh(mlp, x)
        assert np.signbit(mlp._bias_rows[0][:, 4]).all()

    def test_a_larger_batch_rebuilds_the_bias_rows(self):
        rng = np.random.default_rng(68)
        mlp = Mlp.init([3, 16, 8, 6], "sigmoid", rng)
        mlp.params += rng.normal(size=mlp.num_params)
        for rows in (2, 186, 3402, 1000, 3403):
            assert_like_fresh(mlp, rng.normal(size=(rows, 3)))

    def test_a_step_refills_only_the_bias_rows_a_batch_uses(self):
        rng = np.random.default_rng(71)
        mlp = Mlp.init([3, 16, 8, 6], "relu", rng)
        mlp.params += 0.1 * rng.normal(size=mlp.num_params)
        x = rng.normal(size=(2048, 3))
        assert_like_fresh(mlp, x)
        before = [b.copy() for b in mlp.biases]
        Adam(mlp, 0.01).step(rng.normal(size=mlp.num_params))
        assert_like_fresh(mlp, x[:300])
        for old, bias_rows in zip(before, mlp._bias_rows):
            assert same_bits(bias_rows[300:], np.tile(old, (2048 - 300, 1)))  # left as they were
            bias_rows[300:] = np.nan  # a pass that read them would return NaN
        assert_like_fresh(mlp, x[:300])
        assert_like_fresh(mlp, x)  # the same params: fills rows 300..2047 only

    def test_a_classifier_restoring_its_best_params_gets_fresh_bits(self):
        cfg = TrainConfig(k=2, num_forms=2)
        item = gen_surfaces(SurfaceDatasetSpec(samples_per_class=1)).items[0]
        assert mlp_rows(2, cfg.steps) * item.complex.num_simplices(2) > 1
        clf = build_classifier(3, 2, cfg, np.random.default_rng(69))
        best = clf.params.copy()
        clf.params += 0.01  # the optimizer's steps since the best epoch
        clf.features(item)
        clf.params[:] = best
        fresh = build_classifier(3, 2, cfg, np.random.default_rng(70))
        fresh.params[:] = best
        assert same_bits(clf.features(item), fresh.features(item))

    def test_forward_passes_between_steps_do_not_fault_pages(self):
        resource = pytest.importorskip(
            "resource", reason="needs resource.getrusage to count minor page faults"
        )
        # a surfaces item scored between optimizer steps: every pass rebuilds
        rng = np.random.default_rng(71)
        mlp = Mlp.init([3, 16, 8, 6], "relu", rng)
        x, grad = rng.normal(size=(3402, 3)), rng.normal(size=mlp.num_params)
        optimizer = Adam(mlp, lr=1e-3)
        for _ in range(3):
            mlp.forward(x)
            optimizer.step(grad)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            mlp.forward(x)
            optimizer.step(grad)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 500, f"{faults} minor page faults in 50 forward passes"


class TestRowIndependence:
    """``rows_independent`` promises that a forward pass gives each row
    the bits it gets in any other batch; evaluation chunks rely on it."""

    @pytest.mark.parametrize("dims, expected", [
        ([3, 16, 8, 6], True),
        ([2, 31, 15, 2], True),
        ([3, 16, 4, 1], False),  # a width-one output
        ([2, 1, 16, 3], False),  # a width-one hidden layer
        ([2, 64, 32, 3], False),  # fan-in 64 and 32
        ([3, 32, 16, 6], False),  # fan-in 32
    ])
    def test_which_mlps_qualify(self, dims, expected):
        assert Mlp.init(dims, "relu", np.random.default_rng(0)).rows_independent is expected

    @pytest.mark.parametrize("dims", [[3, 16, 8, 6], [2, 31, 15, 2], [3, 24, 12, 9]])
    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_a_row_keeps_its_bits_in_any_batch(self, dims, act):
        rng = np.random.default_rng(65)
        mlp = Mlp.init(dims, act, rng)
        assert mlp.rows_independent
        x = rng.normal(size=(1860, dims[0]))
        full = mlp.forward(x)
        for start, stop in [(0, 186), (186, 372), (5, 7), (300, 700), (1500, 1860)]:
            assert np.array_equal(mlp.forward(x[start:stop]), full[start:stop])


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
        inputs, single, _ = cache
        assert len(inputs) == mlp.num_layers and not single
        assert np.array_equal(inputs[0], x)
        grads, _ = mlp.backward(cache, weighting)
        numeric = numeric_param_grads(mlp, x, weighting)
        assert np.allclose(grads, numeric, atol=1e-7)

    @pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid"])
    def test_skipping_the_input_gradient_keeps_grad_bit_identical(self, act):
        rng = np.random.default_rng(220)
        mlp = Mlp.init([3, 16, 8, 6], act, rng)
        x, upstream = rng.normal(size=(60, 3)), rng.normal(size=(60, 6))
        _, cache = mlp.forward_cached(x)
        grad, dx = mlp.backward(cache, upstream, input_grad=False)
        assert dx is None
        assert mlp._grad_scratch[0].shape[0] == 0  # the (60, 3) product was never made
        full, dx = mlp.backward(cache, upstream)
        assert np.array_equal(grad, full) and dx.shape == x.shape

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

    @pytest.mark.parametrize("x", [np.zeros((4, 2)), np.zeros(2)], ids=["batch", "point"])
    def test_list_upstream_of_the_wrong_shape_raises_value_error(self, x):
        mlp = Mlp.init([2, 3, 2], rng=np.random.default_rng(0))
        _, cache = mlp.forward_cached(x)
        upstream = [[1.0, 2.0, 3.0]] * 4 if x.ndim == 2 else [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="upstream shape"):
            mlp.backward(cache, upstream)


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
        dup = Mlp(mlp.weights, mlp.biases, mlp.activation)
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

    @pytest.mark.parametrize("dims", [[3], [3, 0], [3, 2.0], [3, True], "3,2", None], ids=repr)
    def test_malformed_header_dims_rejected(self, dims):
        header = {**mlp_header(Mlp.init([3, 2], rng=np.random.default_rng(0))), "dims": dims}
        with pytest.raises(ValueError) as info:
            mlp_from_header(header, np.zeros(8))
        assert str(info.value) == (
            f"checkpoint dims {dims!r} are not a list of at least two positive ints"
        )

    def test_damaged_checkpoint_rejected(self, tmp_path, damage):
        path = tmp_path / "mlp.kfc"
        save_mlp(Mlp.init([3, 5, 2], rng=np.random.default_rng(7)), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError):
            load_mlp(path)
