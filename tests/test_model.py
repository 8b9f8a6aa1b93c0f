import gc
import math
import weakref

import mpmath
import numpy as np
import pytest

from kforms.data import PathDatasetSpec, gen_paths
from kforms.model import (
    Dataset,
    Item,
    TrainConfig,
    TrainingDivergence,
    build_classifier,
    cross_entropy,
    evaluate,
    finite_difference_error,
    kfold_cv,
    load_classifier,
    readout_backward,
    readout_forward,
    rechain_dataset,
    save_classifier,
    stratified_folds,
    stratified_split,
    train,
)
import kforms.model as model
import kforms.quadrature as quadrature
from kforms.nn import Adam, Mlp, Sgd, read_blob
from kforms.simplicial import Embedding, apply_matrix_left, build_complex, standard_basis_chains
from test_pinned_training import CONFIG as MIXED_CONFIG, mixed_dataset


def tiny_paths(samples=8, points=6, seed=0) -> Dataset:
    return gen_paths(PathDatasetSpec(samples_per_class=samples, points_per_path=points, seed=seed))


def small_item(rng, label=0) -> Item:
    complex_ = build_complex([(0, 1, 2)], num_vertices=3)
    emb = Embedding(rng.normal(size=(3, 2)))
    return Item(complex_, emb, standard_basis_chains(complex_, 1), label)


class TestReadouts:
    X = np.array([[1.0, -2.0], [3.0, 4.0]])

    def test_forward_values(self):
        assert np.allclose(readout_forward("column_sum", self.X), [4.0, 2.0])
        assert np.allclose(readout_forward("column_l1", self.X), [4.0, 6.0])
        assert np.allclose(
            readout_forward("column_l2", self.X), [math.sqrt(10.0), math.sqrt(20.0)]
        )

    def test_unknown_readout_rejected(self):
        with pytest.raises(ValueError):
            readout_forward("column_max", self.X)
        with pytest.raises(ValueError):
            readout_backward("column_max", self.X, np.ones(2), np.ones(2))

    @pytest.mark.parametrize("kind", ["column_sum", "column_l1", "column_l2"])
    def test_backward_matches_finite_differences(self, kind):
        rng = np.random.default_rng(14)
        for trial in range(10):
            X = rng.normal(size=(4, 3)) + 0.5  # keep entries away from the l1 kink
            d_feats = rng.normal(size=3)
            feats = readout_forward(kind, X)
            dX = readout_backward(kind, X, feats, d_feats)
            eps = 1e-7
            for a in range(4):
                for b in range(3):
                    Xp, Xm = X.copy(), X.copy()
                    Xp[a, b] += eps
                    Xm[a, b] -= eps
                    fd = np.dot(
                        d_feats, readout_forward(kind, Xp) - readout_forward(kind, Xm)
                    ) / (2 * eps)
                    assert dX[a, b] == pytest.approx(fd, abs=1e-6)

    def test_l1_subgradient_at_zero_is_zero(self):
        X = np.array([[0.0, 1.0]])
        dX = readout_backward("column_l1", X, readout_forward("column_l1", X), np.ones(2))
        assert dX[0, 0] == 0.0
        assert dX[0, 1] == 1.0

    def test_l2_zero_column_gets_zero_gradient(self):
        X = np.array([[0.0, 2.0], [0.0, -1.0]])
        feats = readout_forward("column_l2", X)
        dX = readout_backward("column_l2", X, feats, np.ones(2))
        assert np.all(dX[:, 0] == 0.0)
        assert np.all(np.isfinite(dX))

    def test_row_order_is_irrelevant(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 2))
        shuffled = X[rng.permutation(6)]
        for kind in ("column_sum", "column_l1", "column_l2"):
            assert np.allclose(
                readout_forward(kind, X), readout_forward(kind, shuffled), atol=1e-12
            )


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 3, 10):
            loss, grad = cross_entropy(np.zeros(c), 0)
            assert loss == pytest.approx(math.log(c), abs=1e-12)
            assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_matches_mpmath_oracle(self):
        mpmath.mp.dps = 50
        rng = np.random.default_rng(21)
        for trial in range(20):
            logits = rng.normal(scale=3.0, size=int(rng.integers(2, 6)))
            label = int(rng.integers(logits.size))
            loss, grad = cross_entropy(logits, label)
            exps = [mpmath.e ** mpmath.mpf(z) for z in logits]
            total = sum(exps)
            expected = -mpmath.log(exps[label] / total)
            assert loss == pytest.approx(float(expected), abs=1e-12)
            for i in range(logits.size):
                p_i = float(exps[i] / total)
                assert grad[i] == pytest.approx(p_i - (i == label), abs=1e-12)

    def test_shift_invariance(self):
        logits = np.array([1.0, -2.0, 0.5])
        base, _ = cross_entropy(logits, 2)
        shifted, _ = cross_entropy(logits + 1000.0, 2)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_extreme_logits_stay_finite(self):
        loss, grad = cross_entropy(np.array([1e4, -1e4]), 1)
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grad))
        assert loss == pytest.approx(2e4, rel=1e-12)


class TestDataset:
    def test_label_bounds_checked(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="label"):
            Dataset((small_item(rng, label=5),), num_classes=2)

    @pytest.mark.parametrize("label", [1.0, True, np.float64(0.0), np.bool_(False), "1", None])
    def test_a_label_that_is_not_an_integer_is_refused(self, label):
        rng = np.random.default_rng(0)
        items = (small_item(rng, label=0), small_item(rng, label=label))
        with pytest.raises(ValueError) as info:
            Dataset(items, num_classes=2)
        assert str(info.value) == f"item 1: label {label!r} is not an integer"

    @pytest.mark.parametrize("num_classes", [2.0, True, np.float64(2.0), "2", None])
    def test_num_classes_that_is_not_an_integer_is_refused(self, num_classes):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError) as info:
            Dataset((small_item(rng, label=0),), num_classes=num_classes)
        assert str(info.value) == f"num_classes must be a positive integer, got {num_classes!r}"

    def test_numpy_integer_labels_are_accepted(self):
        rng = np.random.default_rng(0)
        items = (small_item(rng, label=np.int64(1)), small_item(rng, label=np.uint8(0)))
        data = Dataset(items, num_classes=np.int32(2))
        assert data.labels().tolist() == [1, 0]

    def test_ambient_dims_must_agree(self):
        rng = np.random.default_rng(0)
        complex_ = build_complex([(0, 1)], num_vertices=2)
        a = Item(complex_, Embedding(np.zeros((2, 2))), standard_basis_chains(complex_, 1), 0)
        b = Item(complex_, Embedding(np.zeros((2, 3))), standard_basis_chains(complex_, 1), 0)
        with pytest.raises(ValueError, match="ambient"):
            Dataset((a, b), num_classes=1)

    def test_subset_and_labels(self):
        data = tiny_paths(samples=3)
        sub = data.subset([0, 4, 8])
        assert len(sub) == 3
        assert np.array_equal(sub.labels(), data.labels()[[0, 4, 8]])

    def test_rechain_swaps_in_vertex_basis(self):
        data = tiny_paths(samples=2)
        flat = rechain_dataset(data, 0)
        assert flat.chain_dim == 0
        item = flat.items[0]
        assert len(item.chains) == item.complex.num_simplices(0)
        assert item.complex is data.items[0].complex


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-3
        assert cfg.batch_size == 16
        assert cfg.hidden_dim == 16
        assert cfg.steps == 5
        assert cfg.max_epochs == 100
        assert cfg.early_stop_patience == 40

    @pytest.mark.parametrize(
        "bad",
        [
            {"k": -1},
            {"num_forms": 0},
            {"lr": 0.0},
            {"max_epochs": -1},
            {"plateau_factor": 0.0},
            {"plateau_factor": 1.5},
            {"readout": "nope"},
            {"val_fraction": 1.0},
            {"early_stop_patience": 0},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    @pytest.mark.parametrize("lr", [math.inf, -math.inf, math.nan, 10**400])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match=r"^lr must be positive and finite, got "):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize(
        "name",
        ["k", "num_forms", "hidden_dim", "steps", "batch_size", "max_epochs",
         "early_stop_patience", "plateau_patience", "seed"],
    )
    def test_bool_in_an_int_field_rejected(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an int, got True$"):
            TrainConfig(**{name: True})

    @pytest.mark.parametrize(
        "name, value, kind",
        [("lr", True, "a number"), ("plateau_factor", True, "a number"),
         ("val_fraction", False, "a number"), ("lr", "0.1", "a number"), ("lr", None, "a number"),
         ("use_head", "no", "a bool"), ("use_head", 1, "a bool"), ("use_head", None, "a bool"),
         ("use_head", np.True_, "a bool"), ("hidden_dim", 2.5, "an int"),
         ("steps", 5.0, "an int"), ("seed", "0", "an int"), ("hidden_dim", np.int64(4), "an int"),
         ("val_fraction", np.float32(0.25), "a number")],
    )
    def test_value_of_the_wrong_type_rejected(self, name, value, kind):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{name: value})
        assert str(info.value) == f"{name} must be {kind}, got {value!r}"

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
            TrainConfig(seed=-1)

    def test_int_and_float_subclass_accepted_for_a_float(self):
        cfg = TrainConfig(lr=1, plateau_factor=np.float64(0.5), use_head=False)
        assert (cfg.lr, cfg.plateau_factor, cfg.use_head) == (1, 0.5, False)


class TestClassifier:
    def test_headless_needs_matching_classes(self):
        cfg = TrainConfig(num_forms=3, use_head=False)
        with pytest.raises(ValueError, match="headless"):
            build_classifier(2, 2, cfg, np.random.default_rng(0))

    def test_unknown_readout_rejected(self):
        from kforms.forms import NeuralKForm
        from kforms.model import KFormClassifier

        form = NeuralKForm.init(2, 1, 3, (4,), "tanh", np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^readout must be one of \('column_sum', "):
            KFormClassifier(form, None, "column_max")

    def test_head_input_dim_checked(self):
        from kforms.forms import NeuralKForm
        from kforms.model import KFormClassifier

        form = NeuralKForm.init(2, 1, 3, (4,), "tanh", np.random.default_rng(0))
        head = Mlp.init([5, 4, 2], "tanh", np.random.default_rng(0))
        with pytest.raises(ValueError, match="head"):
            KFormClassifier(form, head, "column_sum")

    def test_headless_logits_are_features(self):
        rng = np.random.default_rng(7)
        cfg = TrainConfig(num_forms=3, use_head=False, activation="tanh")
        clf = build_classifier(2, 3, cfg, rng)
        item = small_item(rng, label=1)
        assert np.array_equal(clf.forward(item), clf.features(item))

    @pytest.mark.parametrize("readout", ["column_sum", "column_l1", "column_l2"])
    @pytest.mark.parametrize("use_head", [True, False])
    def test_forward_matches_cached_forward_bit_for_bit(self, readout, use_head):
        rng = np.random.default_rng(12)
        cfg = TrainConfig(num_forms=3, readout=readout, use_head=use_head, activation="tanh")
        clf = build_classifier(2, 3, cfg, rng)
        data = tiny_paths(samples=2, points=7, seed=3)
        basis = rechain_dataset(data, 1)
        for item in data.items + basis.items:
            assert np.array_equal(clf.forward(item), clf.forward_cached(item)[0])

    def test_minimum_classes(self):
        with pytest.raises(ValueError, match="2 classes"):
            build_classifier(2, 1, TrainConfig(), np.random.default_rng(0))

    def test_norm_readouts_ignore_chain_orientation(self):
        rng = np.random.default_rng(9)
        complex_ = build_complex([(0, 1, 2)], num_vertices=3)
        emb = Embedding(rng.normal(size=(3, 2)))
        basis = standard_basis_chains(complex_, 1)
        flipped = apply_matrix_left(-np.eye(len(basis)), basis)
        for kind in ("column_l1", "column_l2"):
            cfg = TrainConfig(num_forms=2, readout=kind, activation="tanh")
            clf = build_classifier(2, 2, cfg, np.random.default_rng(9))
            a = clf.features(Item(complex_, emb, basis, 0))
            b = clf.features(Item(complex_, emb, flipped, 0))
            assert np.allclose(a, b, atol=1e-14)


class TestParameterVector:
    """One ``params`` vector per classifier: the form MLP's, then the head's."""

    @pytest.mark.parametrize("use_head", [True, False])
    def test_params_concatenate_and_are_shared(self, use_head):
        cfg = TrainConfig(num_forms=3, hidden_dim=4, use_head=use_head)
        clf = build_classifier(2, 3, cfg, np.random.default_rng(60))
        mlps = [clf.form.psi] + ([clf.head] if use_head else [])
        assert np.array_equal(clf.params, np.concatenate([m.params for m in mlps]))
        for mlp in mlps:
            assert np.shares_memory(mlp.params, clf.params)
            assert all(np.shares_memory(p, clf.params) for p in mlp.weights + mlp.biases)
        item = small_item(np.random.default_rng(61))
        before = clf.forward(item)
        clf.params[-1] += 1.0  # last bias of the head, or of the form MLP
        assert not np.array_equal(clf.forward(item), before)

    @pytest.mark.parametrize("use_head", [True, False])
    def test_backward_is_laid_out_like_params(self, use_head):
        rng = np.random.default_rng(62)
        cfg = TrainConfig(num_forms=3, hidden_dim=4, use_head=use_head, activation="tanh")
        clf = build_classifier(2, 3, cfg, rng)
        logits, cache = clf.forward_cached(small_item(rng))
        _, d_logits = cross_entropy(logits, 1)
        grad = clf.backward(cache, d_logits)
        assert grad.shape == clf.params.shape
        split = clf.form.psi.num_params
        assert np.any(grad[:split] != 0.0)
        if use_head:
            assert np.any(grad[split:] != 0.0)

    def test_checkpoint_payload_is_params(self, tmp_path):
        cfg = TrainConfig(num_forms=2, hidden_dim=4, readout="column_l2")
        clf = build_classifier(2, 3, cfg, np.random.default_rng(63))
        path = tmp_path / "clf.kfc"
        save_classifier(clf, path)
        assert path.read_bytes().endswith(clf.params.tobytes())
        assert np.array_equal(read_blob(path)[1], clf.params)

    def test_one_optimizer_steps_form_and_head(self):
        rng = np.random.default_rng(64)
        cfg = TrainConfig(num_forms=2, hidden_dim=4, activation="tanh")
        clf = build_classifier(2, 3, cfg, rng)
        psi, head = clf.form.psi.params.copy(), clf.head.params.copy()
        logits, cache = clf.forward_cached(small_item(rng))
        Adam(clf, lr=0.01).step(clf.backward(cache, cross_entropy(logits, 2)[1]))
        assert np.any(clf.form.psi.params != psi)
        assert np.any(clf.head.params != head)

    def test_classifier_adopts_its_mlps(self):
        from kforms.forms import NeuralKForm
        from kforms.model import KFormClassifier

        rng = np.random.default_rng(65)
        form = NeuralKForm.init(2, 1, 2, (3,), "tanh", rng)
        early = Sgd(form.psi, lr=1.0)  # built before the classifier adopts psi
        clf = KFormClassifier(form, None, "column_sum")
        assert form.psi.params is not early.params
        item = small_item(rng)
        before = clf.forward(item)
        early.step(np.ones(form.psi.num_params))
        assert np.array_equal(clf.forward(item), before)


class TestEvaluate:
    def test_counts_with_constant_logits(self):
        # a head with zero weights and a fixed bias always predicts class 0
        from kforms.forms import NeuralKForm
        from kforms.model import KFormClassifier

        rng = np.random.default_rng(10)
        form = NeuralKForm.init(2, 1, 2, (3,), "tanh", rng)
        head = Mlp(weights=[np.zeros((2, 2))], biases=[np.array([1.0, 0.0])])
        clf = KFormClassifier(form, head, "column_sum")
        data = tiny_paths(samples=4)  # labels 0,1,2 but only 2 head outputs
        data = Dataset(tuple(Item(i.complex, i.embedding, i.chains, i.label % 2) for i in data.items), 2)
        rep = evaluate(clf, data)
        class_0 = sum(1 for i in data.items if i.label == 0)
        assert 0 < class_0 < len(data)
        assert rep.accuracy == class_0 / len(data)
        expected_loss = np.mean(
            [cross_entropy(np.array([1.0, 0.0]), it.label)[0] for it in data.items]
        )
        assert rep.loss == pytest.approx(expected_loss, abs=1e-12)

    def test_empty_selection_rejected(self):
        rng = np.random.default_rng(11)
        cfg = TrainConfig(num_forms=2, hidden_dim=3)
        clf = build_classifier(2, 2, cfg, rng)
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate(clf, tiny_paths(samples=2).subset([]))


class TestSplits:
    def test_stratified_split_properties(self):
        rng = np.random.default_rng(12)
        labels = np.repeat([0, 1, 2], 20)
        rest, held = stratified_split(labels, 0.25, rng)
        assert set(rest) | set(held) == set(range(60))
        assert set(rest) & set(held) == set()
        for cls in range(3):
            assert np.sum(labels[held] == cls) == 5

    def test_singleton_class_stays_in_rest(self):
        rng = np.random.default_rng(13)
        labels = np.array([0, 0, 0, 0, 1])
        rest, held = stratified_split(labels, 0.5, rng)
        assert 4 in rest
        assert np.sum(labels[held] == 0) >= 1

    def test_stratified_folds_partition(self):
        rng = np.random.default_rng(14)
        labels = np.repeat([0, 1], [21, 14])
        folds = stratified_folds(labels, 5, rng)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx) == list(range(35))
        sizes = [
            [int(np.sum(labels[f] == cls)) for f in folds] for cls in (0, 1)
        ]
        for per_class in sizes:
            assert max(per_class) - min(per_class) <= 1

    def test_small_class_rejected(self):
        rng = np.random.default_rng(15)
        labels = np.array([0] * 10 + [1] * 3)
        with pytest.raises(ValueError, match="fewer than"):
            stratified_folds(labels, 5, rng)

    def test_minimum_fold_count(self):
        with pytest.raises(ValueError):
            stratified_folds(np.zeros(4, dtype=int), 1, np.random.default_rng(0))


class TestTrain:
    def test_history_structure_and_determinism(self):
        data = tiny_paths()
        cfg = TrainConfig(max_epochs=3, hidden_dim=4, num_forms=3, use_head=False, seed=5)
        r1 = train(cfg, data)
        r2 = train(cfg, data)
        assert r1.history == r2.history
        assert [row["epoch"] for row in r1.history] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert {row["split"] for row in r1.history} == {"train", "val"}
        for row in r1.history:
            assert set(row) == {"epoch", "split", "loss", "accuracy"}

    def test_zero_epochs_only_records_initial_state(self):
        data = tiny_paths()
        cfg = TrainConfig(max_epochs=0, hidden_dim=4, num_forms=3, use_head=False)
        result = train(cfg, data)
        assert len(result.history) == 2
        assert result.best_epoch == 0

    def test_best_parameters_are_restored(self):
        data = tiny_paths()
        cfg = TrainConfig(max_epochs=4, hidden_dim=4, num_forms=3, use_head=False, seed=2)
        result = train(cfg, data)
        rep = evaluate(result.classifier, data.subset(result.val_indices))
        assert rep.loss == result.best_val_loss

    def test_chain_dimension_checked(self):
        data = tiny_paths()
        cfg = TrainConfig(k=2, max_epochs=1, hidden_dim=4, num_forms=3, use_head=False)
        with pytest.raises(ValueError, match="dimension"):
            train(cfg, data)

    def test_early_stopping_shortens_but_never_changes_prefix(self):
        # sgd steps of 1e-30 leave the validation loss bit-identical, so
        # every epoch is stale and patience 2 must trip at epoch 2
        data = tiny_paths(samples=6, seed=3)
        kw = dict(max_epochs=25, hidden_dim=4, num_forms=3, use_head=False,
                  seed=4, optimizer="sgd", lr=1e-30)
        short = train(TrainConfig(early_stop_patience=2, **kw), data)
        long = train(TrainConfig(early_stop_patience=40, **kw), data)
        n = len(short.history)
        assert n == 2 * 3  # epochs 0..2, two rows each
        assert short.history == long.history[:n]

    def test_a_split_without_items_is_refused(self):
        data = tiny_paths(samples=1)  # one item per class: nothing to hold out
        with pytest.raises(ValueError, match="^empty train or validation split$"):
            train(TrainConfig(max_epochs=1, hidden_dim=4, num_forms=3, use_head=False), data)

    def test_non_finite_gradients_are_reported_as_divergence(self, monkeypatch):
        # a finite loss whose gradient is not: the optimizer refuses the step
        def nan_gradient(self, cache, d_logits):
            return np.full(self.params.size, np.nan)

        monkeypatch.setattr(model.KFormClassifier, "backward", nan_gradient)
        cfg = TrainConfig(max_epochs=1, hidden_dim=4, num_forms=3, use_head=False)
        with pytest.raises(TrainingDivergence, match="^non-finite gradients: training diverged$"):
            train(cfg, tiny_paths(samples=4))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_reported(self):
        data = tiny_paths(samples=4)
        cfg = TrainConfig(
            max_epochs=10, hidden_dim=4, num_forms=3, optimizer="sgd", lr=1e12,
        )
        with pytest.raises(TrainingDivergence):
            train(cfg, data)


class TestPreparedGeometry:
    """``train`` computes the geometry of its items once, in read-only
    arrays that live only while it runs."""

    @pytest.fixture
    def block_arrays(self, monkeypatch):
        """Weak references to the open block's arrays, taken at the first
        evaluation; then, per evaluation, whether they are all alive."""
        arrays, alive = [], []
        evaluate_ = model.evaluate

        def recording_evaluate(*args):
            if not arrays:
                shares = [entry[4] for _, entry in quadrature._PREPARED.get().values()]
                points, eps = shares[0][:2]
                assert all(share[0] is points and share[1] is eps for share in shares)
                for array in (points, eps):
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 0.0
                    arrays.append(weakref.ref(array))
            alive.append(all(ref() is not None for ref in arrays))
            return evaluate_(*args)

        monkeypatch.setattr(model, "evaluate", recording_evaluate)
        return arrays, alive

    def test_one_geometry_step_per_run(self, geometry_steps):
        train(TrainConfig(max_epochs=3, hidden_dim=4, num_forms=3, use_head=False), tiny_paths())
        assert geometry_steps == [1]  # every item of tiny paths is below ROW_BUDGET

    def test_arrays_are_read_only_and_freed_when_train_returns(self, monkeypatch, block_arrays):
        monkeypatch.setattr(model, "item_workers", lambda: 2)  # twins for the large items
        arrays, alive = block_arrays
        result = train(MIXED_CONFIG, mixed_dataset())
        assert len(result.classifier._twins) == 1
        assert len(arrays) == 2 and len(alive) == 2 * (MIXED_CONFIG.max_epochs + 1) and all(alive)
        gc.collect()
        assert [ref() for ref in arrays] == [None] * 2  # not even the result holds them
        assert quadrature._PREPARED.get() is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_arrays_are_freed_when_train_diverges(self, block_arrays):
        arrays, alive = block_arrays
        cfg = TrainConfig(max_epochs=10, hidden_dim=4, num_forms=3, optimizer="sgd", lr=1e12)
        with pytest.raises(TrainingDivergence):
            train(cfg, tiny_paths(samples=4))
        assert len(arrays) == 2 and all(alive)
        gc.collect()  # the traceback's frames held the last pass's cache
        assert [ref() for ref in arrays] == [None] * 2
        assert quadrature._PREPARED.get() is None

    def test_worker_lanes_find_prepared_items(self, monkeypatch, geometry_steps):
        """Items above the lanes' budget run on worker threads, whose
        copied contexts find the block's items."""
        data = tiny_paths(samples=4)
        classifier = build_classifier(2, 3, TrainConfig(hidden_dim=4), np.random.default_rng(0))
        expected = evaluate(classifier, data)
        monkeypatch.setattr(model, "item_workers", lambda: 2)
        monkeypatch.setattr(model, "ROW_BUDGET", 0)  # every item leaves the calling thread
        settings = [(it.complex, it.embedding, it.chains) for it in data.items]
        with quadrature.prepared_geometry(classifier.form, settings, classifier.steps):
            geometry_steps.clear()
            assert evaluate(classifier, data) == expected
        assert len(classifier._twins) == 1 and geometry_steps == []

    def test_two_runs_on_one_dataset_are_byte_identical(self):
        data = mixed_dataset()
        first, second = train(MIXED_CONFIG, data), train(MIXED_CONFIG, data)
        assert first.history == second.history
        assert first.classifier.params.tobytes() == second.classifier.params.tobytes()
        assert (first.best_epoch, first.best_val_loss) == (second.best_epoch, second.best_val_loss)


class TestKFoldCv:
    def test_folds_are_disjoint_and_exhaustive(self, monkeypatch):
        import kforms.model

        partitions = []

        def recorded(*args):
            partitions.append(stratified_folds(*args))
            return partitions[-1]

        monkeypatch.setattr(kforms.model, "stratified_folds", recorded)
        data = tiny_paths(samples=5)
        cfg = TrainConfig(max_epochs=1, hidden_dim=3, num_forms=3, use_head=False, seed=1)
        cv = kfold_cv(cfg, data, folds=3)
        assert len(cv.folds) == 3
        accuracies = [f.report.accuracy for f in cv.folds]
        assert cv.mean_accuracy == pytest.approx(np.mean(accuracies))
        assert cv.std_accuracy == pytest.approx(np.std(accuracies))
        (partition,) = partitions
        assert len(partition) == 3
        assert sorted(np.concatenate(partition).tolist()) == list(range(len(data)))

    def test_class_smaller_than_fold_count_rejected(self):
        data = tiny_paths(samples=3)
        cfg = TrainConfig(max_epochs=1, hidden_dim=3, num_forms=3, use_head=False)
        with pytest.raises(ValueError, match="fewer than"):
            kfold_cv(cfg, data, folds=4)


class TestGradCheckHarness:
    def test_small_pipelines_pass_and_corruption_fails(self):
        from kforms._gradcheck_cases import build_cases

        cases = build_cases(0)
        assert len(cases) == 6
        label, clf, item = cases[3]
        assert finite_difference_error(clf, item) < 1e-4
        assert finite_difference_error(clf, item, corrupt=True) > 1e-2


class TestClassifierCheckpoints:
    def test_round_trip_with_head(self, tmp_path):
        rng = np.random.default_rng(30)
        cfg = TrainConfig(num_forms=2, hidden_dim=4, readout="column_l2", steps=3)
        clf = build_classifier(2, 3, cfg, rng)
        path = tmp_path / "clf.kfc"
        save_classifier(clf, path)
        loaded = load_classifier(path)
        assert loaded.readout == "column_l2"
        assert loaded.steps == 3
        item = small_item(rng)
        assert np.array_equal(loaded.forward(item), clf.forward(item))

    def test_round_trip_headless(self, tmp_path):
        rng = np.random.default_rng(31)
        cfg = TrainConfig(num_forms=2, hidden_dim=4, use_head=False)
        clf = build_classifier(2, 2, cfg, rng)
        path = tmp_path / "clf.kfc"
        save_classifier(clf, path)
        loaded = load_classifier(path)
        assert loaded.head is None
        item = small_item(rng)
        assert np.array_equal(loaded.forward(item), clf.forward(item))

    def test_wrong_kind_rejected(self, tmp_path):
        from kforms.nn import write_blob

        path = tmp_path / "bad.kfc"
        write_blob(path, {"kind": "mlp"}, np.zeros(3))
        with pytest.raises(ValueError, match="classifier"):
            load_classifier(path)

    @pytest.mark.parametrize("steps", [0, -3, 2.5, 5.0, "5", True, None])
    def test_bad_steps_rejected(self, tmp_path, steps):
        from kforms.nn import write_blob

        path = tmp_path / "clf.kfc"
        cfg = TrainConfig(num_forms=2, hidden_dim=4)
        save_classifier(build_classifier(2, 2, cfg, np.random.default_rng(33)), path)
        header, params = read_blob(path)
        header["steps"] = steps
        write_blob(path, header, params)
        with pytest.raises(ValueError, match="steps must be a positive integer") as info:
            load_classifier(path)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("use_head", [True, False])
    def test_damaged_checkpoint_rejected(self, tmp_path, damage, use_head):
        cfg = TrainConfig(num_forms=2, hidden_dim=4, use_head=use_head)
        path = tmp_path / "clf.kfc"
        save_classifier(build_classifier(2, 2, cfg, np.random.default_rng(32)), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError):
            load_classifier(path)
