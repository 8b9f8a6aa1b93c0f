"""Chunked evaluation: items whose MLP rows share one call must get the
logits of their own per-item forward pass, bit for bit."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kforms.quadrature as quadrature
from kforms.data import PathDatasetSpec, gen_paths
from kforms.forms import NeuralKForm
from kforms.model import (
    Dataset,
    EvalReport,
    Item,
    TrainConfig,
    build_classifier,
    cross_entropy,
    evaluate,
)
from kforms.nn import Mlp
from kforms.simplicial import Chain, ChainTuple, Embedding, build_complex, standard_basis_chains

NUM_CLASSES = 3


def graph_item(rng, num_vertices: int, k: int, label: int, mixed: bool = False) -> Item:
    """A ring of ``num_vertices`` vertices in R^3 filled with the triangles
    (i, i+1, i+2), with the standard k-basis as chains, or with random
    combinations of it when ``mixed``."""
    ring = [(i, (i + 1) % num_vertices, (i + 2) % num_vertices) for i in range(num_vertices)]
    complex_ = build_complex(ring, num_vertices)
    chains = standard_basis_chains(complex_, k)
    if mixed:
        count = complex_.num_simplices(k)
        chains = ChainTuple(tuple(
            Chain(k, tuple((int(s), float(rng.normal())) for s in rng.choice(count, 3, False)))
            for _ in range(2)
        ))
    return Item(complex_, Embedding(rng.normal(size=(num_vertices, 3))), chains, label)


def empty_item(rng, k: int, label: int) -> Item:
    item = graph_item(rng, 4, k, label)
    return Item(item.complex, item.embedding, ChainTuple((Chain(k, ()), Chain(k, ()))), label)


def one_simplex_item(rng, k: int, label: int) -> Item:
    item = graph_item(rng, 5, k, label)
    return Item(item.complex, item.embedding, ChainTuple((Chain(k, ((2, 1.0),)),)), label)


def mixed_items(rng, k: int) -> list:
    """Graph items of mixed size, with an item whose chains are all empty,
    an item of one simplex and items whose chains combine simplices."""
    items = []
    for pos, num_vertices in enumerate([5, 9, 4, 30, 6, 5, 12, 4, 7, 3, 8]):
        items.append(graph_item(rng, num_vertices, k, pos % NUM_CLASSES, mixed=pos in (4, 8)))
    items.insert(3, empty_item(rng, k, 1))
    items.insert(7, one_simplex_item(rng, k, 2))
    items.append(empty_item(rng, k, 0))
    return items


def item_rows(item: Item, k: int, h: int = quadrature.DEFAULT_STEPS) -> int:
    return item.chains.used.size * len(quadrature.quadrature_rule(k, h)[1])


def classifier_for(k: int, activation: str, readout: str, use_head: bool, hidden_dim: int = 16,
                   seed: int = 0, n: int = 3, num_forms: int = NUM_CLASSES):
    cfg = TrainConfig(k=k, num_forms=num_forms, hidden_dim=hidden_dim, activation=activation,
                      readout=readout, use_head=use_head, seed=seed)
    return build_classifier(n, NUM_CLASSES, cfg, np.random.default_rng(seed))


def reference_report(classifier, data: Dataset, indices) -> EvalReport:
    """``evaluate`` as a plain per-item loop over ``forward``."""
    loss_sum, hits = 0.0, 0
    for i in indices:
        item = data.items[int(i)]
        logits = classifier.forward(item)
        loss, _ = cross_entropy(logits, item.label)
        loss_sum += loss
        hits += int(np.argmax(logits)) == item.label
    return EvalReport(loss=loss_sum / len(indices), accuracy=hits / len(indices))


@pytest.fixture
def form_calls(monkeypatch):
    """Row counts of the batched MLP passes (``Mlp.forward_cached``, which
    ``Mlp.forward`` calls), in call order; the head's calls, on one
    feature vector each, are left out."""
    calls = []
    original = Mlp.forward_cached

    def counted(self, x):
        if np.ndim(x) == 2:
            calls.append(np.shape(x)[0])
        return original(self, x)

    monkeypatch.setattr(Mlp, "forward_cached", counted)
    return calls


def assert_chunked_matches_per_item(classifier, items):
    chunked = list(classifier.forward_each(items))
    assert len(chunked) == len(items)
    for item, logits in zip(items, chunked):
        assert np.array_equal(logits, classifier.forward(item))
    for item, feats in zip(items, classifier.features_each(items)):
        assert np.array_equal(feats, classifier.features(item))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("use_head", [False, True], ids=["headless", "head"])
@pytest.mark.parametrize("readout", ["column_sum", "column_l1", "column_l2"])
@pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
def test_chunked_logits_and_report_match_per_item(monkeypatch, form_calls, activation, readout,
                                                  use_head, k):
    items = mixed_items(np.random.default_rng(k), k)
    rows = [item_rows(it, k) for it in items]
    # the largest item exceeds the budget; the others share chunks with
    # a boundary between consecutive items
    budget = sorted(rows)[-2] * 2
    assert max(rows) > budget
    monkeypatch.setattr(quadrature, "ROW_BUDGET", budget)
    classifier = classifier_for(k, activation, readout, use_head)
    data = Dataset(tuple(items), NUM_CLASSES)

    form_calls.clear()
    report = evaluate(classifier, data)
    assert sum(form_calls) == sum(rows)
    assert 2 < len(form_calls) < sum(r > 0 for r in rows)
    assert report == reference_report(classifier, data, range(len(items)))
    indices = np.array([12, 0, 5, 3, 7, 8, 1])
    assert evaluate(classifier, data.subset(indices)) == reference_report(classifier, data, indices)
    assert_chunked_matches_per_item(classifier, items)


def test_default_budget_with_an_oversized_item(form_calls):
    rng = np.random.default_rng(5)
    items = mixed_items(rng, 2) + [graph_item(rng, 110, 2, 1)]  # 110 triangles: 2,310 rows
    assert item_rows(items[-1], 2) > quadrature.ROW_BUDGET
    classifier = classifier_for(2, "tanh", "column_l2", use_head=True)
    form_calls.clear()
    list(classifier.features_each(items))
    assert form_calls[-1] == item_rows(items[-1], 2)
    assert len(form_calls) < len(items) - 1
    assert_chunked_matches_per_item(classifier, items)


@pytest.mark.parametrize("hidden_dim", [16, 24, 64])
def test_chunks_on_contiguous_weights_match_per_item(form_calls, hidden_dim):
    """A chunk of several items multiplies by contiguous copies of the
    weights, as does each multi-row item alone; the bits agree, also at
    hidden width 24, whose (24, 12) layer keeps ``w.T`` because a copy
    would not give its bits, and at hidden width 64, whose fan-in makes
    every item run alone."""
    items = mixed_items(np.random.default_rng(11), 1)
    classifier = classifier_for(1, "tanh", "column_l2", use_head=True, hidden_dim=hidden_dim)
    form_calls.clear()
    list(classifier.features_each(items))
    sizes = {item_rows(item, 1) for item in items} - {0, 1}
    assert len(sizes) > 1  # multi-row items of different sizes ...
    if classifier.form.psi.rows_independent:
        assert max(form_calls) > max(sizes)  # ... sharing a chunk
    assert_chunked_matches_per_item(classifier, items)


@pytest.mark.parametrize("hidden_dim, num_forms, k", [(2, 3, 1), (16, 1, 0), (64, 3, 1)])
def test_width_one_layers_run_each_item_alone(form_calls, hidden_dim, num_forms, k):
    """A width-one layer, or a fan-in of 32 or more, lets a row's value
    depend on the rows around it (``Mlp.rows_independent``); each item
    then runs alone."""
    items = mixed_items(np.random.default_rng(7), k)
    classifier = classifier_for(k, "relu", "column_sum", use_head=True, hidden_dim=hidden_dim,
                                num_forms=num_forms)
    form_calls.clear()
    list(classifier.features_each(items))
    assert form_calls == [item_rows(item, k) for item in items]  # an empty item's call has 0 rows
    assert_chunked_matches_per_item(classifier, items)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_empty_item_in_a_shared_chunk_gets_positive_zero_rows(form_calls, k):
    rng = np.random.default_rng(9)
    items = [graph_item(rng, 5, k, 0), empty_item(rng, k, 1), graph_item(rng, 6, k, 2)]
    form = classifier_for(k, "tanh", "column_sum", use_head=False).form
    form_calls.clear()
    settings = [(it.complex, it.embedding, it.chains) for it in items]
    matrices = list(quadrature.integration_matrices(form, settings))
    assert form_calls == [sum(item_rows(item, k) for item in items)]  # one shared call
    assert matrices[1].shape == (2, NUM_CLASSES)
    assert not matrices[1].any() and not np.signbit(matrices[1]).any()
    for X, setting in zip(matrices, settings):
        assert np.array_equal(X, quadrature.integration_matrix(form, *setting))


def test_one_row_items_run_alone(form_calls):
    rng = np.random.default_rng(8)
    items = mixed_items(rng, 0)
    classifier = classifier_for(0, "sigmoid", "column_l1", use_head=True)
    form_calls.clear()
    list(classifier.features_each(items))
    one_row = [r for r in form_calls if r == 1]
    assert len(one_row) == 1  # the one-simplex item, not merged with its neighbours
    assert_chunked_matches_per_item(classifier, items)


def test_evaluate_makes_few_mlp_calls(form_calls):
    """60 paths of 186 rows each share MLP calls; the per-item loop made 60."""
    data = gen_paths(PathDatasetSpec(samples_per_class=20, seed=0))
    assert len(data) == 60 and item_rows(data.items[0], 1) == 186
    classifier = classifier_for(1, "relu", "column_sum", use_head=False, n=2)
    form_calls.clear()
    report = evaluate(classifier, data)
    assert len(form_calls) <= math.ceil(60 * 186 / quadrature.ROW_BUDGET) + 1
    assert report == reference_report(classifier, data, range(60))


def test_evaluate_rejects_an_empty_index_set():
    data = Dataset(tuple(mixed_items(np.random.default_rng(0), 1)), NUM_CLASSES)
    with pytest.raises(ValueError, match="empty dataset"):
        evaluate(classifier_for(1, "relu", "column_sum", use_head=False), data.subset([]))


@st.composite
def random_items(draw):
    """Items on random complexes: random k-simplices over 3 to 8 vertices
    in R^3, chained as their standard basis."""
    k = draw(st.sampled_from([0, 1, 2]))
    items = []
    for label in range(draw(st.integers(2, 6))):
        num_vertices = draw(st.integers(k + 1, 8))
        pool = list(itertools.combinations(range(num_vertices), k + 1))
        chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
        coords = draw(st.lists(st.floats(-3, 3), min_size=3 * num_vertices,
                                max_size=3 * num_vertices))
        complex_ = build_complex(chosen, num_vertices)
        embedding = Embedding(np.reshape(coords, (num_vertices, 3)))
        items.append(Item(complex_, embedding, standard_basis_chains(complex_, k),
                          label % NUM_CLASSES))
    return k, items


@settings(max_examples=60)
@given(case=random_items(), budget=st.integers(1, 300),
       activation=st.sampled_from(["relu", "tanh", "sigmoid"]), seed=st.integers(0, 2**16))
def test_chunked_features_match_per_item_on_random_complexes(case, budget, activation, seed):
    k, items = case
    saved = quadrature.ROW_BUDGET
    quadrature.ROW_BUDGET = budget
    try:
        classifier = classifier_for(k, activation, "column_sum", use_head=True, seed=seed)
        assert_chunked_matches_per_item(classifier, items)
    finally:
        quadrature.ROW_BUDGET = saved


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_prepared_geometry_keeps_the_bits_and_the_chunks(form_calls, k):
    items = mixed_items(np.random.default_rng(13), k)
    form = classifier_for(k, "tanh", "column_l1", use_head=True).form
    settings = [(it.complex, it.embedding, it.chains) for it in items]
    form_calls.clear()
    expected = list(quadrature.integration_matrices(form, settings))
    computed_calls = list(form_calls)
    shares = quadrature.prepare_geometry(form, settings)
    assert [s.stop - s.start for s in shares] == [it.chains.used.size for it in items]
    assert len({id(s.points) for s in shares}) == 1  # one pass over every item
    form_calls.clear()
    prepared = list(quadrature.integration_matrices(
        form, [(*setting, share) for setting, share in zip(settings, shares)]))
    assert form_calls == computed_calls  # one slice per chunk of the same items
    assert all(same_bits(X, Y) for X, Y in zip(prepared, expected))
    for setting, share, X in zip(settings, shares, expected):
        Y, _ = quadrature.integration_matrix_forward(form, *setting, quadrature.DEFAULT_STEPS, share)
        assert same_bits(Y, X)


def test_shares_out_of_order_or_mixed_with_computed_items_run_apart(form_calls):
    items = mixed_items(np.random.default_rng(14), 1)
    form = classifier_for(1, "relu", "column_sum", use_head=False).form
    settings = [(it.complex, it.embedding, it.chains) for it in items]
    expected = [quadrature.integration_matrix(form, *setting) for setting in settings]
    shares = quadrature.prepare_geometry(form, settings)
    order = [1, 2, 0, 5, 6, 9, 10, 4]
    mixed = [(*settings[i], shares[i] if i % 3 else None) for i in order]
    form_calls.clear()
    matrices = list(quadrature.integration_matrices(form, mixed))
    assert all(same_bits(X, expected[i]) for X, i in zip(matrices, order))
    # 2 follows on from 1 and 9 is computed with 6; no other pair shares a chunk
    rows = [item_rows(item, 1) for item in items]
    assert form_calls == [rows[1] + rows[2], rows[0], rows[5], rows[6] + rows[9], rows[10], rows[4]]


def test_geometry_of_another_item_is_refused():
    items = mixed_items(np.random.default_rng(15), 1)
    form = classifier_for(1, "relu", "column_sum", use_head=False).form
    settings = [(it.complex, it.embedding, it.chains) for it in items[:3]]
    shares = quadrature.prepare_geometry(form, settings)
    with pytest.raises(ValueError, match="geometry of"):
        quadrature.integration_matrix_forward(form, *settings[0], quadrature.DEFAULT_STEPS,
                                              shares[1])
    assert quadrature.prepare_geometry(form, []) == []


def test_geometry_of_another_resolution_or_ambient_space_is_refused():
    """A share prepared at h = 5 holds 6 nodes per edge; at h = 4 it would
    silently integrate the wrong points."""
    data = gen_paths(PathDatasetSpec(samples_per_class=1, points_per_path=3, seed=0))
    item = data.items[0]
    form = classifier_for(1, "relu", "column_sum", use_head=False, n=2).form
    setting = (item.complex, item.embedding, item.chains)
    (share,) = quadrature.prepare_geometry(form, [setting], 5)
    X, _ = quadrature.integration_matrix_forward(form, *setting, 5, share)
    assert same_bits(X, quadrature.integration_matrix(form, *setting, 5))
    with pytest.raises(ValueError, match="^geometry of 12 points in R\\^2 .* fit 5 nodes"):
        quadrature.integration_matrix_forward(form, *setting, 4, share)
    with pytest.raises(ValueError, match="fit 5 nodes"):
        list(quadrature.integration_matrices(form, [(*setting, share)], 4))
    # a two-edge item in R^3 hands its share to the two-edge path in R^2
    ring = graph_item(np.random.default_rng(16), 4, 1, 0)
    two_edges = (ring.complex, ring.embedding, ChainTuple((Chain(1, ((0, 1.0), (2, -1.0))),)))
    (other,) = quadrature.prepare_geometry(classifier_for(1, "relu", "column_sum", False).form,
                                           [two_edges], 5)
    with pytest.raises(ValueError, match="points in R\\^3 and 3 volumes .* in R\\^2 and 2"):
        quadrature.integration_matrix_forward(form, *setting, 5, other)


@pytest.mark.parametrize("k", [1, 2])
def test_forward_only_rows_of_a_dependent_mlp_keep_the_training_order(k):
    """A row of an MLP without ``Mlp.rows_independent`` can change bits
    when its neighbours change, so a forward-only pass runs such an MLP
    on the training pass's simplex-first rows, not node-first ones.  On
    strips of 1 to 9 simplices, node-first rows changed the matrix of the
    3-simplex strip at k = 1 and 2 with OpenBLAS 0.3.31."""
    rng = np.random.default_rng(17)
    form = NeuralKForm.init(3, k, 3, (16, 1), "tanh", rng)
    form.psi.params += 0.1 * rng.normal(size=form.psi.num_params)
    assert not form.psi.rows_independent
    for v in range(k + 2, 12):
        strip = build_complex([tuple(range(i, i + k + 1)) for i in range(v - k)], v)
        setting = (strip, Embedding(rng.normal(size=(v, 3))), standard_basis_chains(strip, k))
        X, _ = quadrature.integration_matrix_forward(form, *setting)
        assert same_bits(quadrature.integration_matrix(form, *setting), X)
        (Y,) = quadrature.integration_matrices(form, [setting])
        assert same_bits(Y, X)
