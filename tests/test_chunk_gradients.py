"""Chunked training passes: a minibatch's items share one form-MLP pass
per chunk, yet each item's gradient, and so the batch's, must keep the
bits of the item's own pass.

``tests/test_chunk_threads.py`` reruns this module at 1 and 2 BLAS
threads.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kforms.model as model
import kforms.quadrature as quadrature
from kforms.model import TrainConfig, build_classifier, cross_entropy
from kforms.nn import Mlp
from kforms.quadrature import integration_matrix_forward, prepared_geometry
from test_evaluate_chunks import NUM_CLASSES, empty_item, graph_item, one_simplex_item

# an item of each kind, by draw: (ring vertices or None, mixed chains)
KINDS = {
    "ring5": (5, False),
    "ring6": (6, False),
    "ring5 mixed": (5, True),
    "ring7 mixed": (7, True),
    "empty": (None, "empty"),
    "one simplex": (None, "one"),
}
# kinds of items in a batch, each with how many times it repeats
RUNS = st.lists(st.tuples(st.sampled_from(sorted(KINDS)), st.integers(1, 3)), min_size=1, max_size=6)


def make_items(seed: int, runs, k: int) -> list:
    """Items of the drawn kinds, each kind repeated its drawn number of
    times in a row: equal neighbours share their stacked products."""
    rng = np.random.default_rng(seed)
    items = []
    for i, kind in enumerate(kind for kind, times in runs for _ in range(times)):
        size, mixed = KINDS[kind]
        label = i % NUM_CLASSES
        if mixed == "empty":
            items.append(empty_item(rng, k, label))
        elif mixed == "one":
            items.append(one_simplex_item(rng, k, label))
        else:
            items.append(graph_item(rng, size, k, label, mixed))
    return items


def per_item_gradient(classifier, batch) -> np.ndarray:
    """The batch gradient from every item's own one-item pass."""
    share = 1.0 / len(batch)
    grad = np.zeros_like(classifier.params)
    for item in batch:
        logits, cache = classifier.forward_cached(item)
        grad += share * classifier.backward(cache, cross_entropy(logits, item.label)[1])
    return grad


@given(
    seed=st.integers(0, 2**16),
    kinds=RUNS,
    k=st.integers(0, 2),
    activation=st.sampled_from(["relu", "tanh", "sigmoid"]),
    readout=st.sampled_from(model.READOUTS),
    use_head=st.booleans(),
    hidden=st.sampled_from([1, 6, 16]),
    steps=st.integers(1, 3),
    budget=st.sampled_from([0, 150, 2048]),
    prepared=st.integers(0, 18),
)
@settings(max_examples=200)
def test_a_chunked_batch_gradient_is_the_sum_of_its_items(seed, kinds, k, activation, readout,
                                                          use_head, hidden, steps, budget,
                                                          prepared):
    """With the first ``prepared`` items' geometry prepared, the rest
    computed."""
    items = make_items(seed, kinds, k)
    cfg = TrainConfig(k=k, num_forms=NUM_CLASSES, hidden_dim=hidden, steps=steps,
                      activation=activation, readout=readout, use_head=use_head)
    classifier = build_classifier(3, NUM_CLASSES, cfg, np.random.default_rng(seed))
    classifier.params[:] += 0.3 * np.random.default_rng(seed + 1).normal(size=classifier.params.size)
    expected = per_item_gradient(classifier, items)
    some = [(it.complex, it.embedding, it.chains) for it in items[:prepared]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "ROW_BUDGET", budget)
        with prepared_geometry(classifier.form, some, steps):
            chunked = model._batch_gradient(classifier, items, epoch=1)
    assert chunked.tobytes() == expected.tobytes()


@given(
    seed=st.integers(0, 2**16),
    kinds=RUNS,
    k=st.integers(0, 2),
)
def test_integration_chunk_caches_give_each_items_gradient(seed, kinds, k):
    """``integration_chunks`` gives each item its own forward bits, and
    ``integration_matrix_backward`` over a chunk's caches each item's
    own gradient."""
    items = make_items(seed, kinds, k)
    rng = np.random.default_rng(seed)
    form = build_classifier(3, NUM_CLASSES, TrainConfig(k=k, num_forms=NUM_CLASSES), rng).form
    settings = [(it.complex, it.embedding, it.chains) for it in items]
    upstreams = [rng.normal(size=(len(it.chains), NUM_CLASSES)) for it in items]
    alone = []
    for setting, upstream in zip(settings, upstreams):
        X, cache = integration_matrix_forward(form, *setting)
        alone.append((X, quadrature.integration_matrix_backward(form, cache, upstream)))
    done = 0
    for matrices, caches in quadrature.integration_chunks(form, settings):
        grads = quadrature.integration_matrix_backward(form, caches, upstreams[done : done + len(caches)])
        assert grads.shape == (len(caches), form.psi.num_params)
        for X, grad, (X_alone, grad_alone) in zip(matrices, grads, alone[done:]):
            assert X.tobytes() == X_alone.tobytes() and grad.tobytes() == grad_alone.tobytes()
        done += len(caches)
    assert done == len(items)


@given(
    seed=st.integers(0, 2**16),
    dims=st.lists(st.integers(1, 24), min_size=2, max_size=4),
    activation=st.sampled_from(["relu", "tanh", "sigmoid"]),
    sizes=st.lists(st.sampled_from([0, 2, 3, 7, 7, 7, 20, 61]), min_size=1, max_size=8),
)
def test_backward_over_segments_is_backward_on_each_segments_rows(seed, dims, activation, sizes):
    rng = np.random.default_rng(seed)
    mlp = Mlp.init(dims, activation, rng)
    mlp.params[:] += 0.1 * rng.normal(size=mlp.num_params)
    assume(mlp.rows_independent)
    x = rng.normal(size=(sum(sizes), dims[0]))
    upstream = rng.normal(size=(sum(sizes), dims[-1]))
    _, cache = mlp.forward_cached(x)
    grads, _ = mlp.backward(cache, upstream, input_grad=False, segments=sizes)
    assert grads.shape == (len(sizes), mlp.num_params)
    start = 0
    for size, grad in zip(sizes, grads):
        _, cache = mlp.forward_cached(x[start : start + size].copy())
        alone, _ = mlp.backward(cache, upstream[start : start + size].copy())
        assert grad.tobytes() == alone.tobytes()
        start += size


@pytest.mark.parametrize("segments", [[3, 2], [5, 1], [-1, 6], [6, 0, 0, 1]])
def test_segments_must_split_the_rows(segments):
    mlp = Mlp.init([2, 4, 3], "relu", np.random.default_rng(0))
    _, cache = mlp.forward_cached(np.ones((5, 2)))
    if sum(segments) == 5 and min(segments) >= 0:
        assert mlp.backward(cache, np.ones((5, 3)), segments=segments)[0].shape == (2, 27)
    else:
        with pytest.raises(ValueError, match="do not split 5 rows"):
            mlp.backward(cache, np.ones((5, 3)), segments=segments)


@given(
    seed=st.integers(0, 2**16),
    count=st.integers(1, 12),
    N=st.integers(1, 30),
    S=st.integers(0, 60),
    width=st.integers(1, 20),
    m=st.integers(1, 5),
    offset=st.integers(0, 7),
)
def test_grouped_contraction_is_each_items_product(seed, count, N, S, width, m, offset):
    """The stacked products ``_integrate`` and its backward make: one
    ``np.matmul`` over equal-sized items' blocks gives each block the
    bits of its own ``np.dot``; so do stacked ``lam @`` and ``lam.T @``."""
    rng = np.random.default_rng(seed)
    weights = rng.random(N)
    out = rng.normal(size=(count * N * S + offset, width))[offset:]
    grouped = np.matmul(weights.reshape(1, N), out.reshape(count, N, S * width))
    lams, per_simplex = rng.normal(size=(count, m, S)), rng.normal(size=(count, S, width))
    upstream = rng.normal(size=(count, m, width))
    stacked, back = lams @ per_simplex, lams.transpose(0, 2, 1) @ upstream
    for b in range(count):
        block = out[b * N * S : (b + 1) * N * S].reshape(N, S * width)
        assert grouped[b].tobytes() == np.dot(weights.reshape(1, N), block).tobytes()
        lam = lams[b].copy()
        assert stacked[b].tobytes() == (lam @ per_simplex[b].copy()).tobytes()
        assert back[b].tobytes() == (lam.T @ upstream[b].copy()).tobytes()


def test_a_paths_batch_runs_in_two_chunks(monkeypatch):
    """A default 16-item paths batch (186 MLP rows per item) makes one
    form-MLP forward and backward pass per chunk of 11 and 5 items."""
    from kforms.data import PathDatasetSpec, gen_paths

    items = list(gen_paths(PathDatasetSpec(samples_per_class=6)).items[:16])
    classifier = build_classifier(2, 3, TrainConfig(use_head=False), np.random.default_rng(0))
    rows = {"forward": [], "backward": []}
    forward, backward = Mlp.forward_cached, Mlp.backward

    def counted_forward(self, x):
        rows["forward"].append(len(x))
        return forward(self, x)

    def counted_backward(self, cache, upstream, input_grad=True, segments=None):
        rows["backward"].append(segments)
        return backward(self, cache, upstream, input_grad, segments)

    monkeypatch.setattr(Mlp, "forward_cached", counted_forward)
    monkeypatch.setattr(Mlp, "backward", counted_backward)
    model._batch_gradient(classifier, items, epoch=1)
    assert rows["forward"] == [11 * 186, 5 * 186]
    assert rows["backward"] == [[186] * 11, [186] * 5]
