"""Property tests for integration matrices on random embedded complexes:
the batched fast path agrees with the per-simplex ``integrate_simplex``
oracle, at degree 0 (evaluation at the vertices) as above it, a signed
permutation of the chains acts on the rows exactly, and the forward-only
passes, on node-first MLP rows, give the training pass's matrix bit for
bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kforms.forms import NeuralKForm
from kforms.quadrature import (
    integrate_simplex,
    integration_matrices,
    integration_matrix,
    integration_matrix_forward,
    prepare_geometry,
)
from kforms.simplicial import Chain, Embedding, build_complex, standard_basis_chains

ORACLE_RTOL = 1e-9
COORDS = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, width=32)
COEFFS = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def embedded_complexes(draw, k: int):
    """(complex, embedding, form, h): a few random k- and (k+1)-simplices
    with all their faces, vertices placed anywhere in R^n (coincident or
    collinear ones included), and a freshly initialised form."""
    num_vertices = draw(st.integers(k + 1, 6))
    n = draw(st.integers(max(k, 1), 3))
    tops = draw(st.lists(
        st.integers(k + 1, min(k + 2, num_vertices)).flatmap(
            lambda size: st.lists(st.integers(0, num_vertices - 1), min_size=size,
                                  max_size=size, unique=True)
        ),
        min_size=1,
        max_size=4,
    ))
    complex_ = build_complex(tops, num_vertices)
    coords = draw(st.lists(st.lists(COORDS, min_size=n, max_size=n), min_size=num_vertices,
                           max_size=num_vertices))
    embedding = Embedding(np.asarray(coords, dtype=np.float64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    activation = draw(st.sampled_from(["relu", "tanh", "sigmoid"]))
    form = NeuralKForm.init(n, k, draw(st.integers(2, 3)), (5, 4), activation, rng)
    return complex_, embedding, form, draw(st.integers(1, 4))


def chains_over(num_simplices: int, k: int):
    """Lists of 1-5 chains whose terms may repeat or cancel a simplex."""
    term = st.tuples(st.integers(0, num_simplices - 1), COEFFS)
    return st.lists(st.lists(term, max_size=5).map(lambda terms: Chain(k, tuple(terms))),
                    min_size=1, max_size=5)


@settings(max_examples=60)
@given(k=st.sampled_from([0, 1, 2]), data=st.data())
def test_matches_the_integrate_simplex_oracle(k, data):
    complex_, embedding, form, h = data.draw(embedded_complexes(k))
    sims = complex_.simplices(k)
    chains = data.draw(chains_over(len(sims), k))
    fast = integration_matrix(form, complex_, embedding, chains, h=h)
    oracle = np.zeros((len(chains), form.num_forms))
    size = np.zeros_like(oracle)  # the same sums over absolute values: the scale of rounding
    for i, chain in enumerate(chains):
        for idx, coeff in chain.terms:
            for j in range(form.num_forms):
                term = coeff * integrate_simplex(form, j, complex_, embedding, sims[idx], h=h)
                oracle[i, j] += term
                size[i, j] += abs(term)
    assert fast.shape == oracle.shape
    assert np.all(np.abs(fast - oracle) <= ORACLE_RTOL * size.max(initial=0.0))


@settings(max_examples=60)
@given(k=st.sampled_from([0, 1, 2]), data=st.data())
def test_signed_permutation_acts_on_rows_exactly(k, data):
    complex_, embedding, form, h = data.draw(embedded_complexes(k))
    chains = data.draw(chains_over(complex_.num_simplices(k), k))
    m = len(chains)
    perm = data.draw(st.permutations(range(m)))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    moved = [Chain(k, tuple((idx, s * c) for idx, c in chains[p].terms))
             for p, s in zip(perm, signs)]
    X = integration_matrix(form, complex_, embedding, chains, h=h)
    got = integration_matrix(form, complex_, embedding, moved, h=h)
    assert np.array_equal(got, np.asarray(signs)[:, None] * X[list(perm)])


@st.composite
def forward_items(draw, k: int, n: int):
    """(complex, embedding, chains) of one item in R^n: a few random
    (k+1)-vertex sets with all their faces, chained as the standard
    k-basis, as one chain of random coefficients, as one simplex or as
    empty chains."""
    num_vertices = draw(st.integers(k + 1, 6))
    tops = draw(st.lists(st.lists(st.integers(0, num_vertices - 1), min_size=k + 1,
                                  max_size=k + 1, unique=True), min_size=1, max_size=4))
    complex_ = build_complex(tops, num_vertices)
    coords = draw(st.lists(st.lists(COORDS, min_size=n, max_size=n), min_size=num_vertices,
                           max_size=num_vertices))
    count = complex_.num_simplices(k)
    kind = draw(st.sampled_from(["basis", "coefficients", "one simplex", "empty"]))
    if kind == "basis":
        chains = standard_basis_chains(complex_, k)
    elif kind == "coefficients":
        chains = draw(chains_over(count, k))
    elif kind == "one simplex":
        chains = [Chain(k, ((draw(st.integers(0, count - 1)), 1.0),))]
    else:
        chains = [Chain(k, ())] * draw(st.integers(1, 2))
    return complex_, Embedding(np.asarray(coords, dtype=np.float64)), chains


@settings(max_examples=60)
@given(k=st.sampled_from([0, 1, 2]), n=st.sampled_from([2, 3]), h=st.sampled_from([1, 2, 5]),
       data=st.data())
def test_forward_only_matrices_are_the_training_pass_bits(k, n, h, data):
    """``integration_matrix`` and ``integration_matrices`` (node-first rows,
    no copy before the contraction) against ``integration_matrix_forward``
    (simplex-first rows), over prepared and computed geometry mixed in one
    call; the (16, 1) hidden layers let a row depend on its
    neighbours (``Mlp.rows_independent`` is False)."""
    settings_ = data.draw(st.lists(forward_items(k, n), min_size=1, max_size=5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    hidden = data.draw(st.sampled_from([(5, 4), (16, 1)]))
    activation = data.draw(st.sampled_from(["relu", "tanh", "sigmoid"]))
    form = NeuralKForm.init(n, k, data.draw(st.integers(1, 3)), hidden, activation, rng)
    form.psi.params += 0.1 * rng.normal(size=form.psi.num_params)  # nonzero biases
    trained = [integration_matrix_forward(form, *s, h)[0] for s in settings_]
    shares = prepare_geometry(form, settings_, h)
    prepared = data.draw(st.lists(st.booleans(), min_size=len(settings_), max_size=len(settings_)))
    mixed = [(*s, share if keep else None) for s, share, keep in zip(settings_, shares, prepared)]

    def same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    for X, s, share in zip(trained, settings_, shares):
        assert same_bits(integration_matrix(form, *s, h), X)
        assert same_bits(integration_matrix_forward(form, *s, h, share)[0], X)
    matrices = list(integration_matrices(form, mixed, h))
    assert len(matrices) == len(trained)
    assert all(same_bits(Y, X) for Y, X in zip(matrices, trained))

