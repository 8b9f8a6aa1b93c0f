"""Property tests for integration matrices on random embedded complexes:
the batched fast path agrees with the per-simplex ``integrate_simplex``
oracle, at degree 0 (evaluation at the vertices) as above it, and a
signed permutation of the chains acts on the rows exactly."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kforms.forms import NeuralKForm
from kforms.quadrature import integrate_simplex, integration_matrix
from kforms.simplicial import Chain, Embedding, build_complex

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
