"""Property tests for chain algebra: a chain tuple is its coefficient
matrix Λ over the simplices it uses, and recombining it by L is L·Λ."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from kforms.simplicial import Chain, ChainTuple, apply_matrix_left

NUM_SIMPLICES = 7

# Halves from -2 to 2: sums and products of a few of them are exact in
# float64, so cancellation is exact and results can be compared bit for bit.
HALVES = st.integers(-4, 4).map(lambda v: v / 2.0)
ANY_COEFF = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def chain_lists(coeffs, max_chains: int = 5):
    """Lists of chains of one dimension whose terms may repeat an index or
    carry a zero coefficient, both of which ``Chain`` canonicalizes."""
    term = st.tuples(st.integers(0, NUM_SIMPLICES - 1), coeffs)
    return st.integers(0, 2).flatmap(
        lambda dim: st.lists(
            st.lists(term, max_size=6).map(lambda terms: Chain(dim, tuple(terms))),
            min_size=1,
            max_size=max_chains,
        )
    )


def dense(chains) -> np.ndarray:
    """(m, NUM_SIMPLICES) coefficients of the chains, one row each."""
    out = np.zeros((len(chains), NUM_SIMPLICES))
    for i, chain in enumerate(chains):
        for idx, coeff in chain.terms:
            out[i, idx] = coeff
    return out


def assert_canonical(ct: ChainTuple) -> None:
    used, lam = ct.used, ct.lam
    assert used.dtype == np.intp and used.ndim == 1 and not used.flags.writeable
    assert (np.diff(used) > 0).all()
    basis = [Chain(ct.dim, ((int(s), 1.0),)) for s in used]
    if lam is None:
        assert list(ct) == basis
        return
    assert lam.dtype == np.float64 and lam.shape == (len(ct), used.size)
    assert not lam.flags.writeable
    assert lam.any(axis=0).all()
    assert list(ct) != basis


@given(chains=chain_lists(ANY_COEFF))
def test_chain_tuple_round_trip(chains):
    ct = ChainTuple(chains)
    assert_canonical(ct)
    assert len(ct) == len(chains)
    assert list(ct) == chains
    assert [ct[i] for i in range(-len(ct), 0)] == chains
    again = ChainTuple(list(ct))
    assert again == ct and hash(again) == hash(ct)
    matrix = dense(chains)
    assert np.array_equal(ct.used, np.flatnonzero(matrix.any(axis=0)))


@given(chains=chain_lists(HALVES), data=st.data())
def test_apply_matrix_left_is_the_dense_combination(chains, data):
    beta = ChainTuple(chains)
    rows = data.draw(st.integers(1, 5))
    L = np.array(data.draw(st.lists(
        st.lists(HALVES, min_size=len(chains), max_size=len(chains)), min_size=rows, max_size=rows
    )))
    L[data.draw(st.lists(st.integers(0, rows - 1), max_size=2))] = 0.0  # zero rows
    out = apply_matrix_left(L, beta)
    assert_canonical(out)
    expected = []
    for i in range(rows):
        terms = [(idx, L[i, j] * c) for j, chain in enumerate(chains) for idx, c in chain.terms]
        expected.append(Chain(beta.dim, tuple(terms)))
    assert list(out) == expected
    assert np.array_equal(dense(list(out)), L @ dense(chains))


@given(chains=chain_lists(ANY_COEFF), data=st.data())
def test_signed_permutation_is_exact(chains, data):
    beta = ChainTuple(chains)
    m = len(chains)
    perm = data.draw(st.permutations(range(m)))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    P = np.zeros((m, m))
    P[np.arange(m), perm] = signs
    out = apply_matrix_left(P, beta)
    expected = [Chain(beta.dim, tuple((i, s * c) for i, c in chains[p].terms))
                for p, s in zip(perm, signs)]
    assert list(out) == expected
    assert np.array_equal(out.used, beta.used)
    if beta.lam is not None:
        assert np.array_equal(out.lam, np.asarray(signs)[:, None] * beta.lam[perm])
    assert apply_matrix_left(P.T, out) == beta


@given(chains=chain_lists(HALVES), data=st.data())
def test_equality_and_hash_are_canonical(chains, data):
    beta = ChainTuple(chains)
    m = len(chains)
    same = apply_matrix_left(np.eye(m), beta)
    assert same == beta and hash(same) == hash(beta)
    if beta.used.size:
        basis = ChainTuple(Chain(beta.dim, ((int(s), 1.0),)) for s in beta.used)
        assert basis.lam is None
        same = apply_matrix_left(np.eye(len(basis)), basis)
        assert same == basis and hash(same) == hash(basis) and same.lam is None
        assert apply_matrix_left(dense(chains)[:, beta.used], basis) == beta
        negated = apply_matrix_left(-dense(chains)[:, beta.used], basis)  # holds -0.0
        flipped = ChainTuple(Chain(beta.dim, tuple((i, -c) for i, c in ch.terms)) for ch in chains)
        assert negated == flipped and hash(negated) == hash(flipped)
    # -0.0 entries and cancelled simplices leave no trace
    zero = apply_matrix_left(-np.zeros((2, m)), beta)
    empty = ChainTuple((Chain(beta.dim, ()), Chain(beta.dim, ())))
    assert zero == empty and hash(zero) == hash(empty)
    L1 = np.array(data.draw(st.lists(st.lists(HALVES, min_size=m, max_size=m), min_size=1,
                                     max_size=3)))
    L2 = np.array(data.draw(st.lists(st.lists(HALVES, min_size=len(L1), max_size=len(L1)),
                                     min_size=1, max_size=3)))
    twice = apply_matrix_left(L2, apply_matrix_left(L1, beta))
    once = apply_matrix_left(L2 @ L1, beta)
    assert twice == once and hash(twice) == hash(once)
