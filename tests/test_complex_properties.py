"""Property tests: ``build_complex`` closes its input under taking faces
exactly as the set-based algorithm it replaced.

The oracle below is that algorithm, kept here as the reference: every
vertex, plus every sub-tuple of every sorted input tuple, sorted
lexicographically per dimension.  The inputs mix dimensions, repeat
simplices, list vertices in any order and leave vertices isolated; they
reach ``build_complex`` as lists of tuples and, one dimension at a
time, as integer arrays of several dtypes.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kforms.simplicial import build_complex


def oracle(simplices, num_vertices: int, drop: int | None = None) -> list[list[tuple]]:
    """The k-simplices of the closure for k = 0..dim, in lexicographic
    order.  ``drop`` = d leaves out the faces of dimension d (a broken
    copy, for the negative control)."""
    by_dim = {0: {(v,) for v in range(num_vertices)}}
    for raw in simplices:
        s = tuple(sorted(int(v) for v in raw))
        for j in range(1, len(s) + 1):
            if j - 1 != drop:
                by_dim.setdefault(j - 1, set()).update(itertools.combinations(s, j))
    return [sorted(by_dim.get(k, set())) for k in range(max(by_dim) + 1)]


def differences(complex_, expected, num_vertices: int) -> list[str]:
    """Every way ``complex_`` departs from the expected simplex lists:
    its dimension, ``simplices(k)``, ``vertex_array(k)`` and
    ``index_of`` on members and on non-members."""
    found = []
    if complex_.dim != len(expected) - 1:
        found.append(f"dim {complex_.dim}, expected {len(expected) - 1}")
    for k, sims in enumerate(expected):
        if complex_.simplices(k) != tuple(sims):
            found.append(f"simplices({k})")
        verts = complex_.vertex_array(k)
        if verts.dtype != np.intp or verts.flags.writeable or verts.tolist() != [list(s) for s in sims]:
            found.append(f"vertex_array({k})")
        if verts.shape != (len(sims), k + 1) or complex_.vertex_array(k) is not verts:
            found.append(f"vertex_array({k}) shape or identity")
        for i, s in enumerate(sims):
            try:
                if complex_.index_of(k, s) != i:
                    found.append(f"index_of({k}, {s})")
            except ValueError:
                found.append(f"index_of({k}, {s}) raised")
        members = set(sims)
        for s in itertools.combinations(range(num_vertices + 1), k + 1):
            if s not in members:
                try:
                    complex_.index_of(k, s)
                    found.append(f"index_of({k}, {s}) found a non-member")
                except ValueError:
                    pass
    return found


@st.composite
def simplex_lists(draw, max_vertices: int = 8, max_size: int = 4):
    """(num_vertices, list of vertex tuples in any order, with repeats)."""
    num_vertices = draw(st.integers(1, max_vertices))
    size = st.integers(1, min(max_size, num_vertices))
    one = size.flatmap(
        lambda n: st.lists(st.integers(0, num_vertices - 1), min_size=n, max_size=n, unique=True)
    ).map(tuple)
    simplices = draw(st.lists(one, max_size=6))
    if simplices:
        repeats = draw(st.lists(st.sampled_from(simplices), max_size=3))
        simplices = draw(st.permutations(simplices + repeats))
    return num_vertices, simplices


@settings(max_examples=300)
@given(simplex_lists())
def test_closure_matches_the_set_oracle(case):
    num_vertices, simplices = case
    complex_ = build_complex(simplices, num_vertices)
    assert differences(complex_, oracle(simplices, num_vertices), num_vertices) == []


@settings(max_examples=200)
@given(simplex_lists(), st.sampled_from([np.int64, np.int32, np.uint8, np.intp]), st.data())
def test_array_input_matches_list_input(case, dtype, data):
    num_vertices, simplices = case
    k = data.draw(st.integers(0, 3))
    same_size = [s for s in simplices if len(s) == k + 1]
    rows = np.array(same_size, dtype=dtype).reshape(len(same_size), k + 1)
    complex_ = build_complex(rows, num_vertices)
    assert differences(complex_, oracle(same_size, num_vertices), num_vertices) == []
    assert complex_ == build_complex(same_size, num_vertices)


@settings(max_examples=200)
@given(simplex_lists(), st.data())
def test_an_oracle_missing_one_face_dimension_is_caught(case, data):
    """Negative control: leaving out any one face dimension above the
    vertices must show up as a difference."""
    num_vertices, simplices = case
    top = max((len(s) - 1 for s in simplices), default=0)
    if top == 0:
        return
    drop = data.draw(st.integers(1, top))
    complex_ = build_complex(simplices, num_vertices)
    assert differences(complex_, oracle(simplices, num_vertices, drop), num_vertices) != []
