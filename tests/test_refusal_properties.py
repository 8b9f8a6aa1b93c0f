"""Property tests: ``build_complex`` refuses malformed simplices with the
message of the first offender in input order, and ``index_of`` finds no
simplex from entries that are not integers.

The inputs mix valid simplices of several dimensions with malformed
ones: an empty tuple, a repeated vertex, a vertex out of range, and a
vertex id that is a float, a bool or a numeric string; a malformed
simplex may carry two faults at once.  They reach ``build_complex`` as
lists of tuples and, where every simplex has the same length and only
integer ids, as integer arrays.  The expected message comes from
``first_offender``, a plain scan kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kforms.simplicial import build_complex

FAULTS = ("empty", "repeat", "range", "float", "bool", "string")


def is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def first_offender(simplices, num_vertices: int) -> str | None:
    """The refusal message of the first malformed simplex, or None.

    Within one simplex the faults rank: empty, an id that is not an
    integer, a repeated vertex, a vertex outside 0..num_vertices-1."""
    for raw in simplices:
        ids = list(raw)
        if not ids:
            return "empty simplex tuple"
        if not all(map(is_integer, ids)):
            return f"simplex {raw} has a vertex id that is not an integer"
        if len(set(ids)) < len(ids):
            return f"degenerate simplex {raw}: repeated vertex"
        if min(ids) < 0 or max(ids) >= num_vertices:
            return f"simplex {raw} has a vertex outside 0..{num_vertices - 1}"
    return None


@st.composite
def corrupted(draw, base: list, num_vertices: int, faults) -> tuple:
    """``base`` (distinct in-range ids) with one or two of ``faults``; a
    repeat keeps the length unless it is drawn from ``FAULTS``."""
    ids = list(base)
    for fault in draw(st.lists(st.sampled_from(faults), min_size=1, max_size=2)):
        if fault == "empty":
            return ()
        ints = [j for j, v in enumerate(ids) if type(v) is int]  # not yet faulted
        if not ints:
            continue
        i = draw(st.sampled_from(ints))
        v = ids[i]
        if fault == "repeat" and len(ids) > 1 and faults != FAULTS:
            ids[draw(st.sampled_from([j for j in range(len(ids)) if j != i]))] = v
        elif fault == "repeat":
            ids.insert(draw(st.integers(0, len(ids))), v)
        elif fault == "range":
            ids[i] = draw(st.integers(-3, -1) | st.integers(num_vertices, num_vertices + 3))
        elif fault == "float":
            ids[i] = draw(st.sampled_from([float(v), v + 0.5, np.float64(v)]))
        elif fault == "bool":
            ids[i] = draw(st.sampled_from([True, False, np.True_]))
        else:  # "string"
            ids[i] = str(v)
    return tuple(ids)


@st.composite
def mixed_input(draw, faults=FAULTS, same_size: bool = False):
    """(num_vertices, simplices): valid simplices and ones with ``faults``,
    in any order; any of them may be malformed, or none.  With
    ``same_size`` every valid simplex has one length."""
    num_vertices = draw(st.integers(1, 6))
    size = st.integers(1, min(4, num_vertices))
    if same_size:
        size = st.just(draw(size))
    valid = size.flatmap(
        lambda n: st.lists(st.integers(0, num_vertices - 1), min_size=n, max_size=n, unique=True)
    )
    simplices = []
    for base in draw(st.lists(valid, max_size=6)):
        bad = draw(st.booleans()) and draw(st.booleans())  # a quarter of them
        simplices.append(draw(corrupted(base, num_vertices, faults)) if bad else tuple(base))
    return num_vertices, simplices


def integer_array(simplices, dtype):
    """The (N, k+1) array of ``simplices``, or None where there is none:
    mixed lengths, an id that is not an integer, or one ``dtype`` cannot hold."""
    if not simplices or len({len(s) for s in simplices}) > 1:
        return None
    if not all(is_integer(v) for s in simplices for v in s):
        return None
    ids = [int(v) for s in simplices for v in s]
    if ids and not np.iinfo(dtype).min <= min(ids) <= max(ids) <= np.iinfo(dtype).max:
        return None
    return np.array(simplices, dtype=dtype).reshape(len(simplices), len(simplices[0]))


def refusal(simplices, num_vertices: int) -> str | None:
    """The message ``build_complex`` raises, or None when it builds."""
    try:
        build_complex(simplices, num_vertices)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400)
@given(mixed_input())
def test_list_refusal_names_the_first_offender(case):
    num_vertices, simplices = case
    assert refusal(simplices, num_vertices) == first_offender(simplices, num_vertices)


@settings(max_examples=400)
@given(mixed_input(("repeat", "range"), same_size=True),
       st.sampled_from([np.int64, np.int32, np.int8, np.uint8, np.intp]))
def test_array_refusal_names_the_first_offender(case, dtype):
    num_vertices, simplices = case
    rows = integer_array(simplices, dtype)
    if rows is None:
        return
    expected = first_offender(list(rows), num_vertices)
    assert refusal(rows, num_vertices) == expected
    if expected is None:
        assert build_complex(rows, num_vertices) == build_complex(simplices, num_vertices)


@settings(max_examples=100)
@given(mixed_input(("repeat", "range"), same_size=True),
       st.sampled_from([np.float64, np.float32, np.bool_, object]))
def test_array_that_does_not_hold_integers_is_refused_whole(case, dtype):
    num_vertices, simplices = case
    rows = integer_array(simplices, np.int64)
    if rows is None:
        return
    rows = rows.astype(dtype)
    assert refusal(rows, num_vertices) == f"simplex array of dtype {rows.dtype} does not hold integers"


@pytest.mark.parametrize(
    "simplices, message",
    [
        ([(0, 1.5)], "simplex (0, 1.5) has a vertex id that is not an integer"),
        ([("0", "1")], "simplex ('0', '1') has a vertex id that is not an integer"),
        ([(0, True)], "simplex (0, True) has a vertex id that is not an integer"),
        ([(0, 1), (1, 2.0), (5, 5)], "simplex (1, 2.0) has a vertex id that is not an integer"),
        ([(5, 5), (1, 2.0)], "degenerate simplex (5, 5): repeated vertex"),
        (np.array([[0.0, 1.7]]), "simplex array of dtype float64 does not hold integers"),
        (np.array([[0, 1]], dtype=bool), "simplex array of dtype bool does not hold integers"),
    ],
)
def test_ids_that_are_not_integers_are_refused(simplices, message):
    with pytest.raises(ValueError) as info:
        build_complex(simplices, 3)
    assert str(info.value) == message


@st.composite
def complex_and_member(draw):
    num_vertices, simplices = draw(mixed_input())
    simplices = [s for s in simplices if first_offender([s], num_vertices) is None]
    complex_ = build_complex(simplices, num_vertices)
    k = draw(st.integers(0, complex_.dim))
    member = draw(st.sampled_from(complex_.simplices(k)))
    return complex_, k, member


@settings(max_examples=200)
@given(complex_and_member(), st.data())
def test_index_of_refuses_entries_that_are_not_integers(case, data):
    complex_, k, member = case
    assert complex_.index_of(k, member) == complex_.simplices(k).index(member)
    query = list(member)
    i = data.draw(st.integers(0, k))
    v = query[i]
    query[i] = data.draw(st.sampled_from([float(v), np.float64(v), str(v), bool(v), np.bool_(v)]))
    with pytest.raises(ValueError) as info:
        complex_.index_of(k, query)
    assert str(info.value) == f"simplex {tuple(query)} is not in the complex"
