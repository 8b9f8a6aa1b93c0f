"""Property tests: the batched builders equal their one-item cases.

``build_complexes`` must build, for every block of its rows, the complex
``build_complex`` builds from that block alone, byte for byte, and refuse
a batch with the message ``build_complex`` gives the first malformed
block.  The blocks may be empty, hold unsorted and repeated rows, hold
simplices of dimension 0 to 3 and have no vertices, or so many that
``build_complex`` keys a tetrahedron with Python ints.  ``embedded_paths``
must give, for every path of its stack, what ``embedded_path`` gives for
that path alone, ties between points and repeated points included, and
what ``reference_path``, the one-path code the batch replaced, gives.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kforms.simplicial import (
    Chain,
    ChainTuple,
    Embedding,
    build_complex,
    build_complexes,
    embedded_path,
    embedded_paths,
)

LARGE = 60_000  # 60,000**4 > 2**63, so a block of tetrahedra gets Python-int keys


@st.composite
def block(draw, width: int):
    """(num_vertices, rows) of one item: up to 5 rows of ``width`` ids,
    unsorted and possibly repeated; a quarter of the blocks may hold a
    repeated vertex or one outside the item's vertices."""
    num_vertices = draw(st.sampled_from([0, 0, width, width + 1, width + 3, LARGE]))
    if num_vertices < width:
        return num_vertices, np.empty((0, width), dtype=np.int64)
    ids = st.integers(0, min(num_vertices, 8) - 1) | st.integers(num_vertices - 4, num_vertices - 1)
    row = st.lists(ids, min_size=width, max_size=width, unique=True)
    rows = draw(st.lists(row, max_size=5))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []  # repeats
    if rows and width and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
        rows[i][j] = draw(st.sampled_from([num_vertices, -1, rows[i][j - 1]]))
    return num_vertices, np.array(rows, dtype=np.int64).reshape(len(rows), width)


@st.composite
def batch(draw):
    width = draw(st.integers(0, 4))
    return width, draw(st.lists(block(width), max_size=5))


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(batch(), st.sampled_from([np.int64, np.int32, np.uint32]))
def test_build_complexes_equals_build_complex_per_block(case, dtype):
    width, blocks = case
    if dtype is np.uint32 and any((rows < 0).any() for _, rows in blocks):
        return
    sizes = [n for n, _ in blocks]
    rows = np.concatenate([rows for _, rows in blocks] or [np.empty((0, width))]).astype(dtype)
    starts = np.cumsum([0] + [len(r) for _, r in blocks])
    alone = [outcome(lambda: build_complex(r.astype(dtype), n)) for n, r in blocks]
    refusals = [a for a in alone if isinstance(a, str)]
    together = outcome(lambda: build_complexes(rows, starts, sizes))
    if refusals:
        assert together == refusals[0]
        return
    assert len(together) == len(alone)
    for got, want in zip(together, alone):
        assert got == want and got.dim == want.dim
        for k in range(want.dim + 1):
            assert got.vertex_array(k).dtype == np.intp and not got.vertex_array(k).flags.writeable


def test_build_complexes_shares_arrays_between_items():
    rows = np.array([[0, 1], [1, 2], [2, 1], [1, 0]])
    first, empty, last = build_complexes(rows, [0, 2, 2, 4], [3, 2, 3])
    assert first == last == build_complex([(0, 1), (1, 2)], 3)
    assert empty == build_complex([], 2) and empty.dim == 0
    assert np.shares_memory(first.vertex_array(0), last.vertex_array(0))
    assert first.vertex_array(1).base is last.vertex_array(1).base is not None


def test_build_complexes_names_the_first_malformed_block():
    rows = np.array([[0, 1], [1, 1], [0, 3]])
    message = "degenerate simplex [1 1]: repeated vertex"
    assert outcome(lambda: build_complexes(rows, [0, 1, 2, 3], [2, 2, 3])) == message
    assert outcome(lambda: build_complex(rows[1:2], 2)) == message


def reference_path(points):
    """One path's complex, embedding and chain, built path by path."""
    order = np.lexsort(points.T[::-1])
    rank = np.empty(len(points), dtype=np.intp)
    rank[order] = np.arange(len(points))
    complex_ = build_complex([tuple(sorted(step)) for step in zip(rank[:-1], rank[1:])],
                             len(points))
    edges = complex_.simplices(1)
    terms = [(edges.index(tuple(sorted((a, b)))), 1.0 if a < b else -1.0)
             for a, b in zip(rank[:-1], rank[1:])]
    return complex_, Embedding(points[order]), ChainTuple((Chain(1, terms),))


@settings(max_examples=200)
@given(st.integers(0, 4), st.integers(2, 6), st.integers(1, 3), st.data())
def test_embedded_paths_equals_embedded_path_per_path(count, length, n, data):
    # few distinct values, so points tie in some coordinates and repeat whole
    values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
    flat = data.draw(st.lists(values, min_size=count * length * n, max_size=count * length * n))
    stack = np.array(flat).reshape(count, length, n)
    together = embedded_paths(stack)
    assert len(together) == count
    for i, (complex_, embedding, chains) in enumerate(together):
        alone = embedded_path(stack[i])
        assert (complex_, embedding, chains) == alone == reference_path(stack[i])
    if count > 1:
        assert together[0][2].used is together[1][2].used
