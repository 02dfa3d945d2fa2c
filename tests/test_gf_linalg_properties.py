"""Property tests for GF(q) linear algebra over q in {2, 3, 5, 7}."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from cosetlab.gf_linalg import (FieldSpec, GfVector, LinearMap, _row_reduce,  # noqa: E402
                                coset_array, matvec, solve_affine, word_table)

SETTINGS = hypothesis.settings(max_examples=40, deadline=None, database=None,
                               derandomize=True)


@st.composite
def maps(draw, max_rows=4, max_cols=6):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return LinearMap(FieldSpec(q), tuple(map(tuple, entries)), cols=cols)


@SETTINGS
@hypothesis.given(maps())
def test_rank_is_pivot_count(a):
    q = a.field.q
    rref, transform, pivots = _row_reduce(a.as_array(), a.field)
    assert a.rank == len(pivots) <= min(a.rows, a.cols)
    assert np.array_equal((transform @ a.as_array()) % q, rref)
    assert not rref[len(pivots):].any()
    for j, col in enumerate(pivots):
        assert np.array_equal(rref[:, col], np.eye(a.rows, dtype=np.int64)[j])


@SETTINGS
@hypothesis.given(maps(), st.data())
def test_coset_rows_solve_the_system(a, data):
    q = a.field.q
    x0 = data.draw(st.lists(st.integers(0, q - 1), min_size=a.cols, max_size=a.cols))
    c = matvec(a, GfVector(a.field, tuple(x0)))
    members = coset_array(solve_affine(a, c))
    assert len(members) == q ** (a.cols - a.rank)
    assert len({tuple(row) for row in members}) == len(members)
    assert np.array_equal((members @ a.as_array().T) % q,
                          np.broadcast_to(c.as_array(), (len(members), a.rows)))


@SETTINGS
@hypothesis.given(maps(max_rows=3, max_cols=5))
def test_rank_counts_the_image(a):
    # q^rank = |{A x : x in GF(q)^n}|, counted without any elimination
    q = a.field.q
    words = word_table(q, a.cols)
    images = {tuple(row) for row in (words @ a.as_array().T) % q}
    assert q ** a.rank == len(images)
