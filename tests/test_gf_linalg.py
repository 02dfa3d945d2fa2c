import itertools

import numpy as np
import pytest

from cosetlab.errors import CapExceededError
from cosetlab import gf_linalg
from cosetlab.gf_linalg import (FieldSpec, GfVector, LinearMap, coset_array, matvec,
                                solve_affine, stack_maps)

F2 = FieldSpec(2)
F5 = FieldSpec(5)


def test_field_spec_rejects_composites():
    for q in (1, 4, 6, 258, 0):
        with pytest.raises(ValueError):
            FieldSpec(q)
    for q in (2, 3, 5, 7, 251, 257):
        assert FieldSpec(q).q == q


def test_field_inverses_exhaustive():
    for q in (2, 3, 5, 7):
        f = FieldSpec(q)
        for a in range(1, q):
            assert (a * f.inv(a)) % q == 1


def test_vector_validation():
    with pytest.raises(ValueError):
        GfVector(F2, (0, 2))
    v = GfVector(F2, (1, 0, 1))
    assert len(v) == 3 and v[0] == 1


def test_matvec_identity():
    ident = LinearMap.identity(F2, 3)
    x = GfVector(F2, (1, 0, 1))
    assert matvec(ident, x) == x


def test_matvec_row_sums_mod_2():
    a = LinearMap(F2, ((1, 1, 0), (0, 1, 1)))
    assert matvec(a, GfVector(F2, (1, 1, 1))).entries == (0, 0)


def test_matvec_gf5_direct_arithmetic():
    a = LinearMap(F5, ((2, 3),))
    x = GfVector(F5, (4, 1))
    assert matvec(a, x).entries == ((2 * 4 + 3 * 1) % 5,)


def test_matvec_mismatches():
    a = LinearMap(F2, ((1, 0),))
    with pytest.raises(ValueError):
        matvec(a, GfVector(F2, (1, 0, 1)))
    with pytest.raises(ValueError):
        matvec(a, GfVector(F5, (1, 0)))


def test_solve_identity_singleton():
    sol = solve_affine(LinearMap.identity(F2, 2), GfVector(F2, (1, 0)))
    assert not sol.is_empty and sol.size == 1
    assert coset_array(sol).tolist() == [[1, 0]]


def test_solve_kernel_coset_against_enumeration():
    a = LinearMap(F2, ((1, 1, 0), (0, 1, 1)))
    sol = solve_affine(a, GfVector(F2, (0, 0)))
    got = sorted(tuple(row) for row in coset_array(sol).tolist())
    # oracle: enumerate all 8 vectors
    want = sorted(x for x in itertools.product(range(2), repeat=3)
                  if ((x[0] + x[1]) % 2, (x[1] + x[2]) % 2) == (0, 0))
    assert got == want == [(0, 0, 0), (1, 1, 1)]


def test_solve_inconsistent():
    a = LinearMap(F2, ((1, 1), (1, 1)))
    sol = solve_affine(a, GfVector(F2, (0, 1)))
    assert sol.is_empty and sol.size == 0
    assert coset_array(sol).shape == (0, 2)


def test_rank_examples():
    assert LinearMap.zeros(F2, 2, 3).rank == 0
    assert LinearMap(F2, ((1, 1, 0), (0, 1, 1))).rank == 2
    assert LinearMap.identity(F5, 4).rank == 4


def test_map_is_row_reduced_once(monkeypatch):
    row_reduce = gf_linalg._row_reduce
    calls = []

    def counted(arr, field):
        calls.append(arr.shape)
        return row_reduce(arr, field)

    monkeypatch.setattr(gf_linalg, "_row_reduce", counted)
    a = LinearMap(FieldSpec(3), ((1, 2, 0, 1), (2, 1, 0, 2)))
    assert a.rank == 1
    assert a.solver().solve(GfVector(FieldSpec(3), (1, 2))).size == 27
    assert a.rank == 1
    assert calls == [(2, 4)]


def test_coset_members_satisfy_constraint():
    rng = np.random.default_rng(3)
    for q in (2, 3):
        f = FieldSpec(q)
        a = LinearMap.from_array(f, rng.integers(0, q, size=(2, 4)))
        c = GfVector.from_array(f, rng.integers(0, q, size=2))
        sol = solve_affine(a, c)
        if sol.is_empty:
            continue
        assert sol.size == q ** (4 - a.rank)
        members = coset_array(sol)
        assert len(members) == sol.size
        for row in members:
            assert matvec(a, GfVector.from_array(f, row)) == c


def test_cosets_partition_the_space():
    for q, l, n in ((2, 2, 4), (3, 2, 3)):
        f = FieldSpec(q)
        a = LinearMap.from_array(f, np.random.default_rng(q * 10 + l).integers(0, q, (l, n)))
        total = 0
        seen = set()
        for x in itertools.product(range(q), repeat=n):
            c = matvec(a, GfVector(f, x))
            if c.entries in seen:
                continue
            seen.add(c.entries)
            total += solve_affine(a, c).size
        assert total == q ** n


def test_matvec_linearity_random_triples():
    rng = np.random.default_rng(11)
    for q in (2, 3, 5, 7):
        f = FieldSpec(q)
        for _ in range(20):
            a = LinearMap.from_array(f, rng.integers(0, q, size=(3, 5)))
            x = GfVector.from_array(f, rng.integers(0, q, size=5))
            y = GfVector.from_array(f, rng.integers(0, q, size=5))
            assert matvec(a, x + y) == matvec(a, x) + matvec(a, y)


def test_enumeration_cap():
    a = LinearMap.zeros(F2, 1, 10)  # kernel is the whole space, 1024 members
    sol = solve_affine(a, GfVector(F2, (0,)))
    with pytest.raises(CapExceededError):
        coset_array(sol, cap=512)
    assert coset_array(sol).shape == (1024, 10)


def _listed_coset(sol):
    # reference order: coefficient tuples counted with the first basis vector most significant
    q, part = sol.field.q, np.array(sol.particular.entries)
    basis = [np.array(b.entries) for b in sol.null_basis]
    return [tuple(int(e) for e in (part + sum(c * b for c, b in zip(coeffs, basis))) % q)
            for coeffs in itertools.product(range(q), repeat=len(basis))]


def test_coset_array_matches_enumeration_order():
    a = LinearMap(F2, ((1, 0, 1, 1), (0, 1, 1, 0)))
    sol = solve_affine(a, GfVector(F2, (1, 1)))
    arr = coset_array(sol)
    assert [tuple(int(e) for e in row) for row in arr] == _listed_coset(sol)
    f3 = FieldSpec(3)
    a3 = LinearMap(f3, ((1, 2, 0), (0, 1, 1)))
    sol3 = solve_affine(a3, GfVector(f3, (2, 1)))
    assert [tuple(int(e) for e in row) for row in coset_array(sol3)] == _listed_coset(sol3)


def test_span_array_row_order():
    # the channel Monte Carlo draws messages from this order, so it is part of
    # the CSV contract: row 3 c0 + c1 is c0 b0 + c1 b1, first basis vector most significant
    basis = np.array([[1, 0, 2, 1], [0, 1, 1, 2]], dtype=np.int64)
    expected = [[(c0 * b0 + c1 * b1) % 3 for b0, b1 in zip(*basis)]
                for c0 in range(3) for c1 in range(3)]
    assert gf_linalg.span_array(basis, 3).tolist() == expected
    assert gf_linalg.span_array(np.zeros((0, 4), dtype=np.int64), 3).tolist() == [[0] * 4]


def test_word_table_counts_in_index_order():
    table = gf_linalg.word_table(3, 3)
    assert table.tolist() == [list(reversed(w)) for w in itertools.product(range(3), repeat=3)]
    assert np.array_equal(table @ 3 ** np.arange(3), np.arange(27))
    assert np.array_equal(gf_linalg.word_table(3, 3, 5, 40), table[5:])  # stop clipped to 27
    assert gf_linalg.word_table(1, 4).tolist() == [[0] * 4]  # base 1 has one word


def test_zero_row_map():
    z = LinearMap(F2, (), cols=3)
    assert z.rank == 0 and z.rows == 0 and z.cols == 3
    assert matvec(z, GfVector(F2, (1, 0, 1))).entries == ()
    sol = solve_affine(z, GfVector(F2, ()))
    assert sol.size == 8  # vacuous constraint


def test_stack_maps():
    a = LinearMap(F2, ((1, 0, 1),))
    b = LinearMap(F2, ((0, 1, 1),))
    stacked = stack_maps([a, b])
    assert stacked.rows == 2 and stacked.rank == 2
    z = LinearMap(F2, (), cols=3)
    assert stack_maps([z, a]).rows == 1


def test_entries_are_immutable():
    a = LinearMap(F2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        a.as_array()[0, 0] = 0
