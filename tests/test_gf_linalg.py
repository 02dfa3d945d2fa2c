import dataclasses
import gc
import itertools
import math
import pathlib
import re
import weakref

import numpy as np
import pytest

from cosetlab import channel_codec as cc
from cosetlab import crng_sampler as crng
from cosetlab import ensembles as ens
from cosetlab import gf_linalg
from cosetlab import sources_channels as sc
from cosetlab import sw_codec as sw
from cosetlab.errors import CapExceededError
from cosetlab.gf_linalg import (FieldSpec, GfVector, LinearMap, coset_array, matvec,
                                solve_affine, stack_maps, word_table)

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


def test_enumeration_cap(monkeypatch):
    a = LinearMap.zeros(F2, 1, 10)  # kernel is the whole space, 1024 members
    sol = solve_affine(a, GfVector(F2, (0,)))
    with monkeypatch.context() as patch:
        patch.setattr(gf_linalg, "COSET_ENUMERATION_CAP", 512)
        with pytest.raises(CapExceededError):
            coset_array(sol)
    assert coset_array(sol).shape == (1024, 10)


def _listed_coset(sol):
    # reference order: coefficient tuples counted with the first basis vector most significant
    q, part = sol.field.q, np.array(sol.particular.entries)
    basis = list(sol.solver.basis)
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


# (13, 2, 3) has digit sums up to 432, above the uint8 code type; (17, 2, 2)
# has 289 codes, so a uint16 table
@pytest.mark.parametrize("q, rows, n", [(2, 2, 5), (3, 2, 3), (3, 0, 3), (13, 2, 3), (17, 2, 2)])
def test_segments_is_a_stable_sort_by_the_image(q, rows, n):
    rng = np.random.default_rng(q + rows)
    a = LinearMap.from_array(FieldSpec(q), rng.integers(0, q, (rows, n)))
    words = rng.permutation(word_table(q, n))
    # the image code weighs row r by q^r, so the last row of A x is the first key
    keys = [tuple(int(v) for v in (a.as_array() @ w) % q)[::-1] for w in words]
    order = sorted(range(len(words)), key=keys.__getitem__)  # sorted() is stable
    sorted_keys = [keys[i] for i in order]
    distinct = sorted(set(keys))
    got, segment, starts = gf_linalg.segments(words, a)
    assert got.tolist() == order
    assert segment.tolist() == [distinct.index(k) for k in sorted_keys]
    assert starts.tolist() == [sorted_keys.index(k) for k in distinct]


# six maps take the float64 product; a stack of more rows than GF(q)^n has words
# (duplicate rows certain) gathers each row's digits, over every word or the light
# ones; l = 0 has no rows, so its large stack takes the product too
@pytest.mark.parametrize("q, rows, n, count, light", [
    (13, 2, 3, 6, False), (17, 2, 2, 6, False), (2, 3, 4, 6, False), (3, 0, 3, 6, False),
    (2, 3, 4, 40, False), (2, 3, 4, 40, True), (3, 2, 3, 30, False), (3, 2, 3, 30, True),
    (5, 2, 2, 40, False), (5, 1, 2, 90, True), (3, 0, 3, 40, False),
], ids=["13-2-3", "17-2-2", "2-3-4", "3-0-3", "gather-gf2", "gather-gf2-light", "gather-gf3",
        "gather-gf3-light", "gather-gf5", "gather-gf5-one-row-light", "no-rows-40"])
def test_image_codes_match_a_per_member_reference(monkeypatch, q, rows, n, count, light):
    rng = np.random.default_rng(q + rows + n)
    maps = rng.integers(0, q, (count, rows, n))
    maps[0] = q - 1  # the largest digit sums, n (q-1)^2
    maps[-1] = maps[0]  # a repeated member
    words = rng.permutation(word_table(q, n))
    if light:
        words = words[np.count_nonzero(words, axis=1) <= 1]
    gather = count * rows > q ** n
    tables = []
    monkeypatch.setattr(gf_linalg, "word_table",
                        lambda *args: tables.append(args) or word_table(*args))
    row_entries = max(len(words) * rows, 1)
    monkeypatch.setattr(gf_linalg, "CHUNK_ENTRIES", 2 * row_entries)
    assert len(list(gf_linalg.chunks(len(maps), row_entries))) == -(-count // 2) >= 3
    ref = np.zeros((len(maps), len(words)), dtype=np.int64)
    for b, m in enumerate(maps):
        for r in range(rows):
            ref[b] += (m[r] @ words.T) % q * q ** r
    codes = gf_linalg.image_codes(maps, q, words)
    assert codes.dtype == np.min_scalar_type(q ** rows - 1)
    assert codes.tolist() == ref.tolist()
    assert (tables == [(q, n)]) == gather  # the gather path reads every row's digits
    assert gf_linalg.image_codes(maps, q, words[:0]).shape == (len(maps), 0)


@pytest.mark.parametrize("count", [0, 3, 25])
def test_chunks_cover_every_row_once_in_order(monkeypatch, count):
    monkeypatch.setattr(gf_linalg, "CHUNK_ENTRIES", 40)
    slices = list(gf_linalg.chunks(count, 4))  # 10 rows a step
    assert [i for s in slices for i in range(s.start, s.stop)] == list(range(count))
    assert all(s.stop - s.start == 10 for s in slices[:-1])
    assert [s.stop - s.start for s in gf_linalg.chunks(count, 41)] == [1] * count


def count_kernel_spans(monkeypatch):
    spans = []
    real = gf_linalg.span_array

    def counting(basis, q):
        spans.append(len(basis))
        return real(basis, q)

    monkeypatch.setattr(gf_linalg, "span_array", counting)
    return spans


def test_one_kernel_serves_every_coset_of_a_solver(monkeypatch):
    spans = count_kernel_spans(monkeypatch)
    solver = LinearMap(FieldSpec(3), ((1, 2, 0, 1), (0, 1, 1, 2))).solver()
    for c in ((0, 0), (1, 2), (2, 1)):
        assert coset_array(solver.solve(GfVector(FieldSpec(3), c))).shape == (9, 4)
    assert spans == [2]


def test_one_kernel_serves_every_decode(monkeypatch):
    spans = count_kernel_spans(monkeypatch)
    codec = sw.SwCodec(LinearMap(F2, ((1, 1, 0, 1), (0, 1, 1, 1))), sc.make_dsbs(0.1))
    for c in ((0, 0), (1, 0), (0, 1)):
        sw.decode_map(codec, GfVector(F2, c), (0, 1, 1, 0))
    assert spans == [2]


def test_one_kernel_serves_every_exact_encode(monkeypatch):
    channel = sc.make_bsc(0.1)
    rng = np.random.default_rng(4)
    swc = sw.SwCodec(LinearMap.from_array(F2, rng.integers(0, 2, (2, 6))),
                     sc.joint_from_channel(np.full(2, 0.5), channel))
    codec = cc.build(swc, LinearMap.from_array(F2, rng.integers(0, 2, (2, 6))), channel, seed=1)
    m = matvec(codec.b_map, swc.solver.solve(codec.syndrome).particular)  # a consistent message
    spans = count_kernel_spans(monkeypatch)
    for seed in range(3):
        assert cc.encode(codec, m, seed=seed) is not None
    assert spans == []  # an exact encode reads the code's held coset, not a kernel


def test_kernel_is_freed_with_its_map():
    gc.disable()  # no cycle collector: only reference counts can free the kernel
    try:
        a = LinearMap(F2, ((1, 1, 0, 1), (0, 1, 1, 1)))
        codec = sw.SwCodec(a, sc.make_dsbs(0.1))
        kernel = weakref.ref(codec.solver.kernel)
        del codec, a
        assert kernel() is None
    finally:
        gc.enable()


def test_one_cap_reaches_every_enumeration(monkeypatch):
    monkeypatch.setattr(gf_linalg, "COSET_ENUMERATION_CAP", 4)
    a = LinearMap(F2, ((1, 1, 0, 0, 0),))  # cosets of 16 members
    codec = sw.SwCodec(a, sc.make_dsbs(0.1))
    with pytest.raises(CapExceededError):
        sw.decode_map(codec, GfVector(F2, (0,)), (0,) * 5)
    with pytest.raises(CapExceededError):
        sw.error_probability(codec, "mc", trials=10, seed=0)
    dist = crng.ConstrainedDistribution(np.array([0.5, 0.5]),
                                        crng.ConstraintSet(((a, GfVector(F2, (1,))),)))
    with pytest.raises(CapExceededError, match="mcmc"):
        crng.draw(dist, 0)
    with pytest.raises(CapExceededError):
        coset_array(solve_affine(a, GfVector(F2, (1,))))
    with pytest.raises(CapExceededError):
        ens.kernel_min_weight(a)
    # the exact SW error sums over every word and needs no kernel
    assert sw.error_probability(codec, "exact").mode == "exact"


def test_chunk_rule_and_coset_cap_are_named_in_one_place():
    # every exhaustive block is sized by gf_linalg.chunks and every coset is
    # capped where its kernel is enumerated, so neither rule can be forked
    src = pathlib.Path(gf_linalg.__file__).resolve().parent

    def naming(name):
        return sorted(p.name for p in src.glob("*.py") if name in p.read_text())

    assert naming("CHUNK_ENTRIES") == ["gf_linalg.py"]
    assert naming("COSET_ENUMERATION_CAP") == ["crng_sampler.py", "gf_linalg.py"]


def test_the_package_holds_no_module_level_mutable_state():
    # state belongs to the objects that callers create, never to a module
    src = pathlib.Path(gf_linalg.__file__).resolve().parent
    assert [p.name for p in src.glob("*.py")
            if re.search(r"^\s*global\s", p.read_text(), re.MULTILINE)] == []


def _decode_y(y):
    codec = sw.SwCodec(LinearMap(F2, ((1, 1, 0),)), sc.make_dsbs(0.1))
    return sw.decode_map(codec, GfVector(F2, (0,)), y)


@pytest.mark.parametrize("make, what", [
    pytest.param(lambda: GfVector(F2, (1.7, 0.2)), "vector entries", id="GfVector"),
    pytest.param(lambda: GfVector.from_array(F2, [2.9, -0.5]), "vector entries",
                 id="GfVector.from_array"),
    pytest.param(lambda: LinearMap(F2, ((1.5, 0.0),)), "matrix entries", id="LinearMap"),
    pytest.param(lambda: LinearMap.from_array(F2, np.array([[1.0, 0.5]])), "matrix entries",
                 id="LinearMap.from_array"),
    pytest.param(lambda: _decode_y((0.9, 1.5, 0.2)), "side information",
                 id="side-information"),
    pytest.param(lambda: GfVector(F2, (math.inf, 0)), "vector entries", id="GfVector-inf"),
    pytest.param(lambda: GfVector(F2, (math.nan, 0)), "vector entries", id="GfVector-nan"),
    pytest.param(lambda: LinearMap.from_array(F2, [[-math.inf, 0.0]]), "matrix entries",
                 id="LinearMap.from_array-inf"),
    pytest.param(lambda: _decode_y((math.inf, 0, 0)), "side information",
                 id="side-information-inf"),
])
def test_non_integral_values_are_refused_not_truncated(make, what):
    with pytest.raises(ValueError, match=f"{what} must be integers"):
        make()


def test_bools_and_numpy_integers_are_accepted():
    assert GfVector(F2, (True, np.int64(1), np.bool_(False))).entries == (1, 1, 0)
    assert GfVector.from_array(F5, np.array([7, -1, 4])).entries == (2, 4, 4)
    assert GfVector.from_array(F2, np.array([True, False])).entries == (1, 0)
    assert LinearMap(F2, ((np.True_, np.int32(3)),)).entries == ((1, 1),)
    assert LinearMap.from_array(F5, np.array([[6.0, -2.0]])).entries == ((1, 3),)


F2_ROWS = ((1, 0, 1), (0, 1, 1))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: LinearMap(F2, F2_ROWS), id="tuple-rows"),
    pytest.param(lambda: LinearMap(F2, [[1, 0, 1], [0, 1, 1]]), id="lists"),
    pytest.param(lambda: LinearMap(F2, np.array([[3, 0, -1], [2, 1, 5]], dtype=np.int32)),
                 id="int32"),
    pytest.param(lambda: LinearMap(F2, np.array([[1, 2, 1], [0, -1, 3]])), id="int64"),
    pytest.param(lambda: LinearMap(F2, np.array(F2_ROWS, dtype=bool)), id="bool"),
    pytest.param(lambda: LinearMap(F2, np.array([[1.0, 4.0, -1.0], [2.0, 3.0, 1.0]])),
                 id="integral-float"),
    pytest.param(lambda: LinearMap(F2, F2_ROWS, cols=3), id="cols"),
    pytest.param(lambda: LinearMap.from_array(F2, np.array(F2_ROWS)), id="from_array"),
])
def test_every_input_form_gives_one_map(make):
    a, ref = make(), LinearMap.from_array(F2, np.array(F2_ROWS))
    assert a == ref and hash(a) == hash(ref)
    assert a.entries == F2_ROWS and (a.rows, a.cols) == (2, 3)
    arr = a.as_array()
    assert arr.dtype == np.int64 and not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[0, 0] = 0


def test_identity_zeros_and_zero_row_maps_are_the_same_form():
    assert LinearMap.identity(F5, 3) == LinearMap(F5, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert LinearMap.zeros(F2, 2, 3) == LinearMap(F2, [[0, 0, 0], [0, 0, 0]])
    empty = LinearMap(F2, (), cols=3)
    assert empty == LinearMap.zeros(F2, 0, 3) == LinearMap.from_array(F2, np.zeros((0, 3)))
    assert hash(empty) == hash(LinearMap.zeros(F2, 0, 3))
    assert empty != LinearMap(F2, (), cols=4) and empty != LinearMap(FieldSpec(3), (), cols=3)
    assert (empty.rows, empty.cols, empty.entries) == (0, 3, ())
    for a in (LinearMap.identity(F5, 3), LinearMap.zeros(F2, 2, 3), empty):
        assert a.as_array().dtype == np.int64 and not a.as_array().flags.writeable


@pytest.mark.parametrize("make, message", [
    # 1.5 and inf: test_non_integral_values_are_refused_not_truncated
    pytest.param(lambda: LinearMap.from_array(F2, [[0.0, math.nan]]),
                 "matrix entries must be integers", id="nan"),
    pytest.param(lambda: LinearMap(F2, ()), "no rows needs an explicit column count",
                 id="zero-rows"),
    pytest.param(lambda: LinearMap(F2, [], cols=0), "no rows needs an explicit column count",
                 id="zero-rows-zero-cols"),
    pytest.param(lambda: LinearMap(F2, ((1, 0),), cols=3), "cols inconsistent", id="cols"),
    pytest.param(lambda: LinearMap(F2, ((1, 0), (1,))), "inhomogeneous", id="ragged"),
    pytest.param(lambda: LinearMap(F2, (1, 0, 1)), "expected a 2-d array", id="1-d"),
    pytest.param(lambda: LinearMap.from_array(F2, np.zeros((1, 2, 2), dtype=np.int64)),
                 "expected a 2-d array", id="3-d"),
])
def test_map_refusals_keep_their_messages(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_a_map_holds_its_array_and_no_rows():
    a = LinearMap(F2, F2_ROWS)
    assert list(vars(a).values()) == [F2, a.as_array()]  # the field and the one array
    assert a.rank == 2 and a.solver() is a.solver()  # the reduction and solver are cached
    assert not any(isinstance(v, tuple) for v in vars(a).values())  # no tuple of rows
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.field = F5
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.entries = F2_ROWS


def test_stack_maps_stacks_the_arrays():
    rng = np.random.default_rng(5)
    top, bottom = rng.integers(0, 5, (2, 6)), rng.integers(0, 5, (3, 6))
    stacked = stack_maps([LinearMap.from_array(F5, top), LinearMap.from_array(F5, bottom),
                          LinearMap(F5, (), cols=6)])
    assert stacked == LinearMap.from_array(F5, np.vstack([top, bottom]))
    assert not stacked.as_array().flags.writeable
    for maps in ([LinearMap(F5, top), LinearMap(F5, top[:, :5])],
                 [LinearMap(F5, top), LinearMap(FieldSpec(3), top)]):
        with pytest.raises(ValueError, match="share field and column count"):
            stack_maps(maps)


@pytest.mark.parametrize("q, rows", [(2, ((1, 0, 1, 1), (0, 1, 1, 0))),
                                     (3, ((1, 2, 0, 1), (2, 1, 0, 2))),
                                     (5, ((0, 0, 0),))])
def test_solver_basis_is_one_read_only_array(q, rows):
    solver = LinearMap(FieldSpec(q), rows).solver()
    basis = solver.basis
    assert basis.dtype == np.int64 and not basis.flags.writeable
    assert basis.shape == (len(rows[0]) - solver.rank, len(rows[0]))
    assert np.array_equal(gf_linalg.span_array(basis, q), solver.kernel)
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 1
    sol = solver.solve(GfVector(FieldSpec(q), (0,) * len(rows)))
    assert "null_basis" not in {f.name for f in dataclasses.fields(sol)}
