"""Exact linear algebra over prime fields GF(q).

Everything downstream (syndrome codes, cosets, constrained samplers)
reduces to residue arithmetic mod a prime q.  Vectors and matrices are
immutable.  A matrix is one read-only int64 array of residues; it
row-reduces itself once, on the first use of its rank or its solver, and
keeps that reduction, so its rank, its kernel basis (one read-only array)
and the solutions of many right-hand sides all come from one elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceededError

# Cosets larger than this are never enumerated; MCMC draws need no enumeration.
COSET_ENUMERATION_CAP = 2 ** 16

# Exhaustive enumerations build their temporaries this many entries at a
# time (about 1 MB of float64), so peak memory stays flat as tables grow.
CHUNK_ENTRIES = 2 ** 17


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for d in range(2, int(m ** 0.5) + 1):
        if m % d == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Prime field GF(q), 2 <= q <= 257."""

    q: int

    def __post_init__(self):
        if not (2 <= self.q <= 257) or not _is_prime(self.q):
            raise ValueError(f"field modulus must be a prime in [2, 257], got {self.q}")

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, self.q - 2, self.q)


def checked_ints(values, what: str) -> tuple:
    """``values`` as a tuple of ints (bools and numpy integers pass); a ValueError
    naming ``what`` if one is not integral (1.5, inf or nan), so none is truncated."""
    values = tuple(values.tolist() if isinstance(values, np.ndarray) else values)
    try:
        ints = tuple(map(int, values))
    except (OverflowError, ValueError):  # int() of inf and of nan
        ints = None
    if ints != values:
        raise ValueError(f"{what} must be integers, got {values!r}")
    return ints


@dataclass(frozen=True)
class GfVector:
    """Immutable vector of residues mod q.

    Zero-length vectors are allowed: a matrix with no rows produces an
    empty syndrome (a vacuous constraint).
    """

    field: FieldSpec
    entries: tuple

    def __post_init__(self):
        ent = checked_ints(self.entries, "vector entries")
        q = self.field.q
        if any(not 0 <= e < q for e in ent):
            raise ValueError("vector entries must be residues in [0, q)")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_array(cls, field: FieldSpec, arr) -> "GfVector":
        """The vector of ``arr``'s entries mod q, checked once: an integer array
        needs no check, and mod q leaves residues."""
        arr = np.asarray(arr)
        if arr.ndim != 1:
            raise ValueError("expected a 1-d array")
        if arr.dtype.kind in "biu":
            entries = tuple((arr % field.q).tolist())
        else:
            entries = tuple(v % field.q for v in checked_ints(arr, "vector entries"))
        vec = object.__new__(cls)
        object.__setattr__(vec, "field", field)
        object.__setattr__(vec, "entries", entries)
        return vec

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __add__(self, other: "GfVector") -> "GfVector":
        if self.field != other.field or len(self) != len(other):
            raise ValueError("field or length mismatch")
        q = self.field.q
        return GfVector(self.field, tuple((a + b) % q for a, b in zip(self.entries, other.entries)))


def _row_reduce(arr: np.ndarray, field: FieldSpec):
    """Full RREF of ``arr`` with the transform applied to an identity.

    Returns (rref, transform, pivot_cols) with transform @ arr == rref
    (mod q).  Pivot rows come first; remaining rows of rref are zero.
    The elimination runs once on the augmented array [arr | I], so each
    pivot takes one swap, one scaling and one outer-product update.
    """
    q = field.q
    rows, cols = arr.shape
    a = np.hstack([arr.astype(np.int64) % q, np.eye(rows, dtype=np.int64)])
    pivots = []
    r = 0
    for col in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = (a[r] * field.inv(int(a[r, col]))) % q
        factors = a[:, col].copy()
        factors[r] = 0
        a = (a - np.outer(factors, a[r])) % q
        pivots.append(col)
        r += 1
    return a[:, :cols], a[:, cols:], pivots


@dataclass(frozen=True, eq=False, init=False, repr=False)
class LinearMap:
    """An l x n matrix over GF(q): one read-only int64 array of residues, row-reduced
    once, by its solver, on the first use of its rank or solver.

    ``entries`` are rows of integers or an array.  Integer and bool entries are
    reduced mod q as they are; any others are checked once to be integral, so
    1.5, inf and nan are refused, not truncated.  An empty sequence of rows
    needs ``cols``.
    """

    field: FieldSpec

    def __init__(self, field: FieldSpec, entries, cols: Optional[int] = None):
        arr = np.asarray(entries)  # ragged rows are numpy's ValueError
        if arr.shape == (0,):
            if cols is None or cols < 1:
                raise ValueError("a matrix with no rows needs an explicit column count")
            arr = np.zeros((0, cols), dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        if cols is not None and cols != arr.shape[1]:
            raise ValueError("cols inconsistent with entries")
        if arr.dtype.kind in "biu":
            arr = (arr % field.q).astype(np.int64, copy=False)
        else:
            ints = checked_ints(arr.ravel(), "matrix entries")
            arr = np.array([v % field.q for v in ints], dtype=np.int64).reshape(arr.shape)
        arr.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_arr", arr)

    @classmethod
    def from_array(cls, field: FieldSpec, arr) -> "LinearMap":
        return cls(field, arr)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "LinearMap":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "LinearMap":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return self._arr.shape[0]

    @property
    def cols(self) -> int:
        return self._arr.shape[1]

    @property
    def entries(self) -> tuple:
        """The rows as tuples of ints, computed from the array."""
        return tuple(map(tuple, self._arr.tolist()))

    @property
    def rank(self) -> int:
        return self.solver().rank

    def as_array(self) -> np.ndarray:
        return self._arr

    def solver(self) -> "AffineSolver":
        return self._solver

    @cached_property
    def _solver(self) -> "AffineSolver":
        return AffineSolver(self)

    def __eq__(self, other):
        return (isinstance(other, LinearMap) and self.field == other.field
                and np.array_equal(self._arr, other._arr))

    def __hash__(self):
        return hash((self.field, self._arr.shape, self._arr.tobytes()))

    def __repr__(self):
        return f"LinearMap({self.field!r}, {self.entries!r}, cols={self.cols})"


@dataclass(frozen=True)
class AffineSolution:
    """Solution set of A x = c: a particular solution and its solver.

    ``particular is None`` marks an inconsistent (empty) system.  When
    non-empty, the coset is particular + span(solver.basis) and has exactly
    q^(n - rank) members.  Every solution shares its solver's kernel.
    """

    field: FieldSpec
    n: int
    particular: Optional[GfVector]
    solver: "AffineSolver"

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def size(self) -> int:
        return 0 if self.is_empty else self.solver.kernel_size


class AffineSolver:
    """Solves A x = c for many right-hand sides from the map's one elimination.

    ``basis`` is the kernel's basis, a read-only (n - rank, n) array with a 1 in
    each free column, in column order.  The solver keeps A's row count, not A:
    a map and its cached solver form no cycle."""

    def __init__(self, a: LinearMap):
        self.field = a.field
        self.n = a.cols
        self.rows = a.rows
        rref, self._transform, pivots = _row_reduce(a.as_array(), a.field)
        self._pivots = pivots
        self.rank = len(pivots)
        free = [c for c in range(a.cols) if c not in pivots]
        basis = np.zeros((len(free), a.cols), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = (-rref[:len(pivots), free].T) % a.field.q
        basis.flags.writeable = False
        self.basis = basis
        self.kernel_size = a.field.q ** len(free)
        self._kernel = None

    @property
    def kernel(self) -> np.ndarray:
        """span(basis) as a read-only (kernel_size, n) array in :func:`span_array`
        row order, enumerated on first use; CapExceededError above the coset cap."""
        if self.kernel_size > COSET_ENUMERATION_CAP:
            raise CapExceededError(f"coset of size {self.kernel_size} is too large to "
                                   f"enumerate (cap {COSET_ENUMERATION_CAP})")
        if self._kernel is None:
            self._kernel = span_array(self.basis, self.field.q)
            self._kernel.flags.writeable = False
        return self._kernel

    def solve(self, c: GfVector) -> AffineSolution:
        if len(c) != self.rows or c.field != self.field:
            raise ValueError("right-hand side does not match the matrix")
        t = (self._transform @ c.as_array()) % self.field.q
        if np.any(t[self.rank:]):
            return AffineSolution(self.field, self.n, None, self)
        x = np.zeros(self.n, dtype=np.int64)
        for j, p in enumerate(self._pivots):
            x[p] = t[j]
        return AffineSolution(self.field, self.n, GfVector.from_array(self.field, x), self)


def matvec(a: LinearMap, x: GfVector) -> GfVector:
    """A x mod q.  Dimensions and fields must match."""
    if a.field != x.field:
        raise ValueError("field mismatch")
    if a.cols != len(x):
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} map, length-{len(x)} vector")
    out = (a.as_array() @ x.as_array()) % a.field.q
    return GfVector.from_array(a.field, out)


def solve_affine(a: LinearMap, c: GfVector) -> AffineSolution:
    """Solution set of A x = c (empty marker when inconsistent)."""
    return a.solver().solve(c)


def coset_array(sol: AffineSolution) -> np.ndarray:
    """All coset members as a (size, n) array, (particular + kernel) mod q in the
    row order of the solver's kernel, which checks the coset cap."""
    if sol.is_empty:
        return np.zeros((0, sol.n), dtype=np.int64)
    return (sol.particular.as_array()[None, :] + sol.solver.kernel) % sol.field.q


def span_array(basis: np.ndarray, q: int) -> np.ndarray:
    """Every GF(q) combination of the (d, n) basis rows, as a (q^d, n) array.

    Row i weights the basis by the base-q digits of i, first basis vector
    most significant; with no basis rows the span is the zero word.
    """
    return (word_table(q, basis.shape[0])[:, ::-1] @ basis) % q


def word_table(base: int, n: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """Rows ``start..stop`` (default: all base^n) of the length-n words over range(base).

    Row i holds the base-``base`` digits of i, position 0 least significant,
    so ``row @ base ** arange(n) == i``.  ``stop`` is clipped to base^n.
    """
    total = base ** n
    rem = np.arange(start, total if stop is None else min(stop, total), dtype=np.int64)
    digits = np.empty((rem.size, n), dtype=np.int64)
    for pos in range(n):
        digits[:, pos] = rem % base
        rem //= base
    return digits


def image_codes(maps: np.ndarray, q: int, words: np.ndarray) -> np.ndarray:
    """codes[b, i] = base-q integer of maps[b] @ words[i] mod q (row r weighs q^r).

    ``maps`` is a (count, l, n) stack and ``words`` a (words, n) array, both
    of residues in [0, q).  The table is stored in the narrowest unsigned
    type that holds q^l - 1.  A stack of more rows than GF(q)^n has words
    (an ensemble's members) repeats rows: each row is keyed by its base-q
    index, the digits of every row of ``word_table(q, n)`` against the words
    are computed once, and each block of maps (see :func:`chunks`) gathers
    its rows' digit rows into its codes.  Otherwise (one map, as in
    :func:`segments`) each block of maps takes one float64 product with the
    words, which is exact: every digit sum is an integer of at most
    n (q-1)^2 < 2^53, reduced mod q in an unsigned type that holds it.
    """
    count, l, n = maps.shape
    codes = np.zeros((count, len(words)), dtype=np.min_scalar_type(q ** l - 1))
    if count * l > q ** n:
        # digits[k, i] = word k . words[i] mod q, as the codes of q^n one-row maps
        digits = image_codes(word_table(q, n)[:, None], q, words).astype(codes.dtype)
        keys = maps @ q ** np.arange(n)  # each row's index in word_table(q, n)
        for s in chunks(count, max(len(words) * l, 1)):
            block = codes[s]
            # the keys lie in range; under mode "raise" take would copy through a buffer
            np.take(digits, keys[s, l - 1], axis=0, out=block, mode="clip")
            for r in reversed(range(l - 1)):
                block *= q
                block += digits[keys[s, r]]
        return codes
    sum_type = np.min_scalar_type(n * (q - 1) ** 2)
    words_t = words.T.astype(np.float64)
    for s in chunks(count, max(len(words) * l, 1)):
        digits = (maps[s].reshape(-1, n).astype(np.float64) @ words_t).astype(sum_type)
        digits -= digits // q * q  # mod q; numpy divides by a scalar far faster than it takes %
        digits = digits.reshape(s.stop - s.start, l, len(words))
        block = codes[s]
        for r in reversed(range(l)):
            block *= q
            block += digits[:, r]
    return codes


def segments(words: np.ndarray, a: LinearMap):
    """(order, segment of each sorted word, segment starts): ``words[order]`` are the
    words sorted stably by their :func:`image_codes` under ``a``, so each image A x
    is one segment."""
    codes = image_codes(a.as_array()[None], a.field.q, words)[0]
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return order, np.cumsum(first) - 1, np.flatnonzero(first)


def chunks(count: int, row_entries: int):
    """Slices of rows 0..count in order, max(1, CHUNK_ENTRIES // row_entries) rows
    each, so a block of rows holding row_entries entries each stays near CHUNK_ENTRIES."""
    step = max(1, CHUNK_ENTRIES // row_entries)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def stack_maps(maps: Sequence[LinearMap]) -> LinearMap:
    """Vertically stack maps sharing a field and column count.

    A single map is returned as it is, so its cached reduction and solver carry over.
    """
    if not maps:
        raise ValueError("nothing to stack")
    if len(maps) == 1:
        return maps[0]
    field, cols = maps[0].field, maps[0].cols
    if any(m.field != field or m.cols != cols for m in maps):
        raise ValueError("maps must share field and column count")
    return LinearMap(field, np.vstack([m.as_array() for m in maps]))


def concat_vectors(vectors: Sequence[GfVector], field: FieldSpec) -> GfVector:
    if any(v.field != field for v in vectors):
        raise ValueError(f"cannot join a vector of another field into a GF({field.q}) vector")
    entries = tuple(e for v in vectors for e in v.entries)
    return GfVector(field, entries)
